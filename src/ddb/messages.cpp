// DDB wire codec.  Probes are fixed-size stack frames; decoding a probe is
// one bounds check and unchecked field reads.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#include "ddb/messages.h"

#include <stdexcept>

namespace cmh::ddb {

namespace {
enum WireType : std::uint8_t {
  kLockRequest = 1,
  kLockGrant = 2,
  kPurge = 3,
  kProbe = 4,
  kLockGrantHeld = 5,  // a RemoteLockGrantMsg with adds_lock == false
  // 6 is kBatch (messages.h): an envelope of frames, not a message.
};

template <typename W>
void put_probe(W& w, const DdbProbeMsg& m) {
  w.u8(kProbe);
  w.id(m.tag.initiator);
  w.u64(m.tag.sequence);
  w.u64(m.floor);
  w.id(m.txn);
  w.u8(m.via_release_wait ? 1 : 0);
  w.id(m.candidate);
  w.u16(m.candidate_held);
  w.id(m.target);
}

template <typename W>
void put(W& w, const DdbMessage& msg) {
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RemoteLockRequestMsg>) {
          w.u8(kLockRequest);
          w.id(m.txn);
          w.id(m.resource);
          w.u16(m.held);
          w.u8(static_cast<std::uint8_t>(m.mode));
        } else if constexpr (std::is_same_v<T, RemoteLockGrantMsg>) {
          w.u8(m.adds_lock ? kLockGrant : kLockGrantHeld);
          w.id(m.txn);
          w.id(m.resource);
        } else if constexpr (std::is_same_v<T, PurgeTxnMsg>) {
          w.u8(kPurge);
          w.id(m.txn);
          w.u8(m.aborted ? 1 : 0);
        } else if constexpr (std::is_same_v<T, DdbProbeMsg>) {
          put_probe(w, m);
        }
      },
      msg);
}
}  // namespace

DdbFrame encode_small(const DdbProbeMsg& m) {
  DdbFrame f;
  put_probe(f, m);
  return f;
}

DdbFrame encode_small(const DdbMessage& msg) {
  DdbFrame f;
  put(f, msg);
  return f;
}

void encode_into(const DdbMessage& msg, Bytes& out) {
  Writer w(out);
  w.reserve(kDdbFrameCapacity);
  put(w, msg);
}

Bytes encode(const DdbMessage& msg) {
  Bytes out;
  encode_into(msg, out);
  return out;
}

void append_to_batch(Bytes& envelope, BytesView frame) {
  if (frame.empty() || frame.size() > kDdbFrameCapacity) {
    throw std::length_error("ddb::append_to_batch: frame size out of range");
  }
  if (envelope.empty()) envelope.push_back(kBatch);
  envelope.push_back(static_cast<std::uint8_t>(frame.size()));
  envelope.insert(envelope.end(), frame.begin(), frame.end());
}

Status check_batch(BytesView envelope) {
  if (envelope.size() < 2) {
    return Status{StatusCode::kInvalidArgument, "empty batch"};
  }
  for (std::size_t at = 1; at < envelope.size(); at += 1 + envelope[at]) {
    const std::size_t length = envelope[at];
    if (length == 0 || length > kDdbFrameCapacity) {
      return Status{StatusCode::kInvalidArgument, "bad batched frame length"};
    }
    if (length > envelope.size() - at - 1) {
      return Status{StatusCode::kInvalidArgument, "truncated batch"};
    }
  }
  return Status::Ok();
}

Result<DdbMessage> decode(BytesView payload) {
  Reader r(payload);
  std::uint8_t type = 0;
  if (auto st = r.u8(type); !st.ok()) return st;
  switch (type) {
    case kLockRequest: {
      RemoteLockRequestMsg m;
      std::uint8_t mode = 0;
      if (auto st = r.id(m.txn); !st.ok()) return st;
      if (auto st = r.id(m.resource); !st.ok()) return st;
      if (auto st = r.u16(m.held); !st.ok()) return st;
      if (auto st = r.u8(mode); !st.ok()) return st;
      if (mode > 1) {
        return Status{StatusCode::kInvalidArgument, "bad lock mode"};
      }
      m.mode = static_cast<LockMode>(mode);
      return DdbMessage{m};
    }
    case kLockGrant:
    case kLockGrantHeld: {
      RemoteLockGrantMsg m;
      if (auto st = r.id(m.txn); !st.ok()) return st;
      if (auto st = r.id(m.resource); !st.ok()) return st;
      m.adds_lock = type == kLockGrant;
      return DdbMessage{m};
    }
    case kPurge: {
      PurgeTxnMsg m;
      std::uint8_t aborted = 0;
      if (auto st = r.id(m.txn); !st.ok()) return st;
      if (auto st = r.u8(aborted); !st.ok()) return st;
      m.aborted = aborted != 0;
      return DdbMessage{m};
    }
    case kProbe: {
      // Fixed-size frame: one bounds check, then unchecked field reads.
      if (r.remaining() < kDdbFrameCapacity - 1) {
        return Status{StatusCode::kInvalidArgument, "truncated message"};
      }
      DdbProbeMsg m;
      m.tag.initiator = r.id_unchecked<SiteId>();
      m.tag.sequence = r.u64_unchecked();
      m.floor = r.u64_unchecked();
      m.txn = r.id_unchecked<TransactionId>();
      m.via_release_wait = r.u8_unchecked() != 0;
      m.candidate = r.id_unchecked<TransactionId>();
      m.candidate_held = r.u16_unchecked();
      m.target = r.id_unchecked<TransactionId>();
      return DdbMessage{m};
    }
    default:
      return Status{StatusCode::kInvalidArgument, "unknown ddb message type"};
  }
}

}  // namespace cmh::ddb
