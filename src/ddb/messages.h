// Controller-to-controller wire messages of the DDB model (section 6).
//
// Lock traffic realizes the colored inter-controller edges:
//   RemoteLockRequestMsg  in flight  -- edge grey   (G3 of section 6.4)
//   ... received & queued            -- edge black  (G4)
//   RemoteLockGrantMsg sent          -- edge white  (G5)
//   ... received                     -- edge gone   (G6)
// DdbProbeMsg is the detection traffic of section 6.5.  It names only its
// entry transaction: the edge it travels runs from the wire sender's agent
// of that transaction to the receiver's, so no frame can name an edge other
// than the channel it came on.  It also names its computation's target, so
// the first site whose intra edges lead the walk back to any agent of that
// transaction declares the cycle (DESIGN.md section 4b, note 6).
// PurgeTxnMsg is the deadlock-resolution / commit cleanup channel.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <variant>

#include "common/serialize.h"
#include "common/status.h"
#include "ddb/types.h"

namespace cmh::ddb {

/// C_j forwards a lock request of transaction `txn` to the resource's
/// managing controller.  The wire sender site is the origin of the
/// inter-controller edge ((txn, sender), (txn, receiver)).
struct RemoteLockRequestMsg {
  TransactionId txn;
  ResourceId resource;
  /// Locks txn holds through its home controller as the request leaves
  /// (saturating).  The request blocks txn, so the count stays frozen while
  /// it waits here, and the receiver keys victim election with it
  /// (DESIGN.md section 4f).
  LockCount held{0};
  LockMode mode{LockMode::kRead};
};

/// C_m tells the origin controller that (txn, m) acquired the resource.
struct RemoteLockGrantMsg {
  TransactionId txn;
  ResourceId resource;
  /// False when txn already held the resource at C_m: the grant completes
  /// a read->write upgrade or answers a redundant request, and adds no
  /// lock to the count victim election reads.  The flag rides in the wire
  /// type, so a grant of a new lock keeps its 9-byte frame.
  bool adds_lock{true};
};

/// Drop all local state of `txn` (locks held, queued requests).  Sent at
/// commit (release everything) and at deadlock-resolution abort.
struct PurgeTxnMsg {
  TransactionId txn;
  bool aborted{false};
};

/// Probe of computation `tag`, sent along the inter-controller edge
/// ((txn, sender), (txn, receiver)) (section 6.5).  `floor` is the lowest
/// still-live sequence number of the initiating controller when the
/// computation began; receivers discard state for that initiator's
/// computations below it (the section-4.3 stale-tag rule, generalized to
/// the Q concurrent computations of section 6.7).
struct DdbProbeMsg {
  DdbProbeTag tag;
  std::uint64_t floor{0};
  /// The entry transaction: the probe enters agent (txn, receiver).
  TransactionId txn;
  /// False: acquisition edge -- (txn, sender) awaits a grant from the
  /// receiver; meaningful iff txn has a queued request at the receiver
  /// forwarded from the sender.
  /// True: release-wait edge -- (txn, sender) holds a resource it acquired
  /// on behalf of (txn, receiver) and can only release when that agent's
  /// computation proceeds; meaningful iff txn is blocked at the receiver
  /// (it cannot have committed while blocked, so the holding at the sender
  /// still exists).
  bool via_release_wait{false};
  /// Victim election: the best victim (better_victim(): fewest locks held,
  /// then youngest) among the transactions that wait at an agent on the
  /// path this probe has travelled from the initiator's target, entry
  /// transaction `txn` included.  When the walk closes on the target,
  /// this transaction is declared, so every computation that closes the
  /// same simple cycle aborts the same one.
  TransactionId candidate;
  /// The locks `candidate` held, read where it waits.
  LockCount candidate_held{0};
  /// The transaction whose blocked agent at the initiator the computation
  /// checks.  The walk closes at the first site whose intra-controller
  /// edges lead from the probe's entry agent to any agent of `target`:
  /// deadlock is a property of transactions, so that site declares at once
  /// (DESIGN.md section 4b, note 6).
  TransactionId target;
};

using DdbMessage = std::variant<RemoteLockRequestMsg, RemoteLockGrantMsg,
                                PurgeTxnMsg, DdbProbeMsg>;

/// Wire size of a DdbProbeMsg frame: 1 (type) + 4 (initiator) + 8 (sequence)
/// + 8 (floor) + 4 (txn) + 1 (kind) + 4 (candidate) + 2 (candidate_held)
/// + 4 (target).  Every DDB frame fits.
inline constexpr std::size_t kDdbFrameCapacity = 36;

/// Wire type of a batch envelope: the frames that one atomic step of a site
/// sends to one destination, as this byte followed by (u8 length, frame)
/// pairs in send order.  A host sends a step's lone frame bare and two or
/// more in one envelope (ddb::Outbox), so a receiver splits what arrives
/// with for_each_frame().  An envelope is not a DdbMessage: decode()
/// rejects it.
inline constexpr std::uint8_t kBatch = 6;

/// A stack-encoded frame; view() is valid for the frame's lifetime.  The
/// detection hot path (one probe per inter-controller edge, every round)
/// heap-allocates nothing.
using DdbFrame = StackWriter<kDdbFrameCapacity>;

[[nodiscard]] DdbFrame encode_small(const DdbProbeMsg& m);

/// Any DDB message as a stack frame: the controller's whole send path
/// (requests, grants, purges, probes) encodes without touching the heap.
[[nodiscard]] DdbFrame encode_small(const DdbMessage& msg);

/// Serializes `msg` into `out` (cleared first; capacity retained).
void encode_into(const DdbMessage& msg, Bytes& out);

[[nodiscard]] Bytes encode(const DdbMessage& msg);
[[nodiscard]] Result<DdbMessage> decode(BytesView payload);

/// Appends `frame` to `envelope`, starting the envelope if it is empty.
/// A frame is 1 to kDdbFrameCapacity bytes; any other size throws
/// std::length_error.
void append_to_batch(Bytes& envelope, BytesView frame);

/// Checks the framing of a kBatch envelope: at least one frame, and every
/// length between 1 and kDdbFrameCapacity and inside the payload.
[[nodiscard]] Status check_batch(BytesView envelope);

/// Calls `fn(frame)` for each frame `payload` carries, in send order: the
/// payload itself if it is a bare frame, else every frame of its kBatch
/// envelope.  Returns the first non-ok status `fn` returns.  A malformed
/// envelope is rejected before any of its frames is handed on.
template <typename Fn>
[[nodiscard]] Status for_each_frame(BytesView payload, Fn&& fn) {
  if (payload.empty() || payload.front() != kBatch) return fn(payload);
  if (Status st = check_batch(payload); !st.ok()) return st;
  for (std::size_t at = 1; at < payload.size(); at += 1 + payload[at]) {
    if (Status st = fn(payload.subspan(at + 1, payload[at])); !st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

}  // namespace cmh::ddb
