// Outbox -- one message per destination for each atomic step of a DDB host.
//
// The paper's channels are reliable and FIFO, with arbitrary delay.  A
// controller's atomic step (one message receipt, one timer, one client call)
// can send several frames to the same site: a burst of probes, the grants an
// abort frees, a request and the probes that follow it.  Sent one by one,
// each frame is its own transport message: one delay draw and one receive
// event each, and on a FIFO channel every frame waits behind the delay of
// the frame before it.  The outbox collects a step's frames per (from, to)
// lane and hands each lane to the transport once, when the step ends, at
// the step's own instant.  The frames a step sends, and their order on
// each channel, do not change; only their grouping does, and with it the
// timing of later steps.
//
// Steps nest: a grant or abort callback can call back into the host's
// client API, which opens a step of its own.  Only the outermost end
// flushes.  A send outside any step goes out at once.  A lane with one
// frame is sent bare, byte-identical to an unbatched send; two or more go
// as one kBatch envelope (messages.h), which the receiver splits with
// for_each_frame().
//
// The outbox knows nothing of the transport: the host passes a Sink.  Its
// storage is three flat buffers made at the first frame it holds back, so
// constructing one takes no heap block and a warmed-up one allocates
// nothing.
// cmh:hot-path -- every DDB frame passes through here; lint enforces
// zero-alloc.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/block_pool.h"
#include "common/ids.h"
#include "common/serialize.h"

namespace cmh::ddb {

class Outbox {
 public:
  /// Hands one message to the transport.  The view is valid only for the
  /// duration of the call.
  using Sink = std::function<void(SiteId from, SiteId to, BytesView payload)>;

  Outbox(std::uint32_t n_sites, Sink sink);

  Outbox(const Outbox&) = delete;
  Outbox& operator=(const Outbox&) = delete;

  /// Opens a step; steps nest.
  void begin_step() { ++depth_; }
  /// Closes a step; closing the outermost one sends every held-back lane.
  void end_step() {
    if (--depth_ == 0 && first_lane_ != kNoLane) flush();
  }

  /// Sends `frame` (1 to kDdbFrameCapacity bytes) from site `from` to site
  /// `to`: held back until the outermost step ends, or at once outside any
  /// step.
  void send(SiteId from, SiteId to, BytesView frame);

  /// Scopes one step; the destructor closes it even when the step throws,
  /// so frames sent before the throw still go out.
  class Step {
   public:
    explicit Step(Outbox& outbox) : outbox_(outbox) { outbox_.begin_step(); }
    ~Step() { outbox_.end_step(); }
    Step(const Step&) = delete;
    Step& operator=(const Step&) = delete;

   private:
    Outbox& outbox_;
  };

 private:
  static constexpr std::uint32_t kNoLane = 0xFFFFFFFFu;

  // The frames a (from, to) lane holds this step: a chain of records in
  // staged_, and the next lane in first-send order.
  struct Lane {
    std::uint32_t frames{0};
    std::uint32_t head{0};  // offset of the first record in staged_
    std::uint32_t tail{0};  // offset of the last record
    std::uint32_t next{kNoLane};
  };

  void flush();

  std::uint32_t n_sites_;
  Sink sink_;
  std::uint32_t depth_{0};
  // Indexed from * n_sites_ + to; sized at the first held-back frame.
  std::vector<Lane> lanes_;
  // This step's lanes with frames, as a list through Lane::next.
  std::uint32_t first_lane_{kNoLane};
  std::uint32_t last_lane_{kNoLane};
  // This step's frames in send order, each record the offset of the next
  // record of its lane (u32), its length (u8) and the frame.  Pooled
  // (common/block_pool.h): a sweep's step can stage more than 1 KiB.
  PooledVector<std::uint8_t> staged_;
  // Scratch: the envelope of a lane with more than one frame.
  Bytes envelope_;
};

}  // namespace cmh::ddb
