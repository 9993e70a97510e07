// Outbox: per-step batching of DDB frames (see outbox.h).
// cmh:hot-path -- every DDB frame passes through here; lint enforces
// zero-alloc.
#include "ddb/outbox.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "ddb/messages.h"

namespace cmh::ddb {

namespace {
// A staged record: the offset of its lane's next record (u32), the frame's
// length (u8), then the frame.
constexpr std::size_t kRecordHeader = 5;

// First capacity of the staging and envelope buffers: a step's frames
// rarely exceed it, so the buffers seldom grow, and a block this size is
// past the allocator's small-chunk lists (DESIGN.md section 4e).
constexpr std::size_t kInitialBytes = 512;

std::uint32_t next_record(BytesView staged, std::uint32_t record) {
  std::uint32_t next = 0;
  std::memcpy(&next, staged.data() + record, sizeof next);
  return next;
}

BytesView record_frame(BytesView staged, std::uint32_t record) {
  return {staged.data() + record + kRecordHeader, staged[record + 4]};
}
}  // namespace

Outbox::Outbox(std::uint32_t n_sites, Sink sink)
    : n_sites_(n_sites), sink_(std::move(sink)) {}

void Outbox::send(SiteId from, SiteId to, BytesView frame) {
  if (from.value() >= n_sites_ || to.value() >= n_sites_) {
    throw std::out_of_range("ddb::Outbox::send: unknown site");
  }
  if (depth_ == 0) {
    sink_(from, to, frame);
    return;
  }
  if (frame.empty() || frame.size() > kDdbFrameCapacity) {
    throw std::length_error("ddb::Outbox::send: frame size out of range");
  }
  if (lanes_.empty()) {
    lanes_.resize(std::size_t{n_sites_} * n_sites_);
    staged_.reserve(kInitialBytes);
    envelope_.reserve(kInitialBytes);
  }
  const auto record = static_cast<std::uint32_t>(staged_.size());
  staged_.resize(record + kRecordHeader + frame.size());
  // resize() zeroes the new bytes; a lane's last record has no next.
  std::uint8_t* const at = staged_.data() + record;
  at[4] = static_cast<std::uint8_t>(frame.size());
  std::memcpy(at + kRecordHeader, frame.data(), frame.size());

  const std::uint32_t index = from.value() * n_sites_ + to.value();
  Lane& lane = lanes_[index];
  if (lane.frames++ == 0) {
    lane.head = record;
    if (first_lane_ == kNoLane) {
      first_lane_ = index;
    } else {
      lanes_[last_lane_].next = index;
    }
    last_lane_ = index;
  } else {
    std::memcpy(staged_.data() + lane.tail, &record, sizeof record);
  }
  lane.tail = record;
}

void Outbox::flush() {
  // The sink only enqueues (it must not call back into a controller), so
  // nothing here re-enters send().
  for (std::uint32_t index = first_lane_; index != kNoLane;) {
    Lane& lane = lanes_[index];
    const SiteId from{index / n_sites_};
    const SiteId to{index % n_sites_};
    if (lane.frames == 1) {
      sink_(from, to, record_frame(staged_, lane.head));
    } else {
      envelope_.clear();
      std::uint32_t record = lane.head;
      for (std::uint32_t left = lane.frames; left > 0; --left) {
        append_to_batch(envelope_, record_frame(staged_, record));
        record = next_record(staged_, record);
      }
      sink_(from, to, envelope_);
    }
    index = lane.next;
    lane = Lane{};
  }
  first_lane_ = kNoLane;
  last_lane_ = kNoLane;
  staged_.clear();
}

}  // namespace cmh::ddb
