// Tiny self-describing binary serialization used for all wire messages.
//
// Fixed-width little-endian integers; length-prefixed containers.  Readers
// return Status on truncation/corruption rather than throwing, because a
// malformed frame from a peer is a runtime condition, not a bug.
//
// Two encoder shapes cover the hot paths:
//   * Writer        -- grows a Bytes buffer; supports scratch-buffer mode so
//                      steady-state encoders reuse one allocation.
//   * StackWriter   -- fixed-capacity stack buffer for the small fixed-size
//                      frames (probes, requests, replies); zero heap use.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"

namespace cmh {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning view of an encoded frame.  Bytes converts implicitly, so all
/// send/decode surfaces accept either a Bytes or a stack frame.
using BytesView = std::span<const std::uint8_t>;

namespace detail {

inline void store_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void store_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

[[nodiscard]] inline std::uint16_t load_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | in[1] << 8);
}

[[nodiscard]] inline std::uint32_t load_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

[[nodiscard]] inline std::uint64_t load_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

}  // namespace detail

class Writer {
 public:
  /// Owned-buffer mode: bytes accumulate internally; take() moves them out.
  Writer() : out_(&owned_) {}

  /// Scratch-buffer mode: serializes into `scratch`, which is cleared up
  /// front but keeps its capacity -- so an encoder called in a loop with the
  /// same scratch does zero heap allocation once warmed up.
  explicit Writer(Bytes& scratch) : out_(&scratch) { scratch.clear(); }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  [[nodiscard]] const Bytes& bytes() const { return *out_; }

  /// Only meaningful in owned-buffer mode.
  [[nodiscard]] Bytes take() && {
    assert(out_ == &owned_ && "take() requires owned-buffer mode");
    return std::move(owned_);
  }

  /// Pre-sizes the buffer for `n` further bytes (single growth instead of
  /// one per appended field).
  void reserve(std::size_t n) { out_->reserve(out_->size() + n); }

  void u8(std::uint8_t v) { out_->push_back(v); }

  void u16(std::uint16_t v) {
    std::uint8_t b[2];
    detail::store_u16(b, v);
    append(b, 2);
  }

  void u32(std::uint32_t v) {
    std::uint8_t b[4];
    detail::store_u32(b, v);
    append(b, 4);
  }

  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    detail::store_u64(b, v);
    append(b, 8);
  }

  void str(const std::string& s) {
    if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
      // A longer string cannot be represented by the u32 length prefix;
      // silently truncating the length would corrupt the frame.
      throw std::length_error("Writer::str: string exceeds u32 length prefix");
    }
    u32(static_cast<std::uint32_t>(s.size()));
    // Byte-for-byte copy via the iterator-range overload: char -> uint8_t is
    // a value conversion (mod 256), identical to the old pointer-aliasing
    // reinterpret_cast and it keeps this header cast-free.
    out_->insert(out_->end(), s.begin(), s.end());
  }

  template <typename Tag, typename Rep>
  void id(StrongId<Tag, Rep> v) {
    u32(static_cast<std::uint32_t>(v.value()));
  }

  void agent(const AgentId& a) {
    id(a.transaction);
    id(a.site);
  }

  void probe_tag(const ProbeTag& t) {
    id(t.initiator);
    u64(t.sequence);
  }

 private:
  void append(const std::uint8_t* p, std::size_t n) {
    out_->insert(out_->end(), p, p + n);
  }

  Bytes owned_;
  Bytes* out_;
};

/// Fixed-capacity writer backed by a stack array.  Intended for the small
/// fixed-size frames whose maximum wire size is known at compile time;
/// overflowing the capacity is a programmer error (asserted in debug).
template <std::size_t N>
class StackWriter {
 public:
  static constexpr std::size_t capacity() { return N; }

  [[nodiscard]] BytesView view() const { return {buf_.data(), len_}; }
  [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }
  [[nodiscard]] std::size_t size() const { return len_; }

  void u8(std::uint8_t v) {
    assert(len_ + 1 <= N);
    buf_[len_++] = v;
  }

  void u16(std::uint16_t v) {
    assert(len_ + 2 <= N);
    detail::store_u16(buf_.data() + len_, v);
    len_ += 2;
  }

  void u32(std::uint32_t v) {
    assert(len_ + 4 <= N);
    detail::store_u32(buf_.data() + len_, v);
    len_ += 4;
  }

  void u64(std::uint64_t v) {
    assert(len_ + 8 <= N);
    detail::store_u64(buf_.data() + len_, v);
    len_ += 8;
  }

  template <typename Tag, typename Rep>
  void id(StrongId<Tag, Rep> v) {
    u32(static_cast<std::uint32_t>(v.value()));
  }

  void agent(const AgentId& a) {
    id(a.transaction);
    id(a.site);
  }

  void probe_tag(const ProbeTag& t) {
    id(t.initiator);
    u64(t.sequence);
  }

 private:
  std::array<std::uint8_t, N> buf_{};
  std::size_t len_{0};
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data.data()), size_(data.size()) {}
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

  Status u8(std::uint8_t& v) {
    if (remaining() < 1) return truncated();
    v = data_[pos_++];
    return Status::Ok();
  }

  Status u16(std::uint16_t& v) {
    if (remaining() < 2) return truncated();
    v = detail::load_u16(data_ + pos_);
    pos_ += 2;
    return Status::Ok();
  }

  Status u32(std::uint32_t& v) {
    if (remaining() < 4) return truncated();
    v = detail::load_u32(data_ + pos_);
    pos_ += 4;
    return Status::Ok();
  }

  Status u64(std::uint64_t& v) {
    if (remaining() < 8) return truncated();
    v = detail::load_u64(data_ + pos_);
    pos_ += 8;
    return Status::Ok();
  }

  Status str(std::string& s) {
    std::uint32_t n = 0;
    if (auto st = u32(n); !st.ok()) return st;
    // Compare in 64 bits BEFORE any narrowing: a crafted length near 2^32
    // must be rejected here, never wrapped into a small in-bounds count.
    if (static_cast<std::uint64_t>(n) >
        static_cast<std::uint64_t>(remaining())) {
      return Status{StatusCode::kInvalidArgument,
                    "str length exceeds remaining bytes"};
    }
    // Iterator-range assign: uint8_t -> char value conversion round-trips
    // with Writer::str exactly; no pointer-type punning needed.
    s.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return Status::Ok();
  }

  template <typename Tag, typename Rep>
  Status id(StrongId<Tag, Rep>& v) {
    std::uint32_t raw = 0;
    if (auto st = u32(raw); !st.ok()) return st;
    v = StrongId<Tag, Rep>(static_cast<Rep>(raw));
    return Status::Ok();
  }

  Status agent(AgentId& a) {
    if (auto st = id(a.transaction); !st.ok()) return st;
    return id(a.site);
  }

  Status probe_tag(ProbeTag& t) {
    if (auto st = id(t.initiator); !st.ok()) return st;
    return u64(t.sequence);
  }

  // ---- unchecked fast path ------------------------------------------------
  // Decoders that have verified `remaining() >= frame size` once may read
  // the fixed-size fields without per-field bounds checks.

  [[nodiscard]] std::uint8_t u8_unchecked() {
    assert(remaining() >= 1);
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t u16_unchecked() {
    assert(remaining() >= 2);
    const std::uint16_t v = detail::load_u16(data_ + pos_);
    pos_ += 2;
    return v;
  }

  [[nodiscard]] std::uint32_t u32_unchecked() {
    assert(remaining() >= 4);
    const std::uint32_t v = detail::load_u32(data_ + pos_);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64_unchecked() {
    assert(remaining() >= 8);
    const std::uint64_t v = detail::load_u64(data_ + pos_);
    pos_ += 8;
    return v;
  }

  template <typename Id>
  [[nodiscard]] Id id_unchecked() {
    return Id(static_cast<typename Id::rep_type>(u32_unchecked()));
  }

 private:
  static Status truncated() {
    return {StatusCode::kInvalidArgument, "truncated message"};
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

}  // namespace cmh
