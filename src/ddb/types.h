// Shared types of the Menasce-Muntz distributed-database model (section 6).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>

#include "common/ids.h"

namespace cmh::ddb {

enum class LockMode : std::uint8_t { kRead, kWrite };

[[nodiscard]] constexpr const char* to_string(LockMode m) {
  return m == LockMode::kRead ? "R" : "W";
}

/// Two lock requests conflict unless both are reads.
[[nodiscard]] constexpr bool conflicts(LockMode a, LockMode b) {
  return a == LockMode::kWrite || b == LockMode::kWrite;
}

/// Locks a transaction holds, as victim election counts them: distinct
/// resources granted through its home controller, saturating.
using LockCount = std::uint16_t;

/// A victim candidate: a transaction and the locks it held, read at a site
/// where it waits.
struct VictimKey {
  TransactionId txn;
  LockCount held{0};
};

/// True iff `a` is the better deadlock victim than `b`: it holds fewer
/// locks, so aborting it wastes less work; ties go to the younger (higher
/// dense id).
[[nodiscard]] constexpr bool better_victim(const VictimKey& a,
                                           const VictimKey& b) {
  return a.held != b.held ? a.held < b.held : a.txn > b.txn;
}

/// Tag (j, n) of the n-th probe computation initiated by controller C_j
/// (section 6.5).
struct DdbProbeTag {
  SiteId initiator;
  std::uint64_t sequence{0};

  friend constexpr auto operator<=>(const DdbProbeTag&,
                                    const DdbProbeTag&) = default;

  friend std::ostream& operator<<(std::ostream& os, const DdbProbeTag& t) {
    return os << '(' << t.initiator << ',' << t.sequence << ')';
  }
};

}  // namespace cmh::ddb

namespace std {

template <>
struct hash<cmh::ddb::DdbProbeTag> {
  size_t operator()(const cmh::ddb::DdbProbeTag& t) const noexcept {
    const auto h1 = std::hash<cmh::SiteId>{}(t.initiator);
    const auto h2 = std::hash<std::uint64_t>{}(t.sequence);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};

}  // namespace std
