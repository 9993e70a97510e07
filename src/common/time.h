// Time representation shared by the simulator (virtual time) and the
// threaded runtimes (wall-clock mapped onto the same type).
#pragma once

#include <cstdint>
#include <ostream>

namespace cmh {

/// Microsecond-resolution timestamp/duration.  In the simulator this is
/// virtual time starting at 0; in the threaded runtime it is steady-clock
/// time since runtime start.
struct SimTime {
  std::int64_t micros{0};

  friend constexpr auto operator<=>(SimTime, SimTime) = default;
  friend constexpr SimTime operator+(SimTime a, SimTime b) {
    return {a.micros + b.micros};
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) {
    return {a.micros - b.micros};
  }

  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(micros) * 1e-6;
  }

  static constexpr SimTime zero() { return {0}; }
  static constexpr SimTime us(std::int64_t v) { return {v}; }
  static constexpr SimTime ms(std::int64_t v) { return {v * 1000}; }
  static constexpr SimTime sec(std::int64_t v) { return {v * 1000000}; }

  friend std::ostream& operator<<(std::ostream& os, SimTime t) {
    return os << t.micros << "us";
  }
};

}  // namespace cmh
