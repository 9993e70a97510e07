// Minimal thread-safe structured logging.
//
// Logging is off by default (benchmarks must not pay for it); tests and
// examples opt in via set_log_level.  Format: "LEVEL ts [tag] message".
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace cmh {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError, kOff };

void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

namespace detail {
void log_line(LogLevel level, std::string_view tag, const std::string& msg);
}

/// Streaming log statement: LOG(kInfo, "controller") << "acquired " << r;
class LogStream {
 public:
  LogStream(LogLevel level, std::string_view tag) : level_(level), tag_(tag) {}
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() {
    if (level_ >= log_level()) detail::log_line(level_, tag_, out_.str());
  }

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (level_ >= log_level()) out_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view tag_;
  std::ostringstream out_;
};

// A disabled statement costs one level check: the stream (and its
// ostringstream) is only built when the line will be written.
#define CMH_LOG(level, tag)                              \
  if (::cmh::LogLevel::level < ::cmh::log_level()) {     \
  } else                                                 \
    ::cmh::LogStream(::cmh::LogLevel::level, (tag))

}  // namespace cmh
