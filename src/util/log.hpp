// Lightweight leveled logging with component tags.
//
// The simulator is deterministic and single-threaded; the logger favours
// simplicity over async machinery. Logging defaults to Warn so tests and
// benchmarks stay quiet; examples raise the level to narrate behaviour.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace pan {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  /// Global minimum level; records below it are dropped cheaply.
  static void set_level(LogLevel level);
  static LogLevel level();

  /// The simulated-clock hook: when set, records are stamped with sim time.
  using ClockFn = TimePoint (*)(const void* ctx);
  static void set_clock(ClockFn fn, const void* ctx);
  /// Removes the clock hook if `ctx` is the registered context (a clock
  /// owner calls this on destruction so the hook never dangles).
  static void clear_clock(const void* ctx);

  static bool enabled(LogLevel level);
  static void write(LogLevel level, std::string_view component, std::string_view message);
};

namespace log_detail {

class Record {
 public:
  Record(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~Record() { Logger::write(level_, component_, stream_.str()); }

  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;

  template <typename T>
  Record& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream stream_;
};

}  // namespace log_detail

}  // namespace pan

#define PAN_LOG(level, component)                      \
  if (!::pan::Logger::enabled(level)) {                \
  } else                                               \
    ::pan::log_detail::Record(level, component)

#define PAN_TRACE(component) PAN_LOG(::pan::LogLevel::kTrace, component)
#define PAN_DEBUG(component) PAN_LOG(::pan::LogLevel::kDebug, component)
#define PAN_INFO(component) PAN_LOG(::pan::LogLevel::kInfo, component)
#define PAN_WARN(component) PAN_LOG(::pan::LogLevel::kWarn, component)
#define PAN_ERROR(component) PAN_LOG(::pan::LogLevel::kError, component)
