#include "util/log.hpp"

#include <cstdio>

namespace pan {
namespace {

LogLevel g_level = LogLevel::kWarn;
Logger::ClockFn g_clock_fn = nullptr;
const void* g_clock_ctx = nullptr;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

}  // namespace

void Logger::set_level(LogLevel level) { g_level = level; }
LogLevel Logger::level() { return g_level; }

void Logger::set_clock(ClockFn fn, const void* ctx) {
  g_clock_fn = fn;
  g_clock_ctx = ctx;
}

void Logger::clear_clock(const void* ctx) {
  if (g_clock_ctx != ctx) return;
  g_clock_fn = nullptr;
  g_clock_ctx = nullptr;
}

bool Logger::enabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(g_level);
}

void Logger::write(LogLevel level, std::string_view component, std::string_view message) {
  if (!enabled(level)) return;
  if (g_clock_fn != nullptr) {
    const TimePoint now = g_clock_fn(g_clock_ctx);
    std::fprintf(stderr, "[%11.3fms] %s [%.*s] %.*s\n", now.millis(), level_name(level),
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(message.size()), message.data());
  } else {
    std::fprintf(stderr, "%s [%.*s] %.*s\n", level_name(level),
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(message.size()), message.data());
  }
}

}  // namespace pan
