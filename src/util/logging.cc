#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>

namespace asti {

namespace {
// Atomic: benches flip the level from a main thread while pool/driver
// threads are logging.
std::atomic<LogLevel> g_min_level{LogLevel::kInfo};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_min_level.store(level, std::memory_order_relaxed); }
LogLevel GetLogLevel() { return g_min_level.load(std::memory_order_relaxed); }

namespace internal {

std::string FormatLogLine(LogLevel level, const std::string& message) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm utc{};
#if defined(_WIN32)
  gmtime_s(&utc, &seconds);
#else
  gmtime_r(&seconds, &utc);
#endif
  // Sized for the worst case the compiler must assume: six full-width
  // ints (11 chars each), a 4-char millisecond field, 7 separators, NUL.
  char stamp[78];
  std::snprintf(stamp, sizeof(stamp), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, static_cast<int>(millis));
  std::string line;
  line.reserve(message.size() + 48);
  line += "[";
  line += LevelName(level);
  line += " ";
  line += stamp;
  line += "] ";
  line += message;
  line += "\n";
  return line;
}

void EmitLog(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(GetLogLevel())) return;
  // Build the complete line first, then emit it in ONE guarded write:
  // concurrent EmitLog calls used to interleave partial lines on stderr
  // (level prefix from one thread, payload from another). The mutex
  // serializes whole lines; the single fwrite keeps the line atomic even
  // against non-EmitLog stderr writers on platforms where stdio locking
  // is per-call.
  static std::mutex emit_mutex;
  const std::string line = FormatLogLine(level, message);
  std::lock_guard<std::mutex> lock(emit_mutex);
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

}  // namespace internal
}  // namespace asti
