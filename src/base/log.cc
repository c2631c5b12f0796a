#include "src/base/log.h"

#include <cstdio>

namespace lv {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

Logger& Logger::Get() {
  static Logger logger;
  return logger;
}

void Logger::Write(LogLevel level, const char* module, const std::string& message) {
  if (now_fn_ != nullptr) {
    TimePoint now = now_fn_(now_ctx_);
    std::fprintf(stderr, "[%12.6fms] %-5s %-10s %s\n", now.ms(), LevelName(level), module,
                 message.c_str());
  } else {
    std::fprintf(stderr, "%-5s %-10s %s\n", LevelName(level), module, message.c_str());
  }
}

}  // namespace lv
