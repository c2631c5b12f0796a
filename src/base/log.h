// Leveled logger. The simulator logs with the simulated timestamp when a
// clock is attached, which makes traces directly comparable to the paper's
// timelines. Logging defaults to kWarn so benchmarks stay quiet.
#pragma once

#include <string>

#include "src/base/strings.h"
#include "src/base/time.h"

namespace lv {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& Get();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }

  // The engine installs a callback so log lines carry simulated time.
  using NowFn = TimePoint (*)(void* ctx);
  void AttachClock(NowFn fn, void* ctx) {
    now_fn_ = fn;
    now_ctx_ = ctx;
  }
  void DetachClock() {
    now_fn_ = nullptr;
    now_ctx_ = nullptr;
  }

  void Write(LogLevel level, const char* module, const std::string& message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
  NowFn now_fn_ = nullptr;
  void* now_ctx_ = nullptr;
};

#define LV_LOG(lvl, module, ...)                                                \
  do {                                                                          \
    if (static_cast<int>(lvl) >= static_cast<int>(lv::Logger::Get().level())) { \
      lv::Logger::Get().Write(lvl, module, lv::StrFormat(__VA_ARGS__));         \
    }                                                                           \
  } while (0)

#define LV_DEBUG(module, ...) LV_LOG(lv::LogLevel::kDebug, module, __VA_ARGS__)
#define LV_INFO(module, ...) LV_LOG(lv::LogLevel::kInfo, module, __VA_ARGS__)
#define LV_WARN(module, ...) LV_LOG(lv::LogLevel::kWarn, module, __VA_ARGS__)
#define LV_ERROR(module, ...) LV_LOG(lv::LogLevel::kError, module, __VA_ARGS__)

}  // namespace lv
