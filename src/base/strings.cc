#include "src/base/strings.h"

#include <cstdio>

namespace lv {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string_view::npos) {
      end = s.size();
    }
    if (end > start) {
      out.emplace_back(s.substr(start, end - start));
    }
    start = end + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out.push_back(sep);
    }
    out += parts[i];
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  // One pass into a stack buffer covers nearly every result; only a longer
  // one is formatted a second time, straight into the string.
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    out.assign(buf, static_cast<size_t>(n));
  } else if (n > 0) {
    out.resize(static_cast<size_t>(n));
    vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

bool HasPrefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

}  // namespace lv
