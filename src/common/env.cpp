#include "common/env.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace quanta::common {

std::optional<std::uint64_t> parse_u64(const char* s) {
  if (s == nullptr) return std::nullopt;
  char* endp = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &endp, 10);
  // strtoull silently wraps negative input; refuse any minus sign.
  if (errno != 0 || endp == s || *endp != '\0' ||
      std::strchr(s, '-') != nullptr) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v);
}

std::optional<std::uint64_t> env_u64(const char* name, std::uint64_t clamp) {
  const auto v = parse_u64(std::getenv(name));
  if (!v || *v < 1) return std::nullopt;
  return *v > clamp ? clamp : *v;
}

}  // namespace quanta::common
