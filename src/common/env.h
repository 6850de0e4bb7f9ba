// Strict environment-number parsing for the toolkit's numeric environment
// knobs (QUANTA_JOBS).
// One rule everywhere: the whole value must be a positive decimal number —
// empty strings, non-numeric text, zero, anything with a minus sign,
// trailing garbage ("4x") and out-of-range values are rejected as a whole,
// never half-parsed, and the caller falls back to its documented default.
#pragma once

#include <cstdint>
#include <optional>

namespace quanta::common {

/// Reads environment variable `name` as a whole positive decimal number,
/// clamped to `clamp`. Returns nullopt — "use the default" — when the
/// variable is unset or fails the strict rules above.
std::optional<std::uint64_t> env_u64(const char* name, std::uint64_t clamp);

}  // namespace quanta::common
