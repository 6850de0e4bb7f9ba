// Strict decimal parsing for the toolkit's numeric settings: environment
// knobs (QUANTA_JOBS), wire fields, command-line flags and fault specs.
// One rule everywhere: the whole value must be a decimal number —
// empty strings, non-numeric text, anything with a minus sign, trailing
// garbage ("4x") and out-of-range values are rejected as a whole, never
// half-parsed. Each caller adds its own bounds and falls back to its
// documented default (or reports an error) on rejection.
#pragma once

#include <cstdint>
#include <optional>

namespace quanta::common {

/// Parses `s` as a whole unsigned decimal number (strtoull syntax, so
/// leading blanks and a '+' are accepted). Returns nullopt for nullptr or
/// anything the rules above reject.
std::optional<std::uint64_t> parse_u64(const char* s);

/// Reads environment variable `name` as a whole positive decimal number,
/// clamped to `clamp`. Returns nullopt — "use the default" — when the
/// variable is unset, zero or fails the strict rules above.
std::optional<std::uint64_t> env_u64(const char* name, std::uint64_t clamp);

}  // namespace quanta::common
