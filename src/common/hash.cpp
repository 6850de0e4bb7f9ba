#include "common/hash.h"

#include <bit>
#include <cstring>

namespace quanta::common {

namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;

/// Folds one 8-byte word into h; a bijection of the word for a fixed h.
std::uint64_t hash_word(std::uint64_t h, std::uint64_t word) {
  return std::rotl(h ^ (word * kP2), 31) * kP1;
}

}  // namespace

std::uint64_t content_hash64(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = kP3 + size;  // the size keeps zero padding unambiguous
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = hash_word(h, word);
  }
  if (size > 0) {
    std::uint64_t tail = 0;  // the last 1-7 bytes, zero-padded
    std::memcpy(&tail, p, size);
    h = hash_word(h, tail);
  }
  // Final avalanche: every input bit reaches every output bit.
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

}  // namespace quanta::common
