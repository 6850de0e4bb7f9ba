// Small hashing helpers shared by the state-space exploration engines, and
// the one word hash behind payload interning (store::ZonePool) and
// checkpoint chain ids (ckpt/delta.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace quanta::common {

/// Combine a hash value into a running seed (boost::hash_combine recipe,
/// 64-bit variant).
inline void hash_combine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hash a contiguous range of integral values.
template <typename It>
std::size_t hash_range(It first, It last) {
  std::size_t seed = 0xcbf29ce484222325ULL;
  for (; first != last; ++first) {
    hash_combine(seed, std::hash<std::decay_t<decltype(*first)>>{}(*first));
  }
  return seed;
}

template <typename T>
std::size_t hash_vector(const std::vector<T>& v) {
  return hash_range(v.begin(), v.end());
}

/// 64-bit hash of every byte of a range, folded in one 8-byte word at a
/// time (native byte order; a multiply-rotate round per word, the last 1-7
/// bytes zero-padded into one more word) and finished with an avalanche.
/// Its values on a little-endian host are part of the checkpoint format
/// (fixed since delta format version 2).
std::uint64_t content_hash64(const void* data, std::size_t size);

}  // namespace quanta::common
