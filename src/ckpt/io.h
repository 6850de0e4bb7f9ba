// Byte-level serialization primitives of the checkpoint format: a growing
// little-endian Writer and a bounds-checked Reader. Every integer has a
// fixed little-endian width (no struct dumps), so checkpoint files are
// portable across compilers; doubles travel as their IEEE-754 bit pattern.
// Each field is one memcpy, and an int32 span (a zone row, a location
// vector) is one bulk append.
//
// The Reader never throws and never reads out of bounds: any short read
// flips a sticky `ok()` flag and yields zeros from then on. Callers parse
// the whole section and check ok() once at the end — corrupted input
// degrades to a failed load, not UB. (Sections are CRC-checked before they
// reach a Reader, so ok() failing indicates a logic or version mismatch.)
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace quanta::ckpt::io {

// The file byte order is the host byte order: each fixed-width field is one
// memcpy, and an int32 span is one bulk copy.
static_assert(std::endian::native == std::endian::little,
              "checkpoint files are little-endian; add a byte-swapping "
              "codec before building on a big-endian host");

/// Stores `v` as sizeof(T) little-endian bytes at `out`.
template <typename T>
inline void store_le(std::uint8_t* out, T v) {
  std::memcpy(out, &v, sizeof(T));
}

/// Loads sizeof(T) little-endian bytes from `in`.
template <typename T>
inline T load_le(const std::uint8_t* in) {
  T v;
  std::memcpy(&v, in, sizeof(T));
  return v;
}

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { store_le(grow(4), v); }
  void u64(std::uint64_t v) { store_le(grow(8), v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// A run of int32 words, each exactly as i32() would write it.
  void i32s(std::span<const std::int32_t> words) {
    bytes(words.data(), words.size_bytes());
  }
  void bytes(const void* data, std::size_t size) {
    if (size != 0) std::memcpy(grow(size), data, size);  // data may be null
  }

  /// Capacity hint for a caller that knows how much it is about to write.
  void reserve(std::size_t total) { buf_.reserve(total); }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::uint8_t* grow(std::size_t n) {
    buf_.resize(buf_.size() + n);
    return buf_.data() + buf_.size() - n;
  }

  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    std::uint8_t v = 0;
    take(&v, 1);
    return v;
  }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool bytes(void* out, std::size_t size) { return take(out, size); }

  /// A `count` prefix for `elem_size`-byte elements is plausible only when
  /// that many bytes actually remain — guards vector reserves against
  /// nonsense sizes from malformed input.
  bool fits(std::uint64_t count, std::size_t elem_size) {
    if (elem_size != 0 && count > remaining() / elem_size) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool ok() const { return ok_; }

 private:
  template <typename T>
  T fixed() {
    if (remaining() < sizeof(T)) {
      ok_ = false;
      p_ = end_;
      return 0;
    }
    const T v = load_le<T>(p_);
    p_ += sizeof(T);
    return v;
  }

  bool take(void* out, std::size_t size) {
    if (remaining() < size) {
      ok_ = false;
      std::memset(out, 0, size);
      p_ = end_;
      return false;
    }
    if (size != 0) std::memcpy(out, p_, size);  // an empty payload may be null
    p_ += size;
    return true;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

}  // namespace quanta::ckpt::io
