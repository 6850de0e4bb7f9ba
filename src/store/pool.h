// store::ZonePool — interned, arena-allocated storage for the
// fixed-width int32 payloads behind exploration states: DBM zone matrices,
// discrete location/variable vectors, digital clock vectors. Identical
// payloads are rampant across a zone graph (the same zone reappears in many
// discrete partitions, the same discrete part under many zones), so interning
// by content collapses them to one copy addressed by a 32-bit Ref.
//
// Two layers, both behind the same Ref:
//   * an open-addressed content-hash table deduplicating payloads;
//   * a bump-pointer chunk arena (no per-payload malloc, no per-payload
//     allocator metadata).
//
// Everything stays resident, like the verifier's passed list: a budgeted
// search whose store outgrows its memory ceiling stops with kUnknown.
//
// Determinism: Ref values, record order and every intern() outcome are a
// pure function of the intern-call sequence.
//
// The pool is single-writer (like the StateStore that owns it) and not
// thread-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

namespace quanta::store {

/// Index of an interned payload record. Stable for the pool's lifetime.
using Ref = std::uint32_t;
inline constexpr Ref kNullRef = std::numeric_limits<Ref>::max();

/// Occupancy/traffic snapshot for instrumentation and benches.
struct PoolMetrics {
  std::size_t records = 0;        ///< distinct interned payloads
  std::size_t lookups = 0;        ///< intern() calls
  std::size_t hits = 0;           ///< intern() calls answered by sharing
  std::size_t payload_words = 0;  ///< total distinct payload, in int32 words
  std::size_t logical_words = 0;  ///< payload words over ALL interns (as if
                                  ///< nothing were shared) — baseline volume
  std::size_t resident_bytes = 0; ///< arena chunk bytes allocated

  /// Fraction of interns answered by an existing record.
  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class ZonePool {
 public:
  ZonePool();

  ZonePool(ZonePool&&) = default;
  ZonePool& operator=(ZonePool&&) = default;

  /// Interns a payload: returns the Ref of the existing record with equal
  /// content or copies the payload into the arena under a fresh Ref. Empty
  /// payloads are valid and intern like any other. Records live as long as
  /// the pool.
  Ref intern(std::span<const std::int32_t> words);

  /// The payload behind a Ref. Arena chunks never move, so the span stays
  /// valid for the pool's lifetime. Inline: the zone-row traits
  /// (ta/traits.h) call it once per row on the subsumption path.
  std::span<const std::int32_t> data(Ref ref) const {
    const Record& r = records_[ref];
    return {r.words, r.len};
  }

  std::uint32_t size(Ref ref) const { return records_[ref].len; }

  /// RAM held by the pool: arena chunks plus record/table bookkeeping.
  std::size_t memory_bytes() const;

  PoolMetrics metrics() const;

  /// Reusable encode buffer for StateTraits payload packing — avoids a heap
  /// allocation per intern on the hot path.
  std::vector<std::int32_t>& scratch() { return scratch_; }

 private:
  struct Record {
    std::uint64_t hash = 0;
    const std::int32_t* words = nullptr;  ///< in an arena chunk; null if empty
    std::uint32_t len = 0;                ///< payload words
  };
  static constexpr std::size_t kChunkWords = std::size_t{1} << 16;  // 256 KiB

  static std::uint64_t content_hash(std::span<const std::int32_t> words);
  void grow_table();
  std::int32_t* arena_alloc(std::size_t words);

  std::vector<Record> records_;
  std::vector<Ref> table_;  ///< open-addressed, power-of-two capacity
  std::vector<std::unique_ptr<std::int32_t[]>> chunks_;
  std::size_t chunk_words_ = 0;     ///< capacity of the newest chunk
  std::size_t chunk_used_ = 0;      ///< words used in the newest chunk
  std::size_t resident_words_ = 0;  ///< words in all arena chunks
  std::size_t payload_words_ = 0;
  std::size_t logical_words_ = 0;
  std::size_t lookups_ = 0;
  std::size_t hits_ = 0;
  std::vector<std::int32_t> scratch_;
};

}  // namespace quanta::store
