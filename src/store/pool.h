// store::ZonePool — interned, arena-allocated storage for the
// fixed-width int32 payloads behind exploration states: DBM zone matrices,
// discrete location/variable vectors, digital clock vectors. Identical
// payloads are rampant across a zone graph (the same zone reappears in many
// discrete partitions, the same discrete part under many zones), so interning
// by content collapses them to one copy addressed by a 32-bit Ref.
//
// Three layers, all behind the same Ref:
//   * an open-addressed content-hash table deduplicating payloads;
//   * a bump-pointer chunk arena (no per-payload malloc, no per-payload
//     allocator metadata);
//   * an optional spill tier (store::SpillFile): when resident arena bytes
//     exceed the configured ceiling, the oldest full chunks are evicted to a
//     memory-mapped file record by record, and reads resolve transparently
//     through the mapping. Cold-first (FIFO chunk) eviction matches zone-
//     graph access patterns, where the frontier touches recent states.
//
// Determinism: Ref values, record order and every intern() outcome are a
// pure function of the intern-call sequence — never of the eviction
// schedule, the spill path, or the memory ceiling. Spilling moves bytes, not
// identity, so a search over a pooled store is bit-identical with the spill
// tier on, off, or thrashing.
//
// The pool is single-writer (like the StateStore that owns it) and not
// thread-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "store/spill.h"

namespace quanta::store {

/// Index of an interned payload record. Stable for the pool's lifetime.
using Ref = std::uint32_t;
inline constexpr Ref kNullRef = std::numeric_limits<Ref>::max();

/// Resource envelope of a pool. Default: everything resident, no spill.
struct PoolConfig {
  /// Arena bytes kept in RAM before cold chunks are evicted to the spill
  /// file. Ignored unless a spill path is set.
  std::size_t resident_limit = std::numeric_limits<std::size_t>::max();
  /// Spill file path; empty disables the spill tier entirely.
  std::string spill_path;
};

/// QUANTA_STORE_MEM / QUANTA_STORE_SPILL environment knobs, parsed with the
/// same strictness as QUANTA_JOBS (exec/executor.cpp): QUANTA_STORE_MEM
/// must be a whole positive decimal byte count with an optional single
/// K/M/G (binary) suffix — trailing garbage, empty strings, zero and
/// overflow all fall back to "unlimited" rather than half-parsing.
/// QUANTA_STORE_SPILL names the spill file (empty/unset keeps spill off).
PoolConfig pool_config_from_env();

/// Strict byte-count parser behind QUANTA_STORE_MEM, exposed for tests.
/// Returns false on any malformed input, leaving *out untouched.
bool parse_memory_bytes(const char* text, std::size_t* out);

/// Occupancy/traffic snapshot for instrumentation and benches.
struct PoolMetrics {
  std::size_t records = 0;        ///< distinct interned payloads
  std::size_t lookups = 0;        ///< intern() calls
  std::size_t hits = 0;           ///< intern() calls answered by sharing
  std::size_t payload_words = 0;  ///< total distinct payload, in int32 words
  std::size_t logical_words = 0;  ///< payload words over ALL interns (as if
                                  ///< nothing were shared) — baseline volume
  std::size_t resident_bytes = 0; ///< arena payload currently in RAM
  std::size_t spilled_bytes = 0;  ///< payload evicted to the spill file
  std::size_t spilled_records = 0;
  std::size_t spill_failures = 0; ///< failed/refused spill writes

  /// Fraction of interns answered by an existing record.
  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class ZonePool {
 public:
  explicit ZonePool(PoolConfig cfg = {});

  ZonePool(ZonePool&&) = default;
  ZonePool& operator=(ZonePool&&) = default;

  /// Interns a payload: returns the Ref of the existing record with equal
  /// content or copies the payload into the arena under a fresh Ref. Empty
  /// payloads are valid and intern like any other. Records live as long as
  /// the pool.
  Ref intern(std::span<const std::int32_t> words);

  /// The payload behind a Ref, wherever it lives (arena or spill file).
  /// The span is invalidated by the next intern() — evictions triggered by
  /// an insertion may move the bytes it points at. Inline: the zone-row
  /// traits (ta/traits.h) call it once per row on the subsumption path.
  std::span<const std::int32_t> data(Ref ref) const {
    const Record& r = records_[ref];
    if (r.len == 0) return {};
    if (r.chunk != kSpilled) {
      return {chunks_[static_cast<std::size_t>(r.chunk)].get() + r.offset,
              r.len};
    }
    return spill_.read(r.offset, r.len);
  }

  std::uint32_t size(Ref ref) const { return records_[ref].len; }

  /// RAM held by the pool: resident arena chunks plus record/table/chunk
  /// bookkeeping. Spilled payload is explicitly NOT counted — it lives in
  /// clean file-backed pages the kernel can drop at will.
  std::size_t memory_bytes() const;

  PoolMetrics metrics() const;
  const PoolConfig& config() const { return cfg_; }
  /// True while the spill tier is usable (configured and no write failed).
  bool spill_ok() const { return spill_.ok(); }

  /// Reusable encode buffer for StateTraits payload packing — avoids a heap
  /// allocation per intern on the hot path.
  std::vector<std::int32_t>& scratch() { return scratch_; }

 private:
  struct Record {
    std::uint64_t hash = 0;
    std::uint32_t len = 0;   ///< payload words
    std::int32_t chunk = -1; ///< arena chunk index, or kSpilled
    std::size_t offset = 0;  ///< word offset in chunk / byte offset in spill
  };
  static constexpr std::int32_t kSpilled = -1;
  static constexpr std::size_t kChunkWords = std::size_t{1} << 16;  // 256 KiB
  static constexpr std::size_t kMinChunkWords = std::size_t{1} << 6;  // 256 B

  static std::uint64_t content_hash(std::span<const std::int32_t> words);
  bool record_equals(const Record& r, std::uint64_t h,
                     std::span<const std::int32_t> words) const;
  const std::int32_t* record_words(const Record& r) const;
  void grow_table();
  std::int32_t* arena_alloc(std::size_t words, std::int32_t* chunk,
                            std::size_t* offset);
  void maybe_evict();
  void evict_chunk(std::size_t chunk);

  PoolConfig cfg_;
  std::size_t chunk_capacity_ = kChunkWords;  ///< words per arena chunk
  bool spill_enabled_ = false;
  SpillFile spill_;
  std::vector<Record> records_;
  std::vector<Ref> table_;  ///< open-addressed, power-of-two capacity
  std::vector<std::unique_ptr<std::int32_t[]>> chunks_;
  std::vector<std::size_t> chunk_words_;          ///< capacity per chunk
  std::vector<std::vector<Ref>> chunk_records_;   ///< records per chunk
  std::size_t chunk_used_ = 0;      ///< words used in the newest chunk
  std::size_t next_evict_ = 0;      ///< first chunk not yet evicted
  std::size_t resident_words_ = 0;  ///< words in live arena chunks
  std::size_t payload_words_ = 0;
  std::size_t logical_words_ = 0;
  std::size_t lookups_ = 0;
  std::size_t hits_ = 0;
  std::size_t spilled_words_ = 0;
  std::size_t spilled_records_ = 0;
  std::size_t spill_failures_ = 0;
  std::vector<std::int32_t> scratch_;
};

}  // namespace quanta::store
