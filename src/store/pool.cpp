#include "store/pool.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace quanta::store {

namespace {
constexpr std::size_t kInitialTable = std::size_t{1} << 10;
/// Sparse capacity reserved for the spill mapping.
constexpr std::size_t kSpillCapBytes = std::size_t{1} << 37;  // 128 GiB
}  // namespace

bool parse_memory_bytes(const char* text, std::size_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* endp = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &endp, 10);
  if (errno != 0 || endp == text || v == 0) return false;
  // A leading '-' parses "successfully" through strtoull's wraparound;
  // reject it explicitly like every other non-digit prefix.
  if (text[0] == '-' || text[0] == '+') return false;
  std::size_t mult = 1;
  if (*endp == 'K' || *endp == 'k') {
    mult = std::size_t{1} << 10;
    ++endp;
  } else if (*endp == 'M' || *endp == 'm') {
    mult = std::size_t{1} << 20;
    ++endp;
  } else if (*endp == 'G' || *endp == 'g') {
    mult = std::size_t{1} << 30;
    ++endp;
  }
  if (*endp != '\0') return false;  // trailing garbage: reject whole value
  if (v > std::numeric_limits<std::size_t>::max() / mult) return false;
  *out = static_cast<std::size_t>(v) * mult;
  return true;
}

PoolConfig pool_config_from_env() {
  PoolConfig cfg;
  if (const char* env = std::getenv("QUANTA_STORE_SPILL")) {
    if (*env != '\0') cfg.spill_path = env;
  }
  if (const char* env = std::getenv("QUANTA_STORE_MEM")) {
    std::size_t bytes = 0;
    if (parse_memory_bytes(env, &bytes)) cfg.resident_limit = bytes;
  }
  return cfg;
}

ZonePool::ZonePool(PoolConfig cfg) : cfg_(std::move(cfg)) {
  table_.assign(kInitialTable, kNullRef);
  if (!cfg_.spill_path.empty() &&
      cfg_.resident_limit != std::numeric_limits<std::size_t>::max()) {
    // Aim for >= 4 chunks under the ceiling so FIFO eviction has cold,
    // non-newest chunks to work with even when the ceiling is tiny (only
    // full, non-newest chunks are eviction candidates: a ceiling below one
    // chunk would otherwise never spill anything).
    chunk_capacity_ = std::clamp(
        cfg_.resident_limit / sizeof(std::int32_t) / 4, kMinChunkWords,
        kChunkWords);
  }
  if (!cfg_.spill_path.empty()) {
    spill_enabled_ = spill_.open(cfg_.spill_path, kSpillCapBytes);
    if (!spill_enabled_) ++spill_failures_;
  }
}

std::uint64_t ZonePool::content_hash(std::span<const std::int32_t> words) {
  // FNV-1a over the raw bytes: cheap, deterministic across runs, and the
  // same recipe the checkpoint fingerprints use.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const std::uint8_t*>(words.data());
  for (std::size_t i = 0; i < words.size_bytes(); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

const std::int32_t* ZonePool::record_words(const Record& r) const {
  if (r.chunk != kSpilled) {
    return chunks_[static_cast<std::size_t>(r.chunk)].get() + r.offset;
  }
  return spill_.read(r.offset, r.len).data();
}

bool ZonePool::record_equals(const Record& r, std::uint64_t h,
                             std::span<const std::int32_t> words) const {
  if (r.hash != h || r.len != words.size()) return false;
  if (words.empty()) return true;
  const std::int32_t* mine = record_words(r);
  // A spilled record whose bytes cannot be served (externally damaged file)
  // compares unequal: the incoming payload is then stored fresh — a memory
  // regression under corruption, never a wrong answer or a crash.
  if (mine == nullptr) return false;
  return std::memcmp(mine, words.data(), words.size_bytes()) == 0;
}

void ZonePool::grow_table() {
  std::vector<Ref> bigger(table_.size() * 2, kNullRef);
  const std::size_t mask = bigger.size() - 1;
  for (Ref ref : table_) {
    if (ref == kNullRef) continue;
    std::size_t i = records_[ref].hash & mask;
    while (bigger[i] != kNullRef) i = (i + 1) & mask;
    bigger[i] = ref;
  }
  table_ = std::move(bigger);
}

std::int32_t* ZonePool::arena_alloc(std::size_t words, std::int32_t* chunk,
                                    std::size_t* offset) {
  if (chunks_.empty() || chunk_used_ + words > chunk_words_.back()) {
    const std::size_t cap = words > chunk_capacity_ ? words : chunk_capacity_;
    chunks_.push_back(std::make_unique<std::int32_t[]>(cap));
    chunk_words_.push_back(cap);
    chunk_records_.emplace_back();
    chunk_used_ = 0;
    resident_words_ += cap;
    maybe_evict();
  }
  *chunk = static_cast<std::int32_t>(chunks_.size() - 1);
  *offset = chunk_used_;
  chunk_used_ += words;
  return chunks_.back().get() + *offset;
}

void ZonePool::maybe_evict() {
  if (!spill_.ok()) return;
  // Only full (non-newest) chunks are eviction candidates; the newest chunk
  // is still being written into.
  while (resident_words_ * sizeof(std::int32_t) > cfg_.resident_limit &&
         next_evict_ + 1 < chunks_.size()) {
    evict_chunk(next_evict_);
    ++next_evict_;
    if (!spill_.ok()) return;  // write failed mid-eviction: stop here
  }
}

void ZonePool::evict_chunk(std::size_t chunk) {
  for (Ref ref : chunk_records_[chunk]) {
    Record& r = records_[ref];
    const std::size_t off =
        spill_.append(chunks_[chunk].get() + r.offset, r.len);
    if (off == std::numeric_limits<std::size_t>::max()) {
      // This record (and the rest of the chunk) stays resident; the spill
      // tier is now failed, so no further eviction is attempted.
      ++spill_failures_;
      return;
    }
    r.chunk = kSpilled;
    r.offset = off;
    spilled_words_ += r.len;
    ++spilled_records_;
  }
  resident_words_ -= chunk_words_[chunk];
  chunks_[chunk].reset();
  chunk_records_[chunk].clear();
  chunk_records_[chunk].shrink_to_fit();
}

Ref ZonePool::intern(std::span<const std::int32_t> words) {
  ++lookups_;
  logical_words_ += words.size();
  const std::uint64_t h = content_hash(words);
  const std::size_t mask = table_.size() - 1;
  std::size_t i = h & mask;
  while (table_[i] != kNullRef) {
    const Ref ref = table_[i];
    if (record_equals(records_[ref], h, words)) {
      ++hits_;
      return ref;
    }
    i = (i + 1) & mask;
  }
  const Ref ref = static_cast<Ref>(records_.size());
  Record r;
  r.hash = h;
  r.len = static_cast<std::uint32_t>(words.size());
  if (!words.empty()) {
    // NOTE: arena_alloc may evict older chunks, but never the newest one it
    // just carved this payload from, so the destination stays valid.
    std::int32_t* dst = arena_alloc(words.size(), &r.chunk, &r.offset);
    std::memcpy(dst, words.data(), words.size_bytes());
    chunk_records_[static_cast<std::size_t>(r.chunk)].push_back(ref);
  }  // len == 0 needs no storage; data() short-circuits on it.
  payload_words_ += words.size();
  records_.push_back(r);
  table_[i] = ref;
  if (records_.size() * 2 >= table_.size()) grow_table();
  return ref;
}

std::size_t ZonePool::memory_bytes() const {
  return resident_words_ * sizeof(std::int32_t) +
         records_.capacity() * sizeof(Record) +
         table_.capacity() * sizeof(Ref) +
         records_.size() * sizeof(Ref) +  // chunk_records_ entries
         scratch_.capacity() * sizeof(std::int32_t);
}

PoolMetrics ZonePool::metrics() const {
  PoolMetrics m;
  m.records = records_.size();
  m.lookups = lookups_;
  m.hits = hits_;
  m.payload_words = payload_words_;
  m.logical_words = logical_words_;
  m.resident_bytes = resident_words_ * sizeof(std::int32_t);
  m.spilled_bytes = spilled_words_ * sizeof(std::int32_t);
  m.spilled_records = spilled_records_;
  m.spill_failures = spill_failures_;
  return m;
}

}  // namespace quanta::store
