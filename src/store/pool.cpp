#include "store/pool.h"

#include <cstring>

#include "common/hash.h"

namespace quanta::store {

namespace {
constexpr std::size_t kInitialTable = std::size_t{1} << 10;
}  // namespace

ZonePool::ZonePool() { table_.assign(kInitialTable, kNullRef); }

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

std::int32_t* ZonePool::arena_alloc(std::size_t words) {
  if (chunks_.empty() || chunk_used_ + words > chunk_words_) {
    chunk_words_ = words > kChunkWords ? words : kChunkWords;
    chunks_.push_back(std::make_unique<std::int32_t[]>(chunk_words_));
    chunk_used_ = 0;
    resident_words_ += chunk_words_;
  }
  std::int32_t* dst = chunks_.back().get() + chunk_used_;
  chunk_used_ += words;
  return dst;
}

Ref ZonePool::intern(std::span<const std::int32_t> words) {
  ++lookups_;
  logical_words_ += words.size();
  // The hash only places records in the table: Ref values follow the
  // intern sequence alone.
  const std::uint64_t h =
      common::content_hash64(words.data(), words.size_bytes());
  const std::size_t mask = table_.size() - 1;
  std::size_t i = h & mask;
  while (table_[i] != kNullRef) {
    const Ref ref = table_[i];
    const Record& r = records_[ref];
    if (r.hash == h && r.len == words.size() &&
        (words.empty() ||
         std::memcmp(r.words, words.data(), words.size_bytes()) == 0)) {
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
    std::int32_t* dst = arena_alloc(words.size());
    std::memcpy(dst, words.data(), words.size_bytes());
    r.words = dst;
  }  // len == 0 needs no storage
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
  return m;
}

}  // namespace quanta::store
