#include "svc/result_cache.h"

#include <cstdio>

#include "ckpt/io.h"
#include "common/fault.h"

namespace quanta::svc {

namespace {

const ckpt::LogFormat kSegmentFormat{"QCSEG1\r\n", 1};

std::size_t entry_bytes(const std::string& key, const Response& r) {
  return key.size() + response_bytes(r) + ResultCache::kEntryOverhead;
}

/// One segment record: [fp u64][key len u32][key][json len u32][json],
/// where json is the canonical response wire encoding — the exact bytes a
/// cold run of this query would have produced.
std::vector<std::uint8_t> encode_entry(std::uint64_t fingerprint,
                                       const std::string& key,
                                       const Response& r) {
  ckpt::io::Writer w;
  w.u64(fingerprint);
  w.u32(static_cast<std::uint32_t>(key.size()));
  w.bytes(key.data(), key.size());
  const std::string json = to_wire(r).to_json();
  w.u32(static_cast<std::uint32_t>(json.size()));
  w.bytes(json.data(), json.size());
  return w.take();
}

bool decode_entry(const std::vector<std::uint8_t>& rec, std::uint64_t* fp,
                  std::string* key, Response* response) {
  ckpt::io::Reader r(rec);
  *fp = r.u64();
  const std::uint32_t klen = r.u32();
  if (!r.ok() || !r.fits(klen, 1)) return false;
  key->resize(klen);
  if (klen != 0 && !r.bytes(key->data(), klen)) return false;
  const std::uint32_t jlen = r.u32();
  if (!r.ok() || !r.fits(jlen, 1) || r.remaining() != jlen) return false;
  std::string json(jlen, '\0');
  if (jlen != 0 && !r.bytes(json.data(), jlen)) return false;
  const auto m = WireMap::parse_json(json, nullptr);
  if (!m) return false;
  const auto parsed = parse_response(*m, nullptr);
  if (!parsed) return false;
  *response = *parsed;
  return true;
}

}  // namespace

bool ResultCache::enable_persistence(const std::string& path,
                                     std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  persist_path_ = path;
  persist_healthy_ = false;

  std::vector<std::vector<std::uint8_t>> records;
  const ckpt::LogScanStats scan = ckpt::scan_log(path, kSegmentFormat, &records);
  persist_dropped_ += scan.dropped;
  if (scan.fresh != ckpt::LogFresh::kNo &&
      scan.fresh != ckpt::LogFresh::kNoFile) {
    std::fprintf(stderr,
                 "quantad: cache segment %s unusable (%s); starting cold\n",
                 path.c_str(), scan.note.c_str());
  }
  // Reload in file order: the segment is compacted cold→hot, so the last
  // (hottest) records land at the LRU front and budget eviction naturally
  // sheds the overflow.
  for (const auto& rec : records) {
    std::uint64_t fp = 0;
    std::string key;
    Response response;
    if (!decode_entry(rec, &fp, &key, &response)) {
      ++persist_dropped_;
      continue;
    }
    const std::size_t bytes = entry_bytes(key, response);
    if (bytes > budget_) {
      ++persist_dropped_;
      continue;
    }
    bool refreshed = false;
    auto [lo, hi] = index_.equal_range(fp);
    for (auto it = lo; it != hi; ++it) {
      if (it->second->key != key) continue;
      bytes_ -= it->second->bytes;
      it->second->response = response;
      it->second->bytes = bytes;
      bytes_ += bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
      refreshed = true;
      break;
    }
    if (!refreshed) {
      evict_to_fit(bytes);
      lru_.push_front(Entry{fp, key, response, bytes});
      index_.emplace(fp, lru_.begin());
      bytes_ += bytes;
    }
    ++persist_loaded_;
  }
  if (!compact_locked(error)) return false;
  persist_healthy_ = true;
  return true;
}

bool ResultCache::compact_locked(std::string* error) {
  std::vector<std::vector<std::uint8_t>> records;
  records.reserve(lru_.size());
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {  // cold → hot
    records.push_back(encode_entry(it->fingerprint, it->key, it->response));
  }
  try {
    common::FaultInjector::site("svc.cache.persist");
    if (!log_.rewrite(persist_path_, kSegmentFormat, records,
                      "svc.cache.persist")) {
      if (error != nullptr) {
        *error = "cache segment rewrite failed: " + persist_path_;
      }
      return false;
    }
  } catch (const std::exception& e) {
    if (error != nullptr) {
      *error = std::string("cache segment rewrite failed: ") + e.what();
    }
    return false;
  }
  return true;
}

void ResultCache::persist_append_locked(const Entry& e) {
  if (!persist_healthy_) return;
  bool ok = false;
  try {
    common::FaultInjector::site("svc.cache.persist");
    ok = log_.append(encode_entry(e.fingerprint, e.key, e.response));
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    ++persist_failures_;
    disable_persist_locked("write failed");
    return;
  }
  ++persist_appends_;
  // Amortized compaction: disk records are append-only (evictions and
  // refreshes leave stale records behind), so rewrite once the file has
  // grown well past anything the budget can hold live.
  if (log_.appended_bytes() > 2 * budget_ + (1u << 20)) {
    std::string err;
    if (!compact_locked(&err)) {
      ++persist_failures_;
      disable_persist_locked(err.c_str());
    }
  }
}

void ResultCache::disable_persist_locked(const char* why) {
  persist_healthy_ = false;
  log_.close();
  std::fprintf(stderr,
               "quantad: cache persistence disabled (%s); continuing "
               "in-memory-only\n",
               why);
}

bool ResultCache::lookup(std::uint64_t fingerprint, const std::string& key,
                         Response* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [lo, hi] = index_.equal_range(fingerprint);
  for (auto it = lo; it != hi; ++it) {
    if (it->second->key != key) continue;  // fingerprint collision: skip
    lru_.splice(lru_.begin(), lru_, it->second);
    *out = it->second->response;
    ++hits_;
    return true;
  }
  ++misses_;
  return false;
}

void ResultCache::insert(std::uint64_t fingerprint, const std::string& key,
                         const Response& response) {
  const std::size_t bytes = entry_bytes(key, response);
  if (bytes > budget_) return;  // would evict everything and still not fit
  std::lock_guard<std::mutex> lock(mu_);
  auto [lo, hi] = index_.equal_range(fingerprint);
  for (auto it = lo; it != hi; ++it) {
    if (it->second->key != key) continue;
    // Refresh in place (e.g. a cache=0 run of an already-cached query).
    bytes_ -= it->second->bytes;
    it->second->response = response;
    it->second->bytes = bytes;
    bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    evict_to_fit(0);
    persist_append_locked(*lru_.begin());
    return;
  }
  evict_to_fit(bytes);
  lru_.push_front(Entry{fingerprint, key, response, bytes});
  index_.emplace(fingerprint, lru_.begin());
  bytes_ += bytes;
  ++insertions_;
  persist_append_locked(*lru_.begin());
}

void ResultCache::evict_to_fit(std::size_t incoming) {
  while (bytes_ + incoming > budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    auto [lo, hi] = index_.equal_range(victim.fingerprint);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == std::prev(lru_.end())) {
        index_.erase(it);
        break;
      }
    }
    bytes_ -= victim.bytes;
    lru_.pop_back();
    ++evictions_;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.budget = budget_;
  s.persist_enabled = persist_healthy_;
  s.persist_loaded = persist_loaded_;
  s.persist_dropped = persist_dropped_;
  s.persist_appends = persist_appends_;
  s.persist_failures = persist_failures_;
  return s;
}

}  // namespace quanta::svc
