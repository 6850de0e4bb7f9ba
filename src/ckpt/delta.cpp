#include "ckpt/delta.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "ckpt/atomic_file.h"
#include "ckpt/crc32.h"
#include "common/fault.h"

namespace quanta::ckpt {

namespace {

constexpr char kDeltaMagic[8] = {'Q', 'C', 'K', 'P', 'D', '1', '\r', '\n'};
constexpr std::size_t kDeltaHeaderSize = 8 + 4 + 4 + 8 + 8 + 4 + 4 + 4;

/// Content hash shared by both chain_id overloads: provider, fingerprint
/// and every section (id, size, content_hash64 of the payload) in order.
void mix_sections(Fingerprint& fp, Provider provider, std::uint64_t fingerprint,
                  const std::vector<Section>& sections) {
  fp.mix(static_cast<std::uint64_t>(provider));
  fp.mix(fingerprint);
  fp.mix(sections.size());
  for (const Section& s : sections) {
    fp.mix(s.id);
    fp.mix(s.payload.size());
    fp.mix(content_hash64(s.payload.data(), s.payload.size()));
  }
}

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
    h = hash_word(h, io::load_le<std::uint64_t>(p));
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

const Section* Delta::find(std::uint32_t id) const {
  for (const Section& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::string delta_path(const std::string& base_path, std::uint32_t seq) {
  return base_path + ".d" + std::to_string(seq);
}

std::uint64_t chain_id(const Snapshot& base) {
  Fingerprint fp;
  mix_sections(fp, base.provider, base.fingerprint, base.sections);
  return fp.digest();
}

std::uint64_t chain_id(std::uint64_t parent_id, const Delta& d) {
  Fingerprint fp;
  fp.mix(parent_id);
  fp.mix(d.seq);
  mix_sections(fp, d.provider, d.fingerprint, d.sections);
  return fp.digest();
}

bool save_delta(const std::string& base_path, const Delta& d) {
  if (base_path.empty() || d.seq == 0) return false;
  io::Writer header;
  header.bytes(kDeltaMagic, sizeof(kDeltaMagic));
  header.u32(kDeltaFormatVersion);
  header.u32(static_cast<std::uint32_t>(d.provider));
  header.u64(d.fingerprint);
  header.u64(d.parent_id);
  header.u32(d.seq);
  header.u32(static_cast<std::uint32_t>(d.sections.size()));
  header.u32(crc32(header.buffer().data(), header.size()));
  return internal::write_sections_atomic(delta_path(base_path, d.seq),
                                         header.buffer(), d.sections,
                                         "ckpt.delta.write");
}

namespace {

/// Parses and validates one delta file against its expected chain position.
/// kNoFile is the clean end of the chain; everything else poisons it.
LoadStatus load_one_delta(const std::string& path, std::uint64_t fingerprint,
                          Provider provider, std::uint64_t parent_id,
                          std::uint32_t seq, Delta* out) {
  std::vector<std::uint8_t> buf;
  try {
    common::FaultInjector::site("ckpt.delta.apply");
    switch (internal::read_file(path, &buf)) {
      case internal::ReadFile::kNoFile: return LoadStatus::kNoFile;
      case internal::ReadFile::kIoError: return LoadStatus::kIoError;
      case internal::ReadFile::kOk: break;
    }
  } catch (...) {
    return LoadStatus::kIoError;
  }

  if (buf.size() < kDeltaHeaderSize) return LoadStatus::kCorrupt;
  if (std::memcmp(buf.data(), kDeltaMagic, sizeof(kDeltaMagic)) != 0) {
    return LoadStatus::kBadMagic;
  }
  const std::uint32_t computed_crc = crc32(buf.data(), kDeltaHeaderSize - 4);
  io::Reader r(buf.data() + sizeof(kDeltaMagic),
               buf.size() - sizeof(kDeltaMagic));
  const std::uint32_t version = r.u32();
  const std::uint32_t file_provider = r.u32();
  const std::uint64_t file_fingerprint = r.u64();
  const std::uint64_t file_parent = r.u64();
  const std::uint32_t file_seq = r.u32();
  const std::uint32_t section_count = r.u32();
  const std::uint32_t header_crc = r.u32();
  if (header_crc != computed_crc) return LoadStatus::kCorrupt;
  if (version != kDeltaFormatVersion) return LoadStatus::kBadVersion;
  if (file_provider != static_cast<std::uint32_t>(provider)) {
    return LoadStatus::kBadProvider;
  }
  if (file_fingerprint != fingerprint) return LoadStatus::kBadFingerprint;
  // The link check: a delta written against a different base (or a stale
  // delta left over from an interrupted compaction) has the wrong parent id
  // or sequence number and refuses to attach.
  if (file_parent != parent_id || file_seq != seq) return LoadStatus::kCorrupt;

  Delta d;
  d.provider = provider;
  d.fingerprint = fingerprint;
  d.parent_id = file_parent;
  d.seq = file_seq;
  if (!internal::read_sections(r, section_count, &d.sections)) {
    return LoadStatus::kCorrupt;
  }
  *out = std::move(d);
  return LoadStatus::kOk;
}

}  // namespace

LoadStatus load_chain(const std::string& path, std::uint64_t fingerprint,
                      Provider provider, Chain* out) {
  Chain chain;
  const LoadStatus base_status =
      load(path, fingerprint, provider, &chain.base);
  if (base_status != LoadStatus::kOk) return base_status;
  chain.tip_id = chain_id(chain.base);

  for (std::uint32_t seq = 1;; ++seq) {
    Delta d;
    const LoadStatus s = load_one_delta(delta_path(path, seq), fingerprint,
                                        provider, chain.tip_id, seq, &d);
    if (s == LoadStatus::kNoFile) break;  // clean end of the chain
    if (s != LoadStatus::kOk) return s;   // broken link poisons everything
    chain.tip_id = chain_id(chain.tip_id, d);
    chain.deltas.push_back(std::move(d));
  }
  *out = std::move(chain);
  return LoadStatus::kOk;
}

void remove_deltas(const std::string& base_path, std::uint32_t from_seq) {
  if (base_path.empty()) return;
  if (from_seq == 0) from_seq = 1;
  // Find the contiguous top of the chain first, then remove descending: a
  // crash mid-removal always leaves a contiguous prefix (which the parent-id
  // check happily replays) rather than a gap followed by stale deltas.
  std::uint32_t top = from_seq - 1;
  for (std::uint32_t seq = from_seq;; ++seq) {
    std::FILE* f = std::fopen(delta_path(base_path, seq).c_str(), "rb");
    if (f == nullptr) break;
    std::fclose(f);
    top = seq;
  }
  for (std::uint32_t seq = top; seq >= from_seq; --seq) {
    std::remove(delta_path(base_path, seq).c_str());
    if (seq == from_seq) break;  // the loop guard alone would wrap at 0
  }
}

void remove_chain(const std::string& base_path) {
  if (base_path.empty()) return;
  // Deltas first (descending): any interruption leaves a loadable prefix,
  // never a headless tail.
  remove_deltas(base_path);
  std::remove(base_path.c_str());
  internal::remove_orphan_temps(base_path);
}

bool ChainWriter::save_base(Snapshot&& snap) {
  snap.provider = provider_;
  snap.fingerprint = fingerprint_;
  // Old deltas go first (descending, inside remove_deltas), so no crash
  // window ever shows the new base next to deltas of the old chain.
  remove_deltas(path_);
  const std::uint64_t id = chain_id(snap);
  if (!ckpt::save(path_, snap)) {
    // The old base may have survived (rename never happened) or not; either
    // way the next periodic save must retry a full base.
    base_written_ = false;
    return false;
  }
  base_written_ = true;
  next_seq_ = 1;
  tip_id_ = id;
  return true;
}

bool ChainWriter::save_delta_link(std::vector<Section>&& sections) {
  if (want_base()) return false;
  Delta d;
  d.provider = provider_;
  d.fingerprint = fingerprint_;
  d.parent_id = tip_id_;
  d.seq = next_seq_;
  d.sections = std::move(sections);
  if (!save_delta(path_, d)) return false;  // tip unchanged; caller retries
  tip_id_ = chain_id(tip_id_, d);
  ++next_seq_;
  return true;
}

}  // namespace quanta::ckpt
