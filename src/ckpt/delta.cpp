#include "ckpt/delta.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

#include "common/fault.h"

namespace quanta::ckpt {

namespace {

const LogFormat kChainLog{"QCKPC1\r\n", kFormatVersion};

enum Kind : std::uint32_t { kBase = 0, kDelta = 1 };
/// [kind u32] [provider u32] [fingerprint u64] [parent id u64] [seq u32]
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8 + 8 + 4;
/// [section id u32] [payload size u64]
constexpr std::size_t kSectionFrameBytes = 4 + 8;

/// Chain id of one link (see delta.h): provider, fingerprint and every
/// section (id, size, content_hash64 of the payload) in order, seeded with
/// (parent id, seq) for a delta.
std::uint64_t chain_id(Kind kind, std::uint64_t parent_id, std::uint32_t seq,
                       Provider provider, std::uint64_t fingerprint,
                       const std::vector<Section>& sections) {
  Fingerprint fp;
  if (kind == kDelta) fp.mix(parent_id).mix(seq);
  fp.mix(static_cast<std::uint64_t>(provider));
  fp.mix(fingerprint);
  fp.mix(sections.size());
  for (const Section& s : sections) {
    fp.mix(s.id);
    fp.mix(s.payload.size());
    fp.mix(content_hash64(s.payload.data(), s.payload.size()));
  }
  return fp.digest();
}

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;

/// Folds one 8-byte word into h; a bijection of the word for a fixed h.
std::uint64_t hash_word(std::uint64_t h, std::uint64_t word) {
  return std::rotl(h ^ (word * kP2), 31) * kP1;
}

/// Parses record `seq` of the chain (0 = the base), checks that it links
/// to the chain id *tip, and appends it to *chain, advancing *tip.
LoadStatus read_link(std::span<const std::uint8_t> rec,
                     std::uint64_t fingerprint, Provider provider,
                     std::uint32_t seq, std::uint64_t* tip, Chain* chain) {
  if (seq > 0) {
    try {
      common::FaultInjector::site("ckpt.delta.apply");
    } catch (...) {
      return LoadStatus::kIoError;
    }
  }
  io::Reader r(rec.data(), rec.size());
  const Kind kind = seq == 0 ? kBase : kDelta;
  const std::uint32_t rec_kind = r.u32();
  const std::uint32_t rec_provider = r.u32();
  const std::uint64_t rec_fingerprint = r.u64();
  const std::uint64_t parent_id = r.u64();
  const std::uint32_t rec_seq = r.u32();
  if (!r.ok() || rec_kind != kind) return LoadStatus::kCorrupt;
  if (rec_provider != static_cast<std::uint32_t>(provider)) {
    return LoadStatus::kBadProvider;
  }
  if (rec_fingerprint != fingerprint) return LoadStatus::kBadFingerprint;
  // The link check: a delta written against a different base has the wrong
  // parent id, and a spliced or repeated record the wrong sequence number.
  if (parent_id != *tip || rec_seq != seq) return LoadStatus::kCorrupt;

  std::vector<Section> sections;
  while (r.remaining() > 0) {
    Section s;
    s.id = r.u32();
    const std::uint64_t size = r.u64();
    if (!r.ok() || !r.fits(size, 1)) return LoadStatus::kCorrupt;
    s.payload.resize(static_cast<std::size_t>(size));
    r.bytes(s.payload.data(), s.payload.size());
    sections.push_back(std::move(s));
  }
  *tip = chain_id(kind, parent_id, seq, provider, fingerprint, sections);
  if (kind == kBase) {
    chain->base = Snapshot{provider, fingerprint, std::move(sections)};
  } else {
    chain->deltas.push_back(
        Delta{provider, fingerprint, parent_id, seq, std::move(sections)});
  }
  return LoadStatus::kOk;
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

LoadStatus load_chain(const std::string& path, std::uint64_t fingerprint,
                      Provider provider, Chain* out) {
  if (path.empty()) return LoadStatus::kNoFile;
  try {
    common::FaultInjector::site("ckpt.file.read");
  } catch (...) {
    return LoadStatus::kIoError;
  }
  Chain chain;
  std::uint64_t tip = 0;
  std::uint32_t links = 0;
  LoadStatus status = LoadStatus::kOk;
  const LogScanStats scan =
      visit_log(path, kChainLog, [&](std::span<const std::uint8_t> rec) {
        status = read_link(rec, fingerprint, provider, links++, &tip, &chain);
        return status == LoadStatus::kOk;
      });
  switch (scan.fresh) {
    case LogFresh::kNo: break;
    case LogFresh::kNoFile: return LoadStatus::kNoFile;
    case LogFresh::kIoError: return LoadStatus::kIoError;
    case LogFresh::kBadMagic: return LoadStatus::kBadMagic;
    case LogFresh::kBadVersion: return LoadStatus::kBadVersion;
  }
  if (status != LoadStatus::kOk) return status;
  // A complete record that failed its CRC cannot be skipped (the links
  // behind it would replay against a gap), and a file without a complete
  // base holds nothing to resume.
  if (scan.dropped > 0 || links == 0) return LoadStatus::kCorrupt;
  *out = std::move(chain);
  return LoadStatus::kOk;
}

void remove_chain(const std::string& path) {
  if (path.empty()) return;
  std::remove(path.c_str());
  remove_orphan_temps(path);
}

bool ChainWriter::write_link(bool base, const std::vector<Section>& sections) {
  std::array<std::uint8_t, kRecordHeaderBytes> head;
  io::store_le<std::uint32_t>(head.data(), base ? kBase : kDelta);
  io::store_le<std::uint32_t>(head.data() + 4,
                              static_cast<std::uint32_t>(provider_));
  io::store_le<std::uint64_t>(head.data() + 8, fingerprint_);
  io::store_le<std::uint64_t>(head.data() + 16, base ? 0 : tip_id_);
  io::store_le<std::uint32_t>(head.data() + 24, base ? 0 : next_seq_);
  // Section frames go next to their payloads in the gathered record; the
  // payloads themselves are never copied.
  std::vector<std::uint8_t> frames(sections.size() * kSectionFrameBytes);
  std::vector<std::span<const std::uint8_t>> parts;
  parts.reserve(1 + 2 * sections.size());
  parts.emplace_back(head);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    std::uint8_t* frame = frames.data() + i * kSectionFrameBytes;
    io::store_le<std::uint32_t>(frame, sections[i].id);
    io::store_le<std::uint64_t>(frame + 4, sections[i].payload.size());
    parts.emplace_back(frame, kSectionFrameBytes);
    parts.emplace_back(sections[i].payload);
  }
  if (!base) return log_.append(parts, "ckpt.delta.write");
  const RecordParts record(parts);
  return log_.rewrite(path_, kChainLog, {&record, 1}, "ckpt.file.write");
}

bool ChainWriter::save_base(const Snapshot& snap) {
  // A failed write leaves the log closed, so the next save retries a base.
  if (!write_link(true, snap.sections)) return false;
  tip_id_ = chain_id(kBase, 0, 0, provider_, fingerprint_, snap.sections);
  next_seq_ = 1;
  return true;
}

bool ChainWriter::save_delta_link(const std::vector<Section>& sections) {
  if (want_base() || !write_link(false, sections)) return false;
  tip_id_ = chain_id(kDelta, tip_id_, next_seq_, provider_, fingerprint_,
                     sections);
  ++next_seq_;
  return true;
}

}  // namespace quanta::ckpt
