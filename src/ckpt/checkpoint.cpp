#include "ckpt/checkpoint.h"

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ckpt/atomic_file.h"
#include "ckpt/crc32.h"
#include "common/env.h"
#include "common/fault.h"

namespace quanta::ckpt {

namespace internal {

namespace {

/// RAII FILE* on a temp file beside `target`, unlinked unless release()d —
/// the temp file never survives a failed save. Its name
/// <target>.tmp.<pid>.<n> is unique to this writer (n counts this process's
/// temp files) and created exclusively, so no other writer or remover ever
/// opens it; an existing name (a temp of a killed process whose pid was
/// reused) is skipped.
class TempFile {
 public:
  explicit TempFile(const std::string& target) {
    static std::atomic<std::uint64_t> next{0};
    const std::string prefix =
        target + ".tmp." + std::to_string(::getpid()) + ".";
    do {
      path_ = prefix + std::to_string(next.fetch_add(1));
      f_ = std::fopen(path_.c_str(), "wbx");
    } while (f_ == nullptr && errno == EEXIST);
    if (f_ == nullptr) path_.clear();  // nothing of ours to remove
  }
  ~TempFile() {
    if (f_ != nullptr) std::fclose(f_);
    if (!released_ && !path_.empty()) std::remove(path_.c_str());
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  std::FILE* get() { return f_; }
  const std::string& path() const { return path_; }
  /// Closes (flushing) and keeps the file; returns false if the flush fails.
  bool close_keep() {
    if (f_ == nullptr) return false;
    const bool ok = std::fclose(f_) == 0;
    f_ = nullptr;
    released_ = ok;
    return ok;
  }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  bool released_ = false;
};

/// Writes bytes [from, to) of the concatenated parts.
bool write_range(std::FILE* f,
                 std::span<const std::span<const std::uint8_t>> parts,
                 std::size_t from, std::size_t to) {
  std::size_t offset = 0;
  for (const std::span<const std::uint8_t> part : parts) {
    const std::size_t lo = std::max(from, offset);
    const std::size_t hi = std::min(to, offset + part.size());
    if (lo < hi && std::fwrite(part.data() + (lo - offset), 1, hi - lo, f) !=
                       hi - lo) {
      return false;
    }
    offset += part.size();
  }
  return true;
}

}  // namespace

bool write_file_atomic(const std::string& path,
                       std::span<const std::span<const std::uint8_t>> parts,
                       const char* fault_site) {
  std::string tmp;
  try {
    TempFile file(path);
    if (file.get() == nullptr) return false;
    tmp = file.path();
    // Two half-writes around the fault-injection site model a crash
    // mid-write: the torn prefix only ever lands in the temp file, which is
    // removed (or, after SIGKILL, ignored — it is never renamed into place).
    std::size_t total = 0;
    for (const std::span<const std::uint8_t> part : parts) total += part.size();
    const std::size_t half = total / 2;
    if (!write_range(file.get(), parts, 0, half)) return false;
    common::FaultInjector::site(fault_site);
    if (!write_range(file.get(), parts, half, total)) return false;
    if (!file.close_keep()) return false;
  } catch (...) {
    // Injected fault (or allocation failure) mid-write: TempFile already
    // removed the torn temp; the previous file at `path` is intact.
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool write_sections_atomic(const std::string& path,
                           const std::vector<std::uint8_t>& header,
                           const std::vector<Section>& sections,
                           const char* fault_site) {
  constexpr std::size_t kFrameSize = 4 + 8 + 4;
  std::vector<std::uint8_t> frames(sections.size() * kFrameSize);
  std::vector<std::span<const std::uint8_t>> parts;
  parts.reserve(1 + 2 * sections.size());
  parts.emplace_back(header);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const Section& s = sections[i];
    std::uint8_t* frame = frames.data() + i * kFrameSize;
    io::store_le<std::uint32_t>(frame, s.id);
    io::store_le<std::uint64_t>(frame + 4, s.payload.size());
    io::store_le<std::uint32_t>(frame + 12,
                                crc32(s.payload.data(), s.payload.size()));
    parts.emplace_back(frame, kFrameSize);
    parts.emplace_back(s.payload);
  }
  return write_file_atomic(path, parts, fault_site);
}

void remove_orphan_temps(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0              ? "/"
                                                    : path.substr(0, slash);
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (const dirent* entry = ::readdir(d)) {
    const std::string file = entry->d_name;
    if (file.compare(0, name.size(), name) != 0) continue;
    const std::size_t at = file.find(".tmp.", name.size());
    if (at == std::string::npos) continue;
    // Only the writer ever renames its temp, so once that process is gone
    // the file is garbage; a live writer's temp is never touched.
    const long pid = std::strtol(file.c_str() + at + 5, nullptr, 10);
    if (pid > 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 &&
        errno == ESRCH) {
      std::remove((dir + "/" + file).c_str());
    }
  }
  ::closedir(d);
}

bool read_sections(io::Reader& r, std::uint32_t count,
                   std::vector<Section>* out) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t id = r.u32();
    const std::uint64_t size = r.u64();
    const std::uint32_t payload_crc = r.u32();
    if (!r.ok() || !r.fits(size, 1)) return false;
    Section sec;
    sec.id = id;
    sec.payload.resize(static_cast<std::size_t>(size));
    if (!r.bytes(sec.payload.data(), sec.payload.size()) ||
        crc32(sec.payload.data(), sec.payload.size()) != payload_crc) {
      return false;
    }
    out->push_back(std::move(sec));
  }
  return r.ok();
}

ReadFile read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  try {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return errno == ENOENT ? ReadFile::kNoFile : ReadFile::kIoError;
    }
    std::uint8_t chunk[1 << 16];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      out->insert(out->end(), chunk, chunk + n);
    }
    const bool read_ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!read_ok) return ReadFile::kIoError;
  } catch (...) {
    return ReadFile::kIoError;
  }
  return ReadFile::kOk;
}

}  // namespace internal

namespace {

constexpr char kMagic[8] = {'Q', 'C', 'K', 'P', 'T', '1', '\r', '\n'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 4 + 4;

}  // namespace

const char* to_string(LoadStatus s) {
  switch (s) {
    case LoadStatus::kOk: return "ok";
    case LoadStatus::kNoFile: return "no-file";
    case LoadStatus::kIoError: return "io-error";
    case LoadStatus::kBadMagic: return "bad-magic";
    case LoadStatus::kBadVersion: return "bad-version";
    case LoadStatus::kBadProvider: return "bad-provider";
    case LoadStatus::kBadFingerprint: return "bad-fingerprint";
    case LoadStatus::kCorrupt: return "corrupt";
  }
  return "?";
}

std::uint64_t Options::effective_interval() const {
  // Strict QUANTA_JOBS-style parsing (common::env_u64): the whole string must
  // be a positive decimal number — "12abc", "1e3", "-5", "0" and "" all fall
  // back to the programmatic interval rather than silently disabling or
  // misreading the cadence.
  if (const auto v = common::env_u64("QUANTA_CKPT_INTERVAL", kMaxInterval)) {
    return *v;
  }
  return interval;
}

const Section* Snapshot::find(std::uint32_t id) const {
  for (const Section& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

Fingerprint& Fingerprint::mix_f64(double v) {
  return mix(std::bit_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::mix_str(const std::string& s) {
  mix(s.size());
  for (char c : s) {
    h_ ^= static_cast<std::uint8_t>(c);
    h_ *= 0x100000001B3ull;
  }
  return *this;
}

bool save(const std::string& path, const Snapshot& snap) {
  if (path.empty()) return false;
  io::Writer header;
  header.bytes(kMagic, sizeof(kMagic));
  header.u32(kFormatVersion);
  header.u32(static_cast<std::uint32_t>(snap.provider));
  header.u64(snap.fingerprint);
  header.u32(static_cast<std::uint32_t>(snap.sections.size()));
  header.u32(crc32(header.buffer().data(), header.size()));
  return internal::write_sections_atomic(path, header.buffer(), snap.sections,
                                         "ckpt.file.write");
}

LoadStatus load(const std::string& path, std::uint64_t expected_fingerprint,
                Provider expected_provider, Snapshot* out) {
  if (path.empty()) return LoadStatus::kNoFile;
  std::vector<std::uint8_t> buf;
  try {
    common::FaultInjector::site("ckpt.file.read");
    switch (internal::read_file(path, &buf)) {
      case internal::ReadFile::kNoFile: return LoadStatus::kNoFile;
      case internal::ReadFile::kIoError: return LoadStatus::kIoError;
      case internal::ReadFile::kOk: break;
    }
  } catch (...) {
    return LoadStatus::kIoError;
  }

  if (buf.size() < kHeaderSize) return LoadStatus::kCorrupt;
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return LoadStatus::kBadMagic;
  }
  const std::uint32_t computed_header_crc = crc32(buf.data(), kHeaderSize - 4);
  io::Reader r(buf.data() + sizeof(kMagic), buf.size() - sizeof(kMagic));
  const std::uint32_t version = r.u32();
  const std::uint32_t provider = r.u32();
  const std::uint64_t fingerprint = r.u64();
  const std::uint32_t section_count = r.u32();
  const std::uint32_t header_crc = r.u32();
  if (header_crc != computed_header_crc) return LoadStatus::kCorrupt;
  if (version != kFormatVersion) return LoadStatus::kBadVersion;
  if (provider != static_cast<std::uint32_t>(expected_provider)) {
    return LoadStatus::kBadProvider;
  }
  if (fingerprint != expected_fingerprint) return LoadStatus::kBadFingerprint;

  Snapshot snap;
  snap.provider = expected_provider;
  snap.fingerprint = fingerprint;
  if (!internal::read_sections(r, section_count, &snap.sections)) {
    return LoadStatus::kCorrupt;
  }
  *out = std::move(snap);
  return LoadStatus::kOk;
}

}  // namespace quanta::ckpt
