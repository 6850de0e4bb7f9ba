#include "ckpt/record_log.h"

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "ckpt/crc32.h"
#include "ckpt/io.h"
#include "common/fault.h"

namespace quanta::ckpt {
namespace {

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kHeaderBytes = kMagicBytes + 4 + 4;
constexpr std::size_t kFrameBytes = 4 + 4;  // [len u32][crc u32]

using Header = std::array<std::uint8_t, kHeaderBytes>;
using Frame = std::array<std::uint8_t, kFrameBytes>;
using Bytes = std::span<const std::uint8_t>;

Header make_header(const LogFormat& fmt) {
  Header h;
  std::memcpy(h.data(), fmt.magic, kMagicBytes);
  io::store_le<std::uint32_t>(h.data() + kMagicBytes, fmt.version);
  io::store_le<std::uint32_t>(h.data() + kMagicBytes + 4,
                              crc32(h.data(), kMagicBytes + 4));
  return h;
}

/// nullptr when the header matches `fmt`, else the reason it does not;
/// *why classifies the mismatch.
const char* check_header(const std::uint8_t* data, std::size_t size,
                         const LogFormat& fmt, LogFresh* why) {
  *why = LogFresh::kBadMagic;
  if (size < kHeaderBytes) return "short header";
  if (std::memcmp(data, fmt.magic, kMagicBytes) != 0) return "bad magic";
  const auto version = io::load_le<std::uint32_t>(data + kMagicBytes);
  const auto stored_crc = io::load_le<std::uint32_t>(data + kMagicBytes + 4);
  if (stored_crc != crc32(data, kMagicBytes + 4)) return "header CRC mismatch";
  if (version != fmt.version) {
    *why = LogFresh::kBadVersion;
    return "format version mismatch";
  }
  *why = LogFresh::kNo;
  return nullptr;
}

/// The frame of a record gathered from `record`: its length and the CRC32
/// of all its bytes, accumulated part by part. False when the record does
/// not fit the u32 length field.
bool frame(RecordParts record, Frame* out) {
  std::size_t size = 0;
  for (const Bytes part : record) size += part.size();
  if (size > std::numeric_limits<std::uint32_t>::max()) return false;
  std::uint32_t crc = kCrc32Init;
  for (const Bytes part : record) {
    crc = crc32_update(crc, part.data(), part.size());
  }
  io::store_le<std::uint32_t>(out->data(), static_cast<std::uint32_t>(size));
  io::store_le<std::uint32_t>(out->data() + 4, crc32_final(crc));
  return true;
}

/// Writes bytes [from, to) of the concatenated parts.
bool write_range(std::FILE* f, std::span<const Bytes> parts, std::size_t from,
                 std::size_t to) {
  std::size_t offset = 0;
  for (const Bytes part : parts) {
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

/// Writes the concatenated parts in two halves and flushes, visiting
/// `fault_site` in between: an injected fault there leaves exactly the
/// torn prefix a process killed mid-write would.
bool write_halves(std::FILE* f, std::span<const Bytes> parts,
                  const char* fault_site) {
  std::size_t total = 0;
  for (const Bytes part : parts) total += part.size();
  if (!write_range(f, parts, 0, total / 2)) return false;
  if (fault_site != nullptr) common::FaultInjector::site(fault_site);
  return write_range(f, parts, total / 2, total) && std::fflush(f) == 0;
}

/// RAII FILE* on a temp file beside `target`, removed unless release()d —
/// the temp file never survives a failed write. Its name
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
  }
  ~TempFile() {
    if (f_ != nullptr) {
      std::fclose(f_);
      std::remove(path_.c_str());
    }
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  std::FILE* get() { return f_; }
  const std::string& path() const { return path_; }
  /// Hands the open handle over; the file is kept.
  std::FILE* release() { return std::exchange(f_, nullptr); }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
};

enum class ReadFile { kOk, kNoFile, kIoError };

/// Reads the whole file into `out`. Never throws.
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

}  // namespace

LogScanStats visit_log(
    const std::string& path, const LogFormat& fmt,
    const std::function<bool(std::span<const std::uint8_t>)>& visit) {
  LogScanStats stats;
  std::vector<std::uint8_t> buf;
  switch (read_file(path, &buf)) {
    case ReadFile::kOk:
      break;
    case ReadFile::kNoFile:
      stats.fresh = LogFresh::kNoFile;
      stats.note = "no log file";
      return stats;
    case ReadFile::kIoError:
      stats.fresh = LogFresh::kIoError;
      stats.note = "log unreadable";
      return stats;
  }
  if (const char* why =
          check_header(buf.data(), buf.size(), fmt, &stats.fresh)) {
    stats.note = why;
    return stats;
  }
  std::size_t off = kHeaderBytes;
  while (off < buf.size()) {
    if (buf.size() - off < kFrameBytes) {
      stats.torn_tail = true;  // partial frame header: append died mid-write
      break;
    }
    const auto len = io::load_le<std::uint32_t>(buf.data() + off);
    const auto stored_crc = io::load_le<std::uint32_t>(buf.data() + off + 4);
    if (buf.size() - off - kFrameBytes < len) {
      // A length reaching past the end of the file: the append died
      // mid-record, or the length field itself is damaged. Resynchronizing
      // is impossible either way, so stop here.
      stats.torn_tail = true;
      break;
    }
    const std::uint8_t* payload = buf.data() + off + kFrameBytes;
    off += kFrameBytes + len;
    if (stored_crc != crc32(payload, len)) {
      ++stats.dropped;  // bit-flip inside one record: skip it, keep the rest
      continue;
    }
    ++stats.records;
    if (!visit({payload, len})) break;
  }
  if (stats.torn_tail) stats.note = "torn tail discarded";
  if (stats.dropped > 0 && stats.note.empty()) {
    stats.note = "corrupt records dropped";
  }
  return stats;
}

LogScanStats scan_log(const std::string& path, const LogFormat& fmt,
                      std::vector<std::vector<std::uint8_t>>* records) {
  return visit_log(path, fmt, [records](std::span<const std::uint8_t> rec) {
    if (records != nullptr) records->emplace_back(rec.begin(), rec.end());
    return true;
  });
}

bool RecordLog::rewrite(const std::string& path, const LogFormat& fmt,
                        std::span<const RecordParts> records,
                        const char* fault_site) {
  close();
  const Header header = make_header(fmt);
  std::vector<Frame> frames(records.size());
  std::vector<Bytes> parts{header};
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!frame(records[i], &frames[i])) return false;
    parts.emplace_back(frames[i]);
    parts.insert(parts.end(), records[i].begin(), records[i].end());
  }
  std::string tmp;
  std::FILE* f = nullptr;
  try {
    TempFile file(path);
    if (file.get() == nullptr || !write_halves(file.get(), parts, fault_site)) {
      return false;
    }
    tmp = file.path();
    f = file.release();
  } catch (...) {
    // Injected fault (or allocation failure) mid-write: TempFile already
    // removed the torn temp; the previous file at `path` is intact.
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return false;
  }
  f_ = f;
  appended_bytes_ = 0;
  return true;
}

bool RecordLog::rewrite(const std::string& path, const LogFormat& fmt,
                        const std::vector<std::vector<std::uint8_t>>& records,
                        const char* fault_site) {
  const std::vector<Bytes> payloads(records.begin(), records.end());
  std::vector<RecordParts> parts;
  parts.reserve(payloads.size());
  for (const Bytes& payload : payloads) parts.emplace_back(&payload, 1);
  return rewrite(path, fmt, parts, fault_site);
}

void RecordLog::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

bool RecordLog::append(RecordParts record, const char* fault_site) {
  Frame head;
  bool ok = f_ != nullptr && frame(record, &head);
  if (ok) {
    std::vector<Bytes> parts{head};
    parts.insert(parts.end(), record.begin(), record.end());
    try {
      ok = write_halves(f_, parts, fault_site);
    } catch (...) {
      ok = false;  // injected fault between the two halves of the frame
    }
    if (ok) {
      appended_bytes_ += kFrameBytes + io::load_le<std::uint32_t>(head.data());
    }
  }
  if (!ok) close();  // sticky failure: no record behind a torn one
  return ok;
}

bool RecordLog::append(const std::vector<std::uint8_t>& payload) {
  const Bytes part(payload);
  return append(RecordParts(&part, 1));
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

}  // namespace quanta::ckpt
