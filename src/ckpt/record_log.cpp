#include "ckpt/record_log.h"

#include <cstring>

#include "ckpt/atomic_file.h"
#include "ckpt/crc32.h"
#include "ckpt/io.h"

namespace quanta::ckpt {
namespace {

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kHeaderBytes = kMagicBytes + 4 + 4;
constexpr std::size_t kFrameBytes = 4 + 4;  // [len u32][crc u32]

void write_header(io::Writer* w, const LogFormat& fmt) {
  w->bytes(fmt.magic, kMagicBytes);
  w->u32(fmt.version);
  w->u32(crc32(w->buffer().data(), kMagicBytes + 4));
}

/// nullptr when the header matches `fmt`, else the reason it does not.
const char* check_header(const std::uint8_t* data, std::size_t size,
                         const LogFormat& fmt) {
  if (size < kHeaderBytes) return "short header";
  if (std::memcmp(data, fmt.magic, kMagicBytes) != 0) return "bad magic";
  io::Reader r(data + kMagicBytes, 8);
  const std::uint32_t version = r.u32();
  const std::uint32_t stored_crc = r.u32();
  if (stored_crc != crc32(data, kMagicBytes + 4)) return "header CRC mismatch";
  if (version != fmt.version) return "format version mismatch";
  return nullptr;
}

void frame_record(io::Writer* w, const std::vector<std::uint8_t>& payload) {
  w->u32(static_cast<std::uint32_t>(payload.size()));
  w->u32(crc32(payload.data(), payload.size()));
  w->bytes(payload.data(), payload.size());
}

}  // namespace

LogScanStats scan_log(const std::string& path, const LogFormat& fmt,
                      std::vector<std::vector<std::uint8_t>>* records) {
  LogScanStats stats;
  std::vector<std::uint8_t> buf;
  switch (internal::read_file(path, &buf)) {
    case internal::ReadFile::kOk:
      break;
    case internal::ReadFile::kNoFile:
      stats.fresh = true;
      stats.note = "no log file";
      return stats;
    case internal::ReadFile::kIoError:
      stats.fresh = true;
      stats.note = "log unreadable";
      return stats;
  }
  if (const char* why = check_header(buf.data(), buf.size(), fmt)) {
    stats.fresh = true;
    stats.note = why;
    return stats;
  }
  std::size_t off = kHeaderBytes;
  while (off < buf.size()) {
    if (buf.size() - off < kFrameBytes) {
      stats.torn_tail = true;  // partial frame header: append died mid-write
      break;
    }
    io::Reader r(buf.data() + off, kFrameBytes);
    const std::uint32_t len = r.u32();
    const std::uint32_t stored_crc = r.u32();
    if (len > kMaxLogRecordBytes || buf.size() - off - kFrameBytes < len) {
      // A length this implausible (or reaching past EOF) means the frame
      // itself is torn; resynchronizing is impossible, so stop here.
      stats.torn_tail = true;
      break;
    }
    const std::uint8_t* payload = buf.data() + off + kFrameBytes;
    off += kFrameBytes + len;
    if (stored_crc != crc32(payload, len)) {
      ++stats.dropped;  // bit-flip inside one record: skip it, keep the rest
      continue;
    }
    if (records != nullptr) records->emplace_back(payload, payload + len);
    ++stats.records;
  }
  if (stats.torn_tail) {
    stats.note = stats.note.empty() ? "torn tail discarded" : stats.note;
  }
  if (stats.dropped > 0 && stats.note.empty()) {
    stats.note = "corrupt records dropped";
  }
  return stats;
}

bool rewrite_log(const std::string& path, const LogFormat& fmt,
                 const std::vector<std::vector<std::uint8_t>>& records,
                 const char* fault_site) {
  io::Writer w;
  write_header(&w, fmt);
  for (const auto& payload : records) frame_record(&w, payload);
  const std::span<const std::uint8_t> whole(w.buffer());
  return internal::write_file_atomic(path, {&whole, 1}, fault_site);
}

bool RecordLog::open(const std::string& path, const LogFormat& fmt,
                     std::string* error) {
  close();
  // Validate any existing header first: appending records behind a foreign
  // or torn header would make them unrecoverable on the next scan.
  std::vector<std::uint8_t> existing;
  const bool header_ok =
      internal::read_file(path, &existing) == internal::ReadFile::kOk &&
      check_header(existing.data(), existing.size(), fmt) == nullptr;
  f_ = std::fopen(path.c_str(), header_ok ? "ab" : "wb");
  if (f_ == nullptr) {
    if (error != nullptr) *error = "cannot open log " + path;
    return false;
  }
  if (!header_ok) {
    io::Writer w;
    write_header(&w, fmt);
    if (std::fwrite(w.buffer().data(), 1, w.size(), f_) != w.size() ||
        std::fflush(f_) != 0) {
      close();
      if (error != nullptr) *error = "cannot write log header " + path;
      return false;
    }
  }
  appended_bytes_ = 0;
  return true;
}

void RecordLog::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

bool RecordLog::append(const std::vector<std::uint8_t>& payload) {
  if (f_ == nullptr || payload.size() > kMaxLogRecordBytes) return false;
  io::Writer w;
  frame_record(&w, payload);
  if (std::fwrite(w.buffer().data(), 1, w.size(), f_) != w.size() ||
      std::fflush(f_) != 0) {
    close();  // sticky failure: no further appends against a sick stream
    return false;
  }
  appended_bytes_ += w.size();
  return true;
}

}  // namespace quanta::ckpt
