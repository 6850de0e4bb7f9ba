// Append-only CRC-framed record logs — the one durable-record layer of
// quanta: the service's write-ahead job journal (QJRNL1) and result-cache
// segment (QCSEG1), and every checkpoint chain (QCKPC1, src/ckpt/delta.h).
//
// File layout (all integers little-endian, DESIGN.md "Durable daemon
// state"):
//
//   [magic 8B] [format version u32] [header crc32 u32]
//   then per record:
//   [payload size u32] [payload crc32 u32] [payload bytes]
//
// Safety properties:
//   * a record only counts when its stored and recomputed CRC32 agree — a
//     bit-flipped record is skipped (its intact length field keeps the
//     stream in sync) and counted in `dropped`, never parsed; a caller that
//     cannot skip a record (a checkpoint chain) refuses the whole file;
//   * a trailing partial record (SIGKILL mid-append) is discarded as a torn
//     tail: everything before it survives. A length reaching past the bytes
//     actually read ends the scan the same way, so no length field ever
//     drives an allocation or a read beyond the file;
//   * a missing file, foreign magic or mismatched format version degrades
//     to "start fresh" (LogScanStats::fresh says why) — a scan never throws
//     and never fails a boot;
//   * RecordLog::rewrite (compaction, checkpoint bases) writes a temp file
//     private to the writer and renames it over the path, so a crash
//     mid-rewrite leaves the previous log intact; the writer keeps that
//     file open and appends to it, so a log is never reopened (and never
//     read back) to be appended to.
//
// Appends are fwrite + fflush: they survive process death (SIGKILL) — the
// bytes are in the kernel — but not power loss; the durability target is
// crash/restart, not fsync-grade storage semantics.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace quanta::ckpt {

/// Identity stamp of one log file: exactly 8 magic bytes plus a format
/// version that gates every layout change of the caller's payloads.
struct LogFormat {
  const char* magic;  ///< exactly 8 bytes, e.g. "QJRNL1\r\n"
  std::uint32_t version = 1;
};

/// Why a scan treated a file as empty ("start fresh"); kNo when it did not.
/// A short or damaged header counts as kBadMagic: nothing identifies the
/// file as a log of this format.
enum class LogFresh { kNo, kNoFile, kIoError, kBadMagic, kBadVersion };

/// How a scan went. `dropped` counts CRC-mismatched records that were
/// skipped in place.
struct LogScanStats {
  std::size_t records = 0;
  std::size_t dropped = 0;
  bool torn_tail = false;
  LogFresh fresh = LogFresh::kNo;
  std::string note;  ///< human-readable reason when fresh / records dropped
};

/// One record gathered from several byte ranges: framed, CRC'd and read
/// back as their concatenation, without being copied into one buffer.
using RecordParts = std::span<const std::span<const std::uint8_t>>;

/// Calls `visit` with every valid record of `path` in append order; the
/// payload lies in place in the scan's read buffer and is valid only during
/// the call. A visit returning false ends the scan. Never throws; any
/// corruption degrades per the rules above.
LogScanStats visit_log(
    const std::string& path, const LogFormat& fmt,
    const std::function<bool(std::span<const std::uint8_t>)>& visit);

/// Reads every valid record of `path` into *records (nullptr: count only).
LogScanStats scan_log(const std::string& path, const LogFormat& fmt,
                      std::vector<std::vector<std::uint8_t>>* records);

/// Append handle for one log, opened by rewrite(): every log is written
/// whole once and then appended to. Append failures are sticky: a failed
/// append closes the handle, so no record is ever written behind a
/// half-written one, and the file keeps its last complete record.
class RecordLog {
 public:
  RecordLog() = default;
  ~RecordLog() { close(); }
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Writes a header plus `records` to a temp file private to this writer
  /// (<path>.tmp.<pid>.<n>, created exclusively), renames it over `path`
  /// and keeps it open: later appends go to the file this call created,
  /// even after another writer renamed its own file over `path`. False on
  /// any failure, including a record over 4 GiB — the previous file at
  /// `path` is untouched, the temp is removed and this log is closed.
  /// `fault_site` is visited between two half-writes (an injected exception
  /// there models SIGKILL mid-write).
  bool rewrite(const std::string& path, const LogFormat& fmt,
               std::span<const RecordParts> records, const char* fault_site);
  /// The same with one whole payload per record (compaction of the journal
  /// and the cache segment).
  bool rewrite(const std::string& path, const LogFormat& fmt,
               const std::vector<std::vector<std::uint8_t>>& records,
               const char* fault_site);

  bool is_open() const { return f_ != nullptr; }
  void close();

  /// Appends one framed record and flushes. False on any failure — a write
  /// error, a record over 4 GiB, or an exception at `fault_site`, which is
  /// visited between the two halves of the frame — and the log is closed.
  bool append(RecordParts record, const char* fault_site = nullptr);
  bool append(const std::vector<std::uint8_t>& payload);

  /// Bytes appended through this handle since rewrite() — drives the
  /// callers' amortized compaction triggers.
  std::uint64_t appended_bytes() const { return appended_bytes_; }

 private:
  std::FILE* f_ = nullptr;
  std::uint64_t appended_bytes_ = 0;
};

/// Removes every temp file beside `path` whose name starts with its file
/// name and whose writer process has exited. Temps of live writers, this
/// process included, stay.
void remove_orphan_temps(const std::string& path);

}  // namespace quanta::ckpt
