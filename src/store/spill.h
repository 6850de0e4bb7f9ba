// store::SpillFile — the out-of-core tier of the zone pool: an append-only,
// memory-mapped file of fixed-width int32 records (the same word-for-word
// payload layout checkpoints use for zone matrices, so a spilled record is
// bit-identical to its serialized form).
//
// Writes go through pwrite() so the mapped pages stay *clean*: the kernel
// may drop them under memory pressure and page them back in on demand, which
// is exactly the out-of-core behaviour we want — resident set stays bounded
// by the arena budget while reads through the read-only mapping cost one
// page fault on a cold record and nothing on a warm one.
//
// Failure policy: every operation degrades instead of throwing. A failed
// open/extend/write marks the file failed; the pool then keeps payloads
// resident (correct, just no longer bounded) and counts the failure in its
// metrics. Reads are bounds-checked against the written high-water mark, so
// a short or failed write can never hand out bytes that were not durably
// produced by this process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace quanta::store {

class SpillFile {
 public:
  SpillFile() = default;
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;

  /// Creates/truncates `path`, writes the QSPL1 header and maps a sparse
  /// region of `cap_bytes`. Any pre-existing content — including a file left
  /// truncated mid-record by a crashed or interfered-with run — is discarded
  /// wholesale: the spill tier is a cache rebuilt from interned state, so the
  /// only safe reaction to a suspect file is a fresh start. Returns false
  /// (and stays disabled) when the file cannot be created or mapped.
  bool open(const std::string& path, std::size_t cap_bytes);

  /// True when the file is usable (open succeeded, no write has failed).
  bool ok() const { return fd_ >= 0 && !failed_; }

  /// Appends `words` int32s; returns the byte offset of the record or
  /// SIZE_MAX on failure (the file is then marked failed). Fault-injection
  /// site "store.spill.write" fires before the write.
  std::size_t append(const std::int32_t* words, std::size_t count);

  /// Zero-copy read through the mapping. Returns an empty span unless the
  /// whole record lies below the written high-water mark.
  std::span<const std::int32_t> read(std::size_t offset,
                                     std::size_t count) const;

  /// Bytes appended so far (the high-water mark reads are checked against).
  std::size_t written_bytes() const { return tail_; }
  const std::string& path() const { return path_; }

 private:
  void close_all() noexcept;

  int fd_ = -1;
  bool failed_ = false;
  const std::uint8_t* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t tail_ = 0;  ///< next append offset (starts past the header)
  std::string path_;
};

}  // namespace quanta::store
