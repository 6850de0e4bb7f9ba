// Internal file-I/O helpers shared by the base-snapshot and delta-record
// writers: atomic temp-then-rename whole-file writes (with a FaultInjector
// site in the middle of the write, modelling a crash that tears the temp
// file), the section framing both formats share, and whole-file reads. Not
// part of the public ckpt API.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"

namespace quanta::ckpt::internal {

/// Writes the concatenation of `parts` to a temp file private to this
/// writer (<path>.tmp.<pid>.<n>, created exclusively, so concurrent writers
/// of one path never share an inode) and renames it over <path>. Returns
/// false on any failure — the previous file at `path`, if any, is untouched
/// and the torn temp file is removed. `fault_site` is visited between two
/// half-writes (an injected exception there models SIGKILL mid-write).
bool write_file_atomic(const std::string& path,
                       std::span<const std::span<const std::uint8_t>> parts,
                       const char* fault_site);

/// Atomically writes `header` followed by one frame per section —
/// [section id u32] [payload size u64] [payload crc32 u32] [payload bytes] —
/// straight from the section buffers, without assembling the file in memory.
bool write_sections_atomic(const std::string& path,
                           const std::vector<std::uint8_t>& header,
                           const std::vector<Section>& sections,
                           const char* fault_site);

/// Removes every temp file beside `path` whose name starts with its file
/// name (so the temps of <path> and of its delta files) and whose writer
/// process has exited. Temps of live writers, this process included, stay.
void remove_orphan_temps(const std::string& path);

/// Parses `count` section frames, checking each payload CRC. False on a
/// truncated frame, an implausible size or a CRC mismatch.
bool read_sections(io::Reader& r, std::uint32_t count,
                   std::vector<Section>* out);

enum class ReadFile { kOk, kNoFile, kIoError };

/// Reads the whole file into `out`. Never throws.
ReadFile read_file(const std::string& path, std::vector<std::uint8_t>* out);

}  // namespace quanta::ckpt::internal
