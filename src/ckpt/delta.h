// Incremental delta snapshots: the QCKPD1 record and the checkpoint chain.
//
// A full (base) snapshot of a store-based engine rewrites every interned
// state at every periodic save, so its cost grows with store size times
// save count (EXPERIMENTS.md "Checkpointing overhead"). Exploration state is
// almost append-only, so a periodic checkpoint only needs what changed since
// the last save: the appended store entries, the covered/tombstone bits that
// flipped, the worklist delta and the engine payload suffix. Those ride in a
// QCKPD1 delta record; the checkpoint then consists of the base snapshot at
// <path> plus delta files <path>.d1, <path>.d2, ... forming a chain.
//
// Delta file layout (little-endian, DESIGN.md "Delta records"; format
// version 2):
//
//   [magic "QCKPD1\r\n" 8B] [format u32] [provider u32] [fingerprint u64]
//   [parent id u64] [seq u32] [section count u32] [header crc32 u32]
//   then per section, exactly as in a base snapshot:
//   [section id u32] [payload size u64] [payload crc32 u32] [payload bytes]
//
// Chain integrity — the "base-snapshot id" that links records:
//   * the base snapshot's chain id is an FNV-1a hash (Fingerprint) of its
//     provider, fingerprint and section list, where each section enters as
//     (id, size, content_hash64(payload)) — a 64-bit hash of every payload
//     byte, folded in one 8-byte word at a time;
//   * delta k stores the chain id of its predecessor (the base for k = 1)
//     in `parent id`, and its own chain id is the same hash seeded with
//     (parent id, seq);
//   * the loader replays base + d1 + d2 + ... validating every link; a
//     *missing* delta file is the clean end of the chain, but any delta
//     that exists and fails validation (CRC, magic, format version,
//     fingerprint, parent id, sequence number) is a broken link and the
//     whole chain is refused — the engine degrades to a fresh start, never
//     resumes mixed state. Version 1 records (chain ids over an FNV-1a
//     byte pass) are refused as kBadVersion.
//
// Crash safety of the writer (ChainWriter):
//   * every file — base and delta alike — is written to a temp file private
//     to its writer and renamed into place, so a SIGKILL mid-write leaves at
//     most a stray temp and the chain ends at the previous, fully validated
//     link;
//   * compaction (a new base after Options::max_deltas deltas) removes the
//     old delta files in DESCENDING order before renaming the new base into
//     place, so every intermediate crash state is either the old chain, a
//     contiguous prefix of it, or the fresh base with no deltas — never a
//     new base with stale deltas (the parent id would refuse them anyway).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"

namespace quanta::ckpt {

/// Format version of the QCKPD1 delta record, bumped independently of the
/// base snapshot format. Version 2: chain ids hash payloads with
/// content_hash64 instead of a byte-wise FNV-1a pass.
inline constexpr std::uint32_t kDeltaFormatVersion = 2;

/// One incremental delta record: the changes since the predecessor link.
struct Delta {
  Provider provider = Provider::kExplore;
  std::uint64_t fingerprint = 0;  ///< model/query fp, same as the base
  std::uint64_t parent_id = 0;    ///< chain id of the predecessor link
  std::uint32_t seq = 0;          ///< 1-based position in the chain
  std::vector<Section> sections;

  void add_section(std::uint32_t id, io::Writer&& w) {
    sections.push_back(Section{id, w.take()});
  }
  const Section* find(std::uint32_t id) const;
};

/// Path of the seq-th delta file of the chain rooted at `base_path`.
std::string delta_path(const std::string& base_path, std::uint32_t seq);

/// 64-bit hash of every byte of a range, folded in one little-endian 8-byte
/// word at a time (a multiply-rotate round per word, a final avalanche):
/// the payload hash that chain ids are built from. Its values are part of
/// delta format version 2.
std::uint64_t content_hash64(const void* data, std::size_t size);

/// Content hash of a base snapshot — the chain id deltas link against.
std::uint64_t chain_id(const Snapshot& base);
/// Chain id of a delta given its predecessor's id.
std::uint64_t chain_id(std::uint64_t parent_id, const Delta& d);

/// Atomically writes the delta record to delta_path(base_path, d.seq).
/// Returns false on any I/O failure (the chain keeps its previous tip).
/// Visits FaultInjector site "ckpt.delta.write".
bool save_delta(const std::string& base_path, const Delta& d);

/// A validated checkpoint chain, ready to replay: the base snapshot plus
/// zero or more deltas in sequence order.
struct Chain {
  Snapshot base;
  std::vector<Delta> deltas;
  /// Chain id of the last link — a ChainWriter adopts this to append.
  std::uint64_t tip_id = 0;
};

/// Loads and validates the whole chain at `path`. kOk means the base and
/// every contiguous delta validated (a missing delta file ends the chain
/// cleanly); any delta that exists but fails validation — bad CRC or magic,
/// wrong provider/fingerprint/format, a parent id that does not match the
/// predecessor, an out-of-order sequence number — poisons the entire chain
/// (kCorrupt or the specific status), so the caller starts fresh. Visits
/// FaultInjector sites "ckpt.file.read" (base) and "ckpt.delta.apply"
/// (per delta).
LoadStatus load_chain(const std::string& path, std::uint64_t fingerprint,
                      Provider provider, Chain* out);

/// Removes delta files starting at `from_seq`, highest sequence first, so a
/// crash mid-removal always leaves a contiguous chain prefix.
void remove_deltas(const std::string& base_path, std::uint32_t from_seq = 1);

/// Removes the entire checkpoint chain at `base_path`: every delta
/// (descending), the base snapshot, and the temp files of writers that were
/// killed mid-write. A live writer's temp (a concurrent job on the same
/// chain) is never touched. Used when a resume token is claimed to
/// completion.
void remove_chain(const std::string& base_path);

/// Append/compact policy shared by the delta-snapshotting providers. One
/// ChainWriter lives for the duration of an engine run; the engine asks
/// want_base() before each periodic save and serializes either a full
/// snapshot or just the changes since the last successful save.
class ChainWriter {
 public:
  ChainWriter(std::string path, Provider provider, std::uint64_t fingerprint,
              std::uint32_t max_deltas)
      : path_(std::move(path)),
        provider_(provider),
        fingerprint_(fingerprint),
        max_deltas_(max_deltas) {}

  /// Continue a freshly loaded chain instead of starting a new one.
  void adopt(const Chain& chain) {
    base_written_ = true;
    next_seq_ = static_cast<std::uint32_t>(chain.deltas.size()) + 1;
    tip_id_ = chain.tip_id;
  }

  /// True when the next save must be a full base snapshot: nothing written
  /// yet, deltas disabled (max_deltas == 0), or the chain is due for
  /// compaction.
  bool want_base() const {
    return !base_written_ || max_deltas_ == 0 || next_seq_ > max_deltas_;
  }

  /// Writes a full base snapshot, retiring any existing delta chain (old
  /// deltas are removed descending before the base is renamed into place).
  bool save_base(Snapshot&& snap);

  /// Appends a delta with the given sections to the chain tip. Only valid
  /// when !want_base().
  bool save_delta_link(std::vector<Section>&& sections);

 private:
  std::string path_;
  Provider provider_;
  std::uint64_t fingerprint_ = 0;
  std::uint32_t max_deltas_ = 0;
  bool base_written_ = false;
  std::uint32_t next_seq_ = 1;
  std::uint64_t tip_id_ = 0;
};

}  // namespace quanta::ckpt
