// Checkpoint chains: one record log per checkpoint, holding a base
// snapshot and the incremental deltas appended after it.
//
// A full (base) snapshot of a store-based engine rewrites every interned
// state at every periodic save, so its cost grows with store size times
// save count (EXPERIMENTS.md "Checkpointing overhead"). Exploration state is
// almost append-only, so a periodic checkpoint only needs what changed since
// the last save: the appended store entries, the covered/tombstone bits that
// flipped, the worklist delta and the engine payload suffix. Those ride in a
// delta record appended to the file that holds the base. The store engines
// (mc reachability and leads-to, TIGA, CORA) write and replay their chains
// through one driver, StoreChain (src/ckpt/store_chain.h).
//
// File layout (little-endian, DESIGN.md "Checkpoint format"): a RecordLog
// (src/ckpt/record_log.h) with magic "QCKPC1\r\n" and format version
// kFormatVersion, whose every record is
//
//   [kind u32: 0 base, 1 delta] [provider u32] [fingerprint u64]
//   [parent id u64] [seq u32]
//   then per section:
//   [section id u32] [payload size u64] [payload bytes]
//
// The record's one CRC32 (in the log frame) covers all of it, section ids
// and sizes included.
//
// Chain integrity — the "base-snapshot id" that links records:
//   * the base's chain id is an FNV-1a hash (Fingerprint) of its provider,
//     fingerprint and section list, where each section enters as (id, size,
//     content_hash64(payload)) — a 64-bit hash of every payload byte, folded
//     in one 8-byte word at a time;
//   * the base has parent id 0 and seq 0; delta k stores the chain id of
//     its predecessor in `parent id` and k in `seq`, and its own chain id is
//     the same hash seeded with (parent id, seq);
//   * load_chain scans the file once: the first record must be a base, and
//     each later one a delta whose provider, fingerprint, parent id and seq
//     link it to its predecessor. A torn last record (SIGKILL mid-append) is
//     the clean end of the chain; a complete record that fails its CRC or
//     any link check refuses the whole chain — the engine starts fresh,
//     never resumes mixed state.
//
// Crash safety of the writer (ChainWriter):
//   * a base (the first save, a save after a resume, a compaction after
//     Options::max_deltas deltas) goes to a temp file private to the writer
//     that is renamed over <path>, so a crash leaves the previous chain or
//     the new one, never a mix; the rename retires the old chain in one step;
//   * the writer keeps that file open and appends each delta as one framed
//     record (fwrite + fflush), so it only ever appends to the file it
//     created itself, whatever another writer renamed over <path> since;
//   * a failed append (an I/O error, or a fault between the two halves of
//     the frame) closes the file and makes the next save a base, so no
//     record is ever written behind a half-written one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/record_log.h"

namespace quanta::ckpt {

/// One incremental delta record: the changes since the predecessor link.
struct Delta {
  Provider provider = Provider::kExplore;
  std::uint64_t fingerprint = 0;  ///< model/query fp, same as the base
  std::uint64_t parent_id = 0;    ///< chain id of the predecessor link
  std::uint32_t seq = 0;          ///< 1-based position in the chain
  std::vector<Section> sections;

  const Section* find(std::uint32_t id) const {
    return find_section(sections, id);
  }
};

/// 64-bit hash of every byte of a range, folded in one little-endian 8-byte
/// word at a time (a multiply-rotate round per word, a final avalanche):
/// the payload hash that chain ids are built from. Its values are part of
/// the checkpoint format (fixed since delta format version 2).
std::uint64_t content_hash64(const void* data, std::size_t size);

/// A validated checkpoint chain, ready to replay: the base snapshot plus
/// zero or more deltas in sequence order.
struct Chain {
  Snapshot base;
  std::vector<Delta> deltas;
};

/// Loads and validates the whole chain at `path` in one scan. kOk means the
/// base and every complete delta behind it validated (a torn last record
/// ends the chain cleanly); a complete record that fails its CRC, a first
/// record that is not a base, or a delta with the wrong provider,
/// fingerprint, parent id or seq refuses the entire chain (kCorrupt or the
/// specific status), so the caller starts fresh. Visits FaultInjector sites
/// "ckpt.file.read" (once) and "ckpt.delta.apply" (per delta).
LoadStatus load_chain(const std::string& path, std::uint64_t fingerprint,
                      Provider provider, Chain* out);

/// Removes the checkpoint at `path` and the temp files of writers that were
/// killed mid-write. A live writer's temp (a concurrent job on the same
/// chain) is never touched, and a writer still appending keeps its own
/// (now unlinked) file. Used when a resume token is claimed to completion.
void remove_chain(const std::string& path);

/// Append/compact policy of a checkpoint chain. One ChainWriter lives for
/// the duration of a run; its owner — StoreChain for the store engines —
/// asks want_base() before each save and serializes either a full snapshot
/// or just the changes since the last successful save.
class ChainWriter {
 public:
  ChainWriter(std::string path, Provider provider, std::uint64_t fingerprint,
              std::uint32_t max_deltas)
      : path_(std::move(path)),
        provider_(provider),
        fingerprint_(fingerprint),
        max_deltas_(max_deltas) {}

  /// True when the next save must be a full base snapshot: no base written
  /// by this writer yet (a resumed run starts a fresh chain), the last save
  /// failed, deltas are disabled (max_deltas == 0), or the chain is due for
  /// compaction.
  bool want_base() const {
    return !log_.is_open() || max_deltas_ == 0 || next_seq_ > max_deltas_;
  }

  /// Atomically replaces the chain with a new one holding only this base.
  /// The snapshot's provider and fingerprint are the writer's.
  bool save_base(const Snapshot& snap);

  /// Appends a delta with the given sections to the chain tip. Only valid
  /// when !want_base().
  bool save_delta_link(const std::vector<Section>& sections);

 private:
  bool write_link(bool base, const std::vector<Section>& sections);

  std::string path_;
  Provider provider_;
  std::uint64_t fingerprint_ = 0;
  std::uint32_t max_deltas_ = 0;
  RecordLog log_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t tip_id_ = 0;
};

}  // namespace quanta::ckpt
