// Crash-safe checkpoint files: the warm-restart substrate of the resource
// governance layer. When a common::Budget stops an analysis (deadline,
// memory ceiling, cancellation) — or periodically, so even a SIGKILL loses
// at most one snapshot interval — the engine serializes its resumable state
// into a snapshot and writes it atomically; the follow-up invocation
// validates and loads it, continuing exactly where the interrupted run
// stopped with bit-identical final verdicts and statistics.
//
// On disk a checkpoint is one record log (src/ckpt/record_log.h, DESIGN.md
// "Checkpoint format"): a base snapshot record, followed by incremental
// delta records for the store-based engines (src/ckpt/delta.h). save() and
// load() write and read a log holding a lone base.
//
// Safety properties:
//   * atomic visibility — a base goes to a temp file private to the writer
//     (<path>.tmp.<pid>.<n>) that is rename()d over <path>, so a crash
//     mid-write leaves either the previous checkpoint or a stray temp file,
//     never a torn file at <path>;
//   * validated resume — load() checks magic, format version, model
//     fingerprint, provider and the CRC of every record; any mismatch
//     degrades to a fresh start (LoadStatus says why), never a crash and
//     never an engine resumed from tainted state;
//   * no exceptions — save() reports failure by returning false (the run's
//     verdict is unaffected), load() by LoadStatus.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/io.h"

namespace quanta::ckpt {

/// Format version of the checkpoint log, bumped whenever the record layout
/// or any provider section changes; a checkpoint from another format
/// version is never parsed.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Which snapshot provider wrote a checkpoint. A checkpoint is only resumed
/// by the provider that produced it.
enum class Provider : std::uint32_t {
  kExplore = 1,         ///< core::explore store/worklist/payload snapshot
  kValueIteration = 2,  ///< mdp/pta value vectors + sweep index
  kStatistical = 3,     ///< smc/mbt completed-run prefix + statistics
  kLiveness = 4,        ///< mc leads-to zone graph + successor lists
  kGame = 5,            ///< timed-game graph + attractor fixpoint state
  kPriced = 6,          ///< CORA min-cost search (priority worklist + costs)
  kSprt = 7,            ///< SPRT in-order LLR walk position
};

/// Outcome of a resume attempt. Everything except kOk means "start fresh";
/// the distinction is purely diagnostic.
enum class LoadStatus {
  kOk,              ///< snapshot validated and parsed
  kNoFile,          ///< nothing at the path (first run)
  kIoError,         ///< open/read failed (permissions, injected fault)
  kBadMagic,        ///< not a checkpoint file
  kBadVersion,      ///< incompatible format version
  kBadProvider,     ///< written by a different snapshot provider
  kBadFingerprint,  ///< model/query fingerprint mismatch
  kCorrupt,         ///< record CRC mismatch, broken link, no complete base
};

const char* to_string(LoadStatus s);

struct Section {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> payload;
};

/// The first section with id `id`, or nullptr.
const Section* find_section(const std::vector<Section>& sections,
                            std::uint32_t id);

struct Snapshot {
  Provider provider = Provider::kExplore;
  std::uint64_t fingerprint = 0;
  std::vector<Section> sections;

  void add_section(std::uint32_t id, io::Writer&& w) {
    sections.push_back(Section{id, w.take()});
  }
  /// nullptr when the snapshot has no such section.
  const Section* find(std::uint32_t id) const {
    return find_section(sections, id);
  }
};

/// Atomically replaces `path` with a log holding `snap` as its lone base
/// record (write a private temp file, rename); the sections stream straight
/// from `snap`. Returns false on any I/O failure — the previous checkpoint,
/// if any, is left untouched. Visits FaultInjector site "ckpt.file.write".
bool save(const std::string& path, const Snapshot& snap);

/// Validates and parses the checkpoint at `path` and returns its base
/// record — all of it for a save() file; chains with deltas are read with
/// load_chain. On anything but kOk, `out` is left untouched. Visits
/// FaultInjector site "ckpt.file.read".
LoadStatus load(const std::string& path, std::uint64_t expected_fingerprint,
                Provider expected_provider, Snapshot* out);

/// FNV-1a accumulator for model/query fingerprints. Engines mix every
/// structural feature of the model, the canonical serialization of the
/// query predicate AST (common::Predicate::canonical) and the analysis
/// parameters that affect the computation, so a checkpoint is only ever
/// resumed against the same (model, query) pair. Closures that bypass the
/// structural builders canonicalize as an indistinct "opaque" leaf — wrap
/// them in labeled_pred when one path serves several such queries.
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
    return *this;
  }
  Fingerprint& mix_i64(std::int64_t v) { return mix(static_cast<std::uint64_t>(v)); }
  Fingerprint& mix_f64(double v);
  Fingerprint& mix_str(const std::string& s);

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Engine-facing checkpoint policy, embedded in each governed entry point's
/// options (mc::ReachOptions, mdp::ViOptions, the smc estimate API).
struct Options {
  /// Checkpoint file; empty disables checkpointing entirely.
  std::string path;
  /// Attempt to resume from `path` before starting (a failed attempt — no
  /// file, corruption, fingerprint mismatch — degrades to a fresh start).
  bool resume = true;
  /// Write a snapshot when a resource bound stops the run, so the verdict's
  /// kUnknown carries a warm-restart artifact.
  bool save_on_stop = true;
  /// Periodic snapshot cadence in the engine's own progress unit (explored
  /// states for core::explore, sweeps for value iteration, completed runs
  /// for the statistical engines); 0 = snapshot only on stop. Periodic
  /// snapshots are what make an outright SIGKILL resumable.
  std::uint64_t interval = 0;
  /// Periodic snapshots of the store-based providers append incremental
  /// delta records to the checkpoint log (src/ckpt/delta.h) instead of
  /// rewriting the full base snapshot; after this many deltas the chain is
  /// compacted into a fresh base. 0 disables deltas (every periodic
  /// snapshot is a full base).
  std::uint32_t max_deltas = 64;

  bool enabled() const { return !path.empty(); }
};

/// How checkpointing went for one analysis run; carried by the engine's
/// result next to the verdict (the "resume handle" of a kUnknown verdict:
/// `saved` says the path now holds a snapshot the next invocation picks up).
struct ResumeInfo {
  /// Result of the resume attempt at the start of the run.
  LoadStatus load = LoadStatus::kNoFile;
  /// The run continued from a validated snapshot (load == kOk).
  bool resumed = false;
  /// A snapshot was written (periodically or when the run stopped) and is
  /// valid at `path`.
  bool saved = false;
  std::string path;
};

}  // namespace quanta::ckpt
