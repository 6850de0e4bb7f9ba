// Crash-safe checkpoint/resume (src/ckpt): format-layer validation, the
// torn-write / corruption suite (base snapshots AND delta chains, one log
// file each), and the headline end-to-end invariant — interrupt-at-any-
// point + resume produces bit-identical verdicts and statistics versus an
// uninterrupted run, for every snapshot provider: symbolic reachability,
// value iteration, statistical estimation, leads-to liveness, SPRT
// hypothesis testing, timed-game solving and priced (min-cost) search.
#include "ckpt/checkpoint.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/crc32.h"
#include "ckpt/delta.h"
#include "ckpt/record_log.h"
#include "ckpt/snapshot_core.h"
#include "ckpt/snapshot_ta.h"
#include "common/budget.h"
#include "common/fault.h"
#include "cora/priced.h"
#include "exec/executor.h"
#include "game/tiga.h"
#include "mc/liveness.h"
#include "mc/reachability.h"
#include "mdp/value_iteration.h"
#include "models/train_game.h"
#include "models/train_gate.h"
#include "smc/estimate.h"
#include "smc/sprt.h"

namespace {

using namespace quanta;
namespace fs = std::filesystem;

// ---- plumbing -------------------------------------------------------------

/// The CI fault matrix sets QUANTA_FAULT for the whole test process, which
/// arms the injector at startup. Disarm before any test runs: this suite's
/// bit-identity and corruption tests arm their own deterministic faults via
/// ScopedFault, and FaultInjection.EnvSpecDegradesGracefully (test_robustness)
/// replays the env spec against a checkpointed round-trip.
[[maybe_unused]] const bool kEnvFaultDisarmed = [] {
  common::FaultInjector::instance().disarm();
  return true;
}();

/// The temp files writers left beside `path` (<path>.tmp.<k>). A save,
/// failed or not, must leave none behind.
std::vector<std::string> temp_files(const std::string& path) {
  const fs::path p(path);
  const std::string prefix = p.filename().string() + ".tmp";
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(p.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(entry.path().string());
    }
  }
  return out;
}

void remove_with_temps(const std::string& path) {
  fs::remove(path);
  for (const std::string& t : temp_files(path)) fs::remove(t);
}

/// Fresh checkpoint path per test; removes leftovers from earlier runs.
std::string ckpt_path(const std::string& name) {
  std::string p = ::testing::TempDir() + "quanta_ckpt_" + name + ".qckpt";
  remove_with_temps(p);
  return p;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// RAII: whatever happens in a test, leave the process-wide injector clean.
struct ScopedFault {
  ScopedFault(const char* site, common::FaultKind kind, std::uint64_t after) {
    common::FaultInjector::instance().arm(site, kind, after);
  }
  ~ScopedFault() { common::FaultInjector::instance().disarm(); }
};

ckpt::Snapshot make_snapshot(std::uint64_t fingerprint) {
  ckpt::Snapshot snap;
  snap.provider = ckpt::Provider::kExplore;
  snap.fingerprint = fingerprint;
  ckpt::io::Writer a;
  a.u64(0xDEADBEEFCAFEF00Dull);
  a.u32(7);
  snap.add_section(1, std::move(a));
  ckpt::io::Writer b;
  for (int i = 0; i < 100; ++i) b.f64(i * 0.25);
  snap.add_section(2, std::move(b));
  return snap;
}

bool same_sections(const std::vector<ckpt::Section>& a,
                   const std::vector<ckpt::Section>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].payload != b[i].payload) return false;
  }
  return true;
}

// ---- CRC32 -----------------------------------------------------------------

/// The bytewise CRC32 the slice-by-8 kernel must reproduce bit for bit.
std::uint32_t reference_crc32_update(std::uint32_t crc,
                                     const unsigned char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc;
}

TEST(CkptCrc32, KnownAnswer) {
  EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(ckpt::crc32("", 0), 0u);
}

TEST(CkptCrc32, MatchesTheBytewiseReferenceAtEveryOffsetAndLength) {
  // Seeded bytes; every start offset 0-39 (all alignments mod 8, several
  // times over) against every length 0-255 and a stride of lengths up to
  // 99,999, so the 8-byte loop and the byte tail both see every split.
  constexpr std::size_t kMaxLen = 99999;
  std::vector<unsigned char> buf(40 + kMaxLen);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (unsigned char& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 256; ++n) lengths.push_back(n);
  for (std::size_t n = 256; n < kMaxLen; n += 4093) lengths.push_back(n);
  lengths.push_back(kMaxLen);
  for (std::size_t off = 0; off < 40; ++off) {
    const unsigned char* p = buf.data() + off;
    // The reference runs once over the whole range; its running value at
    // each length is the expected CRC of that prefix.
    std::uint32_t ref = ckpt::kCrc32Init;
    std::size_t done = 0;
    for (const std::size_t n : lengths) {
      ref = reference_crc32_update(ref, p + done, n - done);
      done = n;
      ASSERT_EQ(ckpt::crc32(p, n), ckpt::crc32_final(ref))
          << "offset " << off << " length " << n;
    }
    // Incremental feeding in odd-sized chunks agrees with one shot.
    std::uint32_t inc = ckpt::kCrc32Init;
    for (std::size_t at = 0, step = 1; at < kMaxLen;
         at += step, step = step * 3 % 1031 + 1) {
      inc = ckpt::crc32_update(inc, p + at, std::min(step, kMaxLen - at));
    }
    ASSERT_EQ(inc, ref) << "offset " << off;
  }
}

// ---- byte codec and content hash ------------------------------------------

/// A byte-at-a-time little-endian writer: the layout every checkpoint,
/// journal and cache-segment file has always had, spelled out without the
/// codec under test.
struct RefBytes {
  std::vector<std::uint8_t> bytes;
  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
};

std::uint64_t le_u64_at(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[at + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

void put_le32(std::vector<std::uint8_t>* b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*b)[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_le64(std::vector<std::uint8_t>* b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*b)[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Checkpoint log layout: [magic 8B][version u32][header crc u32], then per
// record [len u32][crc u32] and the record, whose header is [kind u32]
// [provider u32][fingerprint u64][parent id u64][seq u32].
constexpr std::size_t kLogHeaderSize = 16;
constexpr std::size_t kLogFrameSize = 8;
constexpr std::size_t kRecordHeaderSize = 28;
/// Offset of the base record's fingerprint in a checkpoint file.
constexpr std::size_t kFingerprintOffset = kLogHeaderSize + kLogFrameSize + 8;

/// The fingerprint the base of the checkpoint at `path` was written under.
std::uint64_t file_fingerprint(const std::string& path) {
  return le_u64_at(read_file(path), kFingerprintOffset);
}

TEST(CkptCodec, FixedWidthFieldsAreLittleEndianByteForByte) {
  const std::int32_t words[] = {0, -1, INT32_MIN, INT32_MAX, 0x12345678};
  ckpt::io::Writer w;
  RefBytes ref;
  w.u8(0xAB);
  ref.u8(0xAB);
  w.u32(0x01020304u);
  ref.u32(0x01020304u);
  w.u64(0x0102030405060708ull);
  ref.u64(0x0102030405060708ull);
  w.i32(-2);
  ref.i32(-2);
  w.i64(-3);
  ref.u64(static_cast<std::uint64_t>(std::int64_t{-3}));
  w.f64(0.1);
  ref.u64(std::bit_cast<std::uint64_t>(0.1));
  w.i32s(words);
  for (std::int32_t v : words) ref.i32(v);
  EXPECT_EQ(w.buffer(), ref.bytes);

  ckpt::io::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xABu);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.i32(), -2);
  EXPECT_EQ(r.i64(), -3);
  EXPECT_EQ(r.f64(), 0.1);
  for (std::int32_t v : words) EXPECT_EQ(r.i32(), v);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);

  // A short read yields zero, flips the sticky flag and drains the input.
  ckpt::io::Reader shorty(w.buffer().data(), 3);
  EXPECT_EQ(shorty.u32(), 0u);
  EXPECT_FALSE(shorty.ok());
  EXPECT_EQ(shorty.remaining(), 0u);
  EXPECT_EQ(shorty.u64(), 0u);
  EXPECT_FALSE(shorty.ok());
}

TEST(CkptContentHash, PinnedValuesOfDeltaFormatVersionTwo) {
  // Chain ids are built from these values (fixed since delta format
  // version 2 and kept by the single-log format); a change here must bump
  // kFormatVersion.
  EXPECT_EQ(ckpt::content_hash64("", 0), 0xD8A310150DF90781ull);
  EXPECT_EQ(ckpt::content_hash64("abc", 3), 0x230E9C1ADACC6828ull);
  const std::string text = "Nobody inspects the spammish repetition";
  EXPECT_EQ(ckpt::content_hash64(text.data(), text.size()),
            0x0A6B60BFB15DE64Full);
}

TEST(CkptContentHash, EveryBitOfEveryLengthCounts) {
  // Lengths 0..99 cross every path: empty, whole words, each 1-7 byte tail.
  std::vector<std::uint8_t> buf(100);
  std::uint32_t x = 12345;
  for (auto& b : buf) b = static_cast<std::uint8_t>((x = x * 1664525u + 1013904223u) >> 24);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const std::uint64_t h = ckpt::content_hash64(buf.data(), len);
    EXPECT_NE(h, ckpt::content_hash64(buf.data(), len + 1)) << "len " << len;
    for (std::size_t i = 0; i < len; ++i) {
      for (int bit = 0; bit < 8; bit += 3) {
        buf[i] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_NE(ckpt::content_hash64(buf.data(), len), h)
            << "len " << len << " byte " << i << " bit " << bit;
        buf[i] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
  }
}

// ---- format layer ---------------------------------------------------------

TEST(CkptFormat, SaveLoadRoundTrip) {
  const std::string path = ckpt_path("roundtrip");
  const auto snap = make_snapshot(42);
  ASSERT_TRUE(ckpt::save(path, snap));

  ckpt::Snapshot back;
  ASSERT_EQ(ckpt::load(path, 42, ckpt::Provider::kExplore, &back),
            ckpt::LoadStatus::kOk);
  EXPECT_EQ(back.fingerprint, 42u);
  ASSERT_EQ(back.sections.size(), 2u);
  ASSERT_NE(back.find(1), nullptr);
  ASSERT_NE(back.find(2), nullptr);
  EXPECT_EQ(back.find(1)->payload, snap.sections[0].payload);
  EXPECT_EQ(back.find(2)->payload, snap.sections[1].payload);
  EXPECT_EQ(back.find(3), nullptr);
  // The temp file never survives a successful save.
  EXPECT_TRUE(temp_files(path).empty());
}

TEST(CkptFormat, EmptySectionRoundTrips) {
  // An empty payload has no buffer behind it; the codec must not hand that
  // null pointer to memcpy (UBSan flags it even for zero bytes).
  const std::string path = ckpt_path("empty_section");
  ckpt::Snapshot snap = make_snapshot(5);
  snap.sections.push_back(ckpt::Section{9, {}});
  ASSERT_TRUE(ckpt::save(path, snap));
  ckpt::Snapshot back;
  ASSERT_EQ(ckpt::load(path, 5, ckpt::Provider::kExplore, &back),
            ckpt::LoadStatus::kOk);
  ASSERT_NE(back.find(9), nullptr);
  EXPECT_TRUE(back.find(9)->payload.empty());
}

TEST(CkptFormat, BaseOver16MiBRoundTrips) {
  // Bigger models write bases past 16 MiB (train-gate N=5 is about 13 MB);
  // a record is bounded only by its u32 length and the bytes on disk.
  const std::string path = ckpt_path("big_base");
  ckpt::Snapshot snap = make_snapshot(7);
  snap.sections[1].payload.resize((std::size_t{17} << 20) + 3);
  for (std::size_t i = 0; i < snap.sections[1].payload.size(); i += 4093) {
    snap.sections[1].payload[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(ckpt::save(path, snap));
  ckpt::Snapshot back;
  ASSERT_EQ(ckpt::load(path, 7, ckpt::Provider::kExplore, &back),
            ckpt::LoadStatus::kOk);
  EXPECT_TRUE(same_sections(back.sections, snap.sections));
  fs::remove(path);
}

TEST(CkptFormat, MissingFileIsNoFile) {
  ckpt::Snapshot out;
  EXPECT_EQ(ckpt::load(ckpt_path("missing"), 1, ckpt::Provider::kExplore, &out),
            ckpt::LoadStatus::kNoFile);
}

TEST(CkptFormat, ValidationOrderAndMismatches) {
  const std::string path = ckpt_path("mismatch");
  ASSERT_TRUE(ckpt::save(path, make_snapshot(42)));
  ckpt::Snapshot out;
  EXPECT_EQ(ckpt::load(path, 43, ckpt::Provider::kExplore, &out),
            ckpt::LoadStatus::kBadFingerprint);
  EXPECT_EQ(ckpt::load(path, 42, ckpt::Provider::kValueIteration, &out),
            ckpt::LoadStatus::kBadProvider);
  // On failure the output snapshot is untouched.
  EXPECT_TRUE(out.sections.empty());
}

TEST(CkptFormat, BadMagicRejected) {
  const std::string path = ckpt_path("magic");
  ASSERT_TRUE(ckpt::save(path, make_snapshot(42)));
  auto bytes = read_file(path);
  bytes[0] ^= 0xFF;
  write_file(path, bytes);
  ckpt::Snapshot out;
  EXPECT_EQ(ckpt::load(path, 42, ckpt::Provider::kExplore, &out),
            ckpt::LoadStatus::kBadMagic);
}

TEST(CkptFormat, FutureFormatVersionRejected) {
  const std::string path = ckpt_path("version");
  ASSERT_TRUE(ckpt::save(path, make_snapshot(42)));
  auto bytes = read_file(path);
  // Patch the format-version field (offset 8) and re-seal the log header
  // CRC (computed over the first 12 bytes, stored at offset 12) so only the
  // version check can object.
  bytes[8] = static_cast<std::uint8_t>(ckpt::kFormatVersion + 1);
  const std::uint32_t crc = ckpt::crc32(bytes.data(), 12);
  for (int i = 0; i < 4; ++i) {
    bytes[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  write_file(path, bytes);
  ckpt::Snapshot out;
  EXPECT_EQ(ckpt::load(path, 42, ckpt::Provider::kExplore, &out),
            ckpt::LoadStatus::kBadVersion);
}

TEST(CkptFormat, TruncationAndBitFlipsAreCorrupt) {
  const std::string path = ckpt_path("corrupt");
  ASSERT_TRUE(ckpt::save(path, make_snapshot(42)));
  const auto pristine = read_file(path);
  ckpt::Snapshot out;

  // Truncated mid-section.
  auto half = pristine;
  half.resize(pristine.size() / 2);
  write_file(path, half);
  EXPECT_EQ(ckpt::load(path, 42, ckpt::Provider::kExplore, &out),
            ckpt::LoadStatus::kCorrupt);

  // A single flipped byte anywhere in the record must be caught by its CRC —
  // sample the record CRC itself, the provider, the first section id,
  // the first section size and payload bytes.
  const std::size_t record = kLogHeaderSize + kLogFrameSize;
  for (std::size_t pos : {record - 4, record + 4, record + kRecordHeaderSize,
                          record + kRecordHeaderSize + 4, pristine.size() / 2,
                          pristine.size() - 1}) {
    auto flipped = pristine;
    flipped[pos] ^= 0x01;
    write_file(path, flipped);
    EXPECT_EQ(ckpt::load(path, 42, ckpt::Provider::kExplore, &out),
              ckpt::LoadStatus::kCorrupt)
        << "flipped byte at offset " << pos;
  }
}

TEST(CkptFormat, KilledWriteLeavesPreviousCheckpointIntact) {
  const std::string path = ckpt_path("torn");
  ASSERT_TRUE(ckpt::save(path, make_snapshot(42)));

  // The injected fault fires mid-write of the temp file — the moral
  // equivalent of a SIGKILL between the two halves of the payload.
  {
    ScopedFault fault("ckpt.file.write", common::FaultKind::kException, 1);
    ckpt::Snapshot replacement = make_snapshot(42);
    replacement.sections[0].payload.assign(64, 0xAB);
    EXPECT_FALSE(ckpt::save(path, replacement));
  }
  EXPECT_TRUE(temp_files(path).empty());

  // The previous checkpoint still validates and still has the old payload.
  ckpt::Snapshot back;
  ASSERT_EQ(ckpt::load(path, 42, ckpt::Provider::kExplore, &back),
            ckpt::LoadStatus::kOk);
  EXPECT_EQ(back.find(1)->payload, make_snapshot(42).sections[0].payload);
}

TEST(CkptFormat, FirstSaveKilledLeavesNoFile) {
  const std::string path = ckpt_path("torn_first");
  ScopedFault fault("ckpt.file.write", common::FaultKind::kException, 1);
  EXPECT_FALSE(ckpt::save(path, make_snapshot(1)));
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(temp_files(path).empty());
}

TEST(CkptFormat, ConcurrentSavesOfOnePathNeverShareATempFile) {
  // Two daemon workers running the same query checkpoint to the same chain
  // path. Each writer must own its temp file: a shared one would be
  // truncated under a concurrent writer and fail its rename or land torn.
  const std::string path = ckpt_path("concurrent");
  constexpr int kThreads = 6;
  constexpr int kSaves = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSaves; ++i) {
        ckpt::Snapshot snap = make_snapshot(static_cast<std::uint64_t>(t));
        snap.sections[1].payload.assign(std::size_t{1} << 16,
                                        static_cast<std::uint8_t>(t));
        if (!ckpt::save(path, snap)) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(temp_files(path).empty());

  // The survivor is one writer's file, whole.
  const std::uint64_t winner = file_fingerprint(path);
  ASSERT_LT(winner, static_cast<std::uint64_t>(kThreads));
  ckpt::Snapshot back;
  ASSERT_EQ(ckpt::load(path, winner, ckpt::Provider::kExplore, &back),
            ckpt::LoadStatus::kOk);
  EXPECT_EQ(back.find(2)->payload,
            std::vector<std::uint8_t>(std::size_t{1} << 16,
                                      static_cast<std::uint8_t>(winner)));
}

TEST(CkptFormat, ConcurrentChainsAndRemovalNeverTouchEachOthersFiles) {
  // Identical daemon jobs write one chain path at once (base, then deltas),
  // and each removes the chain when it completes. No save may fail because
  // of another writer or a removal, and the file at the chain path is
  // always one writer's chain, whole up to its last complete record: a
  // writer appends only to the file its own base created.
  const std::string path = ckpt_path("chain_race");
  constexpr int kWriters = 4;
  constexpr int kRounds = 25;
  constexpr std::size_t kPayload = std::size_t{1} << 15;
  const auto payload = [](int t) {
    return std::vector<std::uint8_t>(kPayload, static_cast<std::uint8_t>(t));
  };
  std::atomic<int> failures{0};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        ckpt::ChainWriter chain(path, ckpt::Provider::kExplore, 42, 2);
        ckpt::Snapshot base = make_snapshot(42);
        base.sections[1].payload = payload(t);
        if (!chain.save_base(base)) ++failures;
        for (int k = 0; k < 2; ++k) {
          if (!chain.save_delta_link({ckpt::Section{2, payload(t)}})) {
            ++failures;
          }
        }
        if (round % 3 == 2) ckpt::remove_chain(path);  // the job completed
      }
      ++done;
    });
  }
  int torn = 0;
  int mixed = 0;
  int seen = 0;
  while (done.load() < kWriters) {
    ckpt::Chain back;
    const ckpt::LoadStatus st =
        ckpt::load_chain(path, 42, ckpt::Provider::kExplore, &back);
    if (st != ckpt::LoadStatus::kOk) {
      if (st != ckpt::LoadStatus::kNoFile) ++torn;
      continue;
    }
    ++seen;
    const auto owner = back.base.sections[1].payload;
    if (owner.size() != kPayload) ++mixed;
    for (const ckpt::Delta& d : back.deltas) {
      if (d.sections.size() != 1 || d.sections[0].payload != owner) ++mixed;
    }
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn, 0);
  EXPECT_EQ(mixed, 0);
  EXPECT_GT(seen, 0);
  EXPECT_TRUE(temp_files(path).empty());
}

TEST(CkptFormat, RemoveChainClearsOnlyTempsOfExitedWriters) {
  // A worker killed mid-write leaves its temp file; the completed job's
  // remove_chain clears it. A temp whose writer still runs (a concurrent
  // job on the same chain) must survive.
  const std::string path = ckpt_path("orphan_temps");
  ASSERT_TRUE(ckpt::save(path, make_snapshot(1)));
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(child, nullptr, 0), child);
  const std::string dead = std::to_string(child);
  const std::string live = std::to_string(::getpid());
  const std::vector<std::string> orphans = {path + ".tmp." + dead + ".0",
                                            path + ".tmp." + dead + ".1"};
  const std::string live_temp = path + ".tmp." + live + ".9";
  for (const std::string& f : orphans) write_file(f, {1, 2, 3});
  write_file(live_temp, {4, 5, 6});

  ckpt::remove_chain(path);
  EXPECT_FALSE(fs::exists(path));
  for (const std::string& f : orphans) EXPECT_FALSE(fs::exists(f)) << f;
  EXPECT_TRUE(fs::exists(live_temp));
  fs::remove(live_temp);
}

// ---- provider 1: symbolic reachability (core::explore snapshot) -----------

void expect_same_stats(const mc::SearchStats& got, const mc::SearchStats& want,
                       const char* what) {
  EXPECT_EQ(got.states_stored, want.states_stored) << what;
  EXPECT_EQ(got.states_explored, want.states_explored) << what;
  EXPECT_EQ(got.transitions, want.transitions) << what;
}

TEST(CkptReachability, InterruptAnywhereThenResumeIsBitIdentical) {
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);

  for (core::SearchOrder order : {core::SearchOrder::kBfs,
                                  core::SearchOrder::kDfs}) {
    mc::ReachOptions base;
    base.order = order;
    const auto reference = mc::check_invariant(tg.system, safe, base);
    ASSERT_TRUE(reference.holds());
    ASSERT_GT(reference.stats.states_stored, 100u);

    // Interrupt at several depths: near the start, mid-flight, and deep in
    // the search. The fault forces the deadline at the K-th intern; the
    // budget poll then stops the search at the next stride boundary.
    for (std::size_t k : {std::size_t{3}, reference.stats.states_stored / 4,
                          reference.stats.states_stored / 2}) {
      const std::string path = ckpt_path(
          "mc_resume_" + std::to_string(static_cast<int>(order)) + "_" +
          std::to_string(k));
      mc::ReachOptions opts = base;
      opts.checkpoint.path = path;
      opts.limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
      mc::InvariantResult interrupted;
      {
        ScopedFault fault("core.state_store.intern",
                          common::FaultKind::kDeadline, k);
        interrupted = mc::check_invariant(tg.system, safe, opts);
      }
      ASSERT_EQ(interrupted.verdict, common::Verdict::kUnknown) << "k=" << k;
      ASSERT_EQ(interrupted.stop(), common::StopReason::kTimeLimit);
      ASSERT_TRUE(interrupted.resume.saved) << "k=" << k;
      ASSERT_LT(interrupted.stats.states_explored,
                reference.stats.states_explored);

      // Resume with the fault gone: the verdict and every counter must be
      // exactly what the uninterrupted run reported.
      const auto resumed = mc::check_invariant(tg.system, safe, opts);
      EXPECT_EQ(resumed.resume.load, ckpt::LoadStatus::kOk) << "k=" << k;
      EXPECT_TRUE(resumed.resume.resumed);
      EXPECT_TRUE(resumed.holds()) << "k=" << k;
      expect_same_stats(resumed.stats, reference.stats, "resumed invariant");
    }
  }
}

TEST(CkptReachability, StateLimitStopIsResumable) {
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const auto reference = mc::check_invariant(tg.system, safe);
  ASSERT_TRUE(reference.holds());

  const std::string path = ckpt_path("mc_statelimit");
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.limits.max_states = reference.stats.states_stored / 3;
  const auto truncated = mc::check_invariant(tg.system, safe, opts);
  ASSERT_EQ(truncated.verdict, common::Verdict::kUnknown);
  ASSERT_EQ(truncated.stop(), common::StopReason::kStateLimit);
  ASSERT_TRUE(truncated.resume.saved);

  mc::ReachOptions full;
  full.checkpoint.path = path;
  const auto resumed = mc::check_invariant(tg.system, safe, full);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_TRUE(resumed.holds());
  expect_same_stats(resumed.stats, reference.stats, "after state limit");
}

TEST(CkptReachability, WitnessSearchResumesToIdenticalTrace) {
  auto tg = models::make_train_gate(2);
  const auto goal = mc::loc_pred(tg.system, "Train(0)", "Stop");
  const auto reference = mc::reachable(tg.system, goal);
  ASSERT_TRUE(reference.reachable());

  // Interrupt via the state bound (checked every pop, so it trips before the
  // witness even on models too small for the amortized deadline poll).
  const std::string path = ckpt_path("mc_witness");
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.limits.max_states = reference.stats.states_stored / 2;
  const auto interrupted = mc::reachable(tg.system, goal, opts);
  ASSERT_EQ(interrupted.verdict, common::Verdict::kUnknown);
  ASSERT_EQ(interrupted.stop(), common::StopReason::kStateLimit);
  ASSERT_TRUE(interrupted.resume.saved);

  mc::ReachOptions full;
  full.checkpoint.path = path;
  const auto resumed = mc::reachable(tg.system, goal, full);
  EXPECT_TRUE(resumed.resume.resumed);
  ASSERT_TRUE(resumed.reachable());
  expect_same_stats(resumed.stats, reference.stats, "witness search");
  EXPECT_EQ(resumed.trace, reference.trace);
  EXPECT_EQ(resumed.witness, reference.witness);
}

TEST(CkptReachability, PeriodicSnapshotsSurviveAnUnsavedStop) {
  // save_on_stop off: only the periodic snapshots exist — the SIGKILL story,
  // where the stop itself never gets to write anything.
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const auto reference = mc::check_invariant(tg.system, safe);

  const std::string path = ckpt_path("mc_periodic");
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.checkpoint.interval = 50;
  opts.checkpoint.save_on_stop = false;
  opts.limits.max_states = reference.stats.states_stored / 2;
  const auto truncated = mc::check_invariant(tg.system, safe, opts);
  ASSERT_EQ(truncated.verdict, common::Verdict::kUnknown);
  ASSERT_TRUE(truncated.resume.saved);  // periodic, not stop-triggered

  mc::ReachOptions full;
  full.checkpoint.path = path;
  const auto resumed = mc::check_invariant(tg.system, safe, full);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_TRUE(resumed.holds());
  expect_same_stats(resumed.stats, reference.stats, "periodic resume");
}

TEST(CkptReachability, CorruptCheckpointDegradesToFreshStart) {
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const auto reference = mc::check_invariant(tg.system, safe);

  const std::string path = ckpt_path("mc_corrupt");
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.limits.max_states = reference.stats.states_stored / 2;
  ASSERT_TRUE(mc::check_invariant(tg.system, safe, opts).resume.saved);
  const auto pristine = read_file(path);

  struct Case {
    const char* name;
    std::vector<std::uint8_t> bytes;
    ckpt::LoadStatus want;
  };
  auto flipped = pristine;
  flipped[pristine.size() / 2] ^= 0x20;
  auto crc_flip = pristine;
  crc_flip[kLogHeaderSize + 4] ^= 0x01;  // record CRC byte
  auto truncated = pristine;
  truncated.resize(pristine.size() - 7);
  const std::vector<Case> cases = {
      {"bit flip mid-payload", flipped, ckpt::LoadStatus::kCorrupt},
      {"flipped CRC byte", crc_flip, ckpt::LoadStatus::kCorrupt},
      {"truncated tail", truncated, ckpt::LoadStatus::kCorrupt},
  };
  for (const Case& c : cases) {
    write_file(path, c.bytes);
    mc::ReachOptions full;
    full.checkpoint.path = path;
    const auto r = mc::check_invariant(tg.system, safe, full);
    EXPECT_EQ(r.resume.load, c.want) << c.name;
    EXPECT_FALSE(r.resume.resumed) << c.name;
    // Degraded to a fresh start — and the fresh start is still right.
    EXPECT_TRUE(r.holds()) << c.name;
    expect_same_stats(r.stats, reference.stats, c.name);
  }
}

TEST(CkptReachability, StructuralFingerprintSeparatesQueriesSharingAPath) {
  // The retired property_tag knob is replaced by the canonical AST of the
  // query predicate itself: queries that differ structurally refuse each
  // other's snapshots with no caller-side tagging.
  auto tg = models::make_train_gate(2);
  const auto goal0 = mc::loc_pred(tg.system, "Train(0)", "Stop");
  const auto goal1 = mc::loc_pred(tg.system, "Train(1)", "Stop");
  ASSERT_NE(goal0.canonical(), goal1.canonical());
  ASSERT_TRUE(goal0.structural());

  const std::string path = ckpt_path("mc_ast");
  const auto reference = mc::reachable(tg.system, goal0);
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.limits.max_states = reference.stats.states_stored / 2;
  ASSERT_TRUE(mc::reachable(tg.system, goal0, opts).resume.saved);

  // Same path, structurally different goal: refused, fresh run correct.
  mc::ReachOptions full;
  full.checkpoint.path = path;
  const auto other = mc::reachable(tg.system, goal1, full);
  EXPECT_EQ(other.resume.load, ckpt::LoadStatus::kBadFingerprint);
  EXPECT_FALSE(other.resume.resumed);

  // A composed AST ("not(loc(...))") is also distinct from its leaf.
  const auto composed = mc::check_invariant(tg.system, mc::pred_not(goal0), full);
  EXPECT_EQ(composed.resume.load, ckpt::LoadStatus::kBadFingerprint);

  // And two labeled closures are told apart by their labels alone — the
  // drop-in migration for callers that used property_tag.
  const auto fn = [](const ta::SymState&) { return true; };
  mc::ReachOptions tagged;
  tagged.checkpoint.path = ckpt_path("mc_ast_label");
  tagged.limits.max_states = 10;
  ASSERT_TRUE(mc::check_invariant(
                  tg.system,
                  common::labeled_pred<ta::SymState>("query-a", fn), tagged)
                  .resume.saved);
  mc::ReachOptions tagged_full;
  tagged_full.checkpoint.path = tagged.checkpoint.path;
  const auto relabeled = mc::check_invariant(
      tg.system, common::labeled_pred<ta::SymState>("query-b", fn),
      tagged_full);
  EXPECT_EQ(relabeled.resume.load, ckpt::LoadStatus::kBadFingerprint);
  EXPECT_TRUE(relabeled.holds());
}

TEST(CkptReachability, DifferentModelRefusesTheSnapshot) {
  auto tg2 = models::make_train_gate(2);
  auto tg3 = models::make_train_gate(3);
  const std::string path = ckpt_path("mc_model");
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.limits.max_states = 40;
  ASSERT_TRUE(
      mc::check_invariant(tg3.system, models::train_gate_mutex(tg3), opts).resume.saved);

  mc::ReachOptions full;
  full.checkpoint.path = path;
  const auto r = mc::check_invariant(tg2.system, models::train_gate_mutex(tg2), full);
  EXPECT_EQ(r.resume.load, ckpt::LoadStatus::kBadFingerprint);
  EXPECT_TRUE(r.holds());
}

TEST(CkptReachability, FailedSnapshotWriteNeverAffectsTheVerdict) {
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const std::string path = ckpt_path("mc_failed_write");

  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.limits.max_states = 60;
  mc::InvariantResult truncated;
  {
    ScopedFault fault("ckpt.file.write", common::FaultKind::kException, 1);
    truncated = mc::check_invariant(tg.system, safe, opts);
  }
  EXPECT_EQ(truncated.verdict, common::Verdict::kUnknown);
  EXPECT_EQ(truncated.stop(), common::StopReason::kStateLimit);
  EXPECT_FALSE(truncated.resume.saved);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(temp_files(path).empty());

  // Next invocation finds nothing and simply starts fresh.
  mc::ReachOptions full;
  full.checkpoint.path = path;
  const auto r = mc::check_invariant(tg.system, safe, full);
  EXPECT_EQ(r.resume.load, ckpt::LoadStatus::kNoFile);
  EXPECT_TRUE(r.holds());
}

// ---- provider 2: value iteration ------------------------------------------

/// A slow-converging chain: from state i move forward with p = 0.05 or stay.
/// Without precomputation the values crawl toward 1, giving value iteration
/// hundreds of sweeps to interrupt.
mdp::Mdp slow_chain(std::int32_t n) {
  mdp::Mdp m;
  for (std::int32_t i = 0; i < n; ++i) {
    m.add_choice(i, {{i + 1, 0.05}, {i, 0.95}});
  }
  m.add_choice(n, {{n, 1.0}});
  m.set_initial(0);
  m.freeze();
  return m;
}

mdp::StateSet chain_goal(const mdp::Mdp& m) {
  mdp::StateSet goal(static_cast<std::size_t>(m.num_states()), false);
  goal[static_cast<std::size_t>(m.num_states() - 1)] = true;
  return goal;
}

TEST(CkptValueIteration, InterruptedSweepsResumeBitIdentically) {
  const auto m = slow_chain(20);
  const auto goal = chain_goal(m);
  mdp::ViOptions base;
  base.use_precomputation = false;  // keep the fixpoint genuinely iterative
  const auto reference =
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, base);
  ASSERT_TRUE(reference.converged);
  ASSERT_GT(reference.iterations, 100);

  for (std::uint64_t k : {std::uint64_t{2}, std::uint64_t{60},
                          static_cast<std::uint64_t>(reference.iterations) - 5}) {
    const std::string path = ckpt_path("vi_resume_" + std::to_string(k));
    mdp::ViOptions opts = base;
    opts.checkpoint.path = path;
    opts.budget = common::Budget::deadline_after(std::chrono::hours(1));
    mdp::ViResult interrupted;
    {
      ScopedFault fault("mdp.value_iteration.sweep",
                        common::FaultKind::kDeadline, k);
      interrupted =
          mdp::reachability_probability(m, goal, mdp::Objective::kMax, opts);
    }
    ASSERT_EQ(interrupted.verdict, common::Verdict::kUnknown) << "k=" << k;
    ASSERT_EQ(interrupted.stop, common::StopReason::kTimeLimit);
    ASSERT_TRUE(interrupted.resume.saved);
    ASSERT_LT(interrupted.iterations, reference.iterations);

    mdp::ViOptions resume = base;
    resume.checkpoint.path = path;
    const auto resumed =
        mdp::reachability_probability(m, goal, mdp::Objective::kMax, resume);
    EXPECT_TRUE(resumed.resume.resumed) << "k=" << k;
    EXPECT_TRUE(resumed.converged);
    EXPECT_EQ(resumed.iterations, reference.iterations) << "k=" << k;
    ASSERT_EQ(resumed.values.size(), reference.values.size());
    for (std::size_t i = 0; i < reference.values.size(); ++i) {
      EXPECT_EQ(resumed.values[i], reference.values[i])
          << "value " << i << " diverged after resume at sweep " << k;
    }
  }
}

TEST(CkptValueIteration, IterationBoundStopIsResumable) {
  const auto m = slow_chain(20);
  const auto goal = chain_goal(m);
  mdp::ViOptions base;
  base.use_precomputation = false;
  const auto reference =
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, base);

  const std::string path = ckpt_path("vi_bound");
  mdp::ViOptions opts = base;
  opts.checkpoint.path = path;
  opts.max_iterations = reference.iterations / 2;
  const auto truncated =
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, opts);
  ASSERT_FALSE(truncated.converged);
  ASSERT_EQ(truncated.stop, common::StopReason::kStateLimit);
  ASSERT_TRUE(truncated.resume.saved);

  mdp::ViOptions resume = base;
  resume.checkpoint.path = path;
  const auto resumed =
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, resume);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.iterations, reference.iterations);
  EXPECT_EQ(resumed.at_initial(m), reference.at_initial(m));
}

TEST(CkptValueIteration, PeriodicSnapshotsCoverSigkill) {
  const auto m = slow_chain(20);
  const auto goal = chain_goal(m);
  mdp::ViOptions base;
  base.use_precomputation = false;
  const auto reference =
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, base);

  const std::string path = ckpt_path("vi_periodic");
  mdp::ViOptions opts = base;
  opts.checkpoint.path = path;
  opts.checkpoint.interval = 25;
  opts.checkpoint.save_on_stop = false;  // only periodic snapshots exist
  opts.max_iterations = 120;
  const auto truncated =
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, opts);
  ASSERT_FALSE(truncated.converged);
  ASSERT_TRUE(truncated.resume.saved);

  mdp::ViOptions resume = base;
  resume.checkpoint.path = path;
  const auto resumed =
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, resume);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.iterations, reference.iterations);
  for (std::size_t i = 0; i < reference.values.size(); ++i) {
    EXPECT_EQ(resumed.values[i], reference.values[i]) << "value " << i;
  }
}

TEST(CkptValueIteration, WrongMdpOrEpsilonRefusesTheSnapshot) {
  const auto m = slow_chain(20);
  const auto goal = chain_goal(m);
  const std::string path = ckpt_path("vi_fingerprint");
  mdp::ViOptions opts;
  opts.use_precomputation = false;
  opts.checkpoint.path = path;
  opts.max_iterations = 40;
  ASSERT_TRUE(mdp::reachability_probability(m, goal, mdp::Objective::kMax, opts)
                  .resume.saved);

  // Different epsilon => different fingerprint => fresh start.
  mdp::ViOptions other = opts;
  other.max_iterations = 1'000'000;
  other.epsilon = 1e-6;
  const auto r =
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, other);
  EXPECT_EQ(r.resume.load, ckpt::LoadStatus::kBadFingerprint);
  EXPECT_FALSE(r.resume.resumed);
  EXPECT_TRUE(r.converged);

  // Different MDP shape => fresh start as well.
  const auto m2 = slow_chain(21);
  const auto goal2 = chain_goal(m2);
  mdp::ViOptions full = opts;
  full.max_iterations = 1'000'000;
  const auto r2 =
      mdp::reachability_probability(m2, goal2, mdp::Objective::kMax, full);
  EXPECT_EQ(r2.resume.load, ckpt::LoadStatus::kBadFingerprint);
  EXPECT_TRUE(r2.converged);
}

// ---- provider 3: statistical estimation -----------------------------------

smc::TimeBoundedReach train_crosses(const models::TrainGate& tg,
                                    double bound) {
  const int p = tg.trains[0];
  const int cross = tg.system.process(p).location_index("Cross");
  smc::TimeBoundedReach prop;
  prop.time_bound = bound;
  prop.goal = [p, cross](const ta::ConcreteState& s) {
    return s.locs[static_cast<std::size_t>(p)] == cross;
  };
  return prop;
}

TEST(CkptStatistical, CheckpointingPathMatchesThePlainPath) {
  auto tg = models::make_train_gate(2);
  const auto prop = train_crosses(tg, 30.0);
  exec::Executor ex(4);
  const auto reference =
      smc::estimate_probability_runs(tg.system, prop, 2500, 0.05, 11, ex);
  ASSERT_EQ(reference.verdict, common::Verdict::kHolds);

  ckpt::Options ck;
  ck.path = ckpt_path("smc_plain");
  const auto batched = smc::estimate_probability_runs(
      tg.system, prop, 2500, 0.05, 11, ex, nullptr, {}, ck);
  EXPECT_EQ(batched.verdict, common::Verdict::kHolds);
  EXPECT_EQ(batched.hits, reference.hits);
  EXPECT_EQ(batched.p_hat, reference.p_hat);
  EXPECT_EQ(batched.ci_low, reference.ci_low);
  EXPECT_EQ(batched.ci_high, reference.ci_high);
  // A completed estimate leaves no checkpoint behind to confuse reruns with.
  EXPECT_FALSE(batched.resume.saved);
}

TEST(CkptStatistical, InterruptedSampleResumesToIdenticalEstimate) {
  auto tg = models::make_train_gate(2);
  const auto prop = train_crosses(tg, 30.0);
  exec::Executor ex(4);
  const auto reference =
      smc::estimate_probability_runs(tg.system, prop, 2500, 0.05, 11, ex);

  const std::string path = ckpt_path("smc_resume");
  ckpt::Options ck;
  ck.path = path;
  const auto budget = common::Budget::deadline_after(std::chrono::hours(1));
  smc::Estimate interrupted;
  {
    // Force the deadline at the second batch boundary: exactly one batch
    // (1024 runs) completes — a deterministic, prefix-contiguous partial.
    ScopedFault fault("smc.estimate.batch", common::FaultKind::kDeadline, 2);
    interrupted = smc::estimate_probability_runs(tg.system, prop, 2500, 0.05,
                                                 11, ex, nullptr, budget, ck);
  }
  ASSERT_EQ(interrupted.verdict, common::Verdict::kUnknown);
  ASSERT_EQ(interrupted.stop, common::StopReason::kTimeLimit);
  ASSERT_EQ(interrupted.completed, 1024u);
  ASSERT_TRUE(interrupted.resume.saved);

  // Resume on a different worker count — still bit-identical, because run i
  // is a pure function of (seed, i) and the tally is a prefix.
  exec::Executor ex2(2);
  const auto resumed = smc::estimate_probability_runs(tg.system, prop, 2500,
                                                      0.05, 11, ex2, nullptr,
                                                      {}, ck);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_EQ(resumed.verdict, common::Verdict::kHolds);
  EXPECT_EQ(resumed.completed, 2500u);
  EXPECT_EQ(resumed.hits, reference.hits);
  EXPECT_EQ(resumed.p_hat, reference.p_hat);
  EXPECT_EQ(resumed.ci_low, reference.ci_low);
  EXPECT_EQ(resumed.ci_high, reference.ci_high);
}

TEST(CkptStatistical, MidBatchCancellationDiscardsThePartialBatch) {
  auto tg = models::make_train_gate(2);
  const auto prop = train_crosses(tg, 30.0);
  exec::Executor ex(4);

  const std::string path = ckpt_path("smc_midbatch");
  ckpt::Options ck;
  ck.path = path;
  common::CancelToken cancel;
  cancel.cancel();  // watchdog fires before the first batch finishes
  common::Budget budget;
  budget.with_cancel(&cancel);
  const auto interrupted = smc::estimate_probability_runs(
      tg.system, prop, 2500, 0.05, 11, ex, nullptr, budget, ck);
  ASSERT_EQ(interrupted.verdict, common::Verdict::kUnknown);
  EXPECT_EQ(interrupted.stop, common::StopReason::kCancelled);
  // Nothing torn: the tally is a whole number of batches (here: zero).
  EXPECT_EQ(interrupted.completed % 1024, 0u);

  cancel.reset();
  const auto resumed = smc::estimate_probability_runs(tg.system, prop, 2500,
                                                      0.05, 11, ex, nullptr,
                                                      {}, ck);
  const auto reference =
      smc::estimate_probability_runs(tg.system, prop, 2500, 0.05, 11, ex);
  EXPECT_EQ(resumed.verdict, common::Verdict::kHolds);
  EXPECT_EQ(resumed.hits, reference.hits);
  EXPECT_EQ(resumed.p_hat, reference.p_hat);
}

// ---- delta chains ----------------------------------------------------------

// Record header fields, as offsets into a record (see kRecordHeaderSize).
constexpr std::size_t kRecProviderOffset = 4;
constexpr std::size_t kRecFingerprintOffset = 8;
constexpr std::size_t kRecParentOffset = 16;
constexpr std::size_t kRecSeqOffset = 24;

/// One complete record of a checkpoint log: the offset of its frame and the
/// size of the record behind the frame.
struct LogRecord {
  std::size_t at;
  std::size_t size;
};

/// The complete records of a checkpoint file, in order.
std::vector<LogRecord> log_records(const std::vector<std::uint8_t>& b) {
  std::vector<LogRecord> out;
  std::size_t at = kLogHeaderSize;
  while (b.size() >= at + kLogFrameSize) {
    const std::size_t size = static_cast<std::uint32_t>(le_u64_at(b, at));
    if (b.size() - at - kLogFrameSize < size) break;
    out.push_back({at, size});
    at += kLogFrameSize + size;
  }
  return out;
}

/// Re-seals a record's CRC after a deliberate semantic patch, so only the
/// patched field — not the CRC — can cause the refusal under test.
void reseal_record(std::vector<std::uint8_t>* b, const LogRecord& rec) {
  put_le32(b, rec.at + 4,
           ckpt::crc32(b->data() + rec.at + kLogFrameSize, rec.size));
}

/// A truncated train-gate run whose periodic snapshots build a base + delta
/// chain at `path`. Returns the uninterrupted reference for comparison.
mc::InvariantResult build_delta_chain(const models::TrainGate& tg,
                                      const mc::StatePredicate& safe,
                                      const std::string& path) {
  const auto reference = mc::check_invariant(tg.system, safe);
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.checkpoint.interval = 20;
  opts.limits.max_states = reference.stats.states_stored / 2;
  const auto truncated = mc::check_invariant(tg.system, safe, opts);
  EXPECT_EQ(truncated.verdict, common::Verdict::kUnknown);
  EXPECT_TRUE(truncated.resume.saved);
  EXPECT_GE(log_records(read_file(path)).size(), 2u)
      << "interval 20 over " << opts.limits.max_states
      << " states wrote no delta";
  return reference;
}

/// Runs the check again on the chain at `path`: the load must end in
/// `want`, and resumed or fresh, the answer must be the reference.
void expect_resume(const models::TrainGate& tg, const mc::StatePredicate& safe,
                   const std::string& path,
                   const mc::InvariantResult& reference, ckpt::LoadStatus want,
                   const char* what) {
  mc::ReachOptions full;
  full.checkpoint.path = path;
  const auto r = mc::check_invariant(tg.system, safe, full);
  EXPECT_EQ(r.resume.load, want) << what;
  EXPECT_EQ(r.resume.resumed, want == ckpt::LoadStatus::kOk) << what;
  EXPECT_TRUE(r.holds()) << what;
  expect_same_stats(r.stats, reference.stats, what);
}

TEST(CkptDeltaChain, PeriodicDeltasResumeBitIdentically) {
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const std::string path = ckpt_path("chain_resume");
  const auto reference = build_delta_chain(tg, safe, path);
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kOk,
                "delta-chain resume");
}

TEST(CkptDeltaChain, FullSnapshotModeWritesNoDeltas) {
  // max_deltas = 0: every periodic snapshot rewrites the base, the legacy
  // (pre-delta) behaviour.
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const auto reference = mc::check_invariant(tg.system, safe);

  const std::string path = ckpt_path("chain_fullmode");
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.checkpoint.interval = 20;
  opts.checkpoint.max_deltas = 0;
  opts.limits.max_states = reference.stats.states_stored / 2;
  ASSERT_TRUE(mc::check_invariant(tg.system, safe, opts).resume.saved);
  EXPECT_EQ(log_records(read_file(path)).size(), 1u);
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kOk,
                "full-snapshot resume");
}

TEST(CkptDeltaChain, MissingBaseFileStartsFresh) {
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const std::string path = ckpt_path("chain_nobase");
  const auto reference = build_delta_chain(tg, safe, path);

  // Deltas without their base are worthless: a log whose first record is a
  // delta (the base cut out) is refused whole — fresh start, still correct.
  auto bytes = read_file(path);
  const auto recs = log_records(bytes);
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(recs[0].at),
              bytes.begin() + static_cast<std::ptrdiff_t>(recs[1].at));
  write_file(path, bytes);
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kCorrupt,
                "fresh after a headless chain");

  fs::remove(path);
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kNoFile,
                "fresh after missing base");
}

TEST(CkptDeltaChain, DeltaAgainstMismatchedBaseStartsFresh) {
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const std::string path = ckpt_path("chain_badparent");
  const auto reference = build_delta_chain(tg, safe, path);

  // Patch one link field of the first delta and re-seal its CRC: the delta
  // now claims descent from a different base, another position, model or
  // provider. The link check must refuse it and poison the whole chain.
  const auto pristine = read_file(path);
  const LogRecord d1 = log_records(pristine)[1];
  struct Case {
    const char* name;
    std::size_t field;
    ckpt::LoadStatus want;
  };
  for (const Case& c :
       {Case{"parent id", kRecParentOffset, ckpt::LoadStatus::kCorrupt},
        Case{"seq", kRecSeqOffset, ckpt::LoadStatus::kCorrupt},
        Case{"fingerprint", kRecFingerprintOffset,
             ckpt::LoadStatus::kBadFingerprint},
        Case{"provider", kRecProviderOffset, ckpt::LoadStatus::kBadProvider}}) {
    auto bytes = pristine;
    bytes[d1.at + kLogFrameSize + c.field] ^= 0x01;
    reseal_record(&bytes, d1);
    write_file(path, bytes);
    expect_resume(tg, safe, path, reference, c.want, c.name);
  }
}

TEST(CkptDeltaChain, BitFlipInsideADeltaStartsFresh) {
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const std::string path = ckpt_path("chain_bitflip");
  const auto reference = build_delta_chain(tg, safe, path);

  const auto pristine = read_file(path);
  const auto recs = log_records(pristine);
  ASSERT_GE(recs.size(), 3u);
  const LogRecord d1 = recs[1];
  const std::size_t body = d1.at + kLogFrameSize;

  // A complete record that fails its CRC poisons the chain wherever the
  // flip lands — the record CRC, a section id (which the record CRC now
  // covers) or a payload byte, of a middle record or of the last one.
  struct Case {
    const char* name;
    std::size_t at;
  };
  for (const Case& c : {Case{"record CRC flip", d1.at + 4},
                        Case{"section id flip", body + kRecordHeaderSize},
                        Case{"payload bit flip", body + d1.size - 3},
                        Case{"last record flip", pristine.size() - 3}}) {
    auto bytes = pristine;
    bytes[c.at] ^= 0x10;
    write_file(path, bytes);
    expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kCorrupt,
                  c.name);
  }

  // A torn last record — the on-disk shape of a SIGKILL mid-append — is the
  // clean end of the chain: the run resumes from the last complete record.
  auto torn = pristine;
  torn.resize(pristine.size() - 5);
  write_file(path, torn);
  ckpt::Chain chain;
  ASSERT_EQ(ckpt::load_chain(path, file_fingerprint(path),
                             ckpt::Provider::kExplore, &chain),
            ckpt::LoadStatus::kOk);
  EXPECT_EQ(chain.deltas.size(), recs.size() - 2);
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kOk, "torn tail");
}

TEST(CkptDeltaChain, KilledDeltaWriteEndsTheChainAtThePreviousLink) {
  // A fault between the two halves of a delta's frame leaves a torn record
  // at the end of the log and closes it; the next periodic save writes a
  // fresh base, so the run keeps checkpointing and resumes bit-identically.
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const auto reference = mc::check_invariant(tg.system, safe);

  const std::string path = ckpt_path("chain_torn_write");
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.checkpoint.interval = 20;
  opts.limits.max_states = reference.stats.states_stored / 2;
  {
    ScopedFault fault("ckpt.delta.write", common::FaultKind::kException, 2);
    ASSERT_TRUE(mc::check_invariant(tg.system, safe, opts).resume.saved);
  }
  EXPECT_TRUE(temp_files(path).empty());
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kOk,
                "resume past torn write");
}

/// RAII: caps the size of files this process writes (RLIMIT_FSIZE), with
/// SIGXFSZ ignored so a write past the cap fails with EFBIG instead of
/// killing the process.
class ScopedFileSizeLimit {
 public:
  explicit ScopedFileSizeLimit(std::size_t bytes)
      : handler_(std::signal(SIGXFSZ, SIG_IGN)) {
    rlimit cap{};
    ok_ = ::getrlimit(RLIMIT_FSIZE, &old_) == 0;
    cap = old_;
    cap.rlim_cur = static_cast<rlim_t>(bytes);
    ok_ = ok_ && ::setrlimit(RLIMIT_FSIZE, &cap) == 0;
  }
  ~ScopedFileSizeLimit() {
    if (ok_) ::setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, handler_);
  }
  ScopedFileSizeLimit(const ScopedFileSizeLimit&) = delete;
  ScopedFileSizeLimit& operator=(const ScopedFileSizeLimit&) = delete;
  bool ok() const { return ok_; }

 private:
  void (*handler_)(int);
  rlimit old_{};
  bool ok_ = false;
};

TEST(CkptDeltaChain, FailedAppendClosesTheLogAndTheNextSaveIsABase) {
  // Two ways an append fails: an injected fault between the two halves of
  // the frame, and a write error. Either way the file keeps the chain up to
  // the previous record behind a torn tail, the writer writes nothing more
  // to it, and its next save is a base that replaces the file.
  const std::vector<ckpt::Section> link = {
      ckpt::Section{2, std::vector<std::uint8_t>(std::size_t{1} << 16, 7)}};
  for (const bool io_error : {false, true}) {
    const std::string path =
        ckpt_path(io_error ? "append_io_error" : "append_fault");
    ckpt::ChainWriter chain(path, ckpt::Provider::kExplore, 42, 8);
    ASSERT_TRUE(chain.save_base(make_snapshot(42)));
    ASSERT_TRUE(chain.save_delta_link(link));
    const auto intact = read_file(path);
    if (io_error) {
      ScopedFileSizeLimit limit(intact.size() + 100);
      ASSERT_TRUE(limit.ok());
      EXPECT_FALSE(chain.save_delta_link(link));
    } else {
      ScopedFault fault("ckpt.delta.write", common::FaultKind::kException, 1);
      EXPECT_FALSE(chain.save_delta_link(link));
    }
    EXPECT_TRUE(chain.want_base()) << io_error;
    EXPECT_FALSE(chain.save_delta_link(link)) << io_error;

    const auto torn = read_file(path);
    ASSERT_GT(torn.size(), intact.size()) << io_error;
    EXPECT_TRUE(std::equal(intact.begin(), intact.end(), torn.begin()));
    ckpt::Chain back;
    ASSERT_EQ(ckpt::load_chain(path, 42, ckpt::Provider::kExplore, &back),
              ckpt::LoadStatus::kOk);
    EXPECT_EQ(back.deltas.size(), 1u);

    ASSERT_TRUE(chain.save_base(make_snapshot(42)));
    ASSERT_TRUE(chain.save_delta_link(link));
    EXPECT_EQ(read_file(path), intact) << io_error;
  }
}

TEST(CkptDeltaChain, ResumedRunStartsAFreshChainWithABase) {
  // A resumed run never appends to the chain it loaded: its first save is a
  // new base renamed over the old chain, so every writer appends only to a
  // file it created itself.
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const std::string path = ckpt_path("chain_rebase");
  const auto reference = build_delta_chain(tg, safe, path);
  const auto before = read_file(path);
  const LogRecord old_base = log_records(before)[0];

  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.checkpoint.interval = 20;
  opts.limits.max_states = reference.stats.states_stored * 3 / 4;
  const auto second = mc::check_invariant(tg.system, safe, opts);
  EXPECT_TRUE(second.resume.resumed);
  EXPECT_TRUE(second.resume.saved);

  const auto after = read_file(path);
  const LogRecord new_base = log_records(after)[0];
  const auto record_bytes = [](const std::vector<std::uint8_t>& b,
                               const LogRecord& r) {
    const auto from = b.begin() + static_cast<std::ptrdiff_t>(r.at);
    return std::vector<std::uint8_t>(
        from, from + static_cast<std::ptrdiff_t>(kLogFrameSize + r.size));
  };
  EXPECT_NE(record_bytes(after, new_base), record_bytes(before, old_base));
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kOk,
                "resume of the resumed run's chain");
}

TEST(CkptDeltaChain, OldLayoutOrOtherVersionIsRefusedAndTheRunStartsFresh) {
  // A checkpoint of the older per-file layout — a base file with its own
  // magic, plus one ".dN" file per delta — is not a record log: the loader
  // refuses it as kBadMagic, with or without a delta file beside it. A log
  // of another format version is refused as kBadVersion. Either way the
  // run starts fresh.
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const std::string path = ckpt_path("old_layout");
  const auto reference = build_delta_chain(tg, safe, path);
  const auto pristine = read_file(path);

  auto other_version = pristine;
  put_le32(&other_version, 8, ckpt::kFormatVersion + 1);
  put_le32(&other_version, 12, ckpt::crc32(other_version.data(), 12));
  write_file(path, other_version);
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kBadVersion,
                "another format version");

  // The older base header: magic, format 1, provider, fingerprint, section
  // count, header CRC; then one section frame with its own CRC.
  const char old_base_magic[8] = {'Q', 'C', 'K', 'P', 'T', '1', '\r', '\n'};
  const char old_delta_magic[8] = {'Q', 'C', 'K', 'P', 'D', '1', '\r', '\n'};
  RefBytes old_base;
  for (char c : old_base_magic) old_base.u8(static_cast<std::uint8_t>(c));
  old_base.u32(1);
  old_base.u32(static_cast<std::uint32_t>(ckpt::Provider::kExplore));
  old_base.u64(file_fingerprint(path));
  old_base.u32(1);
  old_base.u32(ckpt::crc32(old_base.bytes.data(), old_base.bytes.size()));
  old_base.u32(ckpt::kSecSearchStats);
  old_base.u64(16);
  old_base.u32(ckpt::crc32(std::vector<std::uint8_t>(16).data(), 16));
  for (int i = 0; i < 16; ++i) old_base.u8(0);
  RefBytes old_delta;
  for (char c : old_delta_magic) old_delta.u8(static_cast<std::uint8_t>(c));
  old_delta.u32(2);

  write_file(path, old_base.bytes);
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kBadMagic,
                "old-layout base");
  write_file(path, old_base.bytes);
  write_file(path + ".d1", old_delta.bytes);
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kBadMagic,
                "old-layout base and delta");
  fs::remove(path + ".d1");
}

TEST(CkptDeltaChain, FaultDuringDeltaApplyStartsFresh) {
  auto tg = models::make_train_gate(3);
  const auto safe = models::train_gate_mutex(tg);
  const std::string path = ckpt_path("chain_apply_fault");
  const auto reference = build_delta_chain(tg, safe, path);

  // An I/O failure while reading a delta (injected at ckpt.delta.apply)
  // poisons the chain exactly like corruption: fresh start, correct result.
  ScopedFault fault("ckpt.delta.apply", common::FaultKind::kException, 1);
  expect_resume(tg, safe, path, reference, ckpt::LoadStatus::kIoError,
                "fresh after apply fault");
}

// ---- provider 4: leads-to liveness -----------------------------------------

TEST(CkptLiveness, InterruptAnywhereThenResumeIsBitIdentical) {
  auto tg = models::make_train_gate(3);
  const auto phi = mc::loc_pred(tg.system, "Train(0)", "Appr");
  const auto psi = mc::loc_pred(tg.system, "Train(0)", "Cross");
  const auto reference = mc::check_leads_to(tg.system, phi, psi);
  ASSERT_TRUE(reference.holds()) << reference.reason;
  ASSERT_GT(reference.stats.states_stored, 100u);

  for (std::size_t k : {std::size_t{3}, reference.stats.states_stored / 4,
                        reference.stats.states_stored / 2}) {
    const std::string path = ckpt_path("live_resume_" + std::to_string(k));
    mc::ReachOptions opts;
    opts.checkpoint.path = path;
    opts.checkpoint.interval = 30;
    opts.limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
    mc::LeadsToResult interrupted;
    {
      ScopedFault fault("core.state_store.intern",
                        common::FaultKind::kDeadline, k);
      interrupted = mc::check_leads_to(tg.system, phi, psi, opts);
    }
    ASSERT_EQ(interrupted.verdict, common::Verdict::kUnknown) << "k=" << k;
    ASSERT_EQ(interrupted.stop(), common::StopReason::kTimeLimit);
    ASSERT_TRUE(interrupted.resume.saved) << "k=" << k;

    const auto resumed = mc::check_leads_to(tg.system, phi, psi, opts);
    EXPECT_EQ(resumed.resume.load, ckpt::LoadStatus::kOk) << "k=" << k;
    EXPECT_TRUE(resumed.resume.resumed);
    EXPECT_TRUE(resumed.holds()) << "k=" << k << ": " << resumed.reason;
    expect_same_stats(resumed.stats, reference.stats, "resumed leads-to");
  }
}

TEST(CkptLiveness, CompletedGraphSnapshotSkipsTheRebuild) {
  // Once the zone graph completes, the final whole-graph snapshot (empty
  // worklist) lets a crash during the violation search resume without
  // re-expanding anything.
  auto tg = models::make_train_gate(2);
  const auto phi = mc::loc_pred(tg.system, "Train(0)", "Appr");
  const auto psi = mc::loc_pred(tg.system, "Train(0)", "Cross");
  const auto reference = mc::check_leads_to(tg.system, phi, psi);
  ASSERT_TRUE(reference.holds());

  const std::string path = ckpt_path("live_complete");
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.checkpoint.interval = 30;
  const auto first = mc::check_leads_to(tg.system, phi, psi, opts);
  ASSERT_TRUE(first.holds());
  ASSERT_TRUE(first.resume.saved);

  const auto again = mc::check_leads_to(tg.system, phi, psi, opts);
  EXPECT_EQ(again.resume.load, ckpt::LoadStatus::kOk);
  EXPECT_TRUE(again.resume.resumed);
  EXPECT_TRUE(again.holds());
  expect_same_stats(again.stats, reference.stats, "complete-graph resume");
}

TEST(CkptLiveness, EventuallyIsResumableAndDistinctFromLeadsTo) {
  auto tg = models::make_train_gate(2);
  const auto psi = mc::loc_pred(tg.system, "Train(0)", "Cross");
  const auto reference = mc::check_eventually(tg.system, psi);
  // (Not necessarily kHolds — a train may idle forever; the verdict just
  // has to be reproduced bit-identically by the resumed run.)

  const std::string path = ckpt_path("live_eventually");
  mc::ReachOptions opts;
  opts.checkpoint.path = path;
  opts.limits.max_states = reference.stats.states_stored / 2;
  const auto truncated = mc::check_eventually(tg.system, psi, opts);
  ASSERT_EQ(truncated.verdict, common::Verdict::kUnknown);
  ASSERT_TRUE(truncated.resume.saved);

  mc::ReachOptions full;
  full.checkpoint.path = path;
  const auto resumed = mc::check_eventually(tg.system, psi, full);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_EQ(resumed.verdict, reference.verdict);
  expect_same_stats(resumed.stats, reference.stats, "resumed eventually");

  // A leads-to with a different phi must refuse the eventually snapshot.
  const auto other = mc::check_leads_to(
      tg.system, mc::loc_pred(tg.system, "Train(1)", "Appr"), psi, full);
  EXPECT_EQ(other.resume.load, ckpt::LoadStatus::kBadFingerprint);
  EXPECT_FALSE(other.resume.resumed);
}

// ---- provider 5: SPRT hypothesis testing -----------------------------------

/// One process, exponential rate `rate` in Init, single edge to Done; the
/// first-hit time is Exp(rate), so P(hit <= T) = 1 - exp(-rate*T).
ta::System exp_system(double rate) {
  ta::System sys;
  ta::ProcessBuilder pb("P");
  int init = pb.location("Init", {}, false, false, rate);
  int done = pb.location("Done");
  pb.edge(init, done, {}, -1, ta::SyncKind::kNone, {}, nullptr, nullptr,
          "fire");
  sys.add_process(pb.build());
  return sys;
}

smc::TimeBoundedReach exp_done_within(double bound) {
  smc::TimeBoundedReach prop;
  prop.time_bound = bound;
  prop.goal = common::labeled_pred<ta::ConcreteState>(
      "p-done", [](const ta::ConcreteState& s) { return s.locs[0] == 1; });
  return prop;
}

TEST(CkptSprt, StaleMidWalkSnapshotResumesToTheIdenticalVerdict) {
  // p = 1 - exp(-1) ~ 0.632 against theta 0.55 +- 0.02: a few hundred runs
  // to accept H0. The periodic snapshots leave a mid-walk position behind
  // (a verdict stops the test between intervals); resuming from that stale
  // position must replay the identical LLR walk.
  ta::System sys = exp_system(0.5);
  const auto prop = exp_done_within(2.0);
  exec::Executor ex(4);
  smc::SprtOptions opts;
  opts.indifference = 0.02;
  const auto reference = smc::sprt_test(sys, prop, 0.55, opts, 7, ex);
  ASSERT_EQ(reference.verdict, smc::SprtVerdict::kAccepted);
  ASSERT_GT(reference.runs, 60u);

  smc::SprtOptions ck = opts;
  ck.checkpoint.path = ckpt_path("sprt_stale");
  ck.checkpoint.interval = 40;
  const auto first = smc::sprt_test(sys, prop, 0.55, ck, 7, ex);
  EXPECT_EQ(first.verdict, reference.verdict);
  EXPECT_EQ(first.runs, reference.runs);
  EXPECT_EQ(first.hits, reference.hits);
  ASSERT_TRUE(first.resume.saved);

  // Different worker count on resume: run i is a pure function of (seed, i)
  // and the walk consumes runs in order, so nothing may change.
  exec::Executor ex2(2);
  const auto resumed = smc::sprt_test(sys, prop, 0.55, ck, 7, ex2);
  EXPECT_EQ(resumed.resume.load, ckpt::LoadStatus::kOk);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_EQ(resumed.verdict, reference.verdict);
  EXPECT_EQ(resumed.runs, reference.runs);
  EXPECT_EQ(resumed.hits, reference.hits);
}

/// SPRT parameters under which the test provably cannot decide: theta sits
/// at the true probability (near-zero LLR drift) and the Wald boundaries are
/// ~20.7 wide (alpha = beta = 1e-9), hundreds of standard deviations beyond
/// the walk's reach — so an injected interrupt always lands mid-test, and
/// the uninterrupted reference deterministically exhausts max_runs.
smc::SprtOptions undecidable_sprt() {
  smc::SprtOptions opts;
  opts.alpha = 1e-9;
  opts.beta = 1e-9;
  opts.indifference = 0.005;
  opts.max_runs = 200'000;
  return opts;
}

TEST(CkptSprt, CancelledTestSavesTheWalkAndResumesBitIdentically) {
  ta::System sys = exp_system(0.5);
  const auto prop = exp_done_within(2.0);
  exec::Executor ex(4);
  smc::SprtOptions opts = undecidable_sprt();
  const auto reference = smc::sprt_test(sys, prop, 0.63, opts, 7, ex);
  ASSERT_EQ(reference.verdict, smc::SprtVerdict::kInconclusive);
  ASSERT_EQ(reference.runs, opts.max_runs);

  smc::SprtOptions ck = opts;
  ck.checkpoint.path = ckpt_path("sprt_cancel");
  common::CancelToken cancel;
  cancel.cancel();
  common::Budget budget;
  budget.with_cancel(&cancel);
  const auto interrupted =
      smc::sprt_test(sys, prop, 0.63, ck, 7, ex, nullptr, budget);
  ASSERT_EQ(interrupted.verdict, smc::SprtVerdict::kInconclusive);
  EXPECT_EQ(interrupted.stop, common::StopReason::kCancelled);
  ASSERT_TRUE(interrupted.resume.saved);

  cancel.reset();
  const auto resumed = smc::sprt_test(sys, prop, 0.63, ck, 7, ex);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_EQ(resumed.verdict, reference.verdict);
  EXPECT_EQ(resumed.runs, reference.runs);
  EXPECT_EQ(resumed.hits, reference.hits);
  EXPECT_EQ(resumed.stop, reference.stop);
}

TEST(CkptSprt, ForcedDeadlineInterruptsAtABatchBoundary) {
  // The smc.sprt.batch fault site forces the watchdog's deadline mid-test;
  // wherever the walk stops, the resumed test reproduces the reference.
  ta::System sys = exp_system(0.5);
  const auto prop = exp_done_within(2.0);
  exec::Executor ex(4);
  smc::SprtOptions opts = undecidable_sprt();
  opts.batch_size = 64;
  const auto reference = smc::sprt_test(sys, prop, 0.63, opts, 9, ex);

  smc::SprtOptions ck = opts;
  ck.checkpoint.path = ckpt_path("sprt_deadline");
  const auto budget = common::Budget::deadline_after(std::chrono::hours(1));
  smc::SprtResult interrupted;
  {
    ScopedFault fault("smc.sprt.batch", common::FaultKind::kDeadline, 2);
    interrupted = smc::sprt_test(sys, prop, 0.63, ck, 9, ex, nullptr, budget);
  }
  ASSERT_EQ(interrupted.verdict, smc::SprtVerdict::kInconclusive);
  EXPECT_EQ(interrupted.stop, common::StopReason::kTimeLimit);
  ASSERT_TRUE(interrupted.resume.saved);
  ASSERT_LT(interrupted.runs, reference.runs);

  const auto resumed = smc::sprt_test(sys, prop, 0.63, ck, 9, ex);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_EQ(resumed.verdict, reference.verdict);
  EXPECT_EQ(resumed.runs, reference.runs);
  EXPECT_EQ(resumed.hits, reference.hits);
}

TEST(CkptSprt, DifferentThetaRefusesTheSnapshot) {
  ta::System sys = exp_system(0.5);
  const auto prop = exp_done_within(2.0);
  exec::Executor ex(4);
  smc::SprtOptions ck = undecidable_sprt();
  ck.checkpoint.path = ckpt_path("sprt_theta");
  common::CancelToken cancel;
  cancel.cancel();
  common::Budget budget;
  budget.with_cancel(&cancel);
  ASSERT_TRUE(smc::sprt_test(sys, prop, 0.63, ck, 7, ex, nullptr, budget)
                  .resume.saved);

  cancel.reset();
  const auto other = smc::sprt_test(sys, prop, 0.5, ck, 7, ex);
  EXPECT_EQ(other.resume.load, ckpt::LoadStatus::kBadFingerprint);
  EXPECT_FALSE(other.resume.resumed);
}

// ---- provider 6: timed-game solving ----------------------------------------

game::GamePredicate train0_crosses(const models::TrainGame& tg) {
  return common::loc_index_pred<ta::DigitalState>(tg.trains[0], tg.l_cross);
}

game::GamePredicate game_mutex(const models::TrainGame& tg) {
  return common::labeled_pred<ta::DigitalState>(
      "train-game-mutex",
      [&tg](const ta::DigitalState& s) { return tg.mutex_ok(s.locs); });
}

void expect_same_game(const game::GameResult& got,
                      const game::GameResult& want, const char* what) {
  EXPECT_EQ(got.verdict, want.verdict) << what;
  EXPECT_EQ(got.winning_states, want.winning_states) << what;
  EXPECT_EQ(got.stats.states_stored, want.stats.states_stored) << what;
  EXPECT_EQ(got.stats.states_explored, want.stats.states_explored) << what;
  EXPECT_EQ(got.stats.transitions, want.stats.transitions) << what;
}

TEST(CkptGame, InterruptedBuildResumesToIdenticalSolve) {
  auto tg = models::make_train_game(
      {.num_trains = 2, .first_train_approaching = true});
  const auto goal = train0_crosses(tg);
  const auto reference = game::TimedGame(tg.system).solve_reachability(goal);
  ASSERT_TRUE(reference.controller_wins());
  ASSERT_GT(reference.stats.states_stored, 50u);

  for (std::size_t k : {std::size_t{3}, reference.stats.states_stored / 3,
                        (2 * reference.stats.states_stored) / 3}) {
    const std::string path = ckpt_path("game_build_" + std::to_string(k));
    core::SearchLimits limits;
    limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
    ckpt::Options ck;
    ck.path = path;
    ck.interval = 25;
    game::GameResult interrupted;
    {
      ScopedFault fault("core.state_store.intern",
                        common::FaultKind::kDeadline, k);
      interrupted =
          game::TimedGame(tg.system, limits, ck).solve_reachability(goal);
    }
    ASSERT_EQ(interrupted.verdict, common::Verdict::kUnknown) << "k=" << k;
    ASSERT_EQ(interrupted.stop(), common::StopReason::kTimeLimit);
    ASSERT_TRUE(interrupted.resume.saved) << "k=" << k;

    auto resumed = game::TimedGame(tg.system, {}, ck).solve_reachability(goal);
    EXPECT_EQ(resumed.resume.load, ckpt::LoadStatus::kOk) << "k=" << k;
    EXPECT_TRUE(resumed.resume.resumed);
    expect_same_game(resumed, reference, "resumed reach solve");
    EXPECT_TRUE(game::verify_reach_strategy(tg.system, resumed.strategy, goal));
  }
}

TEST(CkptGame, InterruptedFixpointResumesToIdenticalSolve) {
  auto tg = models::make_train_game(
      {.num_trains = 2, .first_train_approaching = true});
  const auto goal = train0_crosses(tg);
  const auto reference = game::TimedGame(tg.system).solve_reachability(goal);
  ASSERT_TRUE(reference.controller_wins());

  // k = 1 interrupts before the first sweep, k = 2 after one full sweep —
  // both at a sweep boundary, where the (win, act, sweeps) snapshot pins
  // down the remainder of the attractor computation exactly.
  for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2}}) {
    const std::string path = ckpt_path("game_fix_" + std::to_string(k));
    core::SearchLimits limits;
    limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
    ckpt::Options ck;
    ck.path = path;
    game::GameResult interrupted;
    {
      ScopedFault fault("game.tiga.sweep", common::FaultKind::kDeadline, k);
      interrupted =
          game::TimedGame(tg.system, limits, ck).solve_reachability(goal);
    }
    ASSERT_EQ(interrupted.verdict, common::Verdict::kUnknown) << "k=" << k;
    ASSERT_EQ(interrupted.stop(), common::StopReason::kTimeLimit);
    ASSERT_TRUE(interrupted.resume.saved) << "k=" << k;

    auto resumed = game::TimedGame(tg.system, {}, ck).solve_reachability(goal);
    EXPECT_TRUE(resumed.resume.resumed) << "k=" << k;
    expect_same_game(resumed, reference, "resumed fixpoint");
    EXPECT_TRUE(game::verify_reach_strategy(tg.system, resumed.strategy, goal));
  }
}

TEST(CkptGame, InterruptedSafetyFixpointResumes) {
  auto tg = models::make_train_game({.num_trains = 2});
  const auto safe = game_mutex(tg);
  const auto reference = game::TimedGame(tg.system).solve_safety(safe);
  ASSERT_TRUE(reference.controller_wins());

  const std::string path = ckpt_path("game_safety");
  core::SearchLimits limits;
  limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
  ckpt::Options ck;
  ck.path = path;
  game::GameResult interrupted;
  {
    ScopedFault fault("game.tiga.sweep", common::FaultKind::kDeadline, 1);
    interrupted = game::TimedGame(tg.system, limits, ck).solve_safety(safe);
  }
  ASSERT_EQ(interrupted.verdict, common::Verdict::kUnknown);
  ASSERT_TRUE(interrupted.resume.saved);

  auto resumed = game::TimedGame(tg.system, {}, ck).solve_safety(safe);
  EXPECT_TRUE(resumed.resume.resumed);
  expect_same_game(resumed, reference, "resumed safety fixpoint");
  EXPECT_TRUE(game::verify_safety_strategy(tg.system, resumed.strategy, safe));
}

TEST(CkptGame, ObjectiveIsPartOfTheFingerprint) {
  auto tg = models::make_train_game(
      {.num_trains = 2, .first_train_approaching = true});
  const auto pred = train0_crosses(tg);
  const std::string path = ckpt_path("game_objective");
  core::SearchLimits limits;
  limits.max_states = 30;
  ckpt::Options ck;
  ck.path = path;
  ASSERT_TRUE(game::TimedGame(tg.system, limits, ck)
                  .solve_reachability(pred)
                  .resume.saved);

  // Same predicate AST, same path — but a safety objective: refused.
  auto r = game::TimedGame(tg.system, {}, ck).solve_safety(pred);
  EXPECT_EQ(r.resume.load, ckpt::LoadStatus::kBadFingerprint);
  EXPECT_FALSE(r.resume.resumed);
}

// ---- provider 7: priced (min-cost) search ----------------------------------

TEST(CkptCora, InterruptAnywhereThenResumeIsBitIdentical) {
  auto tg = models::make_train_gate(2);
  cora::PriceModel prices(tg.system);
  for (int t : tg.trains) {
    const auto& proc = tg.system.process(t);
    prices.set_location_rate(t, proc.location_index("Appr"), 1);
    prices.set_location_rate(t, proc.location_index("Stop"), 1);
  }
  const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
  const auto goal =
      common::loc_index_pred<ta::DigitalState>(tg.trains[0], cross);

  cora::MinCostOptions base;
  base.record_trace = true;
  const auto reference =
      cora::min_cost_reachability(tg.system, prices, goal, base);
  ASSERT_TRUE(reference.reachable());
  ASSERT_EQ(reference.cost, 10);
  ASSERT_GT(reference.stats.states_stored, 50u);

  for (std::size_t k : {std::size_t{3}, reference.stats.states_stored / 3,
                        (2 * reference.stats.states_stored) / 3}) {
    const std::string path = ckpt_path("cora_resume_" + std::to_string(k));
    cora::MinCostOptions opts = base;
    opts.checkpoint.path = path;
    opts.checkpoint.interval = 25;
    opts.limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
    cora::MinCostResult interrupted;
    {
      ScopedFault fault("core.state_store.intern",
                        common::FaultKind::kDeadline, k);
      interrupted = cora::min_cost_reachability(tg.system, prices, goal, opts);
    }
    ASSERT_EQ(interrupted.verdict, common::Verdict::kUnknown) << "k=" << k;
    ASSERT_EQ(interrupted.stop(), common::StopReason::kTimeLimit);
    ASSERT_TRUE(interrupted.resume.saved) << "k=" << k;

    cora::MinCostOptions full = base;
    full.checkpoint.path = path;
    const auto resumed =
        cora::min_cost_reachability(tg.system, prices, goal, full);
    EXPECT_EQ(resumed.resume.load, ckpt::LoadStatus::kOk) << "k=" << k;
    EXPECT_TRUE(resumed.resume.resumed);
    EXPECT_TRUE(resumed.reachable()) << "k=" << k;
    EXPECT_EQ(resumed.cost, reference.cost) << "k=" << k;
    expect_same_stats(resumed.stats, reference.stats, "resumed min-cost");
    EXPECT_EQ(resumed.trace, reference.trace) << "k=" << k;
  }
}

TEST(CkptCora, StateLimitStopIsResumable) {
  auto tg = models::make_train_gate(2);
  cora::PriceModel prices(tg.system);
  const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
  const auto goal =
      common::loc_index_pred<ta::DigitalState>(tg.trains[0], cross);
  const auto reference = cora::min_cost_reachability(tg.system, prices, goal);
  ASSERT_TRUE(reference.reachable());

  const std::string path = ckpt_path("cora_statelimit");
  cora::MinCostOptions opts;
  opts.checkpoint.path = path;
  opts.limits.max_states = reference.stats.states_stored / 2;
  const auto truncated =
      cora::min_cost_reachability(tg.system, prices, goal, opts);
  ASSERT_EQ(truncated.verdict, common::Verdict::kUnknown);
  ASSERT_EQ(truncated.stop(), common::StopReason::kStateLimit);
  ASSERT_TRUE(truncated.resume.saved);

  cora::MinCostOptions full;
  full.checkpoint.path = path;
  const auto resumed =
      cora::min_cost_reachability(tg.system, prices, goal, full);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_TRUE(resumed.reachable());
  EXPECT_EQ(resumed.cost, reference.cost);
  expect_same_stats(resumed.stats, reference.stats, "after state limit");
}

TEST(CkptCora, PriceChangeRefusesTheSnapshot) {
  auto tg = models::make_train_gate(2);
  cora::PriceModel prices(tg.system);
  const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
  const auto goal =
      common::loc_index_pred<ta::DigitalState>(tg.trains[0], cross);

  const std::string path = ckpt_path("cora_prices");
  cora::MinCostOptions opts;
  opts.checkpoint.path = path;
  opts.limits.max_states = 40;
  ASSERT_TRUE(cora::min_cost_reachability(tg.system, prices, goal, opts)
                  .resume.saved);

  // Different cost structure => different optimum => the snapshot must not
  // be resumed, even though model and goal are unchanged.
  cora::PriceModel dearer(tg.system);
  dearer.set_location_rate(tg.trains[0],
                           tg.system.process(tg.trains[0]).location_index("Appr"),
                           5);
  cora::MinCostOptions full;
  full.checkpoint.path = path;
  const auto r = cora::min_cost_reachability(tg.system, dearer, goal, full);
  EXPECT_EQ(r.resume.load, ckpt::LoadStatus::kBadFingerprint);
  EXPECT_FALSE(r.resume.resumed);
  EXPECT_TRUE(r.reachable());
}

TEST(CkptStatistical, DifferentSeedOrRunsRefusesTheSnapshot) {
  auto tg = models::make_train_gate(2);
  const auto prop = train_crosses(tg, 30.0);
  exec::Executor ex(4);

  const std::string path = ckpt_path("smc_fingerprint");
  ckpt::Options ck;
  ck.path = path;
  const auto budget = common::Budget::deadline_after(std::chrono::hours(1));
  {
    ScopedFault fault("smc.estimate.batch", common::FaultKind::kDeadline, 2);
    ASSERT_TRUE(smc::estimate_probability_runs(tg.system, prop, 2500, 0.05, 11,
                                               ex, nullptr, budget, ck)
                    .resume.saved);
  }

  // Same path, different seed: the snapshot must not be resumed.
  const auto other = smc::estimate_probability_runs(tg.system, prop, 2500,
                                                    0.05, 12, ex, nullptr, {},
                                                    ck);
  EXPECT_EQ(other.resume.load, ckpt::LoadStatus::kBadFingerprint);
  EXPECT_FALSE(other.resume.resumed);
  EXPECT_EQ(other.verdict, common::Verdict::kHolds);
}

// ---- store encoding: pooled records vs the materializing reference --------

/// The encoders the pooled codec replaced: each state is rebuilt as a whole
/// object (StateStore::state) and written field by field. Kept here only,
/// as the reference the production encoders must match byte for byte.
void reference_sym_state(RefBytes& b, const ta::SymState& s) {
  b.u32(static_cast<std::uint32_t>(s.locs.size()));
  for (int l : s.locs) b.i32(l);
  b.u32(static_cast<std::uint32_t>(s.vars.size()));
  for (auto v : s.vars) b.i32(v);
  const int dim = s.zone.dim();
  b.u32(static_cast<std::uint32_t>(dim));
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) b.i32(s.zone.at(i, j));
  }
}

void reference_digital_state(RefBytes& b, const ta::DigitalState& s) {
  b.u32(static_cast<std::uint32_t>(s.locs.size()));
  for (int l : s.locs) b.i32(l);
  b.u32(static_cast<std::uint32_t>(s.vars.size()));
  for (auto v : s.vars) b.i32(v);
  b.u32(static_cast<std::uint32_t>(s.clocks.size()));
  for (std::int32_t c : s.clocks) b.i32(c);
}

template <typename Store, typename Ref>
std::vector<std::uint8_t> reference_store(const Store& store, Ref ref) {
  RefBytes b;
  b.u8(store.options().inclusion ? 1 : 0);
  b.u8(store.options().tombstone_covered ? 1 : 0);
  b.u64(store.size());
  for (std::size_t id = 0; id < store.size(); ++id) {
    ref(b, store.state(static_cast<std::int32_t>(id)));
  }
  for (std::size_t id = 0; id < store.size(); ++id) {
    b.u8(store.covered(static_cast<std::int32_t>(id)) ? 1 : 0);
  }
  return b.bytes;
}

template <typename Store, typename Ref>
std::vector<std::uint8_t> reference_store_delta(const Store& store,
                                                std::size_t base_states,
                                                std::size_t base_journal,
                                                Ref ref) {
  RefBytes b;
  b.u64(base_states);
  b.u64(store.size() - base_states);
  for (std::size_t id = base_states; id < store.size(); ++id) {
    ref(b, store.state(static_cast<std::int32_t>(id)));
  }
  const auto& journal = store.covered_journal();
  b.u64(base_journal);
  b.u64(journal.size() - base_journal);
  for (std::size_t i = base_journal; i < journal.size(); ++i) b.i32(journal[i]);
  return b.bytes;
}

/// Pins write_store and write_store_delta (at several cut points) against
/// the reference on one store.
template <typename Store, typename Write, typename Ref>
void expect_store_bytes_match(const Store& store, Write write, Ref ref,
                              const std::string& what) {
  ckpt::io::Writer w;
  ckpt::write_store(w, store, write);
  EXPECT_EQ(w.buffer(), reference_store(store, ref)) << what;
  const std::size_t n = store.size();
  const std::size_t flips = store.covered_journal().size();
  for (std::size_t base : {std::size_t{0}, n / 3, n - 1, n}) {
    for (std::size_t cut : {std::size_t{0}, flips / 2, flips}) {
      ckpt::io::Writer d;
      ckpt::write_store_delta(d, store, base, cut, write);
      EXPECT_EQ(d.buffer(), reference_store_delta(store, base, cut, ref))
          << what << " delta base " << base << " journal " << cut;
    }
  }
}

ta::SymState random_sym_state(std::mt19937& rng, int clocks) {
  ta::SymState s;
  s.locs = {static_cast<int>(rng() % 5), static_cast<int>(rng() % 3)};
  s.vars = {static_cast<std::int32_t>(rng() % 3) - 1};
  s.zone = dbm::Dbm::universal(clocks + 1);
  for (int c = 1; c <= clocks; ++c) {
    if (rng() % 3 != 0) {
      EXPECT_TRUE(s.zone.constrain_le(c, 0, static_cast<int>(rng() % 9) + 1));
    }
  }
  return s;
}

TEST(CkptStoreEncoding, PooledSymStoreMatchesTheMaterializingReference) {
  // Two clocks keep zone rows inline in the pooled record; nine go through
  // the pooled row-ref vector.
  for (const int clocks : {2, 9}) {
    core::StateStore<ta::SymState> st({.inclusion = true});
    std::mt19937 rng(static_cast<std::uint32_t>(clocks));
    for (int i = 0; i < 600; ++i) st.intern(random_sym_state(rng, clocks));
    const std::string what = "clocks " + std::to_string(clocks) + " resident";
    ASSERT_GT(st.size(), 50u) << what;
    ASSERT_FALSE(st.covered_journal().empty()) << what;
    expect_store_bytes_match(st, ckpt::write_sym_state, reference_sym_state,
                             what);
  }
}

TEST(CkptStoreEncoding, PooledDigitalStoreMatchesTheMaterializingReference) {
  core::StateStore<ta::DigitalState> st;
  std::mt19937 rng(7);
  for (int i = 0; i < 800; ++i) {
    ta::DigitalState s;
    s.locs = {static_cast<int>(rng() % 4), static_cast<int>(rng() % 4)};
    s.vars = {static_cast<std::int32_t>(rng() % 2)};
    s.clocks = {0, static_cast<std::int32_t>(rng() % 6),
                static_cast<std::int32_t>(rng() % 6)};
    st.intern(s);
  }
  ASSERT_GT(st.size(), 100u);
  ASSERT_LT(st.size(), 800u);  // duplicates were interned, not re-added
  expect_store_bytes_match(st, ckpt::write_digital_state,
                           reference_digital_state, "digital");
}

/// Decodes every store section of the chain at `path` and re-encodes the
/// decoded states with the reference: the engine's bytes must match.
template <typename S, typename Read, typename Ref>
void expect_chain_store_bytes_match(const std::string& path,
                                    ckpt::Provider provider, Read read_state,
                                    Ref ref, const char* what) {
  ckpt::Chain chain;
  ASSERT_EQ(ckpt::load_chain(path, file_fingerprint(path), provider, &chain),
            ckpt::LoadStatus::kOk)
      << what;
  ASSERT_FALSE(chain.deltas.empty()) << what << ": no delta was written";
  auto reencode_states = [&](ckpt::io::Reader& r, RefBytes& b,
                             std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      S s;
      ASSERT_TRUE(read_state(r, &s)) << what << " state " << i;
      ref(b, s);
    }
  };
  {
    const ckpt::Section* sec = chain.base.find(ckpt::kSecStore);
    ASSERT_NE(sec, nullptr) << what;
    ckpt::io::Reader r(sec->payload);
    RefBytes b;
    b.u8(r.u8());
    b.u8(r.u8());
    const std::uint64_t n = r.u64();
    b.u64(n);
    reencode_states(r, b, n);
    for (std::uint64_t i = 0; i < n; ++i) b.u8(r.u8());
    EXPECT_TRUE(r.ok() && r.remaining() == 0) << what;
    EXPECT_EQ(b.bytes, sec->payload) << what << " base store section";
  }
  for (const ckpt::Delta& d : chain.deltas) {
    const ckpt::Section* sec = d.find(ckpt::kSecStoreDelta);
    ASSERT_NE(sec, nullptr) << what;
    ckpt::io::Reader r(sec->payload);
    RefBytes b;
    b.u64(r.u64());
    const std::uint64_t appended = r.u64();
    b.u64(appended);
    reencode_states(r, b, appended);
    b.u64(r.u64());
    const std::uint64_t flips = r.u64();
    b.u64(flips);
    for (std::uint64_t i = 0; i < flips; ++i) b.i32(r.i32());
    EXPECT_TRUE(r.ok() && r.remaining() == 0) << what;
    EXPECT_EQ(b.bytes, sec->payload) << what << " delta " << d.seq;
  }
}

TEST(CkptStoreEncoding, EngineChainsMatchTheMaterializingReference) {
  // mc reachability: inclusion store with tombstones.
  {
    auto tg = models::make_train_gate(3);
    const std::string path = ckpt_path("enc_reach");
    build_delta_chain(tg, models::train_gate_mutex(tg), path);
    expect_chain_store_bytes_match<ta::SymState>(
        path, ckpt::Provider::kExplore, ckpt::read_sym_state,
        reference_sym_state, "reachability");
  }
  // mc liveness: exact zone-graph store.
  {
    auto tg = models::make_train_gate(3);
    const auto phi = mc::loc_pred(tg.system, "Train(0)", "Appr");
    const auto psi = mc::loc_pred(tg.system, "Train(0)", "Cross");
    const std::string path = ckpt_path("enc_live");
    mc::ReachOptions opts;
    opts.checkpoint.path = path;
    opts.checkpoint.interval = 30;
    opts.limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
    ScopedFault fault("core.state_store.intern", common::FaultKind::kDeadline,
                      200);
    ASSERT_TRUE(mc::check_leads_to(tg.system, phi, psi, opts).resume.saved);
    expect_chain_store_bytes_match<ta::SymState>(
        path, ckpt::Provider::kLiveness, ckpt::read_sym_state,
        reference_sym_state, "liveness");
  }
  // game TIGA: digital-state store.
  {
    auto tg = models::make_train_game(
        {.num_trains = 2, .first_train_approaching = true});
    const std::string path = ckpt_path("enc_game");
    core::SearchLimits limits;
    limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
    ckpt::Options ck;
    ck.path = path;
    ck.interval = 25;
    ScopedFault fault("core.state_store.intern", common::FaultKind::kDeadline,
                      200);
    ASSERT_TRUE(game::TimedGame(tg.system, limits, ck)
                    .solve_reachability(train0_crosses(tg))
                    .resume.saved);
    expect_chain_store_bytes_match<ta::DigitalState>(
        path, ckpt::Provider::kGame, ckpt::read_digital_state,
        reference_digital_state, "game");
  }
  // cora: digital-state store under a priority worklist.
  {
    auto tg = models::make_train_gate(2);
    cora::PriceModel prices(tg.system);
    for (int t : tg.trains) {
      prices.set_location_rate(t, tg.system.process(t).location_index("Appr"), 1);
    }
    const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
    const std::string path = ckpt_path("enc_cora");
    cora::MinCostOptions opts;
    opts.checkpoint.path = path;
    opts.checkpoint.interval = 25;
    opts.limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
    ScopedFault fault("core.state_store.intern", common::FaultKind::kDeadline,
                      200);
    ASSERT_TRUE(cora::min_cost_reachability(
                    tg.system, prices,
                    common::loc_index_pred<ta::DigitalState>(tg.trains[0], cross),
                    opts)
                    .resume.saved);
    expect_chain_store_bytes_match<ta::DigitalState>(
        path, ckpt::Provider::kPriced, ckpt::read_digital_state,
        reference_digital_state, "cora");
  }
}

/// content_hash64 of every byte of the file at `path`.
std::uint64_t file_hash(const std::string& path) {
  const std::vector<std::uint8_t> b = read_file(path);
  return ckpt::content_hash64(b.data(), b.size());
}

TEST(CkptChainBytes, EngineChainFilesMatchPinnedHashes) {
  // Whole chain files — record headers, every section, base and deltas —
  // of the four store engines, each run with a fixed interval and stopped
  // at a fixed fault point. The hashes were taken from the per-engine
  // checkpoint code before the engines moved onto the shared store-chain
  // driver: a change here is a change of the checkpoint format.
  auto tg = models::make_train_gate(3);
  auto has_deltas = [](const std::string& path) {
    return log_records(read_file(path)).size() >= 2;
  };
  auto run_reach = [&](const char* name, core::SearchOrder order) {
    const std::string path = ckpt_path(name);
    mc::ReachOptions opts;
    opts.order = order;
    opts.checkpoint.path = path;
    opts.checkpoint.interval = 20;
    opts.limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
    ScopedFault fault("core.state_store.intern", common::FaultKind::kDeadline,
                      300);
    EXPECT_TRUE(mc::check_invariant(tg.system, models::train_gate_mutex(tg), opts)
                    .resume.saved)
        << name;
    EXPECT_TRUE(has_deltas(path)) << name;
    return file_hash(path);
  };
  EXPECT_EQ(run_reach("pin_reach_bfs", core::SearchOrder::kBfs),
            8624973988906394483u);
  EXPECT_EQ(run_reach("pin_reach_dfs", core::SearchOrder::kDfs),
            18108708451403470043u);

  // Leads-to: a truncated build, and a complete one whose last record is
  // the whole-graph snapshot (no pending entry).
  const auto phi = mc::loc_pred(tg.system, "Train(0)", "Appr");
  const auto psi = mc::loc_pred(tg.system, "Train(0)", "Cross");
  for (const std::uint64_t after : {std::uint64_t{200}, std::uint64_t{0}}) {
    const std::string path = ckpt_path("pin_live_" + std::to_string(after));
    mc::ReachOptions opts;
    opts.checkpoint.path = path;
    opts.checkpoint.interval = 30;
    opts.limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
    std::optional<ScopedFault> fault;
    if (after != 0) {
      fault.emplace("core.state_store.intern", common::FaultKind::kDeadline,
                    after);
    }
    EXPECT_TRUE(mc::check_leads_to(tg.system, phi, psi, opts).resume.saved);
    EXPECT_TRUE(has_deltas(path)) << after;
    EXPECT_EQ(file_hash(path),
              after != 0 ? 4524652973446648103u : 11635399183246062767u)
        << after;
  }

  // TIGA: a build stopped mid-graph, and a solve stopped in the attractor
  // fixpoint after two sweeps, whose chain holds build deltas followed by
  // fixpoint-phase records.
  auto game_tg = models::make_train_game(
      {.num_trains = 2, .first_train_approaching = true});
  core::SearchLimits limits;
  limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
  for (const char* site : {"core.state_store.intern", "game.tiga.sweep"}) {
    const bool build = site[0] == 'c';
    const std::string path =
        ckpt_path(build ? "pin_game_build" : "pin_game_fixpoint");
    ckpt::Options ck;
    ck.path = path;
    ck.interval = 25;
    ScopedFault fault(site, common::FaultKind::kDeadline, build ? 200 : 3);
    EXPECT_TRUE(game::TimedGame(game_tg.system, limits, ck)
                    .solve_reachability(train0_crosses(game_tg))
                    .resume.saved)
        << site;
    EXPECT_TRUE(has_deltas(path)) << site;
    EXPECT_EQ(file_hash(path),
              build ? 10657966982053426047u : 14096523756166942835u)
        << site;
    if (!build) {
      ckpt::Chain chain;
      ASSERT_EQ(ckpt::load_chain(path, file_fingerprint(path),
                                 ckpt::Provider::kGame, &chain),
                ckpt::LoadStatus::kOk);
      ASSERT_GE(chain.deltas.size(), 2u);
      EXPECT_NE(chain.deltas.back().find(5), nullptr)  // kSecGameFixpoint
          << "no fixpoint-phase record";
      EXPECT_EQ(chain.deltas.front().find(5), nullptr)
          << "no build-phase delta";
    }
  }

  // CORA: priority worklist, relaxations journalled by dirty id.
  {
    auto cora_tg = models::make_train_gate(2);
    cora::PriceModel prices(cora_tg.system);
    for (int t : cora_tg.trains) {
      prices.set_location_rate(
          t, cora_tg.system.process(t).location_index("Appr"), 1);
    }
    const int cross =
        cora_tg.system.process(cora_tg.trains[0]).location_index("Cross");
    const std::string path = ckpt_path("pin_cora");
    cora::MinCostOptions opts;
    opts.checkpoint.path = path;
    opts.checkpoint.interval = 25;
    opts.limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
    ScopedFault fault("core.state_store.intern", common::FaultKind::kDeadline,
                      200);
    EXPECT_TRUE(cora::min_cost_reachability(
                    cora_tg.system, prices,
                    common::loc_index_pred<ta::DigitalState>(
                        cora_tg.trains[0], cross),
                    opts)
                    .resume.saved);
    EXPECT_TRUE(has_deltas(path));
    EXPECT_EQ(file_hash(path), 6745833347985073774u);
  }
}

// ---- loader fuzzing --------------------------------------------------------
//
// Seeded, deterministic mutation fuzzing of load_chain. The corpus is a
// valid train-gate chain (one log: base + deltas); each case rewrites the
// file with one mutation — truncation, bit flips, spliced, moved, swapped
// or dropped records, lies in the length and size fields — and loads it.
// The invariant: the load returns a non-kOk status, or the chain it returns
// is a prefix of the pristine chain (every prefix resumes to the reference,
// pinned below), or the engine resumed from it still reaches the reference
// result. Never a crash, a hang or a runaway allocation (the ASan leg runs
// this suite).

using Bytes = std::vector<std::uint8_t>;

class ChainFuzzer {
 public:
  explicit ChainFuzzer(const std::string& name)
      : tg_(models::make_train_gate(3)),
        safe_(models::train_gate_mutex(tg_)),
        path_(ckpt_path(name)) {
    reference_ = build_delta_chain(tg_, safe_, path_);
    pristine_file_ = read_file(path_);
    disk_ = pristine_file_;
    records_ = log_records(pristine_file_);
    fingerprint_ = file_fingerprint(path_);
    EXPECT_EQ(ckpt::load_chain(path_, fingerprint_, ckpt::Provider::kExplore,
                               &pristine_),
              ckpt::LoadStatus::kOk);
    EXPECT_GE(pristine_.deltas.size(), 3u);
  }

  const Bytes& file() const { return pristine_file_; }
  const std::vector<LogRecord>& records() const { return records_; }
  std::mt19937_64& rng() { return rng_; }
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  /// The bytes of record `k` (frame included).
  Bytes record(std::size_t k) const {
    const auto from =
        pristine_file_.begin() + static_cast<std::ptrdiff_t>(records_[k].at);
    return {from, from + static_cast<std::ptrdiff_t>(kLogFrameSize +
                                                     records_[k].size)};
  }

  /// The log header followed by the given records.
  Bytes assemble(const std::vector<Bytes>& recs) const {
    Bytes b(pristine_file_.begin(),
            pristine_file_.begin() + static_cast<std::ptrdiff_t>(kLogHeaderSize));
    for (const Bytes& r : recs) b.insert(b.end(), r.begin(), r.end());
    return b;
  }

  /// The offsets (in the file) of every section frame of record `k`.
  std::vector<std::size_t> sections(std::size_t k) const {
    std::size_t at = records_[k].at + kLogFrameSize + kRecordHeaderSize;
    const std::size_t end = records_[k].at + kLogFrameSize + records_[k].size;
    std::vector<std::size_t> out;
    while (at + 12 <= end) {
      out.push_back(at);
      at += 12 + static_cast<std::size_t>(le_u64_at(pristine_file_, at + 4));
    }
    return out;
  }

  /// Installs `bytes` at the chain path, loads it and checks the
  /// invariant. Returns the number of links loaded, or nullopt when the
  /// load refused the file.
  std::optional<std::size_t> run(const Bytes& bytes, const std::string& what) {
    if (disk_ != bytes) {
      write_file(path_, bytes);
      disk_ = bytes;
    }
    ckpt::Chain chain;
    const ckpt::LoadStatus st = ckpt::load_chain(
        path_, fingerprint_, ckpt::Provider::kExplore, &chain);
    ++cases_;
    if (st != ckpt::LoadStatus::kOk) return std::nullopt;
    ++loaded_;
    bool prefix = chain.deltas.size() <= pristine_.deltas.size() &&
                  same_sections(chain.base.sections, pristine_.base.sections);
    for (std::size_t k = 0; prefix && k < chain.deltas.size(); ++k) {
      prefix = same_sections(chain.deltas[k].sections,
                             pristine_.deltas[k].sections);
    }
    if (!prefix) {
      // A chain the CRCs cannot tell from a valid one: resuming from it
      // must still give the reference answer.
      ++replayed_;
      mc::ReachOptions full;
      full.checkpoint.path = path_;
      const auto r = mc::check_invariant(tg_.system, safe_, full);
      EXPECT_TRUE(r.holds()) << what;
      expect_same_stats(r.stats, reference_.stats, what.c_str());
      disk_.clear();  // unknown: rewrite next case
    }
    return 1 + chain.deltas.size();
  }

  std::size_t cases() const { return cases_; }
  std::size_t loaded() const { return loaded_; }
  std::size_t replayed() const { return replayed_; }
  const mc::InvariantResult& reference() const { return reference_; }
  const std::string& path() const { return path_; }
  const models::TrainGate& model() const { return tg_; }
  const mc::StatePredicate& safe() const { return safe_; }

 private:
  models::TrainGate tg_;
  mc::StatePredicate safe_;
  std::string path_;
  mc::InvariantResult reference_;
  Bytes pristine_file_;
  std::vector<LogRecord> records_;
  std::uint64_t fingerprint_ = 0;
  ckpt::Chain pristine_;
  Bytes disk_;
  std::mt19937_64 rng_{0x5EED0F0CCull};
  std::size_t cases_ = 0;
  std::size_t loaded_ = 0;
  std::size_t replayed_ = 0;
};

constexpr int kFuzzCases = 5000;

TEST(CkptFuzz, EveryChainPrefixResumesToTheReference) {
  // Each prefix of the chain, whole or with the next record torn midway
  // (a SIGKILL mid-append), loads exactly its complete records and resumes
  // bit-identically.
  ChainFuzzer fz("fuzz_prefix");
  const auto& recs = fz.records();
  for (std::size_t keep = 1; keep <= recs.size(); ++keep) {
    const std::size_t end = recs[keep - 1].at + kLogFrameSize + recs[keep - 1].size;
    for (const bool torn : {false, true}) {
      if (torn && keep == recs.size()) continue;
      const std::size_t cut =
          torn ? end + (kLogFrameSize + recs[keep].size) / 2 : end;
      const Bytes file(fz.file().begin(),
                       fz.file().begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_EQ(fz.run(file, "prefix"), keep) << keep << " links";
      mc::ReachOptions full;
      full.checkpoint.path = fz.path();
      const auto r = mc::check_invariant(fz.model().system, fz.safe(), full);
      EXPECT_TRUE(r.resume.resumed) << keep << " links";
      EXPECT_TRUE(r.holds());
      expect_same_stats(r.stats, fz.reference().stats, "prefix resume");
    }
  }
}

TEST(CkptFuzz, TruncatedFilesLoadOnlyAPrefix) {
  ChainFuzzer fz("fuzz_truncate");
  const auto& recs = fz.records();
  for (int i = 0; i < kFuzzCases; ++i) {
    const std::size_t size = fz.file().size();
    // Half the cuts land in the log header and the base record's header,
    // where the magic, version and link fields are read.
    const std::size_t cut = i % 2 == 0 ? fz.pick(64) : fz.pick(size);
    const Bytes file(fz.file().begin(),
                     fz.file().begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t complete = 0;
    while (complete < recs.size() &&
           recs[complete].at + kLogFrameSize + recs[complete].size <= cut) {
      ++complete;
    }
    const auto links = fz.run(file, "truncate at " + std::to_string(cut));
    // Exactly the complete records load; without a complete base, nothing.
    EXPECT_EQ(links, complete == 0 ? std::nullopt
                                   : std::optional<std::size_t>(complete))
        << "cut at " << cut;
  }
  EXPECT_EQ(fz.cases(), static_cast<std::size_t>(kFuzzCases));
  EXPECT_EQ(fz.replayed(), 0u);
}

TEST(CkptFuzz, BitFlipsLoadOnlyHarmlessly) {
  ChainFuzzer fz("fuzz_flip");
  for (int i = 0; i < kFuzzCases; ++i) {
    Bytes b = fz.file();
    const int flips = 1 + static_cast<int>(fz.pick(4));
    for (int f = 0; f < flips; ++f) {
      // Every third flip aims at the frame, record header and first
      // section frame of a record, where the length and link fields live.
      const LogRecord& r = fz.records()[fz.pick(fz.records().size())];
      const std::size_t at =
          f % 3 == 0 ? r.at + fz.pick(kLogFrameSize + kRecordHeaderSize + 12)
                     : fz.pick(b.size());
      b[at] ^= static_cast<std::uint8_t>(1u << fz.pick(8));
    }
    fz.run(b, "flip case " + std::to_string(i));
  }
  EXPECT_EQ(fz.cases(), static_cast<std::size_t>(kFuzzCases));
  // The record CRC covers every byte a flip can land on that a scan reads
  // as record content: nothing but a prefix ever loads.
  EXPECT_EQ(fz.replayed(), 0u);
}

TEST(CkptFuzz, SplicedAndMissingLinksLoadOnlyAPrefix) {
  ChainFuzzer fz("fuzz_splice");
  const std::size_t n = fz.records().size();
  for (int i = 0; i < kFuzzCases; ++i) {
    std::vector<Bytes> recs;
    for (std::size_t k = 0; k < n; ++k) recs.push_back(fz.record(k));
    const std::size_t a = fz.pick(n);
    const std::size_t b = fz.pick(n);
    Bytes file;
    std::string what;
    switch (i % 4) {
      case 0: {  // the head of the file up to one byte, the tail from another
        const Bytes& x = fz.file();
        file.assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(
                                               fz.pick(x.size() + 1)));
        file.insert(file.end(),
                    x.begin() + static_cast<std::ptrdiff_t>(fz.pick(x.size() + 1)),
                    x.end());
        what = "splice";
        break;
      }
      case 1:  // a record copied over another position, or past the tip
        if (i % 8 == 1) {
          recs.push_back(recs[b]);
        } else {
          recs[a] = recs[b];
        }
        what = "move";
        break;
      case 2:  // two records swapped
        std::swap(recs[a], recs[b]);
        what = "swap";
        break;
      default:  // a record missing
        recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(a));
        what = "drop";
        break;
    }
    if (file.empty()) file = fz.assemble(recs);
    fz.run(file, what + " " + std::to_string(a) + "/" + std::to_string(b));
  }
  EXPECT_EQ(fz.cases(), static_cast<std::size_t>(kFuzzCases));
  EXPECT_GT(fz.loaded(), 0u) << "no case produced a loadable prefix";
  EXPECT_EQ(fz.replayed(), 0u) << "a reordered chain loaded";
}

TEST(CkptFuzz, LyingSizeAndCountFieldsLoadOnlyHarmlessly) {
  // The format has two size fields: the frame's record length (u32) and
  // each section's payload size (u64). Section-size lies get the record CRC
  // re-sealed, so they reach the section parser.
  ChainFuzzer fz("fuzz_lie");
  const std::uint64_t lies[] = {0, 1, 2, 0x7FFFFFFFull, 0xFFFFFFFFull,
                                0x100000000ull, 0x7FFFFFFFFFFFFFFFull,
                                0xFFFFFFFFFFFFFFFFull};
  for (int i = 0; i < kFuzzCases; ++i) {
    Bytes b = fz.file();
    const std::size_t k = fz.pick(fz.records().size());
    const LogRecord& rec = fz.records()[k];
    const std::uint64_t lie =
        i % 3 == 0 ? fz.rng()() : lies[fz.pick(std::size(lies))];
    std::string what;
    if (i % 2 == 0) {
      if (rec.size == static_cast<std::uint32_t>(lie)) continue;
      put_le32(&b, rec.at, static_cast<std::uint32_t>(lie));
      what = "length";
    } else {
      const std::vector<std::size_t> at = fz.sections(k);
      const std::size_t frame = at[fz.pick(at.size())];
      if (le_u64_at(b, frame + 4) == lie) continue;
      put_le64(&b, frame + 4, lie);
      reseal_record(&b, rec);
      what = "size";
    }
    fz.run(b, what + " lie in record " + std::to_string(k));
  }
  EXPECT_GT(fz.cases(), static_cast<std::size_t>(kFuzzCases) * 9 / 10);
}

// ---- append-only CRC-framed record logs ------------------------------------
//
// ckpt::RecordLog is the shared on-disk discipline of the service's job
// journal and cache segment (DESIGN.md "Durable daemon state"). The tests
// pin its corruption taxonomy: a bit-flipped record is skipped alone, a
// torn tail (SIGKILL mid-append) costs only the partial record, and a
// missing / foreign / version-mismatched file degrades to "start fresh" —
// scan_log never fails a boot.

constexpr ckpt::LogFormat kTestLog{"QTEST1\r\n", 1};
/// A log holding just its header, as rewrite() creates it.
const std::vector<std::vector<std::uint8_t>> kNoRecords;

std::string log_file(const std::string& name) {
  std::string p = ::testing::TempDir() + "quanta_log_" + name + ".qlog";
  remove_with_temps(p);
  return p;
}

std::vector<std::uint8_t> rec(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(RecordLogTest, AppendScanRoundTripAcrossReopen) {
  const std::string path = log_file("roundtrip");
  {
    ckpt::RecordLog log;
    ASSERT_TRUE(log.rewrite(path, kTestLog, kNoRecords, nullptr));
    EXPECT_TRUE(log.append(rec("alpha")));
    EXPECT_TRUE(log.append(rec("")));  // empty payloads are legal records
    EXPECT_EQ(log.appended_bytes(), (8u + 5u) + 8u);
  }
  {
    // Re-opening is what the journal and the cache do at boot: scan,
    // rewrite the records, append behind them.
    std::vector<std::vector<std::uint8_t>> kept;
    ASSERT_EQ(ckpt::scan_log(path, kTestLog, &kept).records, 2u);
    ckpt::RecordLog log;
    ASSERT_TRUE(log.rewrite(path, kTestLog, kept, nullptr));
    EXPECT_TRUE(log.append(rec("gamma")));
  }
  std::vector<std::vector<std::uint8_t>> records;
  const auto stats = ckpt::scan_log(path, kTestLog, &records);
  EXPECT_EQ(stats.fresh, ckpt::LogFresh::kNo);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(stats.dropped, 0u);
  ASSERT_EQ(stats.records, 3u);
  EXPECT_EQ(records[0], rec("alpha"));
  EXPECT_EQ(records[1], rec(""));
  EXPECT_EQ(records[2], rec("gamma"));
}

TEST(RecordLogTest, MissingFileScansFresh) {
  const auto stats = ckpt::scan_log(log_file("missing"), kTestLog, nullptr);
  EXPECT_EQ(stats.fresh, ckpt::LogFresh::kNoFile);
  EXPECT_EQ(stats.note, "no log file");
  EXPECT_EQ(stats.records, 0u);
}

TEST(RecordLogTest, BitFlippedRecordIsSkippedAlone) {
  const std::string path = log_file("bitflip");
  {
    ckpt::RecordLog log;
    ASSERT_TRUE(log.rewrite(path, kTestLog, kNoRecords, nullptr));
    for (const char* s : {"alpha", "beta", "gamma"}) {
      ASSERT_TRUE(log.append(rec(s)));
    }
  }
  // Flip one payload byte of the middle record: 16B header, then
  // [8B frame + 5B "alpha"], then 8B frame — offset 37 is 'b' of "beta".
  auto bytes = read_file(path);
  bytes[37] ^= 0x01;
  write_file(path, bytes);

  std::vector<std::vector<std::uint8_t>> records;
  const auto stats = ckpt::scan_log(path, kTestLog, &records);
  EXPECT_EQ(stats.fresh, ckpt::LogFresh::kNo);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(stats.dropped, 1u);
  ASSERT_EQ(stats.records, 2u);  // neighbours undamaged
  EXPECT_EQ(records[0], rec("alpha"));
  EXPECT_EQ(records[1], rec("gamma"));
}

TEST(RecordLogTest, TornTailDiscardsOnlyThePartialRecord) {
  const std::string path = log_file("torn");
  {
    ckpt::RecordLog log;
    ASSERT_TRUE(log.rewrite(path, kTestLog, kNoRecords, nullptr));
    for (const char* s : {"alpha", "beta", "gamma"}) {
      ASSERT_TRUE(log.append(rec(s)));
    }
  }
  const auto pristine = read_file(path);
  // Every way an append can die mid-write: inside the last payload, inside
  // the last frame header, and with a single stray byte after a record.
  for (const std::size_t cut :
       {pristine.size() - 2, pristine.size() - 10, pristine.size() - 12}) {
    auto torn = pristine;
    torn.resize(cut);
    write_file(path, torn);
    std::vector<std::vector<std::uint8_t>> records;
    const auto stats = ckpt::scan_log(path, kTestLog, &records);
    EXPECT_TRUE(stats.torn_tail) << "cut at " << cut;
    EXPECT_EQ(stats.fresh, ckpt::LogFresh::kNo);
    ASSERT_EQ(stats.records, 2u) << "cut at " << cut;
    EXPECT_EQ(records[0], rec("alpha"));
    EXPECT_EQ(records[1], rec("beta"));
  }
}

TEST(RecordLogTest, ImplausibleLengthEndsTheScanAsTorn) {
  const std::string path = log_file("hugelen");
  {
    ckpt::RecordLog log;
    ASSERT_TRUE(log.rewrite(path, kTestLog, kNoRecords, nullptr));
    ASSERT_TRUE(log.append(rec("alpha")));
    ASSERT_TRUE(log.append(rec("beta")));
  }
  // Scribble 0xFFFFFFFF over the second record's length field (offset
  // 16 + 13): a length reaching past the end of the file cannot be
  // resynchronized past, and drives no allocation.
  auto bytes = read_file(path);
  for (std::size_t i = 0; i < 4; ++i) bytes[29 + i] = 0xFF;
  write_file(path, bytes);
  std::vector<std::vector<std::uint8_t>> records;
  const auto stats = ckpt::scan_log(path, kTestLog, &records);
  EXPECT_TRUE(stats.torn_tail);
  ASSERT_EQ(stats.records, 1u);
  EXPECT_EQ(records[0], rec("alpha"));
}

TEST(RecordLogTest, ForeignMagicOrVersionStartsFresh) {
  const std::string path = log_file("header");
  {
    ckpt::RecordLog log;
    ASSERT_TRUE(log.rewrite(path, kTestLog, kNoRecords, nullptr));
    ASSERT_TRUE(log.append(rec("alpha")));
  }
  const auto pristine = read_file(path);

  // Foreign magic.
  auto bad = pristine;
  bad[0] ^= 0xFF;
  write_file(path, bad);
  auto stats = ckpt::scan_log(path, kTestLog, nullptr);
  EXPECT_EQ(stats.fresh, ckpt::LogFresh::kBadMagic);
  EXPECT_EQ(stats.note, "bad magic");

  // Version byte patched without re-sealing the header CRC: the CRC check
  // fires first, so a torn header can never masquerade as another version.
  bad = pristine;
  bad[8] ^= 0x01;
  write_file(path, bad);
  stats = ckpt::scan_log(path, kTestLog, nullptr);
  EXPECT_EQ(stats.fresh, ckpt::LogFresh::kBadMagic);
  EXPECT_EQ(stats.note, "header CRC mismatch");

  // A genuinely newer format version (header re-sealed): still fresh — old
  // code must not guess at a future layout.
  write_file(path, pristine);
  stats = ckpt::scan_log(path, ckpt::LogFormat{"QTEST1\r\n", 2}, nullptr);
  EXPECT_EQ(stats.fresh, ckpt::LogFresh::kBadVersion);
  EXPECT_EQ(stats.note, "format version mismatch");

  // Truncated header.
  bad = pristine;
  bad.resize(7);
  write_file(path, bad);
  stats = ckpt::scan_log(path, kTestLog, nullptr);
  EXPECT_EQ(stats.fresh, ckpt::LogFresh::kBadMagic);
  EXPECT_EQ(stats.note, "short header");
}

TEST(RecordLogTest, RewriteCompactsAtomicallyUnderAFault) {
  const std::string path = log_file("rewrite");
  {
    ckpt::RecordLog log;
    ASSERT_TRUE(log.rewrite(path, kTestLog, kNoRecords, nullptr));
    for (const char* s : {"alpha", "beta", "gamma"}) {
      ASSERT_TRUE(log.append(rec(s)));
    }
  }
  // A compaction killed mid-write leaves the previous log intact.
  {
    ScopedFault fault("test.rewrite", common::FaultKind::kException, 1);
    EXPECT_FALSE(ckpt::RecordLog().rewrite(path, kTestLog, {rec("only")},
                                           "test.rewrite"));
  }
  EXPECT_TRUE(temp_files(path).empty());
  std::vector<std::vector<std::uint8_t>> records;
  EXPECT_EQ(ckpt::scan_log(path, kTestLog, &records).records, 3u);

  // A clean compaction replaces the contents wholesale.
  records.clear();
  ASSERT_TRUE(ckpt::RecordLog().rewrite(path, kTestLog, {rec("only")},
                                        nullptr));
  const auto stats = ckpt::scan_log(path, kTestLog, &records);
  ASSERT_EQ(stats.records, 1u);
  EXPECT_EQ(records[0], rec("only"));
}

TEST(RecordLogTest, RewriteOverADamagedFileReplacesIt) {
  const std::string path = log_file("recreate");
  write_file(path, rec("not a log at all"));
  ckpt::RecordLog log;
  ASSERT_TRUE(log.rewrite(path, kTestLog, kNoRecords, nullptr));
  ASSERT_TRUE(log.append(rec("alpha")));
  std::vector<std::vector<std::uint8_t>> records;
  const auto stats = ckpt::scan_log(path, kTestLog, &records);
  EXPECT_EQ(stats.fresh, ckpt::LogFresh::kNo);
  ASSERT_EQ(stats.records, 1u);
  EXPECT_EQ(records[0], rec("alpha"));
}

TEST(RecordLogTest, RecordOverFourGiBFailsCleanly) {
  // A record must fit the u32 length field. Both write paths refuse a
  // larger one before writing a byte (the parts alias one small buffer, so
  // nothing near 4 GiB is allocated); the file keeps its records and the
  // log is closed.
  const std::string path = log_file("too_big");
  const std::vector<std::uint8_t> chunk(std::size_t{1} << 20, 0x5A);
  const std::vector<std::span<const std::uint8_t>> parts(4097, chunk);
  const ckpt::RecordParts huge(parts);

  ckpt::RecordLog log;
  ASSERT_TRUE(log.rewrite(path, kTestLog, kNoRecords, nullptr));
  ASSERT_TRUE(log.append(rec("alpha")));
  const auto before = read_file(path);
  EXPECT_FALSE(log.append(huge));
  EXPECT_FALSE(log.is_open());
  EXPECT_FALSE(log.rewrite(path, kTestLog, {&huge, 1}, nullptr));
  EXPECT_FALSE(log.is_open());
  EXPECT_EQ(read_file(path), before);
  EXPECT_TRUE(temp_files(path).empty());
}

}  // namespace
