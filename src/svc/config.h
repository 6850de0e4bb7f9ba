// Daemon sizing knobs, resolved from the QUANTAD_* environment with the
// same strict rules as QUANTA_JOBS (common::env_u64): the whole value must
// be a positive decimal number; anything else falls back to the documented
// default. Command-line flags of tools/quantad override these resolved
// values; the environment is the fleet-wide baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace quanta::svc {

/// Concurrent job-runner threads. QUANTAD_JOBS, clamp 1024; default
/// hardware_concurrency (>= 1) — the daemon's analogue of QUANTA_JOBS.
unsigned default_daemon_jobs();

/// Queued (admitted, not yet running) jobs before load-shedding rejects
/// with kOverload. QUANTAD_QUEUE_DEPTH, clamp 1'048'576; default 64.
std::size_t default_queue_depth();
inline constexpr std::size_t kDefaultQueueDepth = 64;
inline constexpr std::size_t kMaxQueueDepth = 1u << 20;

/// Result-cache byte budget. QUANTAD_CACHE_MEM (bytes), clamp 1 TiB;
/// default 64 MiB.
std::size_t default_cache_bytes();
inline constexpr std::size_t kDefaultCacheBytes = 64ull << 20;
inline constexpr std::size_t kMaxCacheBytes = 1ull << 40;

/// Crash re-dispatches per job before its fingerprint is quarantined.
/// QUANTAD_RETRIES, clamp 1000; default 2 (so a fingerprint crashing
/// QUANTAD_RETRIES+1 times in one submission enters the poison list).
unsigned default_retries();
inline constexpr unsigned kDefaultRetries = 2;
inline constexpr unsigned kMaxRetries = 1000;

/// Age after which an unclaimed resume checkpoint chain is garbage
/// collected, in seconds (age = newest file of the chain). QUANTAD_CKPT_TTL,
/// clamp ~31 years; default 1 day.
std::uint64_t default_ckpt_ttl_s();
inline constexpr std::uint64_t kDefaultCkptTtlS = 24 * 60 * 60;
inline constexpr std::uint64_t kMaxCkptTtlS = 1ull << 30;

/// Durable-state directory (job journal + cache segment live here).
/// QUANTAD_STATE_DIR; default empty = durability off, the daemon is
/// amnesiac across restarts exactly like the pre-journal builds.
std::string default_state_dir();

}  // namespace quanta::svc
