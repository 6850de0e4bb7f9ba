#include "svc/config.h"

#include <cstdlib>
#include <thread>

#include "common/env.h"

namespace quanta::svc {

unsigned default_daemon_jobs() {
  if (const auto v = common::env_u64("QUANTAD_JOBS", 1024)) {
    return static_cast<unsigned>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t default_queue_depth() {
  if (const auto v = common::env_u64("QUANTAD_QUEUE_DEPTH", kMaxQueueDepth)) {
    return static_cast<std::size_t>(*v);
  }
  return kDefaultQueueDepth;
}

std::size_t default_cache_bytes() {
  if (const auto v = common::env_u64("QUANTAD_CACHE_MEM", kMaxCacheBytes)) {
    return static_cast<std::size_t>(*v);
  }
  return kDefaultCacheBytes;
}

unsigned default_retries() {
  if (const auto v = common::env_u64("QUANTAD_RETRIES", kMaxRetries)) {
    return static_cast<unsigned>(*v);
  }
  return kDefaultRetries;
}

std::uint64_t default_ckpt_ttl_s() {
  if (const auto v = common::env_u64("QUANTAD_CKPT_TTL", kMaxCkptTtlS)) {
    return *v;
  }
  return kDefaultCkptTtlS;
}

std::string default_state_dir() {
  const char* s = std::getenv("QUANTAD_STATE_DIR");
  return s != nullptr ? s : "";
}

}  // namespace quanta::svc
