#include "ckpt/checkpoint.h"

#include <bit>

#include "ckpt/delta.h"

namespace quanta::ckpt {

const char* to_string(LoadStatus s) {
  switch (s) {
    case LoadStatus::kOk: return "ok";
    case LoadStatus::kNoFile: return "no-file";
    case LoadStatus::kIoError: return "io-error";
    case LoadStatus::kBadMagic: return "bad-magic";
    case LoadStatus::kBadVersion: return "bad-version";
    case LoadStatus::kBadProvider: return "bad-provider";
    case LoadStatus::kBadFingerprint: return "bad-fingerprint";
    case LoadStatus::kCorrupt: return "corrupt";
  }
  return "?";
}

const Section* find_section(const std::vector<Section>& sections,
                            std::uint32_t id) {
  for (const Section& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

Fingerprint& Fingerprint::mix_f64(double v) {
  return mix(std::bit_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::mix_str(const std::string& s) {
  mix(s.size());
  for (char c : s) {
    h_ ^= static_cast<std::uint8_t>(c);
    h_ *= 0x100000001B3ull;
  }
  return *this;
}

bool save(const std::string& path, const Snapshot& snap) {
  return !path.empty() &&
         ChainWriter(path, snap.provider, snap.fingerprint, 0).save_base(snap);
}

LoadStatus load(const std::string& path, std::uint64_t expected_fingerprint,
                Provider expected_provider, Snapshot* out) {
  Chain chain;
  const LoadStatus status =
      load_chain(path, expected_fingerprint, expected_provider, &chain);
  if (status == LoadStatus::kOk) *out = std::move(chain.base);
  return status;
}

}  // namespace quanta::ckpt
