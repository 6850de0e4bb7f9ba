// core::StateTraits specialization plugging BIP global states into the
// shared exploration core (exact interning; BIP has no continuous part).
// Opts into pooled storage: the place vector and the per-component variable
// valuations are interned into the store's ZonePool, so the many global
// states that differ in one component's places share everything else.
#pragma once

#include "bip/engine.h"
#include "core/traits.h"
#include "store/pack.h"

namespace quanta::core {

template <>
struct StateTraits<bip::BipState> {
  static constexpr bool kSupportsInclusion = false;

  static std::size_t hash(const bip::BipState& s) { return s.hash(); }
  static bool equal(const bip::BipState& a, const bip::BipState& b) {
    return a == b;
  }

  static std::size_t memory_bytes(const bip::BipState& s) {
    std::size_t n = s.places.capacity() * sizeof(int) +
                    s.vars.capacity() * sizeof(common::Valuation);
    for (const common::Valuation& v : s.vars) {
      n += v.capacity() * sizeof(common::Valuation::value_type);
    }
    return n;
  }

  // --- pooled storage ---

  struct Pooled {
    store::Ref places;
    store::Ref vars;  ///< [len_0][vals...][len_1][vals...]... per component
  };

  static Pooled pool(store::ZonePool& p, const bip::BipState& s) {
    Pooled out;
    out.places = store::intern_vec(p, s.places);
    auto& buf = p.scratch();
    buf.clear();
    for (const common::Valuation& v : s.vars) {
      buf.push_back(static_cast<std::int32_t>(v.size()));
      buf.insert(buf.end(), v.begin(), v.end());
    }
    out.vars = p.intern(buf);
    return out;
  }
  static void unpool(const store::ZonePool& p, const Pooled& st,
                     bip::BipState& s) {
    store::unpack_vec(p, st.places, s.places);
    s.vars.clear();
    const std::span<const std::int32_t> d = p.data(st.vars);
    std::size_t pos = 0;
    while (pos < d.size()) {
      const std::size_t len = static_cast<std::size_t>(d[pos++]);
      s.vars.emplace_back(d.begin() + static_cast<std::ptrdiff_t>(pos),
                          d.begin() + static_cast<std::ptrdiff_t>(pos + len));
      pos += len;
    }
  }
  static bool equal(const store::ZonePool& p, const Pooled& st,
                    const bip::BipState& s) {
    if (!store::vec_equals(p, st.places, s.places)) return false;
    const std::span<const std::int32_t> d = p.data(st.vars);
    std::size_t pos = 0;
    for (const common::Valuation& v : s.vars) {
      if (pos >= d.size() ||
          d[pos] != static_cast<std::int32_t>(v.size()) ||
          d.size() - pos - 1 < v.size()) {
        return false;
      }
      ++pos;
      for (const common::Value x : v) {
        if (d[pos++] != x) return false;
      }
    }
    return pos == d.size();
  }
};

}  // namespace quanta::core
