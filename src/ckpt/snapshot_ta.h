// Zone-state and digital-state codecs and the timed-automata model
// fingerprint for the checkpoint subsystem. Header-only: included by the
// engines that link both quanta_ta and quanta_ckpt (mc reachability and
// liveness, game, cora), keeping the ckpt library itself free of model
// dependencies.
//
// The writers encode a state straight from its pooled store record
// (core::StateTraits<S>::Pooled) and the ZonePool spans behind it: every
// component is already a contiguous run of int32 words, so it goes out as
// one bulk append, and no state is materialized to be saved. The readers
// rebuild plain states for StateStore::restore.
#pragma once

#include <cstdint>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "ckpt/snapshot_core.h"
#include "dbm/dbm.h"
#include "store/pool.h"
#include "ta/digital.h"
#include "ta/model.h"
#include "ta/symbolic.h"
#include "ta/traits.h"

namespace quanta::ckpt {

/// One interned int32 vector: its word count, then the words.
inline void write_pooled_vec(io::Writer& w, const store::ZonePool& p,
                             store::Ref ref) {
  const std::span<const std::int32_t> words = p.data(ref);
  w.u32(static_cast<std::uint32_t>(words.size()));
  w.i32s(words);
}

/// [locs] [vars] [dim u32] [dim x dim zone words, row-major].
inline void write_sym_state(
    io::Writer& w, const store::ZonePool& p,
    const core::StateTraits<ta::SymState>::Pooled& st) {
  using Traits = core::StateTraits<ta::SymState>;
  write_pooled_vec(w, p, st.locs);
  write_pooled_vec(w, p, st.vars);
  w.u32(static_cast<std::uint32_t>(st.dim));
  const auto dim = static_cast<std::size_t>(st.dim);
  for (std::size_t r = 0; r < dim; ++r) {
    w.i32s(p.data(Traits::row_ref(p, st, r)));
  }
}

inline bool read_sym_state(io::Reader& r, ta::SymState* out) {
  const std::uint32_t nl = r.u32();
  if (!r.fits(nl, 4)) return false;
  out->locs.resize(nl);
  for (std::uint32_t i = 0; i < nl; ++i) out->locs[i] = r.i32();
  const std::uint32_t nv = r.u32();
  if (!r.fits(nv, 4)) return false;
  out->vars.resize(nv);
  for (std::uint32_t i = 0; i < nv; ++i) out->vars[i] = r.i32();
  const std::uint32_t dim = r.u32();
  if (dim == 0 || !r.fits(static_cast<std::uint64_t>(dim) * dim, 4)) {
    return false;
  }
  out->zone = dbm::Dbm(static_cast<int>(dim));
  for (std::uint32_t i = 0; i < dim; ++i) {
    for (std::uint32_t j = 0; j < dim; ++j) {
      out->zone.set(static_cast<int>(i), static_cast<int>(j), r.i32());
    }
  }
  return r.ok();
}

/// [locs] [vars] [clocks].
inline void write_digital_state(
    io::Writer& w, const store::ZonePool& p,
    const core::StateTraits<ta::DigitalState>::Pooled& st) {
  write_pooled_vec(w, p, st.locs);
  write_pooled_vec(w, p, st.vars);
  write_pooled_vec(w, p, st.clocks);
}

inline bool read_digital_state(io::Reader& r, ta::DigitalState* out) {
  const std::uint32_t nl = r.u32();
  if (!r.fits(nl, 4)) return false;
  out->locs.resize(nl);
  for (std::uint32_t i = 0; i < nl; ++i) out->locs[i] = r.i32();
  const std::uint32_t nv = r.u32();
  if (!r.fits(nv, 4)) return false;
  out->vars.resize(nv);
  for (std::uint32_t i = 0; i < nv; ++i) out->vars[i] = r.i32();
  const std::uint32_t nc = r.u32();
  if (!r.fits(nc, 4)) return false;
  out->clocks.resize(nc);
  for (std::uint32_t i = 0; i < nc; ++i) out->clocks[i] = r.i32();
  return r.ok();
}

template <>
struct StateCodec<ta::SymState> {
  static void write(io::Writer& w, const store::ZonePool& p,
                    const core::StateTraits<ta::SymState>::Pooled& st) {
    write_sym_state(w, p, st);
  }
  static bool read(io::Reader& r, ta::SymState* out) {
    return read_sym_state(r, out);
  }
};

template <>
struct StateCodec<ta::DigitalState> {
  static void write(io::Writer& w, const store::ZonePool& p,
                    const core::StateTraits<ta::DigitalState>::Pooled& st) {
    write_digital_state(w, p, st);
  }
  static bool read(io::Reader& r, ta::DigitalState* out) {
    return read_digital_state(r, out);
  }
};

inline void write_move(io::Writer& w, const ta::Move& m) {
  w.u32(static_cast<std::uint32_t>(m.participants.size()));
  for (const auto& [process, edge] : m.participants) {
    w.i32(process);
    w.i32(edge);
  }
}

inline bool read_move(io::Reader& r, ta::Move* out) {
  const std::uint32_t n = r.u32();
  if (!r.fits(n, 8)) return false;
  out->participants.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out->participants[i].first = r.i32();
    out->participants[i].second = r.i32();
  }
  return r.ok();
}

/// Structural fingerprint of a timed-automata network: locations (names,
/// invariants, flags, rates), edges (endpoints, clock guards, channels,
/// sync, resets, probabilistic branches), channels, clocks and variable
/// declarations. Opaque callables (data guards/updates, channel functions)
/// contribute only their presence bit — analyses that differ solely inside
/// such callables must be distinguished through the query predicate's
/// canonical form (common::Predicate, e.g. via labeled_pred).
inline std::uint64_t fingerprint(const ta::System& sys) {
  Fingerprint fp;
  fp.mix(0x7A5EED00u).mix(static_cast<std::uint64_t>(sys.clock_count()));
  for (int c = 1; c <= sys.clock_count(); ++c) fp.mix_str(sys.clock_name(c));
  fp.mix(static_cast<std::uint64_t>(sys.channel_count()));
  for (int c = 0; c < sys.channel_count(); ++c) {
    const ta::Channel& ch = sys.channel(c);
    fp.mix_str(ch.name).mix((ch.broadcast ? 2u : 0u) | (ch.urgent ? 1u : 0u));
  }
  const auto& vars = sys.vars();
  fp.mix(vars.size());
  for (const common::VarDecl& d : vars.decls()) {
    fp.mix_str(d.name)
        .mix_i64(d.init)
        .mix_i64(d.min)
        .mix_i64(d.max);
  }
  auto mix_constraints = [&fp](const std::vector<ta::ClockConstraint>& cs) {
    fp.mix(cs.size());
    for (const ta::ClockConstraint& cc : cs) {
      fp.mix_i64(cc.i).mix_i64(cc.j).mix_i64(cc.bound);
    }
  };
  fp.mix(static_cast<std::uint64_t>(sys.process_count()));
  for (int p = 0; p < sys.process_count(); ++p) {
    const ta::Process& proc = sys.process(p);
    fp.mix_str(proc.name).mix_i64(proc.initial);
    fp.mix(proc.locations.size());
    for (const ta::Location& loc : proc.locations) {
      fp.mix_str(loc.name);
      mix_constraints(loc.invariant);
      fp.mix((loc.committed ? 2u : 0u) | (loc.urgent ? 1u : 0u));
      fp.mix_f64(loc.exit_rate);
    }
    fp.mix(proc.edges.size());
    for (const ta::Edge& e : proc.edges) {
      fp.mix_i64(e.source).mix_i64(e.target);
      mix_constraints(e.guard);
      fp.mix_i64(e.channel)
          .mix(e.channel_fn ? 1u : 0u)
          .mix(static_cast<std::uint64_t>(e.sync))
          .mix(e.data_guard ? 1u : 0u)
          .mix(e.update ? 1u : 0u)
          .mix(e.controllable ? 1u : 0u);
      fp.mix_str(e.label);
      fp.mix(e.resets.size());
      for (const auto& [clock, value] : e.resets) {
        fp.mix_i64(clock).mix_i64(value);
      }
      fp.mix(e.branches.size());
      for (const ta::ProbBranch& b : e.branches) {
        fp.mix_f64(b.weight).mix_i64(b.target).mix_str(b.label);
        fp.mix(b.resets.size());
        for (const auto& [clock, value] : b.resets) {
          fp.mix_i64(clock).mix_i64(value);
        }
      }
    }
  }
  return fp.digest();
}

}  // namespace quanta::ckpt
