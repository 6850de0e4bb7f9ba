// StateTraits<S>: the hashing/equality/subsumption policy that plugs a state
// type into core::StateStore. Each state-carrying layer specializes the
// template next to its state type (ta/traits.h, bip/traits.h, ...), so the
// core stays independent of every concrete semantics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace quanta::core {

/// Outcome of comparing an incoming state against a stored one in a store
/// that supports inclusion subsumption (zone-based engines).
enum class Subsumes {
  kNone,      ///< incomparable: both states must be kept
  kStored,    ///< the stored state covers the incoming one (drop incoming)
  kIncoming,  ///< the incoming state strictly covers the stored one
};

/// A few bytes that a store of inclusion-subsumed states keeps inline per
/// live state, so most incomparable pairs are rejected before the stored
/// record is touched (see StateTraits::summary below).
using InclusionSummary = std::array<std::int8_t, 12>;

/// Primary template; never defined. Specializations must provide:
///
///   static constexpr bool kSupportsInclusion;
///   static std::size_t hash(const S&);            // full-state hash
///   static bool equal(const S&, const S&);        // full-state equality
///
/// and, when kSupportsInclusion is true (zone-semantics states):
///
///   static std::size_t partition_hash(const S&);  // discrete part only
///   static bool same_partition(const S&, const S&);
///   static Subsumes compare(const S& stored, const S& incoming);
///
/// `compare` is only called on states of the same partition and decides the
/// set-inclusion relation of their continuous parts (zones).
///
/// Inclusion traits may also provide
///
///   static InclusionSummary summary(const S&);
///
/// which must be monotone in the inclusion order: for two states of one
/// partition, compare(stored, incoming) == kStored implies
/// summary(incoming) <= summary(stored) pointwise, and kIncoming implies >=.
/// The store then skips a stored state whose summary is incomparable with
/// the incoming one without calling same_partition or compare. Traits
/// without it get a constant summary, which never skips.
///
/// Pooled payload storage (optional). A specialization may additionally opt
/// its state type into interned storage (store::ZonePool) by defining
///
///   using Pooled = ...;   // compact value of store::Ref handles
///   static Pooled pool(store::ZonePool&, const S&);     // intern components
///   static void unpool(const store::ZonePool&, const Pooled&,
///                      S& out);  // materialize into out, reusing its buffers
///   static bool equal(const store::ZonePool&,
///                     const Pooled& stored, const S& incoming);
///
/// and, when kSupportsInclusion is true, the pooled comparison overloads
///
///   static bool same_partition(const store::ZonePool&,
///                              const Pooled& stored, const S& incoming);
///   static Subsumes compare(const store::ZonePool&,
///                           const Pooled& stored, const S& incoming);
///
/// StateStore then keeps `Pooled` records instead of whole states: identical
/// zones / discrete vectors across states collapse to one interned copy, and
/// state(id) and state_into(id, out) materialize an S on demand via unpool.
/// The contract that keeps exploration bit-identical to unpooled storage:
/// hash/partition_hash are still computed on the incoming S (so hash values,
/// chain membership, chain order and the rehash trajectory are unchanged),
/// and the pooled comparison overloads must decide exactly like their
/// unpooled counterparts would on the materialized state. unpool(p, pool(p,
/// s), out) must leave out equal to s, whatever out held before.
template <typename S>
struct StateTraits;

/// Detects traits that opt into pooled payload storage.
template <typename Traits>
concept PooledTraits = requires { typename Traits::Pooled; };

}  // namespace quanta::core
