// The MLP link-inference engine: steps 4 and 5 of the paper's algorithm.
//
// Observations (RS communities per member per prefix, from passive and/or
// active measurement) accumulate per route server; each member's export
// policy is the intersection of its per-prefix policies (N_a), and a p2p
// link is inferred between members a and a' iff a in N_a' and a' in N_a
// (the reciprocity assumption validated in section 4.4).
//
// Data-plane layout: members live in a sorted flat vector (dense-index
// order), each member's per-prefix policies in a small sorted vector
// (section 4.3: members almost never carry more than one distinct
// policy), and the reciprocity pass materialises each participant's
// allow-set as a bitmask row so the pairwise test is an AND over
// 64-member words instead of n^2 tree lookups.
//
// The reciprocity bitset is maintained INCREMENTALLY over the full A_RS
// universe: once a query has materialised it, add() folds a new
// observation in as a delta -- recompute the one affected member's
// merged policy (N_a) and allow-row, XOR against the old row, and patch
// only the changed transpose bits -- instead of invalidating and
// re-memoising the whole table. Unobserved members hold the default-open
// row plus a clear bit in an observed-column mask, so both flag variants
// of infer_links/count_links read the same matrix (the conservative
// default just masks unobserved rows and columns out).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "routeserver/export_policy.hpp"
#include "util/annotations.hpp"

namespace mlp {
class ByteWriter;
class ByteReader;
}  // namespace mlp

namespace mlp::core {

class EngineSnapshot;

using routeserver::ExportPolicy;

/// Inference statistics for one route server (table 2 row material).
struct EngineStats {
  std::size_t rs_members = 0;          // |A_RS|
  std::size_t observed_members = 0;    // members with reachability data
  std::size_t passive_members = 0;     // covered by passive data
  std::size_t active_members = 0;      // covered only by active queries
  std::size_t observations = 0;
  std::size_t inconsistent_members = 0;  // differing per-prefix policies
  std::size_t links = 0;
};

/// Field-wise sum, for aggregating per-IXP stats into pipeline totals.
EngineStats& operator+=(EngineStats& lhs, const EngineStats& rhs);

/// Per-route-server accumulation and link inference.
///
/// Not thread-safe: the accessors memoise the merged per-member policy
/// and the incremental reciprocity bitset, so even const calls must not
/// race add() or each other. The pipeline confines each engine (the
/// WRITER side) to its shard's pump; concurrent readers are served by
/// immutable EngineSnapshots published via freeze(), never by the engine
/// itself.
class MlpInferenceEngine {
 public:
  explicit MlpInferenceEngine(IxpContext context)
      : context_(std::move(context)) {}

  const IxpContext& context() const { return context_; }

  /// Record one observation. Observations whose setter is not in A_RS are
  /// ignored (counted as rejected): reachability without connectivity
  /// cannot form links. An accepted observation bumps generation() and,
  /// when the reciprocity bitset is materialised, folds in as an
  /// O(|A_RS|/64) row delta.
  void add(const Observation& observation);

  /// Members with at least one observation, in ascending ASN order (the
  /// engine's own member index); the reference stays valid until the next
  /// add().
  const std::vector<Asn>& observed_members() const MLP_LIFETIMEBOUND;

  /// N_a as an export policy: the per-prefix policies intersected
  /// (step 4). Null if the member was never observed; the pointer stays
  /// valid until the next add().
  const ExportPolicy* policy_of(Asn member) const MLP_LIFETIMEBOUND;

  /// Step 5: infer p2p links among observed members by reciprocity.
  /// If `assume_open_for_unobserved` is set, members of A_RS without
  /// observations participate with the default-open policy (the ALL
  /// behaviour); the paper's conservative default is off.
  std::set<AsLink> infer_links(bool assume_open_for_unobserved = false) const;

  /// The size of infer_links' result without materialising it: a popcount
  /// over the reciprocity bitset (the stats() fast path).
  std::size_t count_links(bool assume_open_for_unobserved = false) const;

  EngineStats stats() const;

  /// stats() with a link count the caller already computed via
  /// infer_links/count_links, skipping the second O(|A_RS|^2/64)
  /// counting pass.
  ///
  /// Contract: the engine must not have mutated (add()/restore_state())
  /// between the link computation and this call -- otherwise the
  /// precomputed count describes a different state than the rest of the
  /// stats and the row silently disagrees with itself. Debug builds
  /// assert on the memo-generation mismatch; pass the count in the same
  /// quiesced window that computed it.
  EngineStats stats(std::size_t precomputed_links) const;

  std::size_t rejected_observations() const { return rejected_; }

  /// Mutation counter: bumped by every accepted add() and by a committed
  /// restore_state(). Two equal generations mean identical accumulated
  /// state; the precomputed-stats assert and epoch publishing key off it.
  std::uint64_t generation() const { return generation_; }

  /// Freeze the current state as an immutable, self-contained
  /// EngineSnapshot computed under `assume_open_for_unobserved`, tagged
  /// with publication sequence number `epoch`. The snapshot copies the
  /// member index, the reciprocity bitset and the derived stats: it
  /// borrows nothing from the engine and may be read lock-free from any
  /// thread for any lifetime. The freeze itself is a writer-side call
  /// (same confinement rules as the other accessors).
  std::shared_ptr<const EngineSnapshot> freeze(bool assume_open_for_unobserved,
                                               std::uint64_t epoch) const;

  /// Drop every memoised/derived structure (merged per-member policies
  /// and the incremental reciprocity bitset); the next query rebuilds
  /// from scratch. Results are unaffected -- this exists to reclaim the
  /// O(|A_RS|^2) bitset of a cold engine and to let benchmarks price the
  /// pre-incremental full-rememoise path against the delta path.
  void invalidate_derived();

  /// Checkpoint hook: persist the accumulated state -- the sorted member
  /// vector with each member's per-prefix policies, flags and counters,
  /// plus the rejected counter. The reciprocity bitsets are derived state
  /// and are never serialized; a restored engine rebuilds them on demand.
  /// The IXP context is NOT serialized (it belongs to the session
  /// configuration, not the accumulated state).
  void serialize_state(ByteWriter& writer) const;

  /// Checkpoint hook: replace the accumulated state with a serialized
  /// image. Parses and validates the whole image (strictly increasing
  /// member ASNs in A_RS, sorted per-prefix vectors) before committing,
  /// so a ParseError leaves the engine untouched. Every memoised and
  /// derived structure (merged policies, reciprocity bitset, precomputed
  /// link-count generation) is invalidated unconditionally on commit and
  /// rebuilds on first use; generation() bumps.
  void restore_state(ByteReader& reader);

 private:
  struct MemberData {
    // Distinct policies seen per prefix, sorted by prefix; consistency
    // tracked for the section 4.3 claim that policies rarely differ
    // across prefixes (so this stays a one-element vector in practice).
    std::vector<std::pair<IpPrefix, ExportPolicy>> per_prefix;
    bool passive = false;
    bool active = false;
    std::size_t observations = 0;
    // Memoised intersection of per_prefix (N_a); maintained incrementally
    // by add() where possible, rebuilt on demand otherwise.
    mutable ExportPolicy merged;
    mutable bool merged_valid = false;
  };

  /// The member's slot, created on first use (keeps member_ids_ sorted).
  MemberData& member_slot(Asn member);
  const MemberData* find_member(Asn member) const;
  const ExportPolicy& merged_policy(const MemberData& data) const;

  /// Incrementally maintained reciprocity state over the FULL A_RS
  /// universe (dense index = position in context_.rs_members, which
  /// never shifts as members are observed). Row i bit j of `allows` says
  /// participant i exports to participant j; `allowed_by` is the
  /// transpose; `observed` is the column mask of members with data.
  /// Built lazily on first query, then patched by add() row deltas.
  struct Derived {
    bool valid = false;
    std::size_t words = 0;  // per-row word count over |A_RS|
    std::vector<std::uint64_t> allows;
    std::vector<std::uint64_t> allowed_by;
    std::vector<std::uint64_t> observed;
    std::vector<std::uint64_t> scratch_row;  // add()'s delta staging
  };

  /// Materialise derived_ from scratch if it is not valid.
  void ensure_derived() const;
  /// Fill `row` with participant u's allow-row under `policy` (null =
  /// default open), diagonal clear.
  void compute_allow_row(std::size_t u, const ExportPolicy* policy,
                         std::uint64_t* row) const;
  /// Replace derived_ row u with the row for `policy`, patching the
  /// changed transpose bits (O(|A_RS|/64) + O(changed bits)).
  void apply_row_delta(std::size_t u, const ExportPolicy* policy) const;
  /// count_links minus the generation bookkeeping (shared with freeze).
  std::size_t count_links_derived(bool assume_open_for_unobserved) const;

  IxpContext context_;
  // Sorted member ASNs with payloads in parallel (dense-index layout).
  FlatAsnSet member_ids_;
  std::vector<MemberData> member_data_;
  std::size_t rejected_ = 0;
  std::uint64_t generation_ = 0;
  // Generation at which a link count was last computed; stats(precomputed)
  // asserts it still matches (the memo-staleness contract above).
  mutable std::optional<std::uint64_t> links_generation_;
  mutable Derived derived_;
};

}  // namespace mlp::core
