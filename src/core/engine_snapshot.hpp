// Immutable, shareable view of one engine's inference state at a
// publication instant (an "epoch").
//
// The live pipeline's reader/writer split: the writer side
// (MlpInferenceEngine) stays confined to its shard's pump and mutates
// freely; whenever it reaches a publishable point it freeze()s
// an EngineSnapshot -- a self-contained copy of the member index, the
// reciprocity bitset and the derived stats -- and swaps it behind an
// atomic shared_ptr. Readers (LiveSession::epoch_snapshot, the
// `mlp_infer query` server, benchmarks) load that pointer lock-free and
// answer every query from the copy, never touching the engine, a lane
// mutex or the session lock.
//
// Ownership: an EngineSnapshot OWNS everything it exposes (participant
// set, observed set, reciprocal bitset, stats). It borrows nothing from
// the engine that froze it, so it stays valid for as long as any reader
// holds the shared_ptr -- including across engine mutation, session
// restore and session destruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/types.hpp"

namespace mlp::core {

/// One frozen epoch of a route server's inference state. Immutable after
/// construction; every accessor is const and safe to call concurrently
/// from any number of threads without synchronization.
class EngineSnapshot {
 public:
  /// Publication sequence number assigned by the publisher (1-based,
  /// monotone per shard; survives checkpoint/restore).
  std::uint64_t epoch() const { return epoch_; }

  /// The engine's mutation generation at freeze time: two snapshots with
  /// equal generation describe identical accumulated state.
  std::uint64_t generation() const { return generation_; }

  /// The IXP this snapshot describes (IxpContext::name).
  const std::string& ixp() const { return ixp_; }

  /// Whether unobserved A_RS members participated with the default-open
  /// policy when this snapshot was frozen (the flag the whole snapshot
  /// was computed under).
  bool assume_open_for_unobserved() const { return assume_open_; }

  /// Full engine stats at freeze time; `stats().links` is the link count
  /// under the snapshot's flag.
  const EngineStats& stats() const { return stats_; }
  std::size_t link_count() const { return stats_.links; }

  std::size_t rejected_observations() const { return rejected_; }

  /// A_RS, sorted (the reciprocity universe).
  const FlatAsnSet& participants() const { return participants_; }
  /// Members with at least one observation, sorted.
  const FlatAsnSet& observed_members() const { return observed_; }

  bool is_member(Asn asn) const { return participants_.contains(asn); }
  bool is_observed(Asn asn) const { return observed_.contains(asn); }

  /// Whether the snapshot infers a p2p link between `a` and `b` (order
  /// irrelevant). False for non-members, self-pairs and -- unless the
  /// snapshot was frozen with assume_open_for_unobserved -- unobserved
  /// members.
  bool has_link(Asn a, Asn b) const;

  /// All link partners of `member`, ascending. Empty for non-members.
  std::vector<Asn> links_of(Asn member) const;

  /// Materialize the full link set (infer_links equivalent). O(links)
  /// allocation; prefer link_count()/has_link()/links_of() on the query
  /// path.
  std::set<AsLink> links() const;

 private:
  friend class MlpInferenceEngine;  // the only producer (freeze())

  EngineSnapshot() = default;

  /// True when dense participant index `i` takes part in link queries
  /// under the snapshot's flag.
  bool participates(std::size_t i) const {
    return assume_open_ ||
           (observed_mask_[i / 64] >> (i % 64) & std::uint64_t{1}) != 0;
  }
  const std::uint64_t* reciprocal_row(std::size_t i) const {
    return reciprocal_.data() + i * words_;
  }

  std::uint64_t epoch_ = 0;
  std::uint64_t generation_ = 0;
  std::string ixp_;
  bool assume_open_ = false;
  FlatAsnSet participants_;
  FlatAsnSet observed_;
  std::size_t words_ = 0;
  /// Row-major participants x words; bit (i, j) says the reciprocity
  /// test holds both ways between dense indices i and j (diagonal
  /// clear). Symmetric. NOT masked by observation status -- queries mask
  /// with observed_mask_ when the flag is off.
  std::vector<std::uint64_t> reciprocal_;
  /// Column bitmask of observed participants.
  std::vector<std::uint64_t> observed_mask_;
  EngineStats stats_;
  std::size_t rejected_ = 0;
};

}  // namespace mlp::core
