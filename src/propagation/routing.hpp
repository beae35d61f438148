// Valley-free (Gao-Rexford) route propagation over an AsGraph.
//
// For one origin AS, computes the route every other AS selects under the
// standard policy model: prefer customer routes over peer routes over
// provider routes, then shorter AS paths, then a deterministic next-hop
// tie-break. Sibling edges exchange routes freely and keep the stage of
// the route they carry.
//
// The resulting per-origin tree is the substrate for everything the paper
// observes: collector feeds, looking-glass tables, and traceroute paths.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bgp/aspath.hpp"
#include "bgp/prefix.hpp"
#include "topology/as_graph.hpp"

namespace mlp::propagation {

using bgp::Asn;
using bgp::AsPath;

/// How an AS learned its best route toward the origin.
enum class Via : std::uint8_t {
  None,      // unreachable
  Origin,    // the AS is the origin itself
  Customer,  // learned from a customer (or sibling carrying such a route)
  Peer,      // learned across one p2p link
  Provider,  // learned from a provider
};

/// A prefix and the AS that originates it.
struct PrefixOrigin {
  bgp::IpPrefix prefix;
  Asn origin = 0;
};

/// An AsGraph frozen into compressed adjacency rows. Positions follow ASN
/// order, so comparing positions compares ASNs.
struct GraphIndex {
  static constexpr std::uint32_t npos = UINT32_MAX;
  explicit GraphIndex(const topology::AsGraph& graph);
  /// Position of `asn`, or npos when the graph does not hold it.
  std::uint32_t position(Asn asn) const;

  std::vector<Asn> asns;               // sorted
  std::vector<std::uint32_t> offsets;  // row p is edges[offsets[p], [p+1])
  std::vector<std::pair<std::uint32_t, bgp::Rel>> edges;  // (to, rel)
};

/// Best-route tree for one origin: one entry per GraphIndex position.
class RoutingTree {
 public:
  struct Entry {
    Via via = Via::None;
    std::uint32_t length = 0;  // AS-path length including the origin
    std::uint32_t next = 0;    // position of the next hop toward the origin
  };

  /// Computes the tree of `origin`. Throws InvalidArgument if the origin is
  /// not in the graph.
  RoutingTree(std::shared_ptr<const GraphIndex> index, Asn origin);

  Asn origin() const { return index_->asns[origin_]; }

  bool reachable(Asn asn) const { return via(asn) != Via::None; }
  Via via(Asn asn) const;

  /// AS path in BGP order (vantage first, origin last); nullopt if the
  /// vantage has no route.
  std::optional<AsPath> path_from(Asn vantage) const;

  /// entries()[p] is the route of the AS at GraphIndex position p.
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::shared_ptr<const GraphIndex> index_;
  std::uint32_t origin_ = 0;  // position
  std::vector<Entry> entries_;
};

/// Compute the best-route tree for `origin`. Throws InvalidArgument if the
/// origin is not in the graph.
RoutingTree compute_routes(const topology::AsGraph& graph, Asn origin);

/// Routing over one frozen graph, one origin-outer sweep at a time.
class RoutingModel {
 public:
  using Visit = std::function<void(const PrefixOrigin&, const RoutingTree&)>;

  /// Freezes `graph`. `threads` sizes the sweep's pool (0: all cores).
  explicit RoutingModel(const topology::AsGraph& graph,
                        std::size_t threads = 0);

  /// Calls `visit(o, tree of o.origin)` for each element of `origins`, in
  /// order, on the calling thread. Each distinct origin's tree is computed
  /// once, on the pool, at most two windows of distinct origins ahead of
  /// its first visit, and dropped after its last. Throws InvalidArgument,
  /// before any visit, if an origin is not in the graph.
  void sweep(const std::vector<PrefixOrigin>& origins, const Visit& visit);

  /// Trees computed by all sweeps so far.
  std::size_t computed() const { return computed_; }
  const GraphIndex& index() const { return *index_; }

 private:
  std::shared_ptr<const GraphIndex> index_;
  std::size_t threads_;
  std::size_t computed_ = 0;
};

}  // namespace mlp::propagation
