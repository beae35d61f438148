// Tests for the propagation library: Gao-Rexford routing trees, collector
// feeds, MRT archiving and the traceroute IXP artifact.
#include <gtest/gtest.h>

#include "bgp/valley.hpp"
#include "mrt/table_dump.hpp"
#include "propagation/collector.hpp"
#include "propagation/routing.hpp"
#include "propagation/traceroute.hpp"
#include "topology/generator.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace mlp::propagation {
namespace {

using bgp::AsPath;
using bgp::IpPrefix;
using topology::AsGraph;
using Rel = bgp::Rel;

/// Small reference topology:
///
///        1 ----- 2          (p2p clique)
///       / \       |
///      3   4      5         (customers of 1/2)
///      |    \    /|
///      6     7  8 |         (stubs)
///      3 ~ 5 peers; 4 ~ 9 siblings.
AsGraph small_graph() {
  AsGraph g;
  g.add_edge(1, 2, Rel::P2P);
  g.add_edge(3, 1, Rel::C2P);
  g.add_edge(4, 1, Rel::C2P);
  g.add_edge(5, 2, Rel::C2P);
  g.add_edge(6, 3, Rel::C2P);
  g.add_edge(7, 4, Rel::C2P);
  g.add_edge(8, 5, Rel::C2P);
  g.add_edge(3, 5, Rel::P2P);
  g.add_edge(4, 9, Rel::Sibling);
  return g;
}

TEST(Routing, OriginEntry) {
  AsGraph g = small_graph();
  const RoutingTree tree = compute_routes(g, 6);
  EXPECT_TRUE(tree.reachable(6));
  EXPECT_EQ(tree.via(6), Via::Origin);
  EXPECT_EQ(tree.path_from(6), AsPath({6}));
}

TEST(Routing, CustomerRouteClimbs) {
  AsGraph g = small_graph();
  const RoutingTree tree = compute_routes(g, 6);
  // 3 learns from customer 6; 1 from customer 3.
  EXPECT_EQ(tree.via(3), Via::Customer);
  EXPECT_EQ(tree.path_from(3), AsPath({3, 6}));
  EXPECT_EQ(tree.via(1), Via::Customer);
  EXPECT_EQ(tree.path_from(1), AsPath({1, 3, 6}));
}

TEST(Routing, PeerRoutePreferredOverProvider) {
  AsGraph g = small_graph();
  const RoutingTree tree = compute_routes(g, 6);
  // 5 peers with 3 which holds a customer route to 6; 5 also could learn
  // via provider 2. Peer beats provider.
  EXPECT_EQ(tree.via(5), Via::Peer);
  EXPECT_EQ(tree.path_from(5), AsPath({5, 3, 6}));
}

TEST(Routing, CustomerPreferredOverPeerEvenIfLonger) {
  // 10 has a customer chain to origin (length 3) and a direct peer route
  // (length 2); Gao-Rexford prefers the customer route.
  AsGraph g;
  g.add_edge(11, 10, Rel::C2P);   // 11 customer of 10
  g.add_edge(12, 11, Rel::C2P);   // 12 customer of 11 (origin)
  g.add_edge(10, 12, Rel::P2P);   // 10 also peers directly with 12
  const RoutingTree tree = compute_routes(g, 12);
  EXPECT_EQ(tree.via(10), Via::Customer);
  EXPECT_EQ(tree.path_from(10), AsPath({10, 11, 12}));
}

TEST(Routing, PeerRouteNotReExportedToPeers) {
  // 20 ~ 21 ~ 22 chain of peers, origin at 22: 20 must NOT have a route
  // (peer routes are not re-exported to other peers).
  AsGraph g;
  g.add_edge(20, 21, Rel::P2P);
  g.add_edge(21, 22, Rel::P2P);
  const RoutingTree tree = compute_routes(g, 22);
  EXPECT_TRUE(tree.reachable(21));
  EXPECT_FALSE(tree.reachable(20));
}

TEST(Routing, ProviderRouteDescends) {
  AsGraph g = small_graph();
  const RoutingTree tree = compute_routes(g, 6);
  // 7 is a stub under 4; it can only learn via its provider.
  EXPECT_EQ(tree.via(7), Via::Provider);
  EXPECT_EQ(tree.path_from(7), AsPath({7, 4, 1, 3, 6}));
  // 8 under 5, which selected the peer route via 3.
  EXPECT_EQ(tree.via(8), Via::Provider);
  EXPECT_EQ(tree.path_from(8), AsPath({8, 5, 3, 6}));
}

TEST(Routing, SiblingReceivesRoutes) {
  AsGraph g = small_graph();
  const RoutingTree tree = compute_routes(g, 6);
  EXPECT_TRUE(tree.reachable(9));  // via sibling 4
}

TEST(Routing, AllPathsValleyFree) {
  AsGraph g = small_graph();
  for (const bgp::Asn origin : g.ases()) {
    const RoutingTree tree = compute_routes(g, origin);
    for (const bgp::Asn vantage : g.ases()) {
      auto path = tree.path_from(vantage);
      if (!path) continue;
      EXPECT_TRUE(bgp::is_valley_free(*path, g.rel_fn()))
          << "origin " << origin << " vantage " << vantage << " path "
          << path->to_string();
    }
  }
}

TEST(Routing, UnknownOriginThrows) {
  AsGraph g = small_graph();
  EXPECT_THROW(compute_routes(g, 999), InvalidArgument);
}

TEST(Routing, DeterministicTieBreak) {
  // Origin 30 reachable from 33 via two equal-length provider chains
  // (31 and 32); the lower next-hop ASN must win, deterministically.
  AsGraph g;
  g.add_edge(30, 31, Rel::C2P);
  g.add_edge(30, 32, Rel::C2P);
  g.add_edge(31, 33, Rel::C2P);
  g.add_edge(32, 33, Rel::C2P);
  for (int i = 0; i < 5; ++i) {
    const RoutingTree tree = compute_routes(g, 30);
    EXPECT_EQ(tree.path_from(33), AsPath({33, 31, 30}));
  }
}

/// One /24 per origin, in order.
std::vector<PrefixOrigin> origins_for(std::initializer_list<bgp::Asn> asns) {
  std::vector<PrefixOrigin> out;
  std::uint32_t base = 0x0A000000;
  for (const bgp::Asn asn : asns) {
    out.push_back({IpPrefix(base, 24), asn});
    base += 0x100;
  }
  return out;
}

TEST(Routing, SweepComputesEachOriginOnce) {
  AsGraph g = small_graph();
  // 6 and 7 repeat, and not next to each other.
  const auto origins = origins_for({6, 7, 6, 8, 7, 6});
  for (const std::size_t threads : {1u, 4u}) {
    RoutingModel model(g, threads);
    std::vector<bgp::Asn> visited;
    model.sweep(origins, [&](const PrefixOrigin& o, const RoutingTree& tree) {
      EXPECT_EQ(tree.origin(), o.origin);
      EXPECT_EQ(tree.entries().size(), g.as_count());
      visited.push_back(o.origin);
    });
    EXPECT_EQ(visited, (std::vector<bgp::Asn>{6, 7, 6, 8, 7, 6}));
    EXPECT_EQ(model.computed(), 3u) << threads << " threads";
    model.sweep(origins_for({8}), [](auto&&...) {});
    EXPECT_EQ(model.computed(), 4u);  // counts every sweep's trees
  }
}

TEST(Routing, SweepTreesEqualComputeRoutes) {
  topology::TopologyParams params;
  params.n_ases = 300;
  Rng rng(7);
  const topology::Topology topo = topology::generate_topology(params, rng);
  // Every AS twice, the second pass reversed: far more distinct origins
  // than the window, and every tree still wanted long after it was built.
  std::vector<PrefixOrigin> origins;
  const auto ases = topo.graph.ases();
  for (const bgp::Asn asn : ases) origins.push_back({IpPrefix(), asn});
  for (auto it = ases.rbegin(); it != ases.rend(); ++it)
    origins.push_back({IpPrefix(), *it});

  RoutingModel model(topo.graph, 3);
  std::size_t visits = 0;
  model.sweep(origins, [&](const PrefixOrigin& o, const RoutingTree& tree) {
    ASSERT_EQ(o.origin, origins[visits++].origin);
    const RoutingTree want = compute_routes(topo.graph, o.origin);
    ASSERT_EQ(tree.entries().size(), want.entries().size());
    for (std::size_t p = 0; p < want.entries().size(); ++p) {
      EXPECT_EQ(tree.entries()[p].via, want.entries()[p].via);
      EXPECT_EQ(tree.entries()[p].length, want.entries()[p].length);
      EXPECT_EQ(tree.entries()[p].next, want.entries()[p].next);
    }
  });
  EXPECT_EQ(visits, origins.size());
  EXPECT_EQ(model.computed(), ases.size());
}

TEST(Routing, SweepRejectsUnknownOriginBeforeAnyVisit) {
  AsGraph g = small_graph();
  RoutingModel model(g, 2);
  std::size_t visits = 0;
  auto count = [&visits](auto&&...) { ++visits; };
  EXPECT_THROW(model.sweep(origins_for({6, 999}), count), InvalidArgument);
  EXPECT_EQ(visits, 0u);
  EXPECT_EQ(model.computed(), 0u);
}

TEST(Routing, SweepSurfacesVisitorException) {
  AsGraph g = small_graph();
  RoutingModel model(g, 2);
  auto stop_at_8 = [](const PrefixOrigin& o, const RoutingTree&) {
    if (o.origin == 8) throw InvalidArgument("stop");
  };
  EXPECT_THROW(model.sweep(origins_for({6, 7, 8, 1, 2, 3}), stop_at_8),
               InvalidArgument);
  // The model stays usable after an aborted sweep.
  std::size_t visits = 0;
  model.sweep(origins_for({6}), [&visits](auto&&...) { ++visits; });
  EXPECT_EQ(visits, 1u);
}

TEST(Routing, GeneratedTopologyFullyRoutable) {
  topology::TopologyParams params;
  params.n_ases = 300;
  Rng rng(11);
  const topology::Topology topo = topology::generate_topology(params, rng);
  // Every AS must reach a route originated by a clique member (global
  // reachability through the hierarchy).
  const RoutingTree tree = compute_routes(topo.graph, topo.clique.front());
  for (const bgp::Asn asn : topo.graph.ases())
    EXPECT_TRUE(tree.reachable(asn)) << "AS" << asn;
}

// ---------------------------------------------------------------- collector

TEST(Collector, FullFeedSeesAllStages) {
  AsGraph g = small_graph();
  RoutingModel model(g);
  Collector collector("rv-test", 65000, 0x7f000001);
  collector.add_feed({5, 0x0505, /*full_feed=*/true});
  collector.collect(model, origins_for({6, 7, 8}), nullptr);
  // 5 reaches 6 (peer route), 7 (provider route), 8 (customer route).
  EXPECT_EQ(collector.rib().prefix_count(), 3u);
}

TEST(Collector, PeerFeedExportsOnlyCustomerRoutes) {
  AsGraph g = small_graph();
  RoutingModel model(g);
  Collector collector("rv-test", 65000, 0x7f000001);
  collector.add_feed({5, 0x0505, /*full_feed=*/false});
  collector.collect(model, origins_for({6, 7, 8}), nullptr);
  // Only the customer route (origin 8) is exported on a peer-type session.
  EXPECT_EQ(collector.rib().prefix_count(), 1u);
  const auto paths = collector.rib().paths(IpPrefix(0x0A000200, 24));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].route.attrs.as_path, AsPath({5, 8}));
}

TEST(Collector, DecoratorAttachesCommunities) {
  AsGraph g = small_graph();
  RoutingModel model(g);
  Collector collector("rv-test", 65000, 0x7f000001);
  collector.add_feed({3, 0x0303, true});
  collector.collect(model, origins_for({6}),
                    [](const AsPath& path, bgp::PathAttributes& attrs) {
                      if (path.contains(6))
                        attrs.add_community(bgp::Community(6695, 6695));
                    });
  const auto paths = collector.rib().paths(IpPrefix(0x0A000000, 24));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths[0].route.attrs.has_community(bgp::Community(6695, 6695)));
}

TEST(Collector, TableDumpRoundTripsThroughMrt) {
  AsGraph g = small_graph();
  RoutingModel model(g);
  Collector collector("rrc00", 65010, 0x7f000002);
  collector.add_feed({1, 0x0101, true});
  collector.add_feed({2, 0x0202, true});
  collector.collect(model, origins_for({6, 7, 8}), nullptr);

  const auto archive = collector.table_dump(1367366400);
  const bgp::Rib parsed = mrt::parse_rib(archive);
  EXPECT_EQ(parsed.prefix_count(), collector.rib().prefix_count());
  EXPECT_EQ(parsed.path_count(), collector.rib().path_count());
}

TEST(Collector, UpdateDumpRoundTrips) {
  AsGraph g = small_graph();
  RoutingModel model(g);
  Collector collector("rrc00", 65010, 0x7f000002);
  collector.add_feed({1, 0x0101, true});
  collector.collect(model, origins_for({6}), nullptr);
  const auto archive = collector.update_dump(1367366400);
  const auto updates = mrt::parse_updates(archive);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].peer_asn, 1u);
  EXPECT_EQ(updates[0].update.attrs.as_path, AsPath({1, 3, 6}));
}

TEST(Collector, UnreachableOriginSkipped) {
  AsGraph g;
  g.add_edge(1, 2, Rel::P2P);
  g.add_edge(3, 4, Rel::P2P);  // disconnected island
  RoutingModel model(g);
  Collector collector("rv", 65000, 1);
  collector.add_feed({1, 0x0101, true});
  collector.collect(model, {{IpPrefix(0x0A000000, 24), 3}}, nullptr);
  EXPECT_TRUE(collector.rib().empty());
}

// ---------------------------------------------------------------- traceroute

TEST(Traceroute, IxpHopRemapped) {
  AsGraph g = small_graph();
  RoutingModel model(g);
  // Pretend the 3~5 peering crosses an IXP LAN owned by AS 64600.
  const IxpLanFn lan = [](bgp::Asn a, bgp::Asn b) -> std::optional<bgp::Asn> {
    if (bgp::AsLink(a, b) == bgp::AsLink(3, 5)) return 64600;
    return std::nullopt;
  };
  const auto result =
      run_traceroute_campaign(model, origins_for({6}), {8}, lan);
  // Path 8 5 3 6 becomes 8 5 64600 3 6 at IP level.
  EXPECT_EQ(result.traces, 1u);
  EXPECT_EQ(result.ixp_artifacts, 1u);
  EXPECT_TRUE(result.links.count(bgp::AsLink(5, 64600)));
  EXPECT_TRUE(result.links.count(bgp::AsLink(64600, 3)));
  EXPECT_FALSE(result.links.count(bgp::AsLink(3, 5)));  // the missed link
  EXPECT_TRUE(result.links.count(bgp::AsLink(8, 5)));
  EXPECT_TRUE(result.links.count(bgp::AsLink(3, 6)));
}

TEST(Traceroute, NoOracleMeansPlainAsLinks) {
  AsGraph g = small_graph();
  RoutingModel model(g);
  const auto result =
      run_traceroute_campaign(model, origins_for({6}), {8}, nullptr);
  EXPECT_TRUE(result.links.count(bgp::AsLink(3, 5)));
  EXPECT_EQ(result.ixp_artifacts, 0u);
}

TEST(Traceroute, UnreachableTargetsSkipped) {
  AsGraph g;
  g.add_edge(1, 2, Rel::P2P);
  g.add_edge(3, 4, Rel::P2P);
  RoutingModel model(g);
  const auto result =
      run_traceroute_campaign(model, {{IpPrefix(0x0A000000, 24), 3}}, {1},
                              nullptr);
  EXPECT_EQ(result.traces, 0u);
  EXPECT_TRUE(result.links.empty());
}

TEST(Traceroute, MultipleMonitorsUnionLinks) {
  AsGraph g = small_graph();
  RoutingModel model(g);
  const auto result =
      run_traceroute_campaign(model, origins_for({6, 8}), {7, 8, 6}, nullptr);
  EXPECT_GT(result.traces, 2u);
  EXPECT_TRUE(result.links.count(bgp::AsLink(7, 4)));
}

}  // namespace
}  // namespace mlp::propagation
