// Property-based tests: randomised sweeps (TEST_P over seeds) asserting
// the invariants the system's correctness rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <tuple>
#include <unordered_map>

#include "bgp/rib.hpp"
#include "bgp/valley.hpp"
#include "bgp/wire.hpp"
#include "core/engine.hpp"
#include "mrt/table_dump.hpp"
#include "pipeline/observation_queue.hpp"
#include "propagation/routing.hpp"
#include "routeserver/route_server.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace mlp {
namespace {

using bgp::AsPath;
using bgp::Community;
using bgp::IpPrefix;

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ---- Export policies encode/decode losslessly under random schemes.

TEST_P(SeededProperty, ExportPolicyCommunityRoundTrip) {
  Rng rng(GetParam());
  const auto style = rng.chance(0.5)
                         ? routeserver::SchemeStyle::RsAsnBased
                         : routeserver::SchemeStyle::PrivateRangeBased;
  auto scheme = routeserver::IxpCommunityScheme::make(
      "prop", static_cast<bgp::Asn>(rng.uniform(1000, 64000)), style);

  std::vector<bgp::Asn> members;
  for (int i = 0; i < 40; ++i)
    members.push_back(static_cast<bgp::Asn>(rng.uniform(1, 60000)));

  for (int round = 0; round < 20; ++round) {
    const bool allowlist = rng.chance(0.5);
    std::set<bgp::Asn> peers;
    const std::size_t n = rng.uniform(0, 6);
    for (std::size_t k = 0; k < n; ++k) peers.insert(rng.pick(members));
    const routeserver::ExportPolicy policy(
        allowlist ? routeserver::ExportPolicy::Mode::NoneExcept
                  : routeserver::ExportPolicy::Mode::AllExcept,
        peers);
    const auto communities = policy.to_communities(scheme, rng.chance(0.5));
    const auto decoded =
        routeserver::ExportPolicy::from_communities(communities, scheme);
    if (!allowlist && peers.empty()) {
      // Pure default: decodes to nothing or the explicit ALL.
      if (decoded) {
        EXPECT_EQ(*decoded, policy);
      }
    } else {
      ASSERT_TRUE(decoded);
      EXPECT_EQ(*decoded, policy);
    }
    // The decoded policy must agree with the original on every member.
    if (decoded) {
      for (const auto member : members)
        EXPECT_EQ(decoded->allows(member), policy.allows(member));
    }
  }
}

// ---- The inference engine reproduces the route server's ground truth
// when fed the very communities the members announced (precision and
// recall 1.0 with import filters mirroring exports).

TEST_P(SeededProperty, EngineMatchesRouteServerGroundTruth) {
  Rng rng(GetParam() ^ 0xbeef);
  auto scheme = routeserver::IxpCommunityScheme::make(
      "prop", 64321, routeserver::SchemeStyle::RsAsnBased);
  routeserver::RouteServer rs(scheme);

  std::vector<bgp::Asn> members;
  for (int i = 0; i < 25; ++i)
    members.push_back(static_cast<bgp::Asn>(2000 + i));
  for (const auto member : members) rs.connect(member, member);

  core::IxpContext ctx;
  ctx.name = "prop";
  ctx.scheme = scheme;
  ctx.rs_members = {members.begin(), members.end()};
  core::MlpInferenceEngine engine(ctx);

  for (const auto member : members) {
    std::set<bgp::Asn> peers;
    const std::size_t n = rng.uniform(0, 5);
    for (std::size_t k = 0; k < n; ++k) {
      const auto peer = rng.pick(members);
      if (peer != member) peers.insert(peer);
    }
    const routeserver::ExportPolicy policy(
        rng.chance(0.25) ? routeserver::ExportPolicy::Mode::NoneExcept
                         : routeserver::ExportPolicy::Mode::AllExcept,
        peers);
    const std::size_t prefixes = rng.uniform(1, 3);
    for (std::size_t p = 0; p < prefixes; ++p) {
      bgp::Route route;
      route.prefix =
          IpPrefix(0x0A000000 + (static_cast<std::uint32_t>(member) << 12) +
                       (static_cast<std::uint32_t>(p) << 8),
                   24);
      route.attrs.as_path = AsPath({member});
      route.attrs.next_hop = member;
      route.attrs.communities = policy.to_communities(scheme, rng.chance(0.3));
      rs.announce(member, route);

      core::Observation obs;
      obs.setter = member;
      obs.prefix = route.prefix;
      obs.communities = route.attrs.communities;
      engine.add(obs);
    }
  }
  EXPECT_EQ(engine.infer_links(), rs.reciprocal_links());
}

// ---- The bitset reciprocity pass is byte-identical to a naive reference
// implementation of steps 4-5 (per-member allow-sets as node-based
// std::set, pairwise reciprocity by lookup), on randomised scenarios with
// inconsistent per-prefix policies, unobserved members, self-targeted and
// non-member-targeted communities.

TEST_P(SeededProperty, InferLinksMatchesNaiveReference) {
  Rng rng(GetParam() ^ 0xfeed);
  auto scheme = routeserver::IxpCommunityScheme::make(
      "prop", 64321, routeserver::SchemeStyle::RsAsnBased);

  const std::size_t n_members = rng.uniform(20, 60);
  std::vector<bgp::Asn> members;
  for (std::size_t i = 0; i < n_members; ++i)
    members.push_back(static_cast<bgp::Asn>(3000 + 3 * i));

  core::IxpContext ctx;
  ctx.name = "prop";
  ctx.scheme = scheme;
  ctx.rs_members = {members.begin(), members.end()};
  core::MlpInferenceEngine engine(ctx);

  // Per member: 0 prefixes (unobserved) or 1-3 prefixes with independently
  // drawn policies. The reference keeps the raw policy list.
  std::map<bgp::Asn, std::vector<routeserver::ExportPolicy>> truth;
  for (const auto member : members) {
    if (rng.chance(0.25)) continue;  // unobserved
    const std::size_t prefixes = rng.uniform(1, 3);
    for (std::size_t p = 0; p < prefixes; ++p) {
      util::FlatAsnSet peers;
      const std::size_t n_peers = rng.uniform(0, 6);
      for (std::size_t k = 0; k < n_peers; ++k) {
        if (rng.chance(0.15)) {
          peers.insert(member);  // self-targeted: must never self-link
        } else if (rng.chance(0.15)) {
          // Target outside A_RS: ignored by reciprocity either way.
          peers.insert(static_cast<bgp::Asn>(rng.uniform(100, 2000)));
        } else {
          peers.insert(rng.pick(members));
        }
      }
      const routeserver::ExportPolicy policy(
          rng.chance(0.3) ? routeserver::ExportPolicy::Mode::NoneExcept
                          : routeserver::ExportPolicy::Mode::AllExcept,
          peers);
      core::Observation obs;
      obs.setter = member;
      obs.prefix = bgp::IpPrefix(
          0x0A000000 + (static_cast<std::uint32_t>(member) << 12) +
              (static_cast<std::uint32_t>(p) << 8),
          24);
      obs.communities = policy.to_communities(scheme, rng.chance(0.5));
      engine.add(obs);
      // An AllExcept policy with no peers encodes to nothing (or the bare
      // ALL value): the engine records default-open, which allows() agrees
      // with, so the raw policy doubles as the reference.
      truth[member].push_back(policy);
    }
  }

  for (const bool assume_open : {false, true}) {
    // Reference step 4+5 over node-based sets.
    std::map<bgp::Asn, std::set<bgp::Asn>> allow;
    for (const auto member : members) {
      const auto it = truth.find(member);
      if (it == truth.end() && !assume_open) continue;
      std::set<bgp::Asn> allowed;
      for (const auto other : members) {
        if (other == member) continue;
        bool ok = true;
        if (it != truth.end()) {
          for (const auto& policy : it->second)
            if (!policy.allows(other)) ok = false;
        }
        if (ok) allowed.insert(other);
      }
      allow.emplace(member, std::move(allowed));
    }
    std::set<bgp::AsLink> expected;
    for (const auto& [a, allowed_a] : allow) {
      for (const auto& [b, allowed_b] : allow) {
        if (a >= b) continue;
        if (allowed_a.count(b) && allowed_b.count(a))
          expected.insert(bgp::AsLink(a, b));
      }
    }

    const auto inferred = engine.infer_links(assume_open);
    EXPECT_EQ(inferred, expected) << "assume_open=" << assume_open;
    EXPECT_EQ(engine.count_links(assume_open), expected.size())
        << "assume_open=" << assume_open;
  }
}

// ---- The delta-maintained reciprocity bitset equals the from-scratch
// memoisation after EVERY prefix of a shuffled observation sequence:
// once a query materialises the bitset, add() patches it in place, and
// that fast path must never drift from what ensure_derived() would
// rebuild. invalidate_derived() on the twin engine forces the full
// re-memoisation every step.

TEST_P(SeededProperty, IncrementalDeltaMatchesFromScratch) {
  Rng rng(GetParam() ^ 0xde17a);
  auto scheme = routeserver::IxpCommunityScheme::make(
      "prop", 64321, routeserver::SchemeStyle::RsAsnBased);

  const std::size_t n_members = rng.uniform(10, 40);
  std::vector<bgp::Asn> members;
  for (std::size_t i = 0; i < n_members; ++i)
    members.push_back(static_cast<bgp::Asn>(3000 + 3 * i));
  core::IxpContext ctx;
  ctx.name = "prop";
  ctx.scheme = scheme;
  ctx.rs_members = {members.begin(), members.end()};

  const auto random_policy = [&]() {
    util::FlatAsnSet peers;
    const std::size_t n_peers = rng.uniform(0, 6);
    for (std::size_t k = 0; k < n_peers; ++k) {
      if (rng.chance(0.15)) {
        peers.insert(static_cast<bgp::Asn>(rng.uniform(100, 2000)));
      } else {
        peers.insert(rng.pick(members));
      }
    }
    return routeserver::ExportPolicy(
        rng.chance(0.3) ? routeserver::ExportPolicy::Mode::NoneExcept
                        : routeserver::ExportPolicy::Mode::AllExcept,
        peers);
  };

  std::vector<core::Observation> observations;
  for (const auto member : members) {
    if (rng.chance(0.25)) continue;  // unobserved
    const std::size_t prefixes = rng.uniform(1, 3);
    for (std::size_t p = 0; p < prefixes; ++p) {
      core::Observation obs;
      obs.setter = member;
      obs.prefix = bgp::IpPrefix(
          0x0A000000 + (static_cast<std::uint32_t>(member) << 12) +
              (static_cast<std::uint32_t>(p) << 8),
          24);
      obs.communities = random_policy().to_communities(scheme,
                                                       rng.chance(0.5));
      observations.push_back(std::move(obs));
    }
  }
  if (observations.empty()) return;  // nothing to compare this seed
  // Re-announcements of already-queued prefixes with freshly drawn
  // policies exercise the replaced-intersectand branch (N_a rebuild) and
  // the identical-policy no-op branch of add().
  const std::size_t replays = rng.uniform(0, observations.size() / 2);
  for (std::size_t r = 0; r < replays; ++r) {
    core::Observation obs =
        observations[rng.uniform(0, observations.size() - 1)];
    if (rng.chance(0.5))
      obs.communities = random_policy().to_communities(scheme,
                                                       rng.chance(0.5));
    observations.push_back(std::move(obs));
  }
  // Shuffle: the equivalence must hold for ANY add order.
  for (std::size_t i = observations.size(); i > 1; --i)
    std::swap(observations[i - 1], observations[rng.uniform(0, i - 1)]);

  core::MlpInferenceEngine incremental(ctx);
  core::MlpInferenceEngine scratch(ctx);
  // Materialise the incremental engine's bitset up front so every add()
  // below takes the delta path (no member observed yet: no links).
  EXPECT_EQ(incremental.count_links(false), 0u);
  for (std::size_t i = 0; i < observations.size(); ++i) {
    incremental.add(observations[i]);
    scratch.add(observations[i]);
    scratch.invalidate_derived();  // force the full re-memoisation
    for (const bool assume_open : {false, true}) {
      EXPECT_EQ(incremental.infer_links(assume_open),
                scratch.infer_links(assume_open))
          << "after " << i + 1 << " observations, assume_open="
          << assume_open;
      EXPECT_EQ(incremental.count_links(assume_open),
                scratch.count_links(assume_open))
          << "after " << i + 1 << " observations, assume_open="
          << assume_open;
    }
  }
}

// ---- Wire/MRT round trips on randomised inputs.

TEST_P(SeededProperty, UpdateWireRoundTrip) {
  Rng rng(GetParam() ^ 0x77);
  for (int round = 0; round < 25; ++round) {
    bgp::UpdateMessage update;
    const std::size_t path_len = rng.uniform(1, 8);
    std::vector<bgp::Asn> asns;
    for (std::size_t i = 0; i < path_len; ++i)
      asns.push_back(static_cast<bgp::Asn>(rng.uniform(1, 4000000)));
    update.attrs.as_path = AsPath(asns);
    update.attrs.next_hop =
        static_cast<std::uint32_t>(rng.uniform(1, 1u << 31));
    if (rng.chance(0.5)) {
      update.attrs.has_local_pref = true;
      update.attrs.local_pref = static_cast<std::uint32_t>(rng.uniform(0, 500));
    }
    const std::size_t n_comm = rng.uniform(0, 10);
    for (std::size_t i = 0; i < n_comm; ++i)
      update.attrs.communities.push_back(Community(
          static_cast<std::uint16_t>(rng.uniform(0, 0xffff)),
          static_cast<std::uint16_t>(rng.uniform(0, 0xffff))));
    const std::size_t n_nlri = rng.uniform(1, 4);
    for (std::size_t i = 0; i < n_nlri; ++i)
      update.nlri.push_back(
          IpPrefix(static_cast<std::uint32_t>(rng.uniform(0, 0xffffffff)),
                   static_cast<std::uint8_t>(rng.uniform(8, 32))));
    const auto bytes = bgp::encode_update(update, true);
    EXPECT_EQ(bgp::decode_update(bytes, true), update);
  }
}

TEST_P(SeededProperty, MrtRibRoundTrip) {
  Rng rng(GetParam() ^ 0x99);
  bgp::Rib rib;
  const std::size_t n = rng.uniform(5, 40);
  for (std::size_t i = 0; i < n; ++i) {
    bgp::Route route;
    route.prefix =
        IpPrefix(static_cast<std::uint32_t>(rng.uniform(0, 0xffffffff)),
                 static_cast<std::uint8_t>(rng.uniform(8, 28)));
    route.attrs.as_path =
        AsPath({static_cast<bgp::Asn>(rng.uniform(1, 70000)),
                static_cast<bgp::Asn>(rng.uniform(1, 70000))});
    route.attrs.next_hop = 1;
    if (rng.chance(0.7))
      route.attrs.communities.push_back(
          Community(static_cast<std::uint16_t>(rng.uniform(0, 0xffff)),
                    static_cast<std::uint16_t>(rng.uniform(0, 0xffff))));
    rib.announce(static_cast<bgp::Asn>(rng.uniform(1, 70000)),
                 static_cast<std::uint32_t>(rng.uniform(1, 1000)),
                 std::move(route));
  }
  const auto archive = mrt::dump_rib(rib, 7, 9, "prop");
  const bgp::Rib parsed = mrt::parse_rib(archive);
  EXPECT_EQ(parsed.path_count(), rib.path_count());
  for (const auto& prefix : rib.prefixes()) {
    const auto& want = rib.paths(prefix);
    const auto& got = parsed.paths(prefix);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got[i].route, want[i].route);
  }
}

// ---- Every path selected by the propagation model is valley-free, on
// random topologies.

TEST_P(SeededProperty, RoutingPathsAreValleyFree) {
  topology::TopologyParams params;
  params.n_ases = 150;
  params.n_clique = 4;
  Rng rng(GetParam() ^ 0x1234);
  const auto topo = topology::generate_topology(params, rng);
  const auto rel = topo.graph.rel_fn();

  Rng pick(GetParam());
  const auto ases = topo.graph.ases();
  for (int round = 0; round < 6; ++round) {
    const auto origin = pick.pick(ases);
    const auto tree = propagation::compute_routes(topo.graph, origin);
    for (const auto asn : ases) {
      auto path = tree.path_from(asn);
      if (!path) continue;
      EXPECT_TRUE(bgp::is_valley_free(*path, rel))
          << "origin " << origin << " path " << path->to_string();
      EXPECT_EQ(path->origin(), origin);
      EXPECT_EQ(path->head(), asn);
      EXPECT_FALSE(path->has_cycle());
    }
  }
}

// ---- The dense routing kernel equals a naive reference: the Gao-Rexford
// expansion over per-origin std::unordered_map entries that the kernel
// replaced, with the same (length, next-hop ASN, node ASN) tie-break.

struct NaiveEntry {
  propagation::Via via = propagation::Via::None;
  std::uint32_t length = 0;
  bgp::Asn next = 0;
};

std::unordered_map<bgp::Asn, NaiveEntry> naive_routes(
    const topology::AsGraph& graph, bgp::Asn origin) {
  using propagation::Via;
  using Rel = bgp::Rel;
  using Item = std::tuple<std::uint32_t, bgp::Asn, bgp::Asn>;
  using Queue =
      std::priority_queue<Item, std::vector<Item>, std::greater<Item>>;
  std::unordered_map<bgp::Asn, NaiveEntry> entries;
  auto expand = [&](Queue& pq, Via stage, bool up, bool down) {
    while (!pq.empty()) {
      const auto [length, next, node] = pq.top();
      pq.pop();
      NaiveEntry& entry = entries[node];
      if (entry.via != Via::None) continue;
      entry = NaiveEntry{stage, length, next};
      for (const auto& n : graph.neighbors(node)) {
        const bool traverse = n.rel == Rel::Sibling ||
                              (up && n.rel == Rel::C2P) ||
                              (down && n.rel == Rel::P2C);
        if (traverse && entries[n.asn].via == Via::None)
          pq.emplace(length + 1, node, n.asn);
      }
    }
  };
  Queue pq;
  pq.emplace(1, origin, origin);
  expand(pq, Via::Customer, true, false);
  entries[origin] = NaiveEntry{Via::Origin, 1, origin};

  std::vector<std::pair<bgp::Asn, NaiveEntry>> offers;
  for (const auto& [asn, entry] : entries) {
    if (entry.via != Via::Customer && entry.via != Via::Origin) continue;
    for (const auto& n : graph.neighbors(asn)) {
      if (n.rel != Rel::P2P) continue;
      auto it = entries.find(n.asn);
      if (it != entries.end() && it->second.via != Via::None) continue;
      offers.emplace_back(n.asn, NaiveEntry{Via::Peer, entry.length + 1, asn});
    }
  }
  for (const auto& [asn, offer] : offers) {
    NaiveEntry& entry = entries[asn];
    if (entry.via == Via::None ||
        std::tie(offer.length, offer.next) < std::tie(entry.length, entry.next))
      entry = offer;
  }

  for (const auto& [asn, entry] : entries) {
    if (entry.via == Via::None) continue;
    for (const auto& n : graph.neighbors(asn)) {
      if (n.rel != Rel::P2C && n.rel != Rel::Sibling) continue;
      auto it = entries.find(n.asn);
      if (it != entries.end() && it->second.via != Via::None) continue;
      pq.emplace(entry.length + 1, asn, n.asn);
    }
  }
  expand(pq, Via::Provider, false, true);
  return entries;
}

TEST_P(SeededProperty, DenseRoutingKernelMatchesNaiveReference) {
  using propagation::PrefixOrigin;
  using propagation::RoutingTree;
  topology::TopologyParams params;
  params.n_ases = 120;
  params.n_clique = 4;
  Rng rng(GetParam() ^ 0x5eed);
  auto topo = topology::generate_topology(params, rng);
  // Extra random edges of every kind (IXP-style peerings, siblings, and
  // c2p edges that may close provider loops) plus ASes nobody reaches, so
  // ties, the peer stage and unreachable entries are all exercised.
  const auto base = topo.graph.ases();
  for (int k = 0; k < 60; ++k) {
    const bgp::Asn a = rng.pick(base), b = rng.pick(base);
    if (a == b) continue;
    const double roll = rng.uniform01();
    bgp::Rel rel = bgp::Rel::C2P;
    if (roll < 0.6)
      rel = bgp::Rel::P2P;
    else if (roll < 0.75)
      rel = bgp::Rel::Sibling;
    topo.graph.add_edge(a, b, rel);
  }
  topo.graph.add_as(4000000001u);
  topo.graph.add_edge(4000000002u, 4000000003u, bgp::Rel::P2P);

  const auto ases = topo.graph.ases();
  std::vector<PrefixOrigin> origins;
  for (const auto asn : ases) origins.push_back({IpPrefix(), asn});
  propagation::RoutingModel model(topo.graph, 2);
  std::size_t mismatches = 0;
  model.sweep(origins, [&](const PrefixOrigin& o, const RoutingTree& tree) {
    const auto naive = naive_routes(topo.graph, o.origin);
    const auto& index = model.index();
    for (std::uint32_t p = 0; p < index.asns.size(); ++p) {
      const auto it = naive.find(index.asns[p]);
      const NaiveEntry want = it == naive.end() ? NaiveEntry{} : it->second;
      const auto& got = tree.entries()[p];
      const bool same =
          got.via == want.via &&
          (want.via == propagation::Via::None ||
           (got.length == want.length && index.asns[got.next] == want.next));
      if (!same && ++mismatches <= 5)
        ADD_FAILURE() << "origin " << o.origin << " AS" << index.asns[p];
    }
  });
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(model.computed(), ases.size());
}

// ---- RIB best-path is maximal under the decision process.

TEST_P(SeededProperty, RibBestIsMaximal) {
  Rng rng(GetParam() ^ 0x4242);
  bgp::Rib rib;
  const IpPrefix prefix(0x0A000000, 16);
  const std::size_t n = rng.uniform(2, 10);
  for (std::size_t i = 0; i < n; ++i) {
    bgp::Route route;
    route.prefix = prefix;
    std::vector<bgp::Asn> asns;
    const std::size_t len = rng.uniform(1, 5);
    for (std::size_t k = 0; k < len; ++k)
      asns.push_back(static_cast<bgp::Asn>(rng.uniform(1, 9999)));
    route.attrs.as_path = AsPath(asns);
    route.attrs.next_hop = static_cast<std::uint32_t>(i);
    if (rng.chance(0.5)) {
      route.attrs.has_local_pref = true;
      route.attrs.local_pref = static_cast<std::uint32_t>(rng.uniform(50, 200));
    }
    rib.announce(static_cast<bgp::Asn>(100 + i), static_cast<std::uint32_t>(i),
                 std::move(route));
  }
  const auto best = rib.best(prefix);
  ASSERT_TRUE(best);
  for (const auto& entry : rib.paths(prefix)) {
    EXPECT_FALSE(bgp::Rib::better(entry, *best))
        << "entry from AS" << entry.peer_asn << " beats the chosen best";
  }
}

// ---- Customer cones are monotone: a provider's cone contains each
// customer's cone.

TEST_P(SeededProperty, CustomerConesAreMonotone) {
  topology::TopologyParams params;
  params.n_ases = 120;
  params.n_clique = 4;
  Rng rng(GetParam() ^ 0x5150);
  const auto topo = topology::generate_topology(params, rng);
  for (const auto asn : topo.transits) {
    const auto cone = topo.graph.customer_cone(asn);
    for (const auto customer : topo.graph.customers(asn)) {
      for (const auto member : topo.graph.customer_cone(customer))
        EXPECT_TRUE(cone.count(member))
            << "AS" << member << " in cone of customer AS" << customer
            << " but not of provider AS" << asn;
    }
  }
}

// ---- ObservationQueue: one drain rule, two keys. Random pushes of
// per-source monotone batches, watermarks, idle flips, closes and pops
// drain exactly the reference stable merge when no source idles -- by
// source order (Concatenate) or by (timestamp, source) (Watermark) --
// and, with idle sources, still every source's own order and the same
// observations.

TEST_P(SeededProperty, QueueDrainsTheReferenceStableMerge) {
  using pipeline::MergePolicy;
  Rng rng(GetParam());
  for (std::size_t n = 1; n <= 4; ++n) {
    for (const MergePolicy policy :
         {MergePolicy::Concatenate, MergePolicy::Watermark}) {
      for (const bool use_idle : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << n << " sources, policy "
                     << static_cast<int>(policy) << ", idle " << use_idle);
        // Per-source sequences: monotone timestamps with cross-source
        // ties; the setter is a unique id of (source, position).
        std::vector<std::vector<core::Observation>> sequences(n);
        for (std::size_t src = 0; src < n; ++src) {
          std::uint32_t ts = static_cast<std::uint32_t>(rng.uniform(0, 5));
          const std::size_t len = rng.uniform(0, 30);
          for (std::size_t k = 0; k < len; ++k) {
            core::Observation obs;
            obs.setter = static_cast<bgp::Asn>(src * 1000 + k);
            obs.timestamp = ts;
            sequences[src].push_back(obs);
            ts += static_cast<std::uint32_t>(rng.uniform(0, 3));
          }
        }
        pipeline::ObservationQueue queue(n, policy);
        std::vector<std::size_t> pushed(n, 0);
        std::vector<std::uint32_t> watermark(n, 0);
        std::vector<bool> closed(n, false);
        std::vector<bgp::Asn> drained;
        std::vector<core::Observation> batch;
        const auto pop = [&] {
          const bool ready = queue.has_ready();
          ASSERT_EQ(queue.try_pop(batch), ready);
          for (const auto& obs : batch) drained.push_back(obs.setter);
        };
        for (int step = 0; step < 400; ++step) {
          const std::size_t src = rng.uniform(0, n - 1);
          const auto& seq = sequences[src];
          switch (rng.uniform(0, 4)) {
            case 0: {  // push the next 1..4 observations
              if (closed[src] || pushed[src] == seq.size()) break;
              const std::size_t take = std::min<std::size_t>(
                  rng.uniform(1, 4), seq.size() - pushed[src]);
              queue.push(src, std::vector<core::Observation>(
                                  seq.begin() + pushed[src],
                                  seq.begin() + pushed[src] + take));
              pushed[src] += take;
              break;
            }
            case 1: {  // raise the watermark, never past the next push
              const std::uint32_t limit =
                  pushed[src] < seq.size() ? seq[pushed[src]].timestamp
                  : seq.empty()            ? 40
                                           : seq.back().timestamp + 3;
              if (watermark[src] > limit) break;
              watermark[src] = static_cast<std::uint32_t>(
                  rng.uniform(watermark[src], limit));
              queue.set_watermark(src, watermark[src]);
              break;
            }
            case 2:
              if (use_idle) queue.set_idle(src, rng.chance(0.5));
              break;
            case 3:
              if (pushed[src] == seq.size() && !closed[src]) {
                queue.close(src);
                closed[src] = true;
              }
              break;
            default:
              pop();
          }
        }
        for (std::size_t src = 0; src < n; ++src) {
          const auto& seq = sequences[src];
          if (pushed[src] < seq.size())
            queue.push(src, std::vector<core::Observation>(
                                seq.begin() + pushed[src], seq.end()));
          queue.close(src);
        }
        pop();
        EXPECT_FALSE(queue.has_ready());
        EXPECT_EQ(queue.depth(), 0u);

        // The reference: per-source concatenation, stably sorted by the
        // policy's key (a stable sort keeps each source's FIFO order).
        std::vector<core::Observation> all;
        for (const auto& seq : sequences)
          all.insert(all.end(), seq.begin(), seq.end());
        if (policy == MergePolicy::Watermark)
          std::stable_sort(all.begin(), all.end(),
                           [](const auto& a, const auto& b) {
                             return std::make_pair(a.timestamp,
                                                   a.setter / 1000) <
                                    std::make_pair(b.timestamp,
                                                   b.setter / 1000);
                           });
        std::vector<bgp::Asn> reference;
        for (const auto& obs : all) reference.push_back(obs.setter);
        // Idle parking is ignored under Concatenate, so its merge stays
        // exact either way.
        if (!use_idle || policy == MergePolicy::Concatenate) {
          EXPECT_EQ(drained, reference);
          continue;
        }
        auto sorted_drained = drained;
        auto sorted_reference = reference;
        std::sort(sorted_drained.begin(), sorted_drained.end());
        std::sort(sorted_reference.begin(), sorted_reference.end());
        EXPECT_EQ(sorted_drained, sorted_reference);
        for (std::size_t src = 0; src < n; ++src) {
          std::vector<bgp::Asn> own;
          for (const bgp::Asn id : drained)
            if (id / 1000 == src) own.push_back(id);
          EXPECT_TRUE(std::is_sorted(own.begin(), own.end()))
              << "source " << src << " drained out of its own order";
        }
      }
    }
  }
}

}  // namespace
}  // namespace mlp
