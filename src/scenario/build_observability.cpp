#include <algorithm>
#include <unordered_set>

#include "scenario/builder.hpp"

namespace mlp::scenario {

using propagation::FeedSpec;
using propagation::PrefixOrigin;
using propagation::RoutingTree;
using propagation::Via;

namespace {

/// Find the route-server crossing of a collector path, if any: the
/// adjacent pair nearest the origin whose edge crosses an IXP via the RS.
struct RsCrossing {
  bool found = false;
  std::size_t ixp_index = 0;
  Asn setter = 0;
  std::size_t receiver_position = 0;  // index of the member nearer vantage
};

RsCrossing find_rs_crossing(const Scenario& s, const bgp::AsPath& path) {
  const auto& asns = path.asns();
  RsCrossing out;
  // A valley-free path crosses at most one p2p link; search from the
  // origin side so the setter is nearest the prefix.
  for (std::size_t i = asns.size() - 1; i-- > 0;) {
    const AsLink link(asns[i], asns[i + 1]);
    for (const Crossing& crossing : s.crossings(link)) {
      if (!crossing.via_route_server) continue;
      out.found = true;
      out.ixp_index = crossing.ixp_index;
      out.setter = asns[i + 1];  // closer to the origin
      out.receiver_position = i;
      return out;
    }
  }
  return out;
}

}  // namespace

void ScenarioBuilder::build_collectors() {
  // Two collectors in the style of Route Views and RIPE RIS.
  s.collectors_.emplace_back("route-views", 6447, 0x80020101);
  s.collectors_.emplace_back("rrc00", 12654, 0xC1000201);

  // Feeder pool: every clique AS plus a sample of transit providers and
  // route-server members ("RS feeders", section 4.2).
  std::vector<Asn> pool = s.topo_.clique;
  for (const Asn asn : rng.sample(s.topo_.transits,
                                  s.params_.feeds_per_collector))
    pool.push_back(asn);
  std::vector<Asn> rs_member_pool;
  for (const auto& ixp : s.ixps_)
    for (const Asn member : ixp.rs_members) rs_member_pool.push_back(member);
  for (const Asn asn :
       rng.sample(rs_member_pool, s.params_.feeds_per_collector / 2))
    pool.push_back(asn);

  std::unordered_set<Asn> used;
  std::size_t index = 0;
  for (const Asn feeder : pool) {
    if (!used.insert(feeder).second) continue;
    FeedSpec feed;
    feed.feeder = feeder;
    feed.feeder_ip = 0xAC100000 + static_cast<std::uint32_t>(++index);
    // Two-thirds of feeders run the collector session like a peer and
    // export customer routes only (section 2.3).
    feed.full_feed = rng.chance(1.0 / 3.0);
    s.collectors_[index % s.collectors_.size()].add_feed(feed);
  }
}

void ScenarioBuilder::build_rs_lgs() {
  for (std::size_t i = 0; i < s.ixps_.size(); ++i) {
    const IxpDeployment& ixp = s.ixps_[i];
    if (!ixp.spec.has_rs_lg) {
      s.rs_lgs_.push_back(nullptr);
      continue;
    }
    lg::LgConfig config;
    config.name = "lg." + ixp.spec.name;
    config.operator_asn = ixp.rs_asn;
    config.show_all_paths = true;  // route-server LGs expose the full table
    config.show_communities = ixp.spec.lg_shows_communities;
    s.rs_lgs_.push_back(std::make_unique<lg::LookingGlassServer>(
        config, &ixp.server->rib()));
  }
}

void ScenarioBuilder::draft_member_lgs() {
  // Candidate operators: RS members (the paper's LGs front RS members or
  // their customers).
  std::vector<Asn> candidates;
  for (const auto& ixp : s.ixps_)
    for (const Asn member : ixp.rs_members) candidates.push_back(member);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const auto chosen = rng.sample(candidates, s.params_.member_lgs);

  for (const Asn oper : chosen) {
    LgDraft draft;
    draft.oper = oper;
    draft.prefers_bilateral =
        rng.chance(s.params_.prefer_bilateral_fraction);
    draft.show_all_paths = rng.chance(s.params_.lg_all_paths_fraction);
    draft.rib = std::make_unique<bgp::Rib>();
    // Direct sessions: edges whose only fabric crossing is via a route
    // server arrive through the RS sessions instead.
    for (const auto& neighbor : s.topo_.graph.neighbors(oper)) {
      const auto& crossings = s.crossings(AsLink(oper, neighbor.asn));
      const bool rs_only_edge =
          !crossings.empty() &&
          std::all_of(crossings.begin(), crossings.end(),
                      [](const Crossing& c) { return c.via_route_server; });
      if (!rs_only_edge)
        draft.direct_neighbors.emplace_back(
            neighbor, s.routing_->index().position(neighbor.asn));
    }
    lg_drafts.push_back(std::move(draft));
  }
}

void ScenarioBuilder::propagate_routes() {
  // Collector decorator: attach the RS communities the setter applied
  // when the path crossed a route server, unless the IXP or a transit AS
  // between the receiver and the vantage scrubs community attributes.
  const auto decorate = [this](const bgp::AsPath& path,
                               bgp::PathAttributes& attrs) {
    const RsCrossing crossing = find_rs_crossing(s, path);
    if (!crossing.found) return;
    const IxpDeployment& ixp = s.ixps_[crossing.ixp_index];
    if (ixp.spec.strips_communities) return;
    const auto& asns = path.asns();
    for (std::size_t i = 0; i <= crossing.receiver_position; ++i)
      if (s.scrubbers_.count(asns[i])) return;
    for (const auto community :
         s.communities_for(crossing.setter, crossing.ixp_index))
      attrs.add_community(community);
  };

  // One sweep, one routing tree per origin AS: the collectors archive the
  // feeders' exports, and every member LG takes its bilateral / transit
  // Adj-RIB-In.
  const auto visit = [&](const PrefixOrigin& o, const RoutingTree& tree) {
    for (auto& collector : s.collectors_)
      collector.collect(o.prefix, tree, decorate);
    for (auto& draft : lg_drafts) {
      for (const auto& [neighbor, position] : draft.direct_neighbors) {
        const Via via = tree.entries()[position].via;
        if (via == Via::None) continue;
        // The neighbor exports customer routes to everyone; everything
        // else only to its customers and siblings. neighbor.rel is the
        // operator's relationship toward the neighbor, so C2P means the
        // neighbor is the operator's provider (and the operator its
        // customer).
        const bool exports =
            via == Via::Customer || via == Via::Origin ||
            neighbor.rel == bgp::Rel::C2P ||
            neighbor.rel == bgp::Rel::Sibling;
        if (!exports) continue;
        auto path = tree.path_from(neighbor.asn);
        if (!path || path->contains(draft.oper)) continue;
        bgp::Route route;
        route.prefix = o.prefix;
        route.attrs.as_path = *path;
        route.attrs.next_hop = neighbor.asn;
        route.attrs.has_local_pref = true;
        switch (neighbor.rel) {
          case bgp::Rel::P2C:
            route.attrs.local_pref = 200;
            break;
          case bgp::Rel::Sibling:
            route.attrs.local_pref = 180;
            break;
          case bgp::Rel::P2P:
            route.attrs.local_pref = 100;
            break;
          case bgp::Rel::C2P:
            route.attrs.local_pref = 50;
            break;
        }
        draft.rib->announce(neighbor.asn, neighbor.asn, std::move(route));
      }
    }
  };
  s.routing_->sweep(s.origins_, visit);
}

void ScenarioBuilder::build_member_lgs() {
  for (auto& draft : lg_drafts) {
    // Route-server sessions: the filtered Adj-RIB-Out of every RS the
    // operator subscribes to. Paths learned this way carry the setter as
    // the peer; some operators prefer bilateral sessions (lower pref).
    for (const auto& ixp : s.ixps_) {
      if (!ixp.rs_members.count(draft.oper)) continue;
      for (const auto& entry : ixp.server->exports_to(draft.oper)) {
        bgp::Route route = entry.route;
        route.attrs.has_local_pref = true;
        route.attrs.local_pref = draft.prefers_bilateral ? 90 : 100;
        draft.rib->announce(entry.peer_asn, entry.peer_ip, std::move(route));
      }
    }

    Scenario::MemberLg lg;
    lg.operator_asn = draft.oper;
    lg.name = "lg.as" + std::to_string(draft.oper) + ".example.net";
    lg.rib = std::move(draft.rib);
    lg::LgConfig config;
    config.name = lg.name;
    config.operator_asn = draft.oper;
    config.show_all_paths = draft.show_all_paths;
    lg.server =
        std::make_unique<lg::LookingGlassServer>(config, lg.rib.get());
    s.member_lgs_.push_back(std::move(lg));
  }
}

void ScenarioBuilder::build_irr() {
  // as-set objects listing RS members (connectivity source ii); the LINX
  // analogue registers none, matching the paper's partial data there.
  for (const auto& ixp : s.ixps_) {
    if (ixp.spec.name == "LINX") continue;
    irr::RpslObject object;
    object.add("as-set",
               "AS" + std::to_string(ixp.rs_asn) + ":AS-MEMBERS");
    object.add("descr", ixp.spec.name + " route server members");
    std::string members;
    for (const Asn member : ixp.rs_members) {
      if (!members.empty()) members += ", ";
      members += "AS" + std::to_string(member);
    }
    object.add("members", members);
    s.irr_.add(std::move(object));
  }

  // AMS-IX-style IRR filters: aut-num import/export lines generated from
  // the ground-truth filters of the largest IXP's members (section 4.4).
  const IxpDeployment& amsix = s.ixps_.front();
  for (const Asn member : amsix.rs_members) {
    irr::RpslObject object;
    object.add("aut-num", "AS" + std::to_string(member));
    object.add("as-name", "AS" + std::to_string(member) + "-NET");
    const auto& exports = amsix.exports.at(member);
    const auto& imports = amsix.imports.at(member);
    auto emit = [&](const char* attr, const char* word, const char* tail,
                    const routeserver::ExportPolicy& policy) {
      if (policy.mode() == routeserver::ExportPolicy::Mode::AllExcept &&
          policy.peers().empty()) {
        object.add(attr, std::string(word) + " ANY " + tail);
        return;
      }
      for (const Asn peer : amsix.rs_members) {
        if (peer == member || !policy.allows(peer)) continue;
        object.add(attr, std::string(word) + " AS" + std::to_string(peer) +
                             " " + tail);
      }
    };
    emit("import", "from", "accept ANY", imports);
    emit("export", "to",
         ("announce AS" + std::to_string(member)).c_str(), exports);
    s.irr_.add(std::move(object));
  }
}

void ScenarioBuilder::build_registry() {
  std::unordered_set<Asn> lg_operators;
  for (const auto& lg : s.member_lgs_) lg_operators.insert(lg.operator_asn);

  std::map<Asn, std::vector<std::string>> memberships;
  for (const auto& ixp : s.ixps_)
    for (const Asn member : ixp.members)
      memberships[member].push_back(ixp.spec.name);

  for (const auto& [asn, ixp_names] : memberships) {
    registry::NetworkRecord record;
    record.asn = asn;
    record.name = "AS" + std::to_string(asn) + "-NET";
    if (rng.chance(s.params_.policy_disclosure))
      record.policy = s.true_policy_.at(asn);
    // Scope from footprint: all-region presence reads as Global, a
    // multi-region European footprint as Europe, otherwise Regional;
    // some operators leave it blank.
    const auto& profile = s.topo_.profile(asn);
    if (rng.chance(0.15)) {
      record.scope = registry::GeoScope::NotDisclosed;
    } else if (profile.presence.size() >= 4) {
      record.scope = registry::GeoScope::Global;
    } else if (profile.presence.size() >= 2) {
      record.scope = registry::GeoScope::Europe;
    } else {
      record.scope = registry::GeoScope::Regional;
    }
    if (lg_operators.count(asn))
      record.looking_glass = "lg.as" + std::to_string(asn) + ".example.net";
    record.ixps = ixp_names;
    s.peeringdb_.upsert(std::move(record));
  }
}

}  // namespace mlp::scenario
