// The synthetic "May 2013" ecosystem.
//
// Substitutes the paper's production data sources with a fully simulated
// but behaviourally faithful Internet (see DESIGN.md section 2): an AS
// hierarchy, thirteen European IXPs with route servers and documented
// community schemes, ground-truth export/import filters derived from
// peering policies, BGP propagation into Route Views / RIS style
// collectors that emit real MRT bytes, looking glasses over route-server
// and member tables, an IRR with as-sets and AMS-IX-style filters, and a
// PeeringDB-like registry.
//
// Everything derives deterministically from one seed. The inference side
// (mlp::core) only ever sees the same artefacts the paper's authors had:
// MRT archives, LG text, RPSL objects, registry records.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "irr/database.hpp"
#include "lg/lg_server.hpp"
#include "propagation/collector.hpp"
#include "propagation/routing.hpp"
#include "propagation/traceroute.hpp"
#include "registry/peeringdb.hpp"
#include "routeserver/route_server.hpp"
#include "topology/generator.hpp"
#include "util/flat_set.hpp"
#include "util/rng.hpp"

namespace mlp::scenario {

using bgp::Asn;
using bgp::AsLink;
using bgp::IpPrefix;
using topology::Region;

/// Static descriptor of one IXP (mirrors the paper's table 2 roster).
struct IxpSpec {
  std::string name;
  Region region = Region::WesternEurope;
  /// Relative member-count weight (scaled by ScenarioParams).
  double size_weight = 1.0;
  /// The IXP operates a public LG on its route server ("LG" column).
  bool has_rs_lg = true;
  /// The RS LG renders community attributes (France-IX's did not).
  bool lg_shows_communities = true;
  bool flat_fee = true;
  routeserver::SchemeStyle style = routeserver::SchemeStyle::RsAsnBased;
  /// Netnod-style community scrubbing (defeats the method by design).
  bool strips_communities = false;
};

struct ScenarioParams {
  topology::TopologyParams topology;
  /// Scales the paper's per-IXP member counts to the generated topology.
  double membership_scale = 0.35;
  /// Probability an AS's PeeringDB record discloses its policy.
  double policy_disclosure = 0.55;
  /// Self-reported policy mix among disclosed records (section 5.2).
  double frac_open = 0.72, frac_selective = 0.24;  // rest: restrictive
  /// Per-IXP route-server opt-in probability by (true) policy.
  double rs_optin_open = 0.82, rs_optin_selective = 0.62,
         rs_optin_restrictive = 0.33;
  /// Members tagging the (default) ALL community explicitly.
  double explicit_all_prob = 0.3;
  /// Fraction of transit ASes that scrub communities when re-exporting.
  double scrub_prob = 0.08;
  /// Bilateral (non-RS) peering pairs per IXP, as a fraction of RS links.
  double bilateral_factor = 0.06;
  /// Collector feeder sessions per collector.
  std::size_t feeds_per_collector = 40;
  /// Member looking glasses (validation vantage points).
  std::size_t member_lgs = 40;
  /// Fraction of member LGs that display all paths (figure 8 mix).
  double lg_all_paths_fraction = 0.6;
  /// Fraction of LG operators preferring bilateral sessions over the RS
  /// (14 of 70 in the paper).
  double prefer_bilateral_fraction = 0.2;
  std::uint64_t seed = 20130501;

  ScenarioParams() { topology.n_ases = 2000; }
};

/// One deployed IXP: route server, membership, and ground truth.
struct IxpDeployment {
  IxpSpec spec;
  Asn rs_asn = 0;
  std::unique_ptr<routeserver::RouteServer> server;
  std::set<Asn> members;          // everyone at the IXP
  util::FlatAsnSet rs_members;    // subset connected to the route server
  /// Ground-truth outbound filters (what each member configures).
  std::map<Asn, routeserver::ExportPolicy> exports;
  /// Ground-truth inbound filters (at most as restrictive, section 4.4).
  std::map<Asn, routeserver::ExportPolicy> imports;
  /// Whether the member tags ALL explicitly on its announcements.
  std::map<Asn, bool> explicit_all;
  /// Ground-truth multilateral links over this route server.
  std::set<AsLink> rs_links;
  /// Bilateral sessions across the IXP fabric (invisible to the method).
  std::set<AsLink> bilateral_links;
  /// IXP peering LAN base address (a /24 per IXP).
  std::uint32_t lan_base = 0;

  std::uint32_t lan_ip(Asn member) const;
};

/// How a p2p graph edge crosses an IXP fabric.
struct Crossing {
  std::size_t ixp_index = 0;
  bool via_route_server = false;
};

class Scenario {
 public:
  explicit Scenario(const ScenarioParams& params);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  const ScenarioParams& params() const { return params_; }
  const topology::Topology& topo() const { return topo_; }
  const std::vector<IxpDeployment>& ixps() const { return ixps_; }
  const registry::PeeringDb& peeringdb() const { return peeringdb_; }
  const irr::IrrDatabase& irr() const { return irr_; }
  propagation::RoutingModel& routing() { return *routing_; }

  /// All (prefix, origin) pairs in announcement order.
  const std::vector<propagation::PrefixOrigin>& origins() const {
    return origins_;
  }
  /// Prefixes originated by one AS.
  const std::vector<IpPrefix>& prefixes_of(Asn asn) const;
  /// Prefixes originated by `asn` or its customer cone, ordered for
  /// geographic diversity (most distant home regions first).
  std::vector<IpPrefix> prefixes_behind(Asn asn) const;

  /// Communities `setter` attaches at `ixp` (ground truth wire view).
  std::vector<bgp::Community> communities_for(Asn setter,
                                              std::size_t ixp_index) const;

  /// Crossings of a p2p edge over IXP fabrics (empty if private PNI).
  const std::vector<Crossing>& crossings(const AsLink& link) const;

  /// Union of ground-truth multilateral links over all route servers.
  std::set<AsLink> all_rs_links() const;

  /// Collectors (filled with routes; table_dump()/update_dump() work).
  std::vector<propagation::Collector>& collectors() { return collectors_; }

  /// Route-server looking glasses, index-aligned with ixps(); null when
  /// the IXP offers none.
  lg::LookingGlassServer* rs_lg(std::size_t ixp_index);

  /// Member looking glasses for validation.
  struct MemberLg {
    Asn operator_asn = 0;
    std::string name;
    std::unique_ptr<bgp::Rib> rib;
    std::unique_ptr<lg::LookingGlassServer> server;
  };
  std::vector<MemberLg>& member_lgs() { return member_lgs_; }

  /// IxpContext (scheme + connectivity) for the inference pipelines.
  core::IxpContext ixp_context(std::size_t ixp_index) const;
  std::vector<core::IxpContext> ixp_contexts() const;

  /// Oracle for the traceroute campaign: IXP LAN ASN of a fabric step.
  propagation::IxpLanFn ixp_lan_fn() const;

  /// Ground-truth relationship oracle (for upper-bound experiments).
  bgp::RelFn truth_rel_fn() const { return topo_.graph.rel_fn(); }

  /// All AS paths archived by the collectors (for relationship inference).
  std::vector<bgp::AsPath> collector_paths() const;

 private:
  friend struct ScenarioBuilder;

  ScenarioParams params_;
  topology::Topology topo_;
  std::vector<IxpDeployment> ixps_;
  registry::PeeringDb peeringdb_;
  irr::IrrDatabase irr_;
  std::unique_ptr<propagation::RoutingModel> routing_;
  std::vector<propagation::Collector> collectors_;
  std::vector<std::unique_ptr<lg::LookingGlassServer>> rs_lgs_;
  std::vector<MemberLg> member_lgs_;

  std::vector<propagation::PrefixOrigin> origins_;
  std::map<Asn, std::vector<IpPrefix>> prefixes_;
  std::map<Asn, registry::PeeringPolicy> true_policy_;
  std::map<AsLink, std::vector<Crossing>> crossings_;
  std::set<Asn> scrubbers_;  // transit ASes that strip communities
};

/// The paper's 13-IXP roster with table 2 size weights.
std::vector<IxpSpec> paper_ixp_roster();

}  // namespace mlp::scenario
