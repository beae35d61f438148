#include "scenario/scenario.hpp"

#include <algorithm>

#include "scenario/builder.hpp"
#include "util/errors.hpp"

namespace mlp::scenario {

std::vector<IxpSpec> paper_ixp_roster() {
  using routeserver::SchemeStyle;
  auto spec = [](std::string name, Region region, double weight, bool lg,
                 bool flat, SchemeStyle style) {
    IxpSpec s;
    s.name = std::move(name);
    s.region = region;
    s.size_weight = weight;
    s.has_rs_lg = lg;
    s.flat_fee = flat;
    s.style = style;
    return s;
  };
  // Weights follow table 2's "ASes" column; LG column follows the paper
  // (AMS-IX, LINX, LONAP, STHIX offered no RS LG).
  std::vector<IxpSpec> roster = {
      spec("AMS-IX", Region::WesternEurope, 574, false, true,
           SchemeStyle::RsAsnBased),
      spec("DE-CIX", Region::WesternEurope, 483, true, true,
           SchemeStyle::RsAsnBased),
      spec("LINX", Region::WesternEurope, 457, false, true,
           SchemeStyle::RsAsnBased),
      spec("MSK-IX", Region::EasternEurope, 374, true, true,
           SchemeStyle::RsAsnBased),
      spec("PLIX", Region::EasternEurope, 222, true, true,
           SchemeStyle::RsAsnBased),
      spec("France-IX", Region::WesternEurope, 193, true, true,
           SchemeStyle::RsAsnBased),
      spec("LONAP", Region::WesternEurope, 120, false, true,
           SchemeStyle::RsAsnBased),
      spec("ECIX", Region::WesternEurope, 102, true, true,
           SchemeStyle::PrivateRangeBased),
      spec("SPB-IX", Region::EasternEurope, 89, true, false,
           SchemeStyle::RsAsnBased),
      spec("DTEL-IX", Region::EasternEurope, 74, true, false,
           SchemeStyle::RsAsnBased),
      spec("TOP-IX", Region::WesternEurope, 71, true, false,
           SchemeStyle::PrivateRangeBased),
      spec("STHIX", Region::WesternEurope, 69, false, true,
           SchemeStyle::RsAsnBased),
      spec("BIX.BG", Region::EasternEurope, 53, true, true,
           SchemeStyle::RsAsnBased),
  };
  // France-IX's LG did not output community attributes (section 5).
  for (auto& s : roster)
    if (s.name == "France-IX") s.lg_shows_communities = false;
  return roster;
}

std::uint32_t IxpDeployment::lan_ip(Asn member) const {
  auto it = members.find(member);
  if (it == members.end())
    throw InvalidArgument("lan_ip: AS" + std::to_string(member) +
                          " is not at " + spec.name);
  const auto index =
      static_cast<std::uint32_t>(std::distance(members.begin(), it));
  // A /23 per IXP: up to 510 member addresses.
  return lan_base + 1 + index;
}

Scenario::Scenario(const ScenarioParams& params) : params_(params) {
  Rng rng(params.seed);
  topo_ = topology::generate_topology(params.topology, rng);

  ScenarioBuilder builder(*this, rng.fork(1).seed());
  builder.assign_policies();
  builder.assign_prefixes();
  builder.build_ixps();
  builder.announce_to_route_servers();
  builder.derive_links_and_augment_graph();

  routing_ = std::make_unique<propagation::RoutingModel>(topo_.graph);

  // Every RNG draw of the collectors and member LGs comes first; the one
  // routing sweep then feeds both.
  builder.build_collectors();
  builder.build_rs_lgs();
  builder.draft_member_lgs();
  builder.propagate_routes();
  builder.build_member_lgs();
  builder.build_irr();
  builder.build_registry();
}

Scenario::~Scenario() = default;

const std::vector<IpPrefix>& Scenario::prefixes_of(Asn asn) const {
  static const std::vector<IpPrefix> kNone;
  auto it = prefixes_.find(asn);
  return it == prefixes_.end() ? kNone : it->second;
}

std::vector<IpPrefix> Scenario::prefixes_behind(Asn asn) const {
  // Own prefixes plus the customer cone's, most geographically distant
  // origins first (the paper picks up to six maximally spread prefixes).
  const Region home = topo_.profile(asn).home_region;
  std::vector<std::pair<int, IpPrefix>> ranked;
  for (const Asn member : topo_.graph.customer_cone(asn)) {
    auto it = prefixes_.find(member);
    if (it == prefixes_.end()) continue;
    const int distance =
        topo_.profile(member).home_region == home ? 1 : 0;
    for (const auto& prefix : it->second)
      ranked.emplace_back(distance, prefix);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<IpPrefix> out;
  out.reserve(ranked.size());
  for (const auto& [distance, prefix] : ranked) out.push_back(prefix);
  return out;
}

std::vector<bgp::Community> Scenario::communities_for(
    Asn setter, std::size_t ixp_index) const {
  const IxpDeployment& ixp = ixps_.at(ixp_index);
  auto it = ixp.exports.find(setter);
  if (it == ixp.exports.end()) return {};
  const bool explicit_all = ixp.explicit_all.count(setter)
                                ? ixp.explicit_all.at(setter)
                                : false;
  return it->second.to_communities(ixp.server->scheme(), explicit_all);
}

const std::vector<Crossing>& Scenario::crossings(const AsLink& link) const {
  static const std::vector<Crossing> kNone;
  auto it = crossings_.find(link);
  return it == crossings_.end() ? kNone : it->second;
}

std::set<AsLink> Scenario::all_rs_links() const {
  std::set<AsLink> out;
  for (const auto& ixp : ixps_)
    out.insert(ixp.rs_links.begin(), ixp.rs_links.end());
  return out;
}

lg::LookingGlassServer* Scenario::rs_lg(std::size_t ixp_index) {
  return rs_lgs_.at(ixp_index).get();
}

core::IxpContext Scenario::ixp_context(std::size_t ixp_index) const {
  const IxpDeployment& ixp = ixps_.at(ixp_index);
  core::IxpContext ctx;
  ctx.name = ixp.spec.name;
  ctx.scheme = ixp.server->scheme();
  ctx.rs_members = ixp.rs_members;
  return ctx;
}

std::vector<core::IxpContext> Scenario::ixp_contexts() const {
  std::vector<core::IxpContext> out;
  out.reserve(ixps_.size());
  for (std::size_t i = 0; i < ixps_.size(); ++i)
    out.push_back(ixp_context(i));
  return out;
}

propagation::IxpLanFn Scenario::ixp_lan_fn() const {
  return [this](Asn a, Asn b) -> std::optional<Asn> {
    const auto& list = crossings(AsLink(a, b));
    if (list.empty()) return std::nullopt;
    return ixps_[list.front().ixp_index].rs_asn;
  };
}

std::vector<bgp::AsPath> Scenario::collector_paths() const {
  std::vector<bgp::AsPath> out;
  for (const auto& collector : collectors_) {
    for (const auto& prefix : collector.rib().prefixes()) {
      for (const auto& entry : collector.rib().paths(prefix))
        out.push_back(entry.route.attrs.as_path);
    }
  }
  return out;
}

}  // namespace mlp::scenario
