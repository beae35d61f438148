// Internal construction helper for Scenario (not part of the public API).
#pragma once

#include "scenario/scenario.hpp"

namespace mlp::scenario {

/// Friend of Scenario; each method fills one slice of the ecosystem.
/// Split across build_ixps.cpp / build_observability.cpp for readability.
struct ScenarioBuilder {
  Scenario& s;
  Rng rng;

  /// A member looking glass between its RNG draws and its final RIB.
  struct LgDraft {
    Asn oper = 0;
    bool prefers_bilateral = false;
    bool show_all_paths = true;
    /// Neighbors with a direct session, and their routing positions.
    std::vector<std::pair<topology::Neighbor, std::uint32_t>> direct_neighbors;
    std::unique_ptr<bgp::Rib> rib;
  };
  std::vector<LgDraft> lg_drafts;

  ScenarioBuilder(Scenario& scenario, std::uint64_t seed)
      : s(scenario), rng(seed) {}

  // build_ixps.cpp
  void assign_policies();
  void assign_prefixes();
  void build_ixps();
  void announce_to_route_servers();
  void derive_links_and_augment_graph();

  // build_observability.cpp
  void build_collectors();
  void build_rs_lgs();
  void draft_member_lgs();
  void propagate_routes();
  void build_member_lgs();
  void build_irr();
  void build_registry();

  // Helpers shared by the build steps.
  routeserver::ExportPolicy draw_export_policy(const IxpDeployment& ixp,
                                               Asn member);
  std::vector<bgp::Community> wire_communities(const IxpDeployment& ixp,
                                               Asn setter) const;
};

}  // namespace mlp::scenario
