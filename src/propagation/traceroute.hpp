// Simulated traceroute campaigns (Ark / DIMES analogues).
//
// Traceroute-derived AS links suffer a specific artifact at IXPs: the hop
// inside the IXP peering LAN maps to the IXP's own ASN, so a peering link
// between members A and B appears as A-IXP and IXP-B rather than A-B
// (paper section 5: "both Ark and DIMES do not infer links across IXP
// Route Servers, but report them as links between the RS members and the
// Route Servers"). The campaign reproduces that mechanism.
#pragma once

#include <functional>
#include <optional>
#include <set>

#include "propagation/routing.hpp"

namespace mlp::propagation {

/// IXP LAN oracle: if the forwarding step from `a` to `b` crosses an IXP
/// peering fabric, returns the ASN that the LAN's address space maps to
/// (the IXP/route-server ASN); otherwise nullopt.
using IxpLanFn = std::function<std::optional<Asn>(Asn a, Asn b)>;

struct TracerouteResult {
  /// AS links derived from IP->AS mapping of the traced paths.
  std::set<bgp::AsLink> links;
  /// Number of (monitor, target) traces that produced a path.
  std::size_t traces = 0;
  /// Number of hops remapped to an IXP ASN.
  std::size_t ixp_artifacts = 0;
};

/// Trace from every monitor to every target prefix along BGP forwarding
/// paths, applying the IXP LAN artifact, and extract AS links.
TracerouteResult run_traceroute_campaign(
    RoutingModel& model, const std::vector<PrefixOrigin>& targets,
    const std::vector<Asn>& monitors, const IxpLanFn& ixp_lan);

}  // namespace mlp::propagation
