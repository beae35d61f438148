#include "propagation/traceroute.hpp"

#include <vector>

namespace mlp::propagation {

TracerouteResult run_traceroute_campaign(
    RoutingModel& model, const std::vector<PrefixOrigin>& targets,
    const std::vector<Asn>& monitors, const IxpLanFn& ixp_lan) {
  TracerouteResult result;
  model.sweep(targets, [&](const PrefixOrigin&, const RoutingTree& tree) {
    for (const Asn monitor : monitors) {
      auto path = tree.path_from(monitor);
      if (!path) continue;
      ++result.traces;

      // Convert the AS path to the observed ASN sequence: hops that land
      // on an IXP peering LAN map to the IXP ASN instead of the far
      // member's ASN.
      std::vector<Asn> observed;
      const auto& asns = path->asns();
      for (std::size_t i = 0; i < asns.size(); ++i) {
        observed.push_back(asns[i]);
        if (i + 1 < asns.size() && ixp_lan) {
          if (auto lan_asn = ixp_lan(asns[i], asns[i + 1])) {
            observed.push_back(*lan_asn);
            ++result.ixp_artifacts;
          }
        }
      }
      for (std::size_t i = 0; i + 1 < observed.size(); ++i) {
        if (observed[i] != observed[i + 1])
          result.links.insert(bgp::AsLink(observed[i], observed[i + 1]));
      }
    }
  });
  return result;
}

}  // namespace mlp::propagation
