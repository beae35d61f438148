#include "core/active.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

namespace mlp::core {

ActiveSurveyResult run_active_survey(lg::LookingGlassServer& lg,
                                     const ActiveConfig& config,
                                     const FlatAsnSet& skip) {
  ActiveSurveyResult result;
  lg::LookingGlassClient client(lg);

  // Step 1: connectivity (one query).
  const auto neighbors = client.neighbors();
  result.queries = 1;
  std::map<Asn, std::uint32_t> member_ip;
  for (const auto& neighbor : neighbors) {
    result.rs_members.insert(neighbor.asn);
    member_ip.emplace(neighbor.asn, neighbor.ip);
  }
  result.naive_queries = 1 + result.rs_members.size();

  // Step 2: per-member advertised prefixes.
  std::map<Asn, std::vector<IpPrefix>> prefixes_of;
  std::map<IpPrefix, std::size_t> multiplicity;
  for (const auto& [asn, ip] : member_ip) {
    if (skip.count(asn)) continue;
    auto prefixes = client.neighbor_routes(ip);
    ++result.member_queries;
    for (const auto& prefix : prefixes) ++multiplicity[prefix];
    prefixes_of[asn] = std::move(prefixes);
  }
  result.queries += result.member_queries;
  for (const auto& [asn, prefixes] : prefixes_of)
    result.naive_queries += prefixes.size();
  // Skipped members would each have contributed ~their prefix count to the
  // naive cost; they are simply absent from both sums here, which keeps
  // the comparison within the surveyed set.

  // Step 3: prefix-information queries. Per member, sample
  // ceil(fraction * |P_a|) prefixes (capped), preferring prefixes many
  // members advertise so a single query covers several members.
  std::set<IpPrefix> queried;
  std::map<Asn, std::size_t> covered;  // per-member covered sample count
  for (auto& [asn, prefixes] : prefixes_of) {
    if (prefixes.empty()) continue;
    std::size_t want = static_cast<std::size_t>(std::ceil(
        config.prefix_sample_fraction * static_cast<double>(prefixes.size())));
    want = std::clamp<std::size_t>(want, 1, config.prefix_sample_cap);

    std::vector<IpPrefix> order = prefixes;
    if (config.multiplicity_sort) {
      std::stable_sort(order.begin(), order.end(),
                       [&](const IpPrefix& a, const IpPrefix& b) {
                         return multiplicity[a] > multiplicity[b];
                       });
    }

    std::size_t have = covered[asn];
    for (const auto& prefix : order) {
      if (have >= want) break;
      if (config.share_prefix_queries && queried.count(prefix)) {
        ++have;  // an earlier query already captured this member's paths
        continue;
      }
      // Issue the query and capture every advertiser's communities.
      const auto paths = client.prefix_detail(prefix);
      queried.insert(prefix);
      ++result.prefix_queries;
      for (const auto& path : paths) {
        // On a route-server LG the "from" AS of each path block is the
        // member that announced the route (the setter).
        const Asn setter =
            path.from_asn != 0
                ? path.from_asn
                : (path.as_path.empty() ? 0 : path.as_path.head());
        if (setter == 0) continue;
        Observation observation;
        observation.setter = setter;
        observation.prefix = prefix;
        observation.communities = path.communities;
        observation.source = Source::ActiveLg;
        result.observations.push_back(std::move(observation));
        if (config.share_prefix_queries) ++covered[setter];
      }
      ++have;
      covered[asn] = std::max(covered[asn], have);
    }
    covered[asn] = std::max(covered[asn], have);
  }
  result.queries += result.prefix_queries;
  return result;
}

}  // namespace mlp::core
