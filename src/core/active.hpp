// Active inference through looking-glass queries (paper sections 4.1/4.3).
//
// Steps 1-3 of the algorithm against an LG that fronts a route server:
//   1. `show ip bgp summary`                -> A_RS (one query)
//   2. per member: `... neighbors X routes` -> P_a (|A_RS| queries)
//   3. per selected prefix: `show ip bgp P` -> communities C_{a,p}
//
// Step 3 carries the two cost optimisations of section 4.3: sample 10% of
// each member's prefixes (capped at 100) because policies are consistent
// across prefixes, and query multi-advertiser prefixes first so one query
// covers several members (equation 1 -> equation 2 when members already
// covered by passive data are skipped).
#pragma once

#include <cstddef>

#include "core/types.hpp"
#include "lg/lg_client.hpp"

namespace mlp::core {

struct ActiveConfig {
  /// Fraction of each member's prefixes queried in step 3.
  double prefix_sample_fraction = 0.10;
  /// Upper bound on sampled prefixes per member.
  std::size_t prefix_sample_cap = 100;
  /// Order step-3 queries by how many members advertise the prefix.
  bool multiplicity_sort = true;
  /// Let one prefix query cover every member advertising it.
  bool share_prefix_queries = true;
};

struct ActiveSurveyResult {
  /// A_RS as seen in step 1.
  FlatAsnSet rs_members;
  /// Communities observed, one per (setter, prefix) path block.
  std::vector<Observation> observations;
  /// Cost c: 1 + member queries + prefix queries (equation 1/2).
  std::size_t queries = 0;
  std::size_t member_queries = 0;
  std::size_t prefix_queries = 0;
  /// Cost without any optimisation: 1 + |A_RS| + sum |P_a|.
  std::size_t naive_queries = 0;

  /// Wall-clock a polite client would need at one query per
  /// `interval_s` seconds.
  double simulated_hours(double interval_s) const {
    return static_cast<double>(queries) * interval_s / 3600.0;
  }
};

/// Run the survey against `lg`. Members in `skip` already have passive
/// coverage and are excluded from steps 2-3 (equation 2); their prefixes
/// still count toward naive_queries.
ActiveSurveyResult run_active_survey(lg::LookingGlassServer& lg,
                                     const ActiveConfig& config = {},
                                     const FlatAsnSet& skip = {});

}  // namespace mlp::core
