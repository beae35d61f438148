// The reproduce path: the full Table 2 experiment, from ScenarioParams to
// the per-IXP report, the way the paper's authors would rerun it.
#include <cstdio>

#include "bench.hpp"
#include "lg/lg_client.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {

namespace {

using mlp::scenario::Scenario;

/// Table 2 on the default seed: per IXP, inferred links and ground-truth
/// RS links, plus the unique link count over all IXPs.
struct ReferenceRow {
  const char* ixp;
  std::size_t links;
  std::size_t truth;
};
constexpr ReferenceRow kDefaultSeedTable2[] = {
    {"AMS-IX", 1967, 5841}, {"DE-CIX", 3590, 3590},  {"LINX", 1196, 4608},
    {"MSK-IX", 2910, 2910}, {"PLIX", 1057, 1057},    {"France-IX", 128, 803},
    {"LONAP", 48, 224},     {"ECIX", 289, 289},      {"SPB-IX", 164, 164},
    {"DTEL-IX", 93, 93},    {"TOP-IX", 74, 74},      {"STHIX", 5, 66},
    {"BIX.BG", 42, 42}};
constexpr std::size_t kDefaultSeedUniqueLinks = 11313;

/// The paper confirms 98.4% of the links it infers (Table 3), so on any
/// seed at most 1.6% of the inferred links may be false positives. The
/// default seed, whose Table 2 is committed above, has none.
constexpr double kPaperFalsePositiveShare = 0.016;

/// Third-party survey for IXPs without a community-displaying RS LG: ask
/// the member looking glasses for a prefix of every other RS member and
/// hand the returned paths (operator prepended) to the pipeline.
std::vector<mlp::pipeline::RawPath> third_party_paths(Scenario& s,
                                                      std::size_t ixp_index,
                                                      std::size_t& queries) {
  std::vector<mlp::pipeline::RawPath> collected;
  const auto& ixp = s.ixps()[ixp_index];
  for (auto& lg : s.member_lgs()) {
    if (!ixp.rs_members.contains(lg.operator_asn)) continue;
    mlp::lg::LookingGlassClient client(*lg.server);
    for (const Asn member : ixp.rs_members) {
      if (member == lg.operator_asn) continue;
      const auto& prefixes = s.prefixes_of(member);
      if (prefixes.empty()) continue;
      ++queries;
      for (const auto& path : client.prefix_detail(prefixes.front())) {
        if (path.communities.empty()) continue;
        mlp::bgp::AsPath full = path.as_path;
        if (full.empty() || full.head() != lg.operator_asn)
          full.prepend(lg.operator_asn);
        collected.push_back(mlp::pipeline::RawPath{
            std::move(full), prefixes.front(), path.communities,
            mlp::core::Source::ThirdPartyLg});
      }
    }
  }
  return collected;
}

}  // namespace

ReproduceOp run_reproduce(std::uint64_t seed, Tracer& tracer, bool traced,
                          Result& result) {
  Tracer off(false);
  Tracer& t = traced ? tracer : off;
  ReproduceOp op;
  ReproduceStages& st = op.stages;

  // Everything the report needs stays alive until the clock has stopped,
  // so the timed section ends at the finished report, not at teardown.
  std::set<AsLink> public_links;
  mlp::topology::InferredRelationships relationships;
  mlp::pipeline::PipelineResult run;
  std::vector<mlp::core::EngineStats> stats;
  std::size_t false_positives = 0, visible = 0, sum_links = 0;

  HeapWindow heap_window;
  const auto start = Clock::now();
  const std::uint64_t root = t.open();
  // Each stage's span covers its calls into the program and nothing of
  // the benchmark's own glue, so trace.coverage shows what is left out.
  auto stage = [&](const char* name, double& slot, Clock::time_point from) {
    const auto now = Clock::now();
    slot = seconds_between(from, now);
    t.add(root, name, from, now);
  };

  auto t0 = Clock::now();
  op.scenario = std::make_unique<Scenario>(reproduce_params(seed));
  Scenario& s = *op.scenario;
  stage("scenario.build", st.scenario_build, t0);
  op.trees_computed = s.routing().computed();

  t0 = Clock::now();
  {
    const auto paths = s.collector_paths();
    for (const auto& path : paths)
      for (const auto& link : path.links()) public_links.insert(link);
    relationships = mlp::topology::infer_relationships(paths);
  }
  stage("topology.relationships", st.relationships, t0);

  t0 = Clock::now();
  mlp::pipeline::PipelineConfig config;
  config.threads = kReproduceThreads;
  mlp::pipeline::InferencePipeline pipe(config);
  for (std::size_t i = 0; i < s.ixps().size(); ++i) {
    const auto& spec = s.ixps()[i].spec;
    pipe.add_ixp(s.ixp_context(i),
                 spec.lg_shows_communities ? s.rs_lg(i) : nullptr);
  }
  pipe.set_relationships(relationships.rel_fn());
  stage("pipeline.setup", st.pipeline_setup, t0);

  t0 = Clock::now();
  for (auto& collector : s.collectors())
    pipe.add_table_dump(collector.table_dump(1367366400));
  stage("mrt.table_dump", st.table_dump, t0);

  t0 = Clock::now();
  std::vector<mlp::pipeline::RawPath> third_party;
  for (std::size_t i = 0; i < s.ixps().size(); ++i) {
    const auto& spec = s.ixps()[i].spec;
    if (spec.has_rs_lg && spec.lg_shows_communities) continue;
    auto paths = third_party_paths(s, i, op.lg_queries);
    third_party.insert(third_party.end(),
                       std::make_move_iterator(paths.begin()),
                       std::make_move_iterator(paths.end()));
  }
  if (!third_party.empty()) pipe.add_paths(std::move(third_party));
  stage("lg.survey", st.lg_survey, t0);

  t0 = Clock::now();
  run = pipe.run();
  stage("pipeline.run", st.pipeline_run, t0);

  t0 = Clock::now();
  for (std::size_t i = 0; i < s.ixps().size(); ++i) {
    stats.push_back(run.engines[i].stats());
    sum_links += stats.back().links;
    for (const auto& link : run.per_ixp[i].links)
      if (!s.ixps()[i].rs_links.count(link)) ++false_positives;
  }
  for (const auto& link : run.all_links)
    if (public_links.count(link)) ++visible;
  stage("core.report", st.report, t0);

  const auto end = Clock::now();
  t.close(root, 0, "reproduce", start, end);
  op.wall_s = seconds_between(start, end);
  op.peak_heap_mb = heap_window.peak_mb();
  op.unique_links = run.all_links.size();

  op.false_positives = false_positives;

  // Output checks, on any seed: clean archives, a sane link union and no
  // more false positives against the ground truth than the paper's own
  // validation leaves.
  result.op(run.passive.records_malformed == 0,
            format("reproduce: %zu malformed archive records",
                   run.passive.records_malformed));
  result.op(op.unique_links > 0 && visible < op.unique_links &&
                op.unique_links <= sum_links,
            format("reproduce: %zu unique links, %zu visible, %zu summed",
                   op.unique_links, visible, sum_links));
  result.op(static_cast<double>(false_positives) <=
                kPaperFalsePositiveShare * static_cast<double>(sum_links),
            format("reproduce: %zu false positives of %zu inferred links",
                   false_positives, sum_links));
  if (seed == kDefaultSeed) {
    result.op(false_positives == 0,
              format("reproduce: %zu false positives on the default seed",
                     false_positives));
    bool same = s.ixps().size() == std::size(kDefaultSeedTable2);
    for (std::size_t i = 0; same && i < s.ixps().size(); ++i) {
      const auto& row = kDefaultSeedTable2[i];
      same = s.ixps()[i].spec.name == row.ixp && stats[i].links == row.links &&
             s.ixps()[i].rs_links.size() == row.truth;
      if (!same)
        std::fprintf(stderr, "reproduce: %s links %zu truth %zu\n",
                     s.ixps()[i].spec.name.c_str(), stats[i].links,
                     s.ixps()[i].rs_links.size());
    }
    result.op(same, "reproduce: per-IXP Links/Truth differ from Table 2");
    result.op(op.unique_links == kDefaultSeedUniqueLinks,
              format("reproduce: %zu unique links, want %zu", op.unique_links,
                     kDefaultSeedUniqueLinks));
  }
  return op;
}

}  // namespace perfbench
