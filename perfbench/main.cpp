// End-to-end benchmark of the three ways users get inferred MLP links:
// reproduce (Table 2 from ScenarioParams), follow (live MRT/BMP feeds
// into a LiveSession) and query (published epochs read beside ingest).
//
//   perfbench_main --workload reproduce|follow|query --seed N --seconds S
//                  --trace 0|1 [--trace-out FILE]
//
// Every run walks all three paths, so every run reports every end-to-end
// metric; the workload names the path that runs for the measured seconds
// (reproduce runs once elsewhere, query for kSideSeconds, and follow for
// the full seconds on every workload). The last line of stdout is
// the JSON result; the lines before it are the human-readable report.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

/// How long the query path runs when it is not the workload's own.
constexpr double kSideSeconds = 5.0;
/// Set-up repetitions of the live inputs; setup_s reports the median.
constexpr int kSetupReps = 3;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_main --workload "
               "reproduce|follow|query --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::atof(value);
    else if (arg == "--trace") o.trace = std::strcmp(value, "1") == 0;
    else if (arg == "--trace-out") o.trace_out = value;
    else usage(("unknown argument " + arg).c_str());
  }
  if (o.workload != "reproduce" && o.workload != "follow" &&
      o.workload != "query")
    usage("unknown workload");
  if (!(o.seconds > 0)) usage("--seconds S, with S > 0, is required");
  return o;
}

double pct_over(double traced, double untraced) {
  return untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
}

void run(const Options& o, Result& result) {
  Tracer tracer(o.trace);

  // Machine facts, and the busy threads each path uses: reproduce runs the
  // pipeline's pool; follow the generator plus the session's pool; query
  // the feeder, the pool, the reader, and the wire client and server
  // (which take turns on one connection).
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t threads_reproduce = kReproduceThreads;
  const std::size_t threads_follow = 1 + kFollowThreads;
  const std::size_t threads_query = 3 + kQueryThreads;
#ifdef NDEBUG
  const int ndebug = 1;
#else
  const int ndebug = 0;
#endif
  const std::size_t most = std::max(
      {threads_reproduce, threads_follow, threads_query});
  result.note(format("machine nproc=%ld compiler=\"%s\" ndebug=%d "
                     "threads reproduce=%zu follow=%zu query=%zu "
                     "connections=1%s",
                     nproc, __VERSION__, ndebug, threads_reproduce,
                     threads_follow, threads_query,
                     nproc < static_cast<long>(most)
                         ? " WARNING: nproc below the threads a path uses"
                         : ""));
  result.note(format("run workload=%s seed=%llu seconds=%g trace=%d",
                     o.workload.c_str(),
                     static_cast<unsigned long long>(o.seed), o.seconds,
                     o.trace ? 1 : 0));

  // --- reproduce: ScenarioParams -> report. The run's seed is the
  // scenario seed on the reproduce workload; elsewhere the reproduction
  // runs on the default seed, whose scenario the live paths use.
  const bool own_reproduce = o.workload == "reproduce";
  const std::uint64_t reproduce_seed = own_reproduce ? o.seed : kDefaultSeed;
  std::vector<double> repro_wall, repro_traced, repro_untraced, repro_heap,
      coverage;
  std::vector<ReproduceStages> stages;
  ReproduceOp last;
  const auto repro_start = Clock::now();
  for (std::size_t n = 0;; ++n) {
    last.scenario.reset();  // one scenario alive at a time
    const bool traced = o.trace && n % 2 == 1;
    last = run_reproduce(reproduce_seed, tracer, traced, result);
    repro_wall.push_back(last.wall_s);
    (traced ? repro_traced : repro_untraced).push_back(last.wall_s);
    repro_heap.push_back(last.peak_heap_mb);
    if (traced) coverage.push_back(last.stages.sum() / last.wall_s);
    stages.push_back(last.stages);
    const std::size_t min_ops = o.trace ? 2 : 1;
    if (n + 1 >= min_ops &&
        (!own_reproduce || seconds_since(repro_start) >= o.seconds))
      break;
  }

  // --- set-up of the live paths: the default-seed scenario (the one the
  // reproductions built, or a new one), the feeds (their order drawn from
  // the run's seed) and the reference session. The live paths keep one
  // scenario for every seed: across scenarios the cost per record differs
  // so much that their rates would spread far beyond any bound.
  std::vector<double> scenario_build;
  std::unique_ptr<mlp::scenario::Scenario> scenario;
  if (reproduce_seed == kDefaultSeed) {
    for (const auto& st : stages) scenario_build.push_back(st.scenario_build);
    scenario = std::move(last.scenario);
  } else {
    last.scenario.reset();
    const auto t0 = Clock::now();
    scenario = std::make_unique<mlp::scenario::Scenario>(
        reproduce_params(kDefaultSeed));
    scenario_build.push_back(seconds_since(t0));
  }
  std::vector<double> inputs_s;
  std::unique_ptr<FollowInputs> inputs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inputs.reset();
    const auto t0 = Clock::now();
    inputs = build_follow_inputs(*scenario, o.seed);
    inputs_s.push_back(seconds_since(t0));
  }
  scenario.reset();
  const double setup_s = median(scenario_build) + median(inputs_s);

  // --- follow, for the full seconds on every workload: its generator
  // blocks and wakes on every accepted chunk and snapshot, so host
  // contention moves it most, and a shorter window let its figures
  // spread further over runs.
  const bool own_follow = o.workload == "follow";
  FollowPhase follow =
      run_follow(*inputs, o.seconds, o.trace ? 2 : 1, tracer, result);

  // --- query.
  const bool own_query = o.workload == "query";
  QueryPhase query = run_query(*inputs, own_query ? o.seconds : kSideSeconds,
                               o.seed, tracer, result);

  const Tail snap_tail = tail(follow.snapshot_ms);
  const Tail single_tail = tail(query.single_us);
  const Tail batch_tail = tail(query.batch_us);

  result.note(format("reproduce ops=%zu wall_s median=%.4f peak_heap_MB "
                     "median=%.3f unique_links=%zu false_positives=%zu | "
                     "setup_s=%.4f (scenario %.4f + feeds/reference %.4f, "
                     "median of %d)",
                     repro_wall.size(), median(repro_wall), median(repro_heap),
                     last.unique_links, last.false_positives, setup_s,
                     median(scenario_build), median(inputs_s), kSetupReps));
  result.note(format("follow sessions=%zu records=%llu bytes=%zu+%zu "
                     "ingest_records_per_s=%.0f snapshots=%zu "
                     "snapshot_tail_ms=%.4f (p%g of %zu)",
                     follow.session_wall_s.size(),
                     static_cast<unsigned long long>(inputs->records),
                     inputs->wire[0].size(), inputs->wire[1].size(),
                     median(follow.ingest_rates), follow.snapshot_ms.size(),
                     snap_tail.value,
                     snap_tail.percentile,
                     snap_tail.samples));
  result.note(format("query window_s=%.3f wire_single_tail_us=%.3f "
                     "(p%g of %zu) wire_batch_tail=p%g of %zu",
                     query.window_s, single_tail.value, single_tail.percentile,
                     single_tail.samples, batch_tail.percentile,
                     batch_tail.samples));

  if (!o.trace) {
    result.metric("reproduce_s", median(repro_wall), "s");
    result.metric("setup_s", setup_s, "s");
    // The follow session's peak, and the reproduction's; the query
    // phase's is the per-layer pipeline.query_heap_MB.
    result.metric("peak_heap_MB", median(follow.peak_heap_mb), "MB");
    result.metric("reproduce_peak_heap_MB", median(repro_heap), "MB");
    result.metric("query_ingest_records_per_s", query.ingest_records_per_s,
                  "1/s");
    result.metric("snapshot_p50_ms", median(follow.snapshot_ms), "ms");
    result.metric("reads_per_s", query.reads_per_s, "1/s");
    result.metric("wire_rps", query.wire_rps, "1/s");
    result.metric("wire_single_p50_us", median(query.single_us), "us");
    result.metric("wire_single_tail_us", single_tail.value, "us");
    result.metric("wire_batch_p50_us", median(query.batch_us), "us");
    result.metric("wire_batch_tail_us", batch_tail.value, "us");
    return;
  }

  // --- traced run: per-layer numbers.
  const StageReplay replay = replay_stages(*inputs, result);
  auto stage_median = [&](double ReproduceStages::*field) {
    std::vector<double> v;
    for (const auto& s : stages) v.push_back(s.*field);
    return median(v);
  };
  const double trace_coverage = median(coverage);
  result.op(trace_coverage >= 0.9,
            format("trace: reproduce spans cover %.3f of the wall time",
                   trace_coverage));
  const double overhead_pct =
      own_reproduce ? pct_over(median(repro_traced), median(repro_untraced))
      : own_follow  ? pct_over(median(follow.traced_wall_s),
                               median(follow.untraced_wall_s))
                    : pct_over(query.reads_per_s_untraced_blocks,
                               query.reads_per_s_traced_blocks);

  using RS = ReproduceStages;
  const double session_ms = median(follow.session_wall_s) * 1e3;
  auto metric = [&](const char* name, double value, const char* unit) {
    result.metric(name, value, unit);
  };
  metric("scenario.build_s", stage_median(&RS::scenario_build), "s");
  metric("propagation.trees_computed",
         static_cast<double>(last.trees_computed), "count");
  metric("topology.relationships_s", stage_median(&RS::relationships), "s");
  metric("mrt.table_dump_s", stage_median(&RS::table_dump), "s");
  metric("lg.survey_s", stage_median(&RS::lg_survey), "s");
  metric("lg.queries", static_cast<double>(last.lg_queries), "count");
  metric("pipeline.setup_s", stage_median(&RS::pipeline_setup), "s");
  metric("pipeline.run_s", stage_median(&RS::pipeline_run), "s");
  metric("core.report_s", stage_median(&RS::report), "s");
  metric("core.false_positives", static_cast<double>(last.false_positives),
         "count");
  metric("trace.coverage", trace_coverage, "ratio");
  metric("stream.frame_ns_per_record", replay.frame_ns_per_record, "ns");
  metric("stream.bmp_ns_per_msg", replay.bmp_ns_per_msg, "ns");
  metric("stream.decode_ns_per_record", replay.decode_ns_per_record, "ns");
  metric("core.extract_ns_per_record", replay.extract_ns_per_record, "ns");
  metric("core.add_ns_per_obs", replay.add_ns_per_obs, "ns");
  metric("core.accepted_ratio", replay.accepted_ratio, "ratio");
  metric("core.freeze_us", replay.freeze_us, "us");
  metric("core.count_links_us", replay.count_links_us, "us");
  metric("core.infer_links_ms", replay.infer_links_ms, "ms");
  metric("pipeline.session_overhead_ms", session_ms - replay.stage_sum_ms,
         "ms");
  // The follow sessions' rate tracks the host's CPU steal too closely to
  // hold a bound (see README), so it is reported here and in the notes.
  metric("ingest_records_per_s", median(follow.ingest_rates), "1/s");
  metric("snapshot_tail_ms", snap_tail.value, "ms");
  metric("pipeline.queue_depth_max",
         static_cast<double>(follow.queue_depth_max), "count");
  metric("pipeline.epochs_published",
         static_cast<double>(follow.epochs_published), "count");
  metric("pipeline.epoch_load_ns", query.epoch_load_ns, "ns");
  metric("core.has_link_ns", query.has_link_ns, "ns");
  metric("core.links_of_ns", query.links_of_ns, "ns");
  metric("pipeline.epochs_per_s", query.epochs_per_s, "1/s");
  metric("pipeline.served_ratio", query.served_ratio, "ratio");
  metric("pipeline.query_heap_MB", query.peak_heap_mb, "MB");
  metric("trace.overhead_pct", overhead_pct, "%");

  result.note(format("trace e2e reproduce_s=%.4f (traced %.4f, untraced %.4f) "
                     "ingest_records_per_s=%.0f reads_per_s=%.0f "
                     "(traced blocks %.0f, plain blocks %.0f)",
                     median(repro_wall), median(repro_traced),
                     median(repro_untraced), median(follow.ingest_rates),
                     query.reads_per_s, query.reads_per_s_traced_blocks,
                     query.reads_per_s_untraced_blocks));
  result.note(format("trace follow session %.3f ms = replayed stages %.3f ms "
                     "+ session overhead %.3f ms",
                     session_ms, replay.stage_sum_ms,
                     session_ms - replay.stage_sum_ms));
  for (const auto& [name, t] : tracer.layer_times())
    result.note(format("layer %-24s total_ms=%10.3f self_ms=%10.3f count=%zu",
                       name.c_str(), t.total_s * 1e3, t.self_s * 1e3,
                       t.count));
  if (!o.trace_out.empty() && !tracer.write(o.trace_out))
    result.op(false, "trace: cannot write " + o.trace_out);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  perfbench::Result result;
  try {
    perfbench::run(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& line : result.notes()) std::printf("%s\n", line.c_str());
  std::printf("%s\n", result.json().c_str());
  return 0;
}
