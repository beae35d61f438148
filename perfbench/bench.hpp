// Shared plumbing of the end-to-end benchmark: run options, the result
// being assembled (metrics, operation counts, checks), latency samples,
// the span tracer and the counting allocator's read-out.
//
// The benchmark drives the program only through its public functions;
// nothing here reaches into a module's internals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bgp/aspath.hpp"
#include "core/types.hpp"
#include "pipeline/live_session.hpp"
#include "scenario/scenario.hpp"
#include "topology/relationship_inference.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using mlp::bgp::AsLink;
using mlp::bgp::Asn;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The seed the committed default-seed reference values belong to.
constexpr std::uint64_t kDefaultSeed = 20130501;

struct Options {
  std::string workload;  // reproduce | follow | query
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;  // required
  bool trace = false;
  std::string trace_out;  // file the spans are written to (trace runs)
};

/// The Table 2 experiment scale of the report binaries' default_params(),
/// with the given seed. Kept here rather than linked from the report code,
/// so the benchmark's input stays fixed when that code changes.
mlp::scenario::ScenarioParams reproduce_params(std::uint64_t seed);

// ---------------------------------------------------------------------------
// Counting allocator (support.cpp): live bytes and a resettable peak.

namespace heap {
/// Restart peak tracking at the current live level; returns that level.
std::int64_t reset_peak();
std::int64_t peak_bytes();
}  // namespace heap

/// Peak live heap above the level at construction, in MB.
class HeapWindow {
 public:
  HeapWindow() : base_(heap::reset_peak()) {}
  double peak_mb() const {
    return static_cast<double>(heap::peak_bytes() - base_) / (1024.0 * 1024.0);
  }

 private:
  std::int64_t base_;
};

// ---------------------------------------------------------------------------
// Thread placement. The live paths run one busy thread per CPU when the
// process may use four or more: a fixed placement keeps their latencies a
// property of the code path, not of where the scheduler happened to put
// the threads. With fewer CPUs nothing is pinned.

class Placement {
 public:
  Placement();  // the first four CPUs this process may use, if it has four
  std::vector<int> one(std::size_t k) const;  // CPU k alone
  std::vector<int> two(std::size_t k) const;  // CPUs k and k + 1
 private:
  std::vector<int> cpus_;
};

/// Restrict the calling thread to `cpus` (no-op when empty).
void restrict_to(const std::vector<int>& cpus);
/// Run `fn` restricted to `cpus`, so the threads it starts inherit them,
/// then restore the calling thread's CPUs.
void with_cpus(const std::vector<int>& cpus, const std::function<void()>& fn);

// ---------------------------------------------------------------------------
// Samples and their summaries.

double median(std::vector<double> values);

/// A tail is the highest percentile with at least ten samples beyond it.
/// Samples are taken in blocks of kTailBlock consecutive ones, so a tail is
/// p95 of each block (its top ten are beyond it), reported as the median
/// over the blocks; a single host stall then moves one block, not the
/// metric. With fewer than kTailBlock samples it is the highest of p90,
/// p85, ... that has ten samples beyond it over all of them.
constexpr std::size_t kTailBlock = 200;
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

// ---------------------------------------------------------------------------
// Spans. Recorded only in a traced run; kept in memory and written out
// when the run ends.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root
  std::string name;
  double start_s = 0.0;  // since the tracer was created
  double end_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }

  /// Reserve a span id (0 when tracing is off).
  std::uint64_t open();
  /// Record a finished span under a reserved id.
  void close(std::uint64_t id, std::uint64_t parent, const char* name,
             Clock::time_point start, Clock::time_point end);
  /// open() + close() for an interval measured already.
  std::uint64_t add(std::uint64_t parent, const char* name,
                    Clock::time_point start, Clock::time_point end);

  /// Per span name: total time, self time (minus the direct children's
  /// time) and count.
  struct LayerTime {
    double total_s = 0.0;
    double self_s = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, LayerTime> layer_times() const;

  /// Write every span as JSON lines; returns false when the file cannot
  /// be written.
  bool write(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The result of one run (filled from the main thread).

class Result {
 public:
  /// Count one operation; a failed one is also reported on stderr.
  void op(bool ok, const std::string& what);
  /// Count `n` operations of which `failed` failed.
  void ops(std::uint64_t n, std::uint64_t failed, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed before the JSON result.
  void note(const std::string& line);

  const std::vector<std::string>& notes() const { return notes_; }
  /// The last line of the run's output.
  std::string json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
};

std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// ---------------------------------------------------------------------------
// The paths. Each workload runs all three (so every run reports every
// end-to-end metric) and spends its measured seconds on its own path.

/// Per-stage times of one reproduction, in seconds.
struct ReproduceStages {
  double scenario_build = 0, relationships = 0, pipeline_setup = 0,
         table_dump = 0, lg_survey = 0, pipeline_run = 0, report = 0;
  double sum() const {
    return scenario_build + relationships + pipeline_setup + table_dump +
           lg_survey + pipeline_run + report;
  }
};

struct ReproduceOp {
  std::unique_ptr<mlp::scenario::Scenario> scenario;
  double wall_s = 0.0;
  double peak_heap_mb = 0.0;
  ReproduceStages stages;
  std::size_t trees_computed = 0;
  std::size_t lg_queries = 0;
  std::size_t unique_links = 0;
  std::size_t false_positives = 0;
};

/// Scenario -> relationships -> archives + LG survey -> InferencePipeline
/// -> report, with the output checks.
ReproduceOp run_reproduce(std::uint64_t seed, Tracer& tracer, bool traced,
                          Result& result);

/// What the live paths share, built in set-up from the default-seed
/// scenario: the two collector feeds (each collector's whole RIB, in an
/// order drawn from the run's seed) and the reference link sets.
struct FollowInputs {
  std::vector<mlp::core::IxpContext> contexts;
  std::unique_ptr<mlp::topology::InferredRelationships> relationships;
  mlp::core::PassiveConfig passive;
  std::vector<std::uint8_t> raw[2];   // BGP4MP streams, one per collector
  std::vector<std::uint8_t> wire[2];  // what is fed: raw MRT, then BMP
  std::uint64_t records = 0;          // update records over both feeds
  std::uint32_t span_s = 0;           // seconds the longer feed's clock covers
  std::vector<std::set<AsLink>> reference;  // per-IXP final links
};

std::unique_ptr<FollowInputs> build_follow_inputs(
    mlp::scenario::Scenario& scenario, std::uint64_t seed);

/// The live-session wiring both live paths share: the config (announce
/// window, Watermark merge) for a thread count, and the two feeds, raw
/// MRT then BMP.
mlp::pipeline::LiveConfig live_config(const FollowInputs& in,
                                      std::size_t threads);
struct Feeds {
  mlp::pipeline::FeedHandle handle[2];
};
Feeds add_feeds(mlp::pipeline::LiveSession& session);

/// One pass over both feeds, round-robin in kChunkBytes chunks, each fed as
/// soon as the last is accepted; `after(start)` runs after every feed()
/// call that began at `start`. Returns the number of feed() calls that
/// threw.
std::uint64_t feed_pass(const std::vector<std::uint8_t> (&bytes)[2],
                        Feeds& feeds,
                        const std::function<void(Clock::time_point)>& after);

/// Checks on a finished live session: nothing malformed or discarded.
void check_live_result(const char* path,
                       const mlp::pipeline::LiveResult& live, Result& result);

constexpr std::size_t kChunkBytes = 16 * 1024;
constexpr std::size_t kSnapshotEveryChunks = 16;
constexpr std::size_t kFollowThreads = 2;
constexpr std::size_t kQueryThreads = 1;
constexpr std::size_t kReproduceThreads = 4;

struct FollowPhase {
  std::vector<double> ingest_rates;    // records/s per session
  std::vector<double> snapshot_ms;     // every snapshot() call
  std::vector<double> session_wall_s;  // per session
  std::vector<double> traced_wall_s, untraced_wall_s;
  std::vector<double> peak_heap_mb;    // per session
  std::size_t queue_depth_max = 0;
  std::uint64_t epochs_published = 0;  // last session, summed over IXPs
};

/// Closed-loop follow sessions until `seconds` have passed (at least
/// `min_sessions`), after kWarmupSessions unmeasured ones. In a traced run
/// every other measured session records spans.
constexpr std::size_t kWarmupSessions = 2;
FollowPhase run_follow(const FollowInputs& inputs, double seconds,
                       std::size_t min_sessions, Tracer& tracer,
                       Result& result);

/// Per-layer replay of the follow bytes through each stage on its own.
struct StageReplay {
  double frame_ns_per_record = 0, bmp_ns_per_msg = 0,
         decode_ns_per_record = 0, extract_ns_per_record = 0,
         add_ns_per_obs = 0, accepted_ratio = 0, freeze_us = 0,
         count_links_us = 0, infer_links_ms = 0;
  /// The stages a follow session runs, summed over all its records.
  double stage_sum_ms = 0;
};
StageReplay replay_stages(const FollowInputs& inputs, Result& result);

struct QueryPhase {
  double window_s = 0.0;
  double ingest_records_per_s = 0.0;
  double reads_per_s = 0.0;
  double reads_per_s_untraced_blocks = 0.0;
  double reads_per_s_traced_blocks = 0.0;
  double wire_rps = 0.0;
  std::vector<double> single_us, batch_us;
  double peak_heap_mb = 0.0;  // the whole phase, backlog included
  double epoch_load_ns = 0, has_link_ns = 0, links_of_ns = 0;
  double epochs_per_s = 0.0;
  double served_ratio = 0.0;
};

/// A live session fed in a loop beside an in-process reader and one wire
/// client, for `seconds`; then finish() and the post-finish checks.
QueryPhase run_query(const FollowInputs& inputs, double seconds,
                     std::uint64_t seed, Tracer& tracer, Result& result);

}  // namespace perfbench
