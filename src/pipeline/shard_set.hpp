// Per-IXP inference shards: the one drain core of both front ends.
//
// Per IXP the paper's chain (observations -> per-RS policy intersection
// -> reciprocity) is one shard: an ObservationQueue with one source per
// producer, drained by at most one pump task at a time into an
// MlpInferenceEngine, which publishes immutable EngineSnapshot epochs.
// InferencePipeline registers one source per archive and closes it at end
// of input under Concatenate; LiveSession registers one source per feed.
// Both drain through the same pump, so an archive run and a Concatenate
// session over the same per-source bytes are the same merge by
// construction, and results() reads every IxpResult off the final epoch,
// so the result and the query path cannot disagree either.
//
// Engine ownership: a shard's engine and its publish bookkeeping are
// touched only by the shard's pump inside its ownership window, or by a
// caller in a settled world -- wait_idle() returned and no producer can
// push. Readers never touch an engine: they load the published epoch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/engine_snapshot.hpp"
#include "core/types.hpp"
#include "pipeline/observation_queue.hpp"
#include "util/thread_pool.hpp"

namespace mlp::pipeline {

using bgp::AsLink;

/// Per-IXP outcome, in IXP order.
struct IxpResult {
  std::string name;
  core::EngineStats stats;
  std::set<AsLink> links;
  /// Members with at least one accepted observation, sorted.
  core::FlatAsnSet observed_members;
  std::size_t active_queries = 0;
  std::size_t rejected_observations = 0;
};

/// Union the per-IXP link sets through one sort+unique pass plus hinted
/// tail inserts (cheaper than set-inserting every element).
std::set<AsLink> merge_links(const std::vector<IxpResult>& per_ixp);

class ShardSet {
 public:
  struct Shard {
    Shard(core::IxpContext context, MergePolicy policy)
        : queue(0, policy), engine(std::move(context)) {}
    ObservationQueue queue;
    core::MlpInferenceEngine engine;
    /// Owner flag of the pump task (the engine is not thread-safe).
    std::atomic<bool> pump_scheduled{false};
    /// The published epoch: deliberately unguarded. Immutability of the
    /// pointee plus the atomic shared_ptr swap IS the synchronization,
    /// which keeps the query path off every ingest lock.
    std::atomic<std::shared_ptr<const core::EngineSnapshot>> published;
    /// Monotone publication counter; checkpoints carry it so a resumed
    /// session's epochs keep ascending.
    std::atomic<std::uint64_t> epochs_published{0};
    /// Confined to the engine owner like the engine: the generation the
    /// current epoch describes, and batches drained since it.
    std::uint64_t last_published_generation = 0;
    std::size_t batches_since_publish = 0;
  };

  /// One shard per context, in order, with no source yet; publishes epoch
  /// 1 per shard so readers never see a null snapshot. A pump republishes
  /// every `publish_every_batches` drained batches (0: only when its drain
  /// run settles), frozen under `assume_open_for_unobserved`. Throws
  /// InvalidArgument when two contexts share a name: a name-addressed
  /// reader could not reach the second.
  ShardSet(std::shared_ptr<const std::vector<core::IxpContext>> contexts,
           MergePolicy policy, std::size_t threads,
           std::size_t publish_every_batches,
           bool assume_open_for_unobserved);
  // Pump tasks hold `this`.
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  std::size_t size() const { return shards_.size(); }
  /// Shard `ixp`, for the engine owner (so non-const: a const ShardSet&
  /// is a reader's view).
  const std::unique_ptr<Shard>& operator[](std::size_t ixp) {
    return shards_[ixp];
  }
  auto begin() { return shards_.begin(); }
  auto end() { return shards_.end(); }

  /// Producer side: one queue operation on `source` in the named shard
  /// (push) or in every shard (the rest), and a pump scheduled to notice
  /// it. A producer may only ever name its OWN source index.
  /// Register one more source in every shard (the next source index).
  void add_source();
  void push(std::size_t source, std::size_t ixp,
            std::vector<core::Observation> batch);
  void set_watermark(std::size_t source, std::uint32_t watermark);
  void set_idle(std::size_t source, bool idle);
  void close(std::size_t source);
  void reopen(std::size_t source);
  /// Schedule every pump (a restore refilled the queues).
  void schedule_all();
  /// `source`'s undrained observations over all shards.
  std::size_t depth(std::size_t source) const;

  /// The shard pool: producers of the archive front end run here too.
  void submit(std::function<void()> task) { pool_.submit(std::move(task)); }
  /// Wait for every pump and task; rethrows the first exception leaked.
  void wait_idle() { pool_.wait_idle(); }

  /// Freeze shard `ixp`'s engine into a new epoch unless its generation
  /// is already published. Caller must own the engine.
  void publish_epoch(std::size_t ixp);
  /// A post-drain step on one settled shard: its index, engine and result
  /// slot (the archive front end's LG survey).
  using PostDrain =
      std::function<void(std::size_t, core::MlpInferenceEngine&, IxpResult&)>;
  /// The result step, on a settled set, one pool task per shard: run
  /// `post_drain` (if set), publish the epoch and read the IxpResult's
  /// links, stats, observed members and rejects off it.
  std::vector<IxpResult> results(const PostDrain& post_drain = nullptr);

  /// Readers: one atomic acquire-load per epoch; the frontier and backlog
  /// take only the shard queue's own mutex. A bad index or unknown name
  /// throws InvalidArgument.
  std::shared_ptr<const core::EngineSnapshot> epoch_snapshot(
      std::size_t ixp) const;
  std::size_t ixp_index(const std::string& ixp) const;
  std::uint32_t merge_frontier(std::size_t ixp) const;
  std::size_t merge_backlog(std::size_t ixp) const;

 private:
  /// Drain shard `ixp`'s queue into its engine, rearm-safe.
  void pump(std::size_t ixp);
  void schedule_pump(std::size_t ixp);
  /// Apply `op` to every shard's queue and schedule each pump.
  void each_queue(const std::function<void(ObservationQueue&)>& op);
  Shard& checked(std::size_t ixp) const;

  std::shared_ptr<const std::vector<core::IxpContext>> contexts_;
  const std::size_t publish_every_batches_;
  const bool assume_open_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Declared after shards_ so its destructor (which joins the workers)
  // runs first: no pump can outlive the shards it drains.
  util::ThreadPool pool_;
};

}  // namespace mlp::pipeline
