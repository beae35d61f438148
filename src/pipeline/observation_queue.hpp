// Ordered multi-producer batch queue feeding one MlpInferenceEngine.
//
// Observation order matters to the engine (a re-announcement replaces the
// per-prefix policy), so concurrent producers cannot simply interleave.
// Each producer owns a source index and one FIFO of observations; the
// consumer (a ShardSet pump) polls with try_pop. Both policies are the
// same stable k-way merge of the per-source FIFOs, differing only in the
// merge key of an observation and the bound an open source places on it:
//
//   policy       key of an observation   bound of an open source
//   Concatenate  its source index        source index + 1
//   Watermark    its timestamp           the published watermark
//
// An observation is drainable once its key is strictly below the minimum
// bound over open, non-idle sources (everything is, when no source
// constrains); drainable observations pop smallest (key, source index)
// first, per-source FIFO within a source. Under Concatenate the lowest
// open source streams, later sources wait, and closed sources drain in
// index order: results equal single-stream ingest of the per-source
// concatenation (the archive pipeline's merge). Under Watermark every
// producer publishes a monotone watermark (its extractor's stream clock)
// and never emits below it, so the drained sequence is the unique stable
// timestamp merge of the per-source sequences -- a pure function of
// per-source contents, for any arrival interleaving -- and open-ended
// sources merge continuously instead of buffering until close.
//
// Either way the inferred link set is byte-identical for any thread
// count while extraction overlaps inference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/types.hpp"
#include "util/annotations.hpp"

namespace mlp {
class ByteWriter;
class ByteReader;
}  // namespace mlp

namespace mlp::pipeline {

/// Cross-source drain policy of an ObservationQueue (and of the live
/// session built on top of it).
enum class MergePolicy {
  /// Strict source-index concatenation (the archive pipeline's merge).
  Concatenate,
  /// Deterministic k-way timestamp merge under per-source watermarks.
  Watermark,
};

class ObservationQueue {
 public:
  /// `n_sources` producers, indexed [0, n_sources). May be 0 when every
  /// producer registers later through add_source (the live multi-feed
  /// path).
  explicit ObservationQueue(std::size_t n_sources,
                            MergePolicy policy = MergePolicy::Concatenate);

  /// Register one more producer; its source index is the registration
  /// order. Safe while the consumer polls with try_pop/has_ready -- the
  /// new source simply extends the merge.
  void add_source();

  /// Append one batch to `source`'s FIFO. Under Watermark, observation
  /// timestamps must be non-decreasing per source (the extractor clock
  /// guarantees it).
  void push(std::size_t source, std::vector<core::Observation> batch);

  /// Watermark policy: publish `source`'s monotone watermark -- a
  /// promise that every future push from it carries timestamps >= the
  /// watermark. Raising it can make other sources' observations
  /// drainable. Ignored under Concatenate.
  void set_watermark(std::size_t source, std::uint32_t watermark);

  /// Watermark policy: exclude/readmit `source` from the minimum-
  /// watermark computation (a stalled feed must not freeze the merge).
  /// An idle source's queued observations still drain in timestamp
  /// order. Ignored under Concatenate.
  void set_idle(std::size_t source, bool idle);

  /// Mark `source` finished; it stops constraining the merge and its
  /// remaining observations become drainable.
  void close(std::size_t source);

  /// Watermark policy: undo a close() -- the source constrains the merge
  /// again and may push again (a quarantined feed readmitted after
  /// probation). Its watermark survives the round trip, so the monotone
  /// promise to the merge is unbroken. Throws InvalidArgument under
  /// Concatenate: later sources may already have drained, and a position
  /// in a concatenation cannot be re-occupied.
  void reopen(std::size_t source);

  /// Pop every drainable observation, in merge order: false when nothing
  /// is drainable right now, whether or not more input may still arrive.
  /// Never blocks: the producer that makes an observation drainable
  /// schedules the consumer again.
  [[nodiscard]] bool try_pop(std::vector<core::Observation>& out);

  /// True when try_pop would return observations.
  [[nodiscard]] bool has_ready();

  /// The current merge frontier: minimum watermark over open, non-idle
  /// sources, UINT32_MAX when nothing constrains the drain (every source
  /// closed/idle, or Concatenate policy). Everything strictly below it
  /// has been handed to the consumer or is about to be; the observability
  /// hook the query server pairs with an epoch's backlog gauge.
  std::uint32_t min_watermark();

  /// Observations queued but not yet drained, summed over sources. The
  /// merge-backlog gauge: what sits at or above the frontier waiting for
  /// a lagging (Watermark) or earlier, still open (Concatenate) source.
  std::size_t depth();
  /// One producer's share of depth().
  std::size_t depth(std::size_t source);

  /// Checkpoint hook: persist every source's queued-but-undrained
  /// observations, watermark and idle/closed flags. The drained prefix
  /// lives in the engine; this is exactly the remainder above the merge
  /// frontier.
  void serialize_state(ByteWriter& writer);

  /// Checkpoint hook: replace the per-source state with a serialized
  /// image. The image's source count must equal the queue's current
  /// source count (the session re-registers its feeds before restoring);
  /// parses and validates the whole image before committing, so a
  /// ParseError leaves the queue untouched.
  void restore_state(ByteReader& reader);

 private:
  struct Source {
    std::deque<core::Observation> pending;  // pushed, not yet drained
    std::uint32_t watermark = 0;
    bool idle = false;
    bool closed = false;
  };

  /// sources_[source]; InvalidArgument for a bad index.
  Source& checked_locked(std::size_t source) MLP_REQUIRES(mutex_);
  /// Minimum bound over open, non-idle sources; UINT32_MAX sentinel
  /// (drain everything) when no source constrains.
  std::uint32_t frontier_locked() const MLP_REQUIRES(mutex_);
  /// (key, source index) of `source`'s front observation, packed so that
  /// integer order is merge order.
  std::uint64_t rank_locked(std::size_t source) const MLP_REQUIRES(mutex_);

  util::Mutex mutex_;
  const MergePolicy policy_;  // immutable after construction: lock-free
  std::vector<Source> sources_ MLP_GUARDED_BY(mutex_);
};

}  // namespace mlp::pipeline
