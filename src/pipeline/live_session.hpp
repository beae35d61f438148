// Live update-stream inference session.
//
// The archive pipeline (InferencePipeline) consumes complete MRT files;
// a live deployment instead watches route-collector feeds and wants the
// multilateral link set to evolve as updates arrive. LiveSession is that
// front end, generalized to N concurrent feeds (one per collector):
//
//   feed 0 bytes          feed 1 bytes            ...   add_feed()
//        |                     |
//   [stream::BmpFramer]   [stream::BmpFramer]     (BMP transports only:
//        |                     |                   RFC 7854 unwrap +
//        |                     |                   PeerUp/PeerDown
//        |                     |                   session events)
//   stream::MrtFramer     stream::MrtFramer       -- complete record
//        |                     |                     spans, one partial
//   stream::UpdateDecoder stream::UpdateDecoder     record max
//        |                     |
//   PassiveExtractor      PassiveExtractor        -- per-feed announce-
//        |                     |                     window + stats +
//        +----------+----------+                     stream clock
//                   v
//   ShardSet (shard_set.hpp): per-IXP ObservationQueue, source index ==
//                   |        feed index
//                   v
//   MlpInferenceEngine::add on a thread pool (one pump per IXP)
//
// Multi-feed determinism: each feed is an independent ingest lane, so
// per-feed engine add-order equals that feed's stream order. Lanes merge
// under LiveConfig::merge (see observation_queue.hpp):
//
//   MergePolicy::Watermark (default) -- each lane publishes its
//   extractor's stream clock as a watermark after every chunk. The merged
//   engine order is the unique stable timestamp merge of the per-feed
//   observation sequences, independent of arrival interleaving, chunking
//   and thread count, and open-ended feeds merge continuously. A feed
//   that stalls holds the frontier back; LiveConfig::idle_feed_grace_ms
//   parks it, trading determinism for liveness -- leave it 0 for
//   reproducible runs.
//
//   MergePolicy::Concatenate -- strict add_feed order: a later feed's
//   observations buffer until every earlier feed closes.
//   InferencePipeline drains its archives through the same ShardSet
//   under this policy, so a session matches it over the same per-feed
//   archives by construction.
//
// BMP session state: a BMP lane surfaces RFC 7854 PeerUp/PeerDown
// messages as session boundaries -- the lane's extractor tears down the
// peer's standing announce-window entries (they settle through the usual
// age test) so routes of a dead session cannot linger as pending state.
// IPv6 peers flow end-to-end (AFI-2 synthesized records).
//
// Health supervision: each lane carries a FeedSupervisor (see
// feed_supervisor.hpp) judging error budgets -- malformed rate over a
// sliding window, consecutive dirty disconnects, a stall watchdog on the
// injected LiveConfig::clock. A lane quarantined or dead by those budgets
// publishes its queue close sentinels, so a persistently sick feed can
// never gate the Concatenate drain order or the Watermark frontier: the
// healthy feeds keep merging (graceful degradation). Quarantined lanes
// still ingest -- their observations are discarded -- and earn
// readmission by a probation run of clean records (Watermark only).
//
// Threading: feed() calls on ONE lane must be serialized, but different
// lanes may be driven from different threads concurrently (each reader
// thread owns one FeedHandle). snapshot()/finish() briefly lock every
// lane, so they are safe against concurrent feeding.
//
// snapshot() is cheap on purpose: it flushes partial batches, lets the
// pool settle, and reads each engine's link count off a freshly
// published epoch (a popcount over the reciprocity bitset) -- no
// link-set materialization.
//
// Epoch publishing decouples READERS from ingest entirely (see
// shard_set.hpp): epoch_snapshot() is ONE atomic load -- no feeds_mutex_,
// no lane mutex, no stop-the-world. An epoch trails the engine by at most
// one pump run's publish_every_batches batches, and is exactly current at
// any settled point (snapshot()/finish()/restore_state() republish).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine_snapshot.hpp"
#include "core/passive.hpp"
#include "pipeline/feed_supervisor.hpp"
#include "pipeline/observation_queue.hpp"
#include "pipeline/shard_set.hpp"
#include "stream/bmp_framer.hpp"
#include "stream/clock.hpp"
#include "stream/decoder.hpp"
#include "stream/framer.hpp"
#include "stream/source.hpp"
#include "util/annotations.hpp"

namespace mlp {
class ByteWriter;
class ByteReader;
}  // namespace mlp

namespace mlp::pipeline {

/// One feed's health transition, as delivered to
/// LiveConfig::on_health_change.
struct HealthChange {
  std::size_t feed = 0;
  std::string name;
  FeedHealth from = FeedHealth::Healthy;
  FeedHealth to = FeedHealth::Healthy;
  std::string reason;
};

/// Wire format of one feed.
enum class Transport : std::uint8_t {
  /// Raw concatenated MRT records (an archive replayed over a socket).
  RawMrt,
  /// BMP (RFC 7854): Route Monitoring unwrap plus PeerUp/PeerDown
  /// session tracking.
  Bmp,
};

struct LiveConfig {
  /// Inference pool workers; 0 means hardware concurrency.
  std::size_t threads = 1;
  /// Observations per emitted batch.
  std::size_t batch_size = 256;
  /// Transient filtering, announce-window bound, tolerate_malformed
  /// (applied per feed: each lane runs its own extractor).
  core::PassiveConfig passive;
  /// Forwarded to infer_links / count_links and baked into every
  /// published EngineSnapshot.
  bool assume_open_for_unobserved = false;
  /// Epoch publishing cadence: a pump freezes and publishes a fresh
  /// EngineSnapshot after draining this many batches since the last
  /// publish -- and always when a drain run settles -- which bounds how
  /// far lock-free readers can trail the engine mid-run. 0 publishes
  /// only at settled points (drain-idle, snapshot, finish, restore).
  std::size_t publish_every_batches = 16;
  /// Record-length cap for the framer.
  stream::MrtFramer::Config framing;
  /// Read-buffer size used by drain().
  std::size_t read_chunk = 65536;
  /// Cross-feed merge policy (see file comment).
  MergePolicy merge = MergePolicy::Watermark;
  /// Watermark policy only: a feed with no ingest for this many
  /// milliseconds of wall time stops constraining the merge frontier
  /// until it speaks again (checked on every feed()/snapshot()). 0
  /// disables the check -- fully deterministic, but one stalled feed
  /// freezes cross-feed draining at its last watermark.
  std::uint64_t idle_feed_grace_ms = 0;
  /// Per-feed health supervision budgets (see feed_supervisor.hpp).
  /// Under MergePolicy::Concatenate the session forces
  /// allow_readmission = false: later feeds may already have drained past
  /// a closed one, so quarantine escalates straight to Dead.
  SupervisorConfig supervision;
  /// Session time source: paces idle parking and the stall watchdog.
  /// Null means the process SystemClock; tests inject a VirtualClock to
  /// replay stall scenarios deterministically.
  std::shared_ptr<stream::Clock> clock;
  /// Invoked on every health transition, with the transitioning lane's
  /// mutex held: the callback must be fast and must not call back into
  /// the session (snapshot()/finish()/feed() would deadlock). May fire
  /// concurrently for distinct feeds.
  std::function<void(const HealthChange&)> on_health_change;
};

/// Per-feed transport/config of one add_feed call.
struct FeedOptions {
  /// Label used in stats and error messages; "feed<index>" by default.
  std::string name;
  /// Wire format delivered by this feed.
  Transport transport = Transport::RawMrt;
  /// Message-length cap for the BMP layer.
  stream::BmpFramer::Config bmp_framing;
};

/// Per-feed ingest and transport counters.
struct FeedStats {
  std::string name;
  std::uint64_t bytes_fed = 0;      // transport bytes (BMP bytes for BMP)
  std::uint64_t records = 0;        // complete update records framed
  std::size_t records_skipped = 0;  // non-update records stepped over
  std::uint64_t bmp_messages = 0;   // BMP feeds: complete messages framed
  std::uint64_t bmp_skipped = 0;    // BMP feeds: non-RM/non-UPDATE
  std::uint64_t bmp_peer_ups = 0;   // BMP feeds: PeerUp events applied
  std::uint64_t bmp_peer_downs = 0; // BMP feeds: PeerDown events applied
  std::uint64_t clean_disconnects = 0;   // note_disconnect at a boundary
  std::uint64_t dirty_disconnects = 0;   // note_disconnect mid-record
  std::uint64_t partial_records_dropped = 0;  // partials lost to resets
  /// The lane's stream clock / published merge watermark.
  std::uint32_t watermark = 0;
  /// This feed's observations queued but not yet merged into the
  /// engines, summed over IXPs -- its share of the merge backlog.
  std::size_t queue_depth = 0;
  bool idle = false;   // parked by idle_feed_grace_ms right now
  bool closed = false;
  core::PassiveStats passive;       // this feed's extraction counters
  // Health supervision (see feed_supervisor.hpp).
  FeedHealth health = FeedHealth::Healthy;
  std::uint64_t health_transitions = 0;  // total transitions fired
  std::uint64_t times_quarantined = 0;
  std::uint64_t bytes_discarded = 0;  // fed while Dead, dropped unread
  std::uint64_t observations_discarded = 0;  // emitted while not merging
  double malformed_rate = 0.0;        // current sliding-window rate
  std::size_t consecutive_dirty_disconnects = 0;
  std::size_t probation_clean_records = 0;
  std::vector<HealthTransition> transitions;  // first 64, in order
};

/// Aggregate counters shared by the mid-stream snapshot and the final
/// result (summed/merged over feeds).
struct SessionTotals {
  std::uint64_t bytes_fed = 0;
  std::uint64_t records = 0;
  std::size_t records_skipped = 0;
  /// The cross-feed merge frontier: minimum watermark over open,
  /// non-idle feeds. 0 when no feed has seen a timestamp yet;
  /// UINT32_MAX once every feed is closed (nothing constrains the
  /// merge). Meaningful under MergePolicy::Watermark.
  std::uint32_t min_watermark = 0;
  /// Observations sitting in the per-IXP queues, not yet merged into the
  /// engines (summed over feeds and IXPs): the merge backlog behind a
  /// lagging watermark / an earlier, still open Concatenate feed.
  std::size_t queue_depth = 0;
  core::PassiveStats passive;
  std::vector<FeedStats> per_feed;  // in add_feed order
  // Health rollup over feeds.
  std::size_t feeds_degraded = 0;
  std::size_t feeds_quarantined = 0;
  std::size_t feeds_dead = 0;
  std::uint64_t health_transitions = 0;
  std::uint64_t observations_discarded = 0;
};

/// Cheap point-in-time view of a running session.
struct LiveSnapshot : SessionTotals {
  /// count_links per IXP, in construction order.
  std::vector<std::size_t> links_per_ixp;
};

/// Final product, shaped like the archive pipeline's result.
struct LiveResult : SessionTotals {
  std::vector<IxpResult> per_ixp;
  std::set<AsLink> all_links;
};

class LiveSession;

/// Lightweight reference to one feed of a LiveSession (copyable; the
/// session must outlive it). One thread may drive one handle; distinct
/// handles may be driven concurrently. A default-constructed handle is
/// detached: every operation throws InvalidArgument.
class FeedHandle {
 public:
  FeedHandle() = default;

  /// Ingest one chunk of this feed's raw stream bytes (any chunking).
  /// Strict mode throws ParseError naming the feed and stream offset;
  /// with PassiveConfig::tolerate_malformed the record is skipped and
  /// counted in this feed's records_malformed.
  void feed(std::span<const std::uint8_t> chunk);

  /// Read `source` to end of stream, feeding every chunk; returns the
  /// number of bytes consumed.
  std::uint64_t drain(stream::StreamSource& source);

  /// Transport-level disconnect notification (a reconnect is about to
  /// resume the feed): drops the at-most-one partial record buffered in
  /// the framers and carries every counter over. Counted as a dirty
  /// disconnect when partial bytes were dropped, clean otherwise. Wire
  /// this as ReconnectingSource's on_reconnect callback.
  void note_disconnect();

  /// Unrecoverable transport failure (reconnect budget exhausted, a
  /// reader thread giving up): the feed goes straight to
  /// FeedHealth::Dead and its queue close sentinels publish so it can
  /// never gate the merge frontier. A lane that was still merging gets
  /// its announce-window flushed first (everything extracted while it
  /// merged was judged trustworthy at the time); a lane already
  /// quarantined does not -- its window is suspect. feed() afterwards
  /// discards silently. Idempotent.
  void fail(const std::string& reason);

  /// End of this feed's stream: flush its announce-window and partial
  /// batches, and close its source slot in every IXP queue so it stops
  /// constraining the merge (Watermark) / later feeds become drainable
  /// (Concatenate). feed() afterwards throws. Idempotent.
  void close();

  std::size_t index() const { return index_; }
  bool valid() const { return session_ != nullptr; }

 private:
  friend class LiveSession;
  FeedHandle(LiveSession* session, std::size_t index)
      : session_(session), index_(index) {}

  LiveSession* session_ = nullptr;
  std::size_t index_ = 0;
};

class LiveSession {
 public:
  /// `relationships` resolves setter case 3 (may be null). IXP order
  /// fixes the per_ixp / links_per_ixp index. Throws InvalidArgument when
  /// two IXPs share a name (name-addressed readers could not reach the
  /// second).
  LiveSession(LiveConfig config, std::vector<core::IxpContext> ixps,
              bgp::RelFn relationships = nullptr);

  LiveSession(const LiveSession&) = delete;
  LiveSession& operator=(const LiveSession&) = delete;

  /// Register one more concurrent feed. Feed index (= queue source
  /// index = cross-feed merge position) is the registration order.
  /// Callable any time before finish(), including mid-stream.
  FeedHandle add_feed(FeedOptions options = FeedOptions{})
      MLP_EXCLUDES(feeds_mutex_);

  /// Single-feed compatibility: feed()/drain() on the session operate on
  /// feed 0, creating it (raw MRT transport) on first use.
  void feed(std::span<const std::uint8_t> chunk)
      MLP_EXCLUDES(feeds_mutex_);
  std::uint64_t drain(stream::StreamSource& source)
      MLP_EXCLUDES(feeds_mutex_);

  /// Point-in-time stats + per-IXP link counts. Reflects every record
  /// fed so far (under Watermark: every observation below the merge
  /// frontier); callable while other threads keep feeding (they block
  /// on their lane for the duration of the flush). Publishes a fresh
  /// epoch per shard at the settled point, so the returned counts and
  /// concurrent epoch_snapshot() readers agree. For a query path that
  /// must not stop the world, read epoch_snapshot() instead.
  LiveSnapshot snapshot() MLP_EXCLUDES(feeds_mutex_);

  /// End of stream: close every remaining feed (announce-window flush,
  /// in feed order), drain the queues and infer the final link sets.
  /// Callable once; feed() afterwards throws.
  LiveResult finish() MLP_EXCLUDES(feeds_mutex_);

  std::size_t ixp_count() const { return shards_.size(); }
  std::size_t feed_count() MLP_EXCLUDES(feeds_mutex_);

  /// Reader API (ShardSet's readers, also reachable through shards()):
  /// never feeds_mutex_, never a lane mutex, never a pool settle. An
  /// epoch is never null (epoch 1 publishes in the constructor) and stays
  /// valid for as long as the caller holds it, even across
  /// restore_state() and session destruction. IXPs are addressed by
  /// construction-order index or by IxpContext::name; a bad index or
  /// unknown name throws InvalidArgument. epoch_snapshots() loads every
  /// IXP independently (not a cross-IXP consistent cut).
  std::shared_ptr<const core::EngineSnapshot> epoch_snapshot(
      std::size_t index) const {
    return shards_.epoch_snapshot(index);
  }
  std::shared_ptr<const core::EngineSnapshot> epoch_snapshot(
      const std::string& ixp) const {
    return shards_.epoch_snapshot(shards_.ixp_index(ixp));
  }
  std::size_t ixp_index(const std::string& ixp) const {
    return shards_.ixp_index(ixp);
  }
  std::vector<std::shared_ptr<const core::EngineSnapshot>> epoch_snapshots()
      const;
  const ShardSet& shards() const { return shards_; }

  /// Complete records framed so far, summed over feeds. Much cheaper
  /// than snapshot() (no batch flush, no pool settle): callers pace
  /// snapshot() off it.
  std::uint64_t records() MLP_EXCLUDES(feeds_mutex_);

  /// Checkpoint: serialize the full session -- every lane's framing
  /// position, extractor announce-window and supervisor judgement, every
  /// IXP's engine state and queued-but-undrained observations -- from the
  /// same stop-the-world point snapshot() uses (all lane mutexes, batch
  /// flush, pool settle). Returns the raw payload; file framing (CRC,
  /// atomic rename, generations) is pipeline/checkpoint.hpp's job, kept
  /// OUTSIDE the session locks. Callable while other threads keep
  /// feeding; throws InvalidArgument after finish().
  std::vector<std::uint8_t> serialize_state() MLP_EXCLUDES(feeds_mutex_);

  /// Checkpoint: load a serialize_state() payload into this session. The
  /// session must be freshly wired -- same IXPs, the same feeds re-added
  /// in the same order (names and transports are cross-checked), no
  /// bytes fed yet. Parses and validates the ENTIRE payload against
  /// scratch components before touching any real state, so a malformed
  /// payload (ParseError) or a mismatched session (InvalidArgument)
  /// leaves the session untouched -- never partially applied. After
  /// restore, re-dial each feed's transport and skip to its
  /// acknowledged_offsets() position: replaying the remaining bytes
  /// yields results byte-identical to the uninterrupted run.
  void restore_state(std::span<const std::uint8_t> payload)
      MLP_EXCLUDES(feeds_mutex_);

  /// Per-feed acknowledged transport offsets, in add_feed order: every
  /// byte before the offset has been framed into a complete record (or
  /// consumed by a finished resync scan) and is covered by a
  /// serialize_state() image taken now. The partial tail past it is NOT
  /// serialized -- a resumed source must re-deliver from this offset.
  std::vector<std::uint64_t> acknowledged_offsets()
      MLP_EXCLUDES(feeds_mutex_);

 private:
  friend class FeedHandle;

  /// One feed's independent ingest lane. All mutable state is guarded by
  /// `mutex` so distinct lanes can be driven from distinct threads while
  /// snapshot()/finish() can stop the world.
  struct Lane {
    /// A lane wired for feed `lane_index` under the session's config:
    /// name (defaulted to "feed<index>"), transport, framing limits,
    /// extractor and supervision budgets. No sink, no activity stamp.
    Lane(LiveSession* session, std::size_t lane_index,
         const FeedOptions& options);

    /// Back-pointer anchoring the lock-order annotation on `mutex`.
    LiveSession* const owner;
    /// Documented lock order (ROADMAP "Multi-feed live invariants"):
    /// feeds_mutex_ before any lane mutex, never the reverse.
    /// ACQUIRED_AFTER turns a reversed acquisition into a
    /// -Wthread-safety-beta build error.
    util::Mutex mutex MLP_ACQUIRED_AFTER(owner->feeds_mutex_);
    /// Set by the constructor, immutable afterwards.
    const std::string name;
    const std::size_t index;
    /// Engaged for BMP transports.
    std::optional<stream::BmpFramer> bmp MLP_GUARDED_BY(mutex);
    stream::MrtFramer framer MLP_GUARDED_BY(mutex);
    stream::UpdateDecoder decoder MLP_GUARDED_BY(mutex);
    core::PassiveExtractor extractor MLP_GUARDED_BY(mutex);
    /// Mirror of framer.records(), published after every feed so
    /// records() can pace snapshots without taking lane mutexes.
    std::atomic<std::uint64_t> records_framed{0};
    /// Idle tracking (lock-free: read by other feeds' sweep).
    std::atomic<std::uint64_t> last_activity_ms{0};
    std::atomic<bool> idle{false};
    /// Highest watermark pushed to the queues.
    std::uint32_t watermark_published MLP_GUARDED_BY(mutex) = 0;
    std::uint64_t clean_disconnects MLP_GUARDED_BY(mutex) = 0;
    std::uint64_t dirty_disconnects MLP_GUARDED_BY(mutex) = 0;
    std::uint64_t partial_records_dropped MLP_GUARDED_BY(mutex) = 0;
    bool closed MLP_GUARDED_BY(mutex) = false;
    /// Health supervision: the FeedSupervisor is pure bookkeeping with no
    /// locking of its own, so GUARDED_BY here is what enforces the
    /// "every FeedSupervisor call happens under the lane mutex" contract.
    FeedSupervisor supervisor MLP_GUARDED_BY(mutex);
    std::uint64_t bytes_discarded MLP_GUARDED_BY(mutex) = 0;
    std::uint64_t observations_discarded MLP_GUARDED_BY(mutex) = 0;
    /// Queue close sentinels published by supervision (Quarantined/Dead),
    /// distinct from the user-visible `closed`: a readmitted feed reopens
    /// its sources, a close()d one never does.
    bool queues_closed MLP_GUARDED_BY(mutex) = false;

    /// Checkpoint hooks: the lane's image is its name and transport (the
    /// wiring a restore cross-checks), then each component's own image
    /// and the lane's counters and flags. restore_state throws
    /// InvalidArgument when the image names a different feed and
    /// ParseError on malformed bytes.
    void serialize_state(ByteWriter& writer) const MLP_REQUIRES(mutex);
    void restore_state(ByteReader& reader) MLP_REQUIRES(mutex);
  };

  /// RAII over the dynamic all-lanes lock set used by the stop-the-world
  /// paths (snapshot/finish/serialize_state/restore_state), acquired in
  /// feed order while feeds_mutex_ is held. A variable-length lock set
  /// cannot be expressed to the thread-safety analysis, so construction
  /// and destruction are opaque to it (NO_THREAD_SAFETY_ANALYSIS on the
  /// definitions) and every user re-asserts per lane with
  /// Mutex::assert_held() before touching guarded state.
  class LaneLockSet {
   public:
    explicit LaneLockSet(const std::vector<std::unique_ptr<Lane>>& lanes)
        MLP_NO_THREAD_SAFETY_ANALYSIS;
    ~LaneLockSet() MLP_NO_THREAD_SAFETY_ANALYSIS;
    LaneLockSet(const LaneLockSet&) = delete;
    LaneLockSet& operator=(const LaneLockSet&) = delete;

   private:
    std::vector<Lane*> locked_;
  };

  Lane& lane(std::size_t index) MLP_EXCLUDES(feeds_mutex_);
  /// Ingest one chunk into the lane (framing, decode, extraction).
  void lane_feed(Lane& target, std::span<const std::uint8_t> chunk)
      MLP_REQUIRES(target.mutex);
  void drain_framer(Lane& target) MLP_REQUIRES(target.mutex);
  void close_locked(Lane& target) MLP_REQUIRES(target.mutex);
  /// Push the lane's stream clock to every shard queue as its merge
  /// watermark (Watermark policy only).
  void publish_watermark(Lane& target) MLP_REQUIRES(target.mutex);
  /// The wall-clock sweep over every lane's last-activity stamp: idle
  /// parking (Watermark + idle_feed_grace_ms) parks/readmits feeds by
  /// staleness; the stall watchdog (supervision.stall_timeout_ms)
  /// quarantines stalled ones, taking stale lanes' mutexes one at a time
  /// (never while a caller holds one). No lock when both are off.
  bool parks_idle() const {
    return config_.merge == MergePolicy::Watermark &&
           config_.idle_feed_grace_ms != 0;
  }
  bool watches_stalls() const {
    return config_.supervision.enabled &&
           config_.supervision.stall_timeout_ms != 0;
  }
  void sweep() MLP_EXCLUDES(feeds_mutex_);
  void sweep_locked() MLP_REQUIRES(feeds_mutex_);
  /// Feed the supervisor one record outcome and enact the verdict.
  void record_outcome(Lane& target, bool malformed)
      MLP_REQUIRES(target.mutex);
  /// Route the lane straight to Dead.
  void fail_locked(Lane& target, const std::string& reason)
      MLP_REQUIRES(target.mutex);
  /// Enact a supervisor verdict -- close the lane's queue sources on
  /// Quarantine/Die, reopen them on Readmit -- and fire on_health_change
  /// when the health level moved off `before`.
  void apply_supervision(Lane& target, FeedSupervisor::Action action,
                         FeedHealth before) MLP_REQUIRES(target.mutex);
  FeedStats lane_stats(Lane& target) const MLP_REQUIRES(target.mutex);
  /// The stop-the-world settle: flush every open lane's partial batches,
  /// publish its watermark, wait for the pool. Caller additionally holds
  /// every lane mutex (LaneLockSet).
  void settle_locked() MLP_REQUIRES(feeds_mutex_);
  /// Caller additionally holds every lane mutex (LaneLockSet).
  SessionTotals collect_totals_locked() MLP_REQUIRES(feeds_mutex_);
  /// Read one whole serialize_state() payload into `lanes` and `shards`
  /// -- the real parts, or scratch parts wired like them. Caller holds
  /// every lane's mutex. The parse is deterministic, so a pass over the
  /// real parts cannot throw once a scratch pass over the same payload
  /// succeeded: that two-pass split is what makes restore_state
  /// all-or-nothing.
  void read_image(ByteReader& reader,
                  const std::vector<std::unique_ptr<Lane>>& lanes,
                  ShardSet& shards) const;

  LiveConfig config_;
  std::shared_ptr<stream::Clock> clock_;  // config_.clock or SystemClock
  std::shared_ptr<const std::vector<core::IxpContext>> contexts_;
  bgp::RelFn relationships_;
  /// Guards feeds_ growth and finish(). Lock order: before any lane
  /// mutex (see Lane::mutex).
  util::Mutex feeds_mutex_;
  std::vector<std::unique_ptr<Lane>> feeds_ MLP_GUARDED_BY(feeds_mutex_);
  /// One shard per IXP (source index == feed index), with the pool that
  /// pumps them.
  ShardSet shards_;
  std::atomic<bool> finished_{false};
};

}  // namespace mlp::pipeline
