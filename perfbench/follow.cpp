// The follow path: the scenario's two collectors replayed as live feeds
// (one raw MRT, one BMP) into a LiveSession, plus the per-layer replay of
// the same bytes through each stage on its own.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <random>

#include "bench.hpp"
#include "core/engine.hpp"
#include "core/engine_snapshot.hpp"
#include "mrt/table_dump.hpp"
#include "stream/bmp_framer.hpp"
#include "stream/decoder.hpp"
#include "stream/framer.hpp"

namespace perfbench {

namespace {

using mlp::pipeline::FeedHandle;
using mlp::pipeline::FeedOptions;
using mlp::pipeline::LiveConfig;
using mlp::pipeline::LiveResult;
using mlp::pipeline::LiveSession;
using mlp::pipeline::Transport;

constexpr std::uint32_t kStreamStart = 1367366400;  // 2013-05-01

/// A collector's whole RIB as a BGP4MP stream on its own clock: the
/// table's entries in a seeded random order, one record per second, every
/// 10th announcement withdrawn again a second later (the announce-window
/// filter drops it as transient). `span_s` receives the seconds the
/// stream's clock covers.
std::vector<std::uint8_t> update_stream(
    const mlp::propagation::Collector& collector, std::uint32_t collector_ip,
    std::uint64_t seed, std::uint32_t& span_s) {
  const auto& rib = collector.rib();
  std::vector<const mlp::bgp::RibEntry*> entries;
  std::vector<mlp::bgp::IpPrefix> prefixes;
  for (const auto& prefix : rib.prefixes())
    for (const auto& entry : rib.paths(prefix)) {
      entries.push_back(&entry);
      prefixes.push_back(prefix);
    }
  if (entries.empty())
    throw std::runtime_error("collector " + collector.name() + " is empty");
  std::vector<std::size_t> order(entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<mlp::mrt::ObservedUpdate> updates;
  updates.reserve(order.size() + order.size() / 10);
  std::uint32_t clock = kStreamStart;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    mlp::mrt::ObservedUpdate u;
    u.timestamp = clock++;
    u.peer_asn = entries[i]->peer_asn;
    u.peer_ip = entries[i]->peer_ip;
    u.update.nlri = {prefixes[i]};
    u.update.attrs = entries[i]->route.attrs;
    updates.push_back(std::move(u));
    if ((k + 1) % 10 != 0) continue;
    mlp::mrt::ObservedUpdate w;
    w.timestamp = clock++;
    w.peer_asn = entries[i]->peer_asn;
    w.peer_ip = entries[i]->peer_ip;
    w.update.withdrawn = {prefixes[i]};
    updates.push_back(std::move(w));
  }
  span_s = clock - kStreamStart;
  return mlp::mrt::dump_updates(updates, collector.asn(), collector_ip);
}

bool same_links(const LiveResult& live, const FollowInputs& in) {
  if (live.per_ixp.size() != in.reference.size()) return false;
  for (std::size_t i = 0; i < live.per_ixp.size(); ++i)
    if (live.per_ixp[i].links != in.reference[i]) return false;
  return true;
}

/// Byte ranges of the MRT records in a stream (common header: 4-byte
/// timestamp, 2-byte type, 2-byte subtype, 4-byte body length).
std::vector<std::pair<std::size_t, std::size_t>> record_ranges(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t at = 0;
  while (at + 12 <= bytes.size()) {
    const std::size_t len = std::size_t{bytes[at + 8]} << 24 |
                            std::size_t{bytes[at + 9]} << 16 |
                            std::size_t{bytes[at + 10]} << 8 |
                            std::size_t{bytes[at + 11]};
    if (at + 12 + len > bytes.size()) break;
    out.emplace_back(at, 12 + len);
    at += 12 + len;
  }
  return out;
}

double ns_per(double seconds, std::uint64_t n) {
  return n == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(n);
}

}  // namespace

LiveConfig live_config(const FollowInputs& in, std::size_t threads) {
  LiveConfig config;
  config.threads = threads;
  config.passive = in.passive;
  return config;  // merge: the default Watermark policy
}

Feeds add_feeds(LiveSession& session) {
  Feeds feeds;
  feeds.handle[0] = session.add_feed(FeedOptions{"collector-0-mrt",
                                                 Transport::RawMrt, {}});
  feeds.handle[1] =
      session.add_feed(FeedOptions{"collector-1-bmp", Transport::Bmp, {}});
  return feeds;
}

std::uint64_t feed_pass(const std::vector<std::uint8_t> (&bytes)[2],
                        Feeds& feeds,
                        const std::function<void(Clock::time_point)>& after) {
  std::uint64_t thrown = 0;
  std::size_t offset[2] = {0, 0};
  while (offset[0] < bytes[0].size() || offset[1] < bytes[1].size()) {
    for (std::size_t f = 0; f < 2; ++f) {
      if (offset[f] >= bytes[f].size()) continue;
      const std::size_t n = std::min(kChunkBytes, bytes[f].size() - offset[f]);
      const auto start = Clock::now();
      try {
        feeds.handle[f].feed(
            std::span<const std::uint8_t>(bytes[f].data() + offset[f], n));
      } catch (const std::exception& e) {
        if (thrown++ == 0) std::fprintf(stderr, "feed: %s\n", e.what());
      }
      offset[f] += n;
      after(start);
    }
  }
  return thrown;
}

void check_live_result(const char* path, const LiveResult& live,
                       Result& result) {
  result.op(live.passive.records_malformed == 0,
            format("%s: %zu malformed records", path,
                   live.passive.records_malformed));
  result.op(live.observations_discarded == 0,
            format("%s: %llu observations discarded", path,
                   static_cast<unsigned long long>(
                       live.observations_discarded)));
}

std::unique_ptr<FollowInputs> build_follow_inputs(
    mlp::scenario::Scenario& s, std::uint64_t seed) {
  auto in = std::make_unique<FollowInputs>();
  in->contexts = s.ixp_contexts();
  in->relationships = std::make_unique<mlp::topology::InferredRelationships>(
      mlp::topology::infer_relationships(s.collector_paths()));
  in->passive.min_duration_s = 300;
  in->passive.max_pending_announcements = 4096;
  const auto& collectors = s.collectors();
  if (collectors.size() < 2)
    throw std::runtime_error("scenario has fewer than two collectors");
  for (std::size_t f = 0; f < 2; ++f) {
    std::uint32_t span_s = 0;
    in->raw[f] = update_stream(collectors[f],
                               0x0A0A0A00u + static_cast<std::uint32_t>(f),
                               seed * 2 + f, span_s);
    in->records += span_s;  // one record per second
    in->span_s = std::max(in->span_s, span_s);
  }
  in->wire[0] = in->raw[0];
  in->wire[1] = mlp::stream::bmp_wrap_updates(in->raw[1]);

  // Reference link sets: the same feeds through a session with another
  // thread count, each feed handed over in one piece.
  LiveSession session(live_config(*in, kFollowThreads + 1), in->contexts,
                      in->relationships->rel_fn());
  Feeds feeds = add_feeds(session);
  for (std::size_t f = 0; f < 2; ++f) feeds.handle[f].feed(in->wire[f]);
  LiveResult reference = session.finish();
  for (auto& slot : reference.per_ixp)
    in->reference.push_back(std::move(slot.links));
  return in;
}

namespace {

FollowPhase follow_sessions(const FollowInputs& in, double seconds,
                            std::size_t min_sessions, const Placement& cpus,
                            Tracer& tracer, Result& result) {
  FollowPhase out;
  Tracer off(false);
  auto phase_start = Clock::now();
  for (std::size_t n = 0;; ++n) {
    // The first sessions warm caches and the allocator; they are checked
    // but not measured.
    const bool warmup = n < kWarmupSessions;
    const std::size_t measured = warmup ? 0 : n - kWarmupSessions;
    if (n == kWarmupSessions) phase_start = Clock::now();
    if (!warmup && measured >= min_sessions &&
        seconds_since(phase_start) >= seconds)
      break;
    // A traced run alternates traced and untraced sessions, so the
    // tracing overhead is measured within the run.
    const bool traced = tracer.on() && !warmup && measured % 2 == 1;
    Tracer& t = traced ? tracer : off;

    HeapWindow heap_window;
    std::unique_ptr<LiveSession> owned_session;
    with_cpus(cpus.two(1), [&] {
      owned_session = std::make_unique<LiveSession>(
          live_config(in, kFollowThreads), in.contexts,
          in.relationships->rel_fn());
    });
    LiveSession& session = *owned_session;
    Feeds feeds = add_feeds(session);
    std::size_t chunks = 0;
    std::vector<double> snapshot_ms;
    std::size_t queue_depth_max = 0;

    const auto start = Clock::now();
    const std::uint64_t root = t.open();
    const std::uint64_t thrown =
        feed_pass(in.wire, feeds, [&](Clock::time_point fed_at) {
          t.add(root, "pipeline.feed", fed_at, Clock::now());
          if (++chunks % kSnapshotEveryChunks != 0) return;
          const auto s0 = Clock::now();
          const auto snap = session.snapshot();
          const auto s1 = Clock::now();
          t.add(root, "pipeline.snapshot", s0, s1);
          snapshot_ms.push_back(seconds_between(s0, s1) * 1e3);
          queue_depth_max = std::max(queue_depth_max, snap.queue_depth);
        });
    const auto f0 = Clock::now();
    LiveResult live = session.finish();
    const auto end = Clock::now();
    t.add(root, "pipeline.finish", f0, end);
    t.close(root, 0, "follow.session", start, end);

    result.ops(chunks, thrown, "follow: feed() threw");
    result.ops(snapshot_ms.size(), 0, "follow: snapshot");
    result.op(live.records == in.records,
              format("follow: %llu records framed, %llu generated",
                     static_cast<unsigned long long>(live.records),
                     static_cast<unsigned long long>(in.records)));
    check_live_result("follow", live, result);
    result.op(same_links(live, in),
              "follow: final link sets differ from the reference session");
    if (warmup) continue;

    const double wall = seconds_between(start, end);
    out.session_wall_s.push_back(wall);
    (traced ? out.traced_wall_s : out.untraced_wall_s).push_back(wall);
    out.ingest_rates.push_back(static_cast<double>(live.records) / wall);
    out.peak_heap_mb.push_back(heap_window.peak_mb());
    out.snapshot_ms.insert(out.snapshot_ms.end(), snapshot_ms.begin(),
                           snapshot_ms.end());
    out.queue_depth_max = std::max(out.queue_depth_max, queue_depth_max);
    out.epochs_published = 0;
    for (std::size_t i = 0; i < session.ixp_count(); ++i)
      out.epochs_published += session.epoch_snapshot(i)->epoch();
  }
  return out;
}

}  // namespace

FollowPhase run_follow(const FollowInputs& in, double seconds,
                       std::size_t min_sessions, Tracer& tracer,
                       Result& result) {
  // The generator (this thread) on one CPU, the session's pool of two on
  // two others.
  const Placement cpus;
  FollowPhase out;
  with_cpus(cpus.one(0), [&] {
    out = follow_sessions(in, seconds, min_sessions, cpus, tracer, result);
  });
  return out;
}

StageReplay replay_stages(const FollowInputs& in, Result& result) {
  constexpr int kReps = 3;
  std::vector<double> frame, bmp, decode, extract, add, accepted, freeze,
      count, infer, sum;
  for (int rep = 0; rep < kReps; ++rep) {
    // MrtFramer over both feeds' BGP4MP bytes, in the session's chunks.
    std::uint64_t records = 0;
    auto t0 = Clock::now();
    for (const auto& bytes : in.raw) {
      mlp::stream::MrtFramer framer;
      for (std::size_t at = 0; at < bytes.size(); at += kChunkBytes) {
        framer.feed(std::span<const std::uint8_t>(
            bytes.data() + at, std::min(kChunkBytes, bytes.size() - at)));
        while (framer.next()) ++records;
      }
    }
    const double frame_s = seconds_since(t0);

    // BmpFramer over the BMP feed.
    std::uint64_t messages = 0;
    t0 = Clock::now();
    {
      mlp::stream::BmpFramer framer;
      const auto& bytes = in.wire[1];
      for (std::size_t at = 0; at < bytes.size(); at += kChunkBytes) {
        framer.feed(std::span<const std::uint8_t>(
            bytes.data() + at, std::min(kChunkBytes, bytes.size() - at)));
        while (framer.next()) ++messages;
      }
    }
    const double bmp_s = seconds_since(t0);

    // UpdateDecoder over every record.
    std::uint64_t decoded = 0;
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> ranges;
    for (const auto& bytes : in.raw) ranges.push_back(record_ranges(bytes));
    t0 = Clock::now();
    for (std::size_t f = 0; f < 2; ++f) {
      mlp::stream::UpdateDecoder decoder;
      for (const auto& [at, len] : ranges[f])
        if (decoder.decode(std::span<const std::uint8_t>(
                in.raw[f].data() + at, len)))
          ++decoded;
    }
    const double decode_s = seconds_since(t0);

    // PassiveExtractor::consume_update over the decoded updates, per feed.
    std::vector<std::vector<mlp::core::Observation>> observations(
        in.contexts.size());
    double extract_s = 0.0;
    std::uint64_t extracted_records = 0;
    for (const auto& bytes : in.raw) {
      const auto updates = mlp::mrt::parse_updates(bytes);
      mlp::core::PassiveExtractor extractor(
          in.contexts, in.relationships->rel_fn(), in.passive);
      extractor.set_sink([&](std::size_t ixp,
                             std::vector<mlp::core::Observation>&& batch) {
        auto& slot = observations[ixp];
        slot.insert(slot.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
      });
      t0 = Clock::now();
      for (const auto& u : updates)
        extractor.consume_update(u.timestamp, u.peer_asn, u.update);
      extractor.finish();
      extract_s += seconds_since(t0);
      extracted_records += updates.size();
    }

    // MlpInferenceEngine::add, then freeze / count_links / infer_links.
    std::vector<mlp::core::MlpInferenceEngine> engines;
    for (const auto& ctx : in.contexts) engines.emplace_back(ctx);
    std::uint64_t obs = 0, rejected = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < engines.size(); ++i)
      for (const auto& o : observations[i]) engines[i].add(o);
    const double add_s = seconds_since(t0);
    for (std::size_t i = 0; i < engines.size(); ++i) {
      obs += observations[i].size();
      rejected += engines[i].rejected_observations();
    }
    double count_s = 0, freeze_s = 0, infer_s = 0;
    std::size_t links = 0;
    for (auto& engine : engines) {
      t0 = Clock::now();
      links += engine.count_links();
      count_s += seconds_since(t0);
      t0 = Clock::now();
      const auto snap = engine.freeze(false, 1);
      freeze_s += seconds_since(t0);
      t0 = Clock::now();
      const auto set = engine.infer_links();
      infer_s += seconds_since(t0);
      links -= set.size();  // must cancel the count_links() total
    }
    const double n_ixps =
        static_cast<double>(std::max<std::size_t>(1, engines.size()));

    result.op(records == in.records && decoded == in.records &&
                  extracted_records == in.records,
              format("replay: %llu framed, %llu decoded, %llu extracted, "
                     "%llu generated",
                     static_cast<unsigned long long>(records),
                     static_cast<unsigned long long>(decoded),
                     static_cast<unsigned long long>(extracted_records),
                     static_cast<unsigned long long>(in.records)));
    result.op(links == 0, "replay: count_links() and infer_links() disagree");

    frame.push_back(ns_per(frame_s, records));
    bmp.push_back(ns_per(bmp_s, messages));
    decode.push_back(ns_per(decode_s, decoded));
    extract.push_back(ns_per(extract_s, extracted_records));
    add.push_back(ns_per(add_s, obs));
    accepted.push_back(obs == 0 ? 0.0
                                : static_cast<double>(obs - rejected) /
                                      static_cast<double>(obs));
    count.push_back(count_s / n_ixps * 1e6);
    freeze.push_back(freeze_s / n_ixps * 1e6);
    infer.push_back(infer_s / n_ixps * 1e3);
    sum.push_back((frame_s + bmp_s + decode_s + extract_s + add_s + infer_s) *
                  1e3);
  }
  StageReplay out;
  out.frame_ns_per_record = median(frame);
  out.bmp_ns_per_msg = median(bmp);
  out.decode_ns_per_record = median(decode);
  out.extract_ns_per_record = median(extract);
  out.add_ns_per_obs = median(add);
  out.accepted_ratio = median(accepted);
  out.count_links_us = median(count);
  out.freeze_us = median(freeze);
  out.infer_links_ms = median(infer);
  out.stage_sum_ms = median(sum);
  return out;
}

}  // namespace perfbench
