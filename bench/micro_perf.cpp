// Micro-benchmarks (google-benchmark): the hot paths of the pipelines --
// MRT decode, community classification, export-policy algebra, reciprocity
// link inference, passive extraction (materialized and streamed), update
// stream ingest, the end-to-end pipeline, and routing-tree computation.
//
// The binary replaces the global allocator with a counting wrapper so the
// extraction benchmarks can report peak live heap growth: the evidence
// that the streamed ingest path never materializes a whole-archive RIB or
// record vector.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <set>
#include <thread>

#if __has_include(<malloc.h>)
#include <malloc.h>
#define MLP_HAVE_MALLOC_USABLE_SIZE 1
#endif

#include "bgp/wire.hpp"
#include "common.hpp"
#include "core/engine.hpp"
#include "core/engine_snapshot.hpp"
#include "core/passive.hpp"
#include "mrt/cursor.hpp"
#include "mrt/table_dump.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/live_session.hpp"
#include "pipeline/observation_queue.hpp"
#include "pipeline/pipeline.hpp"
#include "propagation/routing.hpp"
#include "routeserver/export_policy.hpp"
#include "scenario/scenario.hpp"
#include "stream/bmp_framer.hpp"
#include "stream/decoder.hpp"
#include "stream/framer.hpp"
#include "topology/generator.hpp"
#include "topology/relationship_inference.hpp"
#include "util/rng.hpp"

// ------------------------------------------------------------ allocation
// tracker. Disarmed it costs one relaxed load per alloc/free, so the
// timing benchmarks are untaxed; the extraction benchmarks arm it around
// each iteration to measure peak heap growth. Accounting uses
// malloc_usable_size on both sides so sized and unsized deallocation stay
// consistent; where it is unavailable the tracker still counts
// allocations but not live bytes.

namespace alloc_tracker {

std::atomic<bool> armed{false};
std::atomic<long long> live{0};
std::atomic<long long> peak{0};
std::atomic<unsigned long long> allocs{0};

inline void on_alloc(void* p, std::size_t n) {
  if (!armed.load(std::memory_order_relaxed)) return;
  allocs.fetch_add(1, std::memory_order_relaxed);
#if MLP_HAVE_MALLOC_USABLE_SIZE
  (void)n;
  const long long size = static_cast<long long>(malloc_usable_size(p));
  const long long now =
      live.fetch_add(size, std::memory_order_relaxed) + size;
  long long seen = peak.load(std::memory_order_relaxed);
  while (now > seen &&
         !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
#else
  // Without malloc_usable_size an unsized delete cannot be attributed, so
  // live/peak accounting would only ratchet upward; count allocs only.
  (void)p;
  (void)n;
#endif
}

inline void on_free(void* p, std::size_t n) {
  (void)n;
  if (p == nullptr || !armed.load(std::memory_order_relaxed)) return;
#if MLP_HAVE_MALLOC_USABLE_SIZE
  live.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                 std::memory_order_relaxed);
#else
  (void)p;
#endif
}

/// Arm the tracker and open a measurement window at the current live
/// level; returns the window base. Allocations made and freed entirely
/// inside the window account exactly; the caller keeps long-lived fixture
/// data out of it.
inline long long arm_window() {
  const long long base = live.load(std::memory_order_relaxed);
  peak.store(base, std::memory_order_relaxed);
  allocs.store(0, std::memory_order_relaxed);
  armed.store(true, std::memory_order_relaxed);
  return base;
}

/// Close the window; returns its peak heap growth in bytes.
inline long long disarm_window(long long base) {
  armed.store(false, std::memory_order_relaxed);
  return peak.load(std::memory_order_relaxed) - base;
}

}  // namespace alloc_tracker

// The replaced operators intentionally pair ::operator new with
// std::malloc/std::free; gcc's heuristic cannot see that the pairing is
// total and flags the frees.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  alloc_tracker::on_alloc(p, n);
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, std::align_val_t align) {
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (n + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  alloc_tracker::on_alloc(p, n);
  return p;
}

void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}

void operator delete(void* p) noexcept {
  alloc_tracker::on_free(p, 0);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t n) noexcept {
  alloc_tracker::on_free(p, n);
  std::free(p);
}
void operator delete[](void* p, std::size_t n) noexcept {
  ::operator delete(p, n);
}
void operator delete(void* p, std::align_val_t) noexcept {
  alloc_tracker::on_free(p, 0);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t align) noexcept {
  ::operator delete(p, align);
}
void operator delete(void* p, std::size_t n, std::align_val_t) noexcept {
  alloc_tracker::on_free(p, n);
  std::free(p);
}
void operator delete[](void* p, std::size_t n,
                       std::align_val_t align) noexcept {
  ::operator delete(p, n, align);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace mlp;

std::vector<std::uint8_t> make_archive(std::size_t prefixes) {
  bgp::Rib rib;
  for (std::size_t i = 0; i < prefixes; ++i) {
    bgp::Route route;
    route.prefix =
        bgp::IpPrefix(0x0A000000 + (static_cast<std::uint32_t>(i) << 8), 24);
    route.attrs.as_path = bgp::AsPath({6695, 8359, 15169});
    route.attrs.next_hop = 1;
    route.attrs.communities = {bgp::Community(0, 6695),
                               bgp::Community(6695, 8359)};
    rib.announce(6695, 1, std::move(route));
  }
  return mrt::dump_rib(rib, 0, 1, "bench");
}

void BM_MrtDecode(benchmark::State& state) {
  const auto archive = make_archive(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const bgp::Rib rib = mrt::parse_rib(archive);
    benchmark::DoNotOptimize(rib.prefix_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MrtDecode)->Arg(100)->Arg(1000);

void BM_MrtCursorWalk(benchmark::State& state) {
  // Streaming equivalent of BM_MrtDecode: same archive, no RIB
  // materialization, scratch buffers reused across records.
  const auto archive = make_archive(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    mrt::MrtCursor cursor(archive);
    std::size_t entries = 0;
    while (cursor.next() != mrt::MrtCursor::Event::End) ++entries;
    benchmark::DoNotOptimize(entries);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MrtCursorWalk)->Arg(100)->Arg(1000);

void BM_UpdateCodec(benchmark::State& state) {
  bgp::UpdateMessage update;
  update.nlri = {bgp::IpPrefix(0x0A000000, 16)};
  update.attrs.as_path = bgp::AsPath({6695, 8359, 3356, 15169});
  update.attrs.next_hop = 1;
  for (std::uint16_t i = 0; i < 12; ++i)
    update.attrs.communities.push_back(bgp::Community(6695, i));
  for (auto _ : state) {
    auto bytes = bgp::encode_update(update, true);
    auto decoded = bgp::decode_update(bytes, true);
    benchmark::DoNotOptimize(decoded.attrs.communities.size());
  }
}
BENCHMARK(BM_UpdateCodec);

void BM_CommunityClassification(benchmark::State& state) {
  const auto scheme = routeserver::IxpCommunityScheme::make(
      "DE-CIX", 6695, routeserver::SchemeStyle::RsAsnBased);
  std::vector<bgp::Community> communities;
  for (std::uint16_t i = 0; i < 64; ++i)
    communities.push_back(bgp::Community(i % 2 ? 6695 : 0, 1000 + i));
  for (auto _ : state) {
    std::size_t related = 0;
    for (const auto community : communities) {
      if (scheme.classify(community) != routeserver::CommunityTag::Unrelated)
        ++related;
    }
    benchmark::DoNotOptimize(related);
  }
  state.SetItemsProcessed(state.iterations() * communities.size());
}
BENCHMARK(BM_CommunityClassification);

/// An engine over `members` RS members with one observation per member.
/// Policies mirror the paper's figure-11 mix: mostly default-open or
/// ALL+EXCLUDE of a handful of peers, a restrictive tail of NONE+INCLUDE
/// allowlists.
core::MlpInferenceEngine make_engine(std::size_t members) {
  core::IxpContext ctx;
  ctx.name = "bench";
  ctx.scheme = routeserver::IxpCommunityScheme::make(
      "bench", 6695, routeserver::SchemeStyle::RsAsnBased);
  for (std::size_t i = 0; i < members; ++i)
    ctx.rs_members.insert(static_cast<bgp::Asn>(100 + i));
  core::MlpInferenceEngine engine(ctx);
  Rng rng(7);
  auto random_member = [&] {
    return static_cast<std::uint16_t>(100 + rng.uniform(0, members - 1));
  };
  for (const auto member : ctx.rs_members) {
    core::Observation obs;
    obs.setter = member;
    obs.prefix = bgp::IpPrefix(0x0A000000 + (member << 8), 24);
    if (rng.chance(0.15)) {
      // Restrictive allowlist: NONE plus a few INCLUDEs.
      obs.communities.push_back(bgp::Community(0, 6695));
      const std::size_t n = rng.uniform(1, 12);
      for (std::size_t k = 0; k < n; ++k)
        obs.communities.push_back(bgp::Community(6695, random_member()));
    } else if (rng.chance(0.25)) {
      // Open with targeted EXCLUDEs (the repeller pattern).
      const std::size_t n = rng.uniform(1, 8);
      for (std::size_t k = 0; k < n; ++k)
        obs.communities.push_back(bgp::Community(0, random_member()));
    }
    engine.add(obs);
  }
  return engine;
}

void BM_ReciprocityInference(benchmark::State& state) {
  const auto engine = make_engine(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto links = engine.infer_links();
    benchmark::DoNotOptimize(links.size());
  }
}
BENCHMARK(BM_ReciprocityInference)->Arg(50)->Arg(200)->Arg(1000);

void BM_EngineStats(benchmark::State& state) {
  // stats() without a precomputed link count re-runs the reciprocity
  // pass for its `links` field: the counting-only hot path.
  const auto engine = make_engine(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto stats = engine.stats();
    benchmark::DoNotOptimize(stats.links);
  }
}
BENCHMARK(BM_EngineStats)->Arg(200)->Arg(1000);

/// One policy-changing observation per member, round-robin, used by the
/// incremental/full-rememoise pair below. Alternating between an
/// open-with-exclude and an allowlist guarantees every add really
/// changes the setter's merged policy (the delta path's worst case, not
/// its unchanged-policy fast path).
core::Observation make_flip_observation(std::uint64_t sequence,
                                        std::size_t members, Rng& rng) {
  core::Observation obs;
  const auto setter =
      static_cast<bgp::Asn>(100 + (sequence % members));
  obs.setter = setter;
  obs.prefix = bgp::IpPrefix(0x0A000000 + (setter << 8), 24);
  const auto peer = static_cast<std::uint16_t>(
      100 + rng.uniform(0, members - 1));
  if (sequence % 2 == 0) {
    obs.communities.push_back(bgp::Community(0, peer));  // open + EXCLUDE
  } else {
    obs.communities.push_back(bgp::Community(0, 6695));  // NONE
    obs.communities.push_back(bgp::Community(6695, peer));  // INCLUDE
  }
  return obs;
}

void BM_IncrementalAdd(benchmark::State& state) {
  // An accepted observation through the incremental delta path: the
  // derived matrix stays materialised, so each add recomputes only the
  // setter's allow row (O(|A_RS|/64) words) plus the popcount.
  const std::size_t members = static_cast<std::size_t>(state.range(0));
  core::MlpInferenceEngine engine = make_engine(members);
  benchmark::DoNotOptimize(engine.count_links(false));  // materialise
  Rng rng(29);
  std::uint64_t sequence = 0;
  for (auto _ : state) {
    engine.add(make_flip_observation(sequence++, members, rng));
    benchmark::DoNotOptimize(engine.count_links(false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalAdd)->Arg(200)->Arg(1000);

void BM_FullRememoiseAdd(benchmark::State& state) {
  // The pre-delta baseline for BM_IncrementalAdd: identical adds, but
  // invalidate_derived() after each one forces count_links to rebuild
  // every member's merged policy and allow row from scratch -- the cost
  // every snapshot paid before adds became deltas.
  const std::size_t members = static_cast<std::size_t>(state.range(0));
  core::MlpInferenceEngine engine = make_engine(members);
  benchmark::DoNotOptimize(engine.count_links(false));
  Rng rng(29);
  std::uint64_t sequence = 0;
  for (auto _ : state) {
    engine.add(make_flip_observation(sequence++, members, rng));
    engine.invalidate_derived();
    benchmark::DoNotOptimize(engine.count_links(false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullRememoiseAdd)->Arg(200)->Arg(1000);

void BM_PolicyIntersect(benchmark::State& state) {
  // Mixed-mode intersection materialises an allow-list over the member
  // universe: the worst case of the step-4 policy merge.
  const std::size_t members = static_cast<std::size_t>(state.range(0));
  core::IxpContext ctx;
  Rng rng(13);
  for (std::size_t i = 0; i < members; ++i)
    ctx.rs_members.insert(static_cast<bgp::Asn>(100 + i));
  std::set<bgp::Asn> excluded;
  std::set<bgp::Asn> included;
  for (std::size_t k = 0; k < members / 10; ++k) {
    excluded.insert(static_cast<bgp::Asn>(100 + rng.uniform(0, members - 1)));
    included.insert(static_cast<bgp::Asn>(100 + rng.uniform(0, members - 1)));
  }
  const routeserver::ExportPolicy all_except(
      routeserver::ExportPolicy::Mode::AllExcept, excluded);
  const routeserver::ExportPolicy none_except(
      routeserver::ExportPolicy::Mode::NoneExcept, included);
  for (auto _ : state) {
    auto merged = routeserver::ExportPolicy::intersect(all_except, none_except,
                                                       ctx.rs_members);
    benchmark::DoNotOptimize(merged.peers().size());
    auto same = routeserver::ExportPolicy::intersect(all_except, all_except,
                                                     ctx.rs_members);
    benchmark::DoNotOptimize(same.peers().size());
  }
}
BENCHMARK(BM_PolicyIntersect)->Arg(200)->Arg(1000);

/// Synthetic multi-IXP collector archive: every path crosses one of three
/// route servers (two adjacent members) and carries that IXP's scheme
/// values, mixing ALL-tagged, EXCLUDE-tagged and unrelated communities.
struct PassiveFixture {
  std::vector<core::IxpContext> ixps;
  std::vector<std::uint8_t> archive;

  /// The same routes replayed as a BGP4MP announcement stream with a tail
  /// of quick withdrawals, exercising the transient-filter window.
  std::vector<std::uint8_t> updates_archive() const {
    const bgp::Rib rib = mrt::parse_rib(archive);
    std::vector<mrt::ObservedUpdate> updates;
    std::uint32_t t = 1367366400;
    for (const auto& prefix : rib.prefixes()) {
      for (const auto& entry : rib.paths(prefix)) {
        mrt::ObservedUpdate u;
        u.timestamp = t++;
        u.peer_asn = entry.peer_asn;
        u.peer_ip = entry.peer_ip;
        u.update.nlri = {prefix};
        u.update.attrs = entry.route.attrs;
        updates.push_back(std::move(u));
        if (updates.size() % 10 == 0) {
          mrt::ObservedUpdate w;  // flapping announcement: withdrawn fast
          w.timestamp = t++;
          w.peer_asn = entry.peer_asn;
          w.peer_ip = entry.peer_ip;
          w.update.withdrawn = {prefix};
          updates.push_back(std::move(w));
        }
      }
    }
    return mrt::dump_updates(updates, 65000, 1);
  }

  explicit PassiveFixture(std::size_t prefixes) {
    const bgp::Asn rs_asns[3] = {6695, 8631, 9033};
    for (int x = 0; x < 3; ++x) {
      core::IxpContext ctx;
      ctx.name = "IXP" + std::to_string(x);
      ctx.scheme = routeserver::IxpCommunityScheme::make(
          ctx.name, rs_asns[x], routeserver::SchemeStyle::RsAsnBased);
      for (bgp::Asn m = 0; m < 200; ++m)
        ctx.rs_members.insert(1000 + 200 * x + m);
      ixps.push_back(std::move(ctx));
    }
    bgp::Rib rib;
    Rng rng(23);
    for (std::size_t i = 0; i < prefixes; ++i) {
      const int x = static_cast<int>(i % 3);
      const bgp::Asn base = 1000 + 200 * x;
      const bgp::Asn setter = base + rng.uniform(0, 198);
      bgp::Route route;
      route.prefix =
          bgp::IpPrefix(0x0A000000 + (static_cast<std::uint32_t>(i) << 8), 24);
      route.attrs.as_path = bgp::AsPath({300, setter + 1, setter});
      route.attrs.next_hop = 1;
      route.attrs.communities.push_back(bgp::Community(3356, 42));
      if (rng.chance(0.5)) {
        route.attrs.communities.push_back(
            bgp::Community(rs_asns[x], rs_asns[x]));
      } else {
        route.attrs.communities.push_back(bgp::Community(
            0, static_cast<std::uint16_t>(base + rng.uniform(0, 198))));
      }
      rib.announce(300, 1, std::move(route));
    }
    archive = mrt::dump_rib(rib, 0, 1, "bench");
  }
};

void BM_PassiveExtraction(benchmark::State& state) {
  const PassiveFixture fixture(static_cast<std::size_t>(state.range(0)));
  const auto shared =
      std::make_shared<const std::vector<core::IxpContext>>(fixture.ixps);
  // Peak heap growth is measured on one untimed pass so the timed loop
  // below runs with the tracker disarmed, like the rest of the suite.
  long long peak_growth = 0;
  {
    const long long base = alloc_tracker::arm_window();
    {
      core::PassiveExtractor extractor(shared, nullptr);
      extractor.consume_table_dump(fixture.archive);
      benchmark::DoNotOptimize(extractor.stats().observations);
    }
    peak_growth = alloc_tracker::disarm_window(base);
  }
  for (auto _ : state) {
    core::PassiveExtractor extractor(shared, nullptr);
    extractor.consume_table_dump(fixture.archive);
    benchmark::DoNotOptimize(extractor.stats().observations);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["peak_heap_growth_B"] =
      static_cast<double>(peak_growth);
  state.counters["archive_B"] = static_cast<double>(fixture.archive.size());
}
BENCHMARK(BM_PassiveExtraction)->Arg(1000)->Arg(5000);

void BM_PassiveExtractionStreamed(benchmark::State& state) {
  // The pipeline's actual ingest mode: sink callback, batches leave the
  // extractor as they fill. peak_heap_growth_B stays O(batch x IXPs) --
  // no whole-archive RIB/record vector, unlike the accumulate mode above
  // whose footprint includes the full observation product.
  const PassiveFixture fixture(static_cast<std::size_t>(state.range(0)));
  const auto shared =
      std::make_shared<const std::vector<core::IxpContext>>(fixture.ixps);
  std::size_t drained = 0;
  auto streamed_pass = [&] {
    core::PassiveExtractor extractor(shared, nullptr);
    extractor.set_sink(
        [&drained](std::size_t, std::vector<core::Observation>&& batch) {
          drained += batch.size();  // consumed and dropped, like a queue pop
        },
        256);
    extractor.consume_table_dump(fixture.archive);
    extractor.finish();
    benchmark::DoNotOptimize(extractor.stats().observations);
  };
  // One untimed armed pass for the memory counter, then a disarmed timed
  // loop (see BM_PassiveExtraction).
  long long peak_growth = 0;
  {
    const long long base = alloc_tracker::arm_window();
    streamed_pass();
    peak_growth = alloc_tracker::disarm_window(base);
  }
  for (auto _ : state) streamed_pass();
  benchmark::DoNotOptimize(drained);
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["peak_heap_growth_B"] =
      static_cast<double>(peak_growth);
  state.counters["archive_B"] = static_cast<double>(fixture.archive.size());
}
BENCHMARK(BM_PassiveExtractionStreamed)->Arg(1000)->Arg(5000);

void BM_UpdateStreamIngest(benchmark::State& state) {
  // End-to-end pipeline over a BGP4MP update archive (the live-stream
  // path): streaming extraction with transient filtering, per-IXP
  // inference, 2 worker threads.
  const PassiveFixture fixture(static_cast<std::size_t>(state.range(0)));
  const auto archive = std::make_shared<const std::vector<std::uint8_t>>(
      fixture.updates_archive());
  for (auto _ : state) {
    pipeline::PipelineConfig config;
    config.threads = 2;
    config.passive.min_duration_s = 600;
    pipeline::InferencePipeline pipe(config);
    for (const auto& ixp : fixture.ixps) pipe.add_ixp(ixp);
    pipe.add_update_stream(archive);
    auto result = pipe.run();
    benchmark::DoNotOptimize(result.all_links.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UpdateStreamIngest)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_LiveFraming(benchmark::State& state) {
  // Frame + decode a live byte stream chunk by chunk (64 KiB reads, the
  // CLI's follow-mode shape). peak_heap_growth_B staying flat across the
  // Arg sizes is the no-backlog-materialization check: the framer holds
  // one partial record, the decoder reuses its scratch.
  const PassiveFixture fixture(static_cast<std::size_t>(state.range(0)));
  const auto data = fixture.updates_archive();
  constexpr std::size_t kChunk = 65536;
  std::size_t updates = 0;
  auto framed_pass = [&] {
    stream::MrtFramer framer;
    stream::UpdateDecoder decoder;
    for (std::size_t at = 0; at < data.size(); at += kChunk) {
      framer.feed(std::span<const std::uint8_t>(
          data.data() + at, std::min(kChunk, data.size() - at)));
      for (;;) {
        const auto record = framer.next();
        if (!record) break;
        if (decoder.decode(*record) != nullptr) ++updates;
      }
    }
    benchmark::DoNotOptimize(framer.records());
  };
  // One untimed armed pass for the memory counter, then a disarmed timed
  // loop (see BM_PassiveExtraction).
  long long peak_growth = 0;
  {
    const long long base = alloc_tracker::arm_window();
    framed_pass();
    peak_growth = alloc_tracker::disarm_window(base);
  }
  for (auto _ : state) framed_pass();
  benchmark::DoNotOptimize(updates);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
  state.counters["peak_heap_growth_B"] = static_cast<double>(peak_growth);
  state.counters["stream_B"] = static_cast<double>(data.size());
}
// 5000 -> 20000 quintuples the byte stream; the flat peak_heap_growth_B
// between them (the buffer converges to ~2 chunks once the vector's
// growth settles) is the no-backlog evidence for the live path.
BENCHMARK(BM_LiveFraming)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_BmpFraming(benchmark::State& state) {
  // Frame + unwrap + decode a BMP (RFC 7854) session chunk by chunk: the
  // BmpFramer synthesizes BGP4MP records which flow through the same
  // MrtFramer/UpdateDecoder pair as a raw MRT feed. peak_heap_growth_B
  // staying flat across Arg sizes is the same no-backlog check as
  // BM_LiveFraming, now for the BMP layer's buffer + record scratch.
  const PassiveFixture fixture(static_cast<std::size_t>(state.range(0)));
  const auto data = stream::bmp_wrap_updates(fixture.updates_archive());
  constexpr std::size_t kChunk = 65536;
  std::size_t updates = 0;
  auto framed_pass = [&] {
    stream::BmpFramer bmp;
    stream::MrtFramer framer;
    stream::UpdateDecoder decoder;
    for (std::size_t at = 0; at < data.size(); at += kChunk) {
      bmp.feed(std::span<const std::uint8_t>(
          data.data() + at, std::min(kChunk, data.size() - at)));
      for (;;) {
        const auto event = bmp.next();
        if (!event) break;
        if (event->kind != stream::BmpEvent::Kind::Update) continue;
        framer.feed(event->record);
        const auto record = framer.next();
        if (record && decoder.decode(*record) != nullptr) ++updates;
      }
    }
    benchmark::DoNotOptimize(bmp.messages());
  };
  long long peak_growth = 0;
  {
    const long long base = alloc_tracker::arm_window();
    framed_pass();
    peak_growth = alloc_tracker::disarm_window(base);
  }
  for (auto _ : state) framed_pass();
  benchmark::DoNotOptimize(updates);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
  state.counters["peak_heap_growth_B"] = static_cast<double>(peak_growth);
  state.counters["stream_B"] = static_cast<double>(data.size());
}
BENCHMARK(BM_BmpFraming)->Arg(5000)->Arg(20000);

void BM_MultiFeedLiveSession(benchmark::State& state) {
  // N concurrent feeds (a round-robin record split of one update stream)
  // into one LiveSession, fed in interleaved 16 KiB chunks from the
  // bench thread: the cross-feed merge cost of the live front end.
  const PassiveFixture fixture(5000);
  const auto data = fixture.updates_archive();
  const std::size_t n_feeds = static_cast<std::size_t>(state.range(0));
  // Split at record boundaries.
  std::vector<std::vector<std::uint8_t>> streams(n_feeds);
  {
    std::size_t at = 0, index = 0;
    const std::span<const std::uint8_t> all(data);
    while (at < data.size()) {
      ByteReader header(all.subspan(at, 12));
      header.u32();
      header.u16();
      header.u16();
      const std::size_t total = 12 + header.u32();
      auto& stream = streams[index++ % n_feeds];
      stream.insert(stream.end(), all.begin() + at,
                    all.begin() + at + total);
      at += total;
    }
  }
  for (auto _ : state) {
    pipeline::LiveConfig config;
    // The legacy strict-order merge: the committed baseline compares
    // against it, and BM_WatermarkMerge prices the new policy apart.
    config.merge = pipeline::MergePolicy::Concatenate;
    config.threads = 2;
    pipeline::LiveSession session(config, fixture.ixps);
    std::vector<pipeline::FeedHandle> handles;
    for (std::size_t f = 0; f < n_feeds; ++f)
      handles.push_back(session.add_feed());
    constexpr std::size_t kChunk = 16384;
    std::vector<std::size_t> offsets(n_feeds, 0);
    for (bool any = true; any;) {
      any = false;
      for (std::size_t f = 0; f < n_feeds; ++f) {
        if (offsets[f] >= streams[f].size()) continue;
        const std::size_t n =
            std::min(kChunk, streams[f].size() - offsets[f]);
        handles[f].feed(std::span<const std::uint8_t>(
            streams[f].data() + offsets[f], n));
        offsets[f] += n;
        any = true;
      }
    }
    auto result = session.finish();
    benchmark::DoNotOptimize(result.all_links.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_MultiFeedLiveSession)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SupervisedLiveSession(benchmark::State& state) {
  // BM_MultiFeedLiveSession with the full supervision surface armed on a
  // fault-free stream: per-record budget bookkeeping plus the stall
  // watchdog's lock-free staleness sweep on every feed() call. The price
  // of health supervision when nothing is wrong -- the overhead budget
  // is small single-digit percent over the unsupervised baseline above.
  const PassiveFixture fixture(5000);
  const auto data = fixture.updates_archive();
  const std::size_t n_feeds = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::uint8_t>> streams(n_feeds);
  {
    std::size_t at = 0, index = 0;
    const std::span<const std::uint8_t> all(data);
    while (at < data.size()) {
      ByteReader header(all.subspan(at, 12));
      header.u32();
      header.u16();
      header.u16();
      const std::size_t total = 12 + header.u32();
      auto& stream = streams[index++ % n_feeds];
      stream.insert(stream.end(), all.begin() + at,
                    all.begin() + at + total);
      at += total;
    }
  }
  for (auto _ : state) {
    pipeline::LiveConfig config;
    config.merge = pipeline::MergePolicy::Concatenate;
    config.threads = 2;
    // Production-shaped budgets; a healthy feed never trips them, so
    // this prices the bookkeeping, not the quarantine machinery.
    config.supervision.stall_timeout_ms = 60000;
    pipeline::LiveSession session(config, fixture.ixps);
    std::vector<pipeline::FeedHandle> handles;
    for (std::size_t f = 0; f < n_feeds; ++f)
      handles.push_back(session.add_feed());
    constexpr std::size_t kChunk = 16384;
    std::vector<std::size_t> offsets(n_feeds, 0);
    for (bool any = true; any;) {
      any = false;
      for (std::size_t f = 0; f < n_feeds; ++f) {
        if (offsets[f] >= streams[f].size()) continue;
        const std::size_t n =
            std::min(kChunk, streams[f].size() - offsets[f]);
        handles[f].feed(std::span<const std::uint8_t>(
            streams[f].data() + offsets[f], n));
        offsets[f] += n;
        any = true;
      }
    }
    auto result = session.finish();
    benchmark::DoNotOptimize(result.all_links.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_SupervisedLiveSession)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_WatermarkMerge(benchmark::State& state) {
  // Queue-level cost of the k-way watermark merge: k producers push
  // timestamped batches round-robin with advancing watermarks while the
  // consumer drains between rounds -- the per-observation overhead the
  // Watermark policy adds over the strict concatenation drain.
  const std::size_t n_sources = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kRounds = 256;
  std::size_t drained = 0;
  for (auto _ : state) {
    pipeline::ObservationQueue queue(n_sources,
                                     pipeline::MergePolicy::Watermark);
    std::vector<core::Observation> out;
    std::uint32_t ts = 1;
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t s = 0; s < n_sources; ++s) {
        std::vector<core::Observation> batch(kBatch);
        for (auto& observation : batch) observation.timestamp = ts;
        ++ts;
        queue.push(s, std::move(batch));
        queue.set_watermark(s, ts);
      }
      while (queue.try_pop(out)) drained += out.size();
    }
    for (std::size_t s = 0; s < n_sources; ++s) queue.close(s);
    while (queue.try_pop(out)) drained += out.size();
  }
  benchmark::DoNotOptimize(drained);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kRounds * kBatch * n_sources));
}
BENCHMARK(BM_WatermarkMerge)->Arg(2)->Arg(8)->Unit(
    benchmark::kMicrosecond);

void BM_LiveSessionSnapshot(benchmark::State& state) {
  // The follow-mode hot loop: LiveSession ingest in 64 KiB chunks with a
  // cheap count_links snapshot after every chunk. Snapshot cost rides on
  // the engine's popcount path, so per-chunk snapshots must not dominate
  // ingest.
  const PassiveFixture fixture(5000);
  const auto data = fixture.updates_archive();
  constexpr std::size_t kChunk = 65536;
  std::size_t snapshots = 0;
  std::size_t links = 0;
  for (auto _ : state) {
    pipeline::LiveConfig config;
    config.threads = 2;
    config.passive.max_pending_announcements = 1024;  // live surfacing
    pipeline::LiveSession session(config, fixture.ixps);
    for (std::size_t at = 0; at < data.size(); at += kChunk) {
      session.feed(std::span<const std::uint8_t>(
          data.data() + at, std::min(kChunk, data.size() - at)));
      const auto snap = session.snapshot();
      for (const std::size_t count : snap.links_per_ixp) links += count;
      ++snapshots;
    }
    auto result = session.finish();
    benchmark::DoNotOptimize(result.all_links.size());
  }
  benchmark::DoNotOptimize(links);
  state.SetItemsProcessed(static_cast<std::int64_t>(snapshots));
  state.counters["stream_B"] = static_cast<double>(data.size());
}
BENCHMARK(BM_LiveSessionSnapshot)->Unit(benchmark::kMillisecond);

/// Shared harness for BM_QueryThroughput: one LiveSession with a
/// dedicated ingest thread replaying the update archive in a loop, so
/// the epoch pumps keep publishing while the benchmark threads hammer
/// epoch_snapshot(). Built in Setup / torn down in Teardown -- the
/// benchmark threads themselves touch nothing but the read path.
struct QueryThroughputHarness {
  PassiveFixture fixture{5000};
  std::vector<std::uint8_t> data = fixture.updates_archive();
  std::unique_ptr<pipeline::LiveSession> session;
  std::atomic<bool> stop{false};
  std::thread ingest;

  QueryThroughputHarness() {
    pipeline::LiveConfig config;
    config.merge = pipeline::MergePolicy::Concatenate;
    config.threads = 2;
    config.passive.max_pending_announcements = 1024;  // live surfacing
    config.publish_every_batches = 1;  // swap epochs as fast as possible
    session = std::make_unique<pipeline::LiveSession>(config, fixture.ixps);
    ingest = std::thread([this] {
      auto handle = session->add_feed();
      constexpr std::size_t kChunk = 16384;
      // Replay the archive until stopped: duplicate observations keep
      // the engines mutating (every accepted add bumps the generation)
      // and the pumps publishing without unbounded state growth.
      while (!stop.load(std::memory_order_acquire)) {
        for (std::size_t at = 0;
             at < data.size() && !stop.load(std::memory_order_acquire);
             at += kChunk) {
          handle.feed(std::span<const std::uint8_t>(
              data.data() + at, std::min(kChunk, data.size() - at)));
        }
      }
      handle.close();
    });
  }

  ~QueryThroughputHarness() {
    stop.store(true, std::memory_order_release);
    ingest.join();
    auto result = session->finish();
    benchmark::DoNotOptimize(result.all_links.size());
  }
};

QueryThroughputHarness* g_query_harness = nullptr;

void QueryThroughputSetup(const benchmark::State&) {
  g_query_harness = new QueryThroughputHarness;
}

void QueryThroughputTeardown(const benchmark::State&) {
  delete g_query_harness;
  g_query_harness = nullptr;
}

void BM_QueryThroughput(benchmark::State& state) {
  // The reader side of the epoch-publishing split: each iteration is one
  // full query -- an atomic acquire-load of the shard's published
  // snapshot plus a stats read off the immutable object. Runs against
  // the live ingest thread above; readers never take feeds_mutex_ or a
  // lane mutex, so items/sec here prices the query server's steady
  // state, independent of ingest load.
  const std::size_t n = g_query_harness->session->ixp_count();
  std::size_t index = static_cast<std::size_t>(state.thread_index());
  std::uint64_t last_epoch = 0;
  for (auto _ : state) {
    const auto snap = g_query_harness->session->epoch_snapshot(index++ % n);
    benchmark::DoNotOptimize(snap->link_count());
    if (snap->epoch() > last_epoch) last_epoch = snap->epoch();
  }
  state.SetItemsProcessed(state.iterations());
  // Evidence the writer really was racing: epochs observed advance while
  // the benchmark ran (averaged across reader threads).
  state.counters["epochs_seen"] = benchmark::Counter(
      static_cast<double>(last_epoch), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_QueryThroughput)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Setup(QueryThroughputSetup)
    ->Teardown(QueryThroughputTeardown);

void BM_CheckpointWrite(benchmark::State& state) {
  // One durability cycle of `follow --checkpoint`: the stop-the-world
  // serialize of a loaded mid-stream session (engines, announce-window,
  // queues, framing positions) plus the CRC'd atomic file publish
  // (temp write, fsync, generation rotate, rename). Prices the ingest
  // stall a checkpoint cadence buys.
  const PassiveFixture fixture(5000);
  const auto data = fixture.updates_archive();
  pipeline::LiveConfig config;
  config.threads = 2;
  config.passive.max_pending_announcements = 1024;
  pipeline::LiveSession session(config, fixture.ixps);
  auto handle = session.add_feed();
  handle.feed(std::span<const std::uint8_t>(data.data(), data.size() / 2));
  const std::string path =
      (std::filesystem::temp_directory_path() / "mlp_bench_ckpt.bin")
          .string();
  std::size_t payload_bytes = 0;
  for (auto _ : state) {
    pipeline::save_checkpoint(session, path);
    benchmark::ClobberMemory();
    if (payload_bytes == 0)
      payload_bytes = std::filesystem::file_size(path) - 24;
  }
  state.counters["payload_B"] = static_cast<double>(payload_bytes);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  std::filesystem::remove(path + ".tmp");
}
BENCHMARK(BM_CheckpointWrite)->Unit(benchmark::kMillisecond);

void BM_CheckpointLoad(benchmark::State& state) {
  // The resume path: read + CRC validate + the two-pass (validate, then
  // commit) restore into a freshly wired session. Bounds the restart
  // cost after a crash.
  const PassiveFixture fixture(5000);
  const auto data = fixture.updates_archive();
  pipeline::LiveConfig config;
  config.threads = 2;
  config.passive.max_pending_announcements = 1024;
  const std::string path =
      (std::filesystem::temp_directory_path() / "mlp_bench_ckpt_load.bin")
          .string();
  {
    pipeline::LiveSession session(config, fixture.ixps);
    auto handle = session.add_feed();
    handle.feed(
        std::span<const std::uint8_t>(data.data(), data.size() / 2));
    pipeline::save_checkpoint(session, path);
  }
  for (auto _ : state) {
    pipeline::LiveSession resumed(config, fixture.ixps);
    resumed.add_feed();
    const auto loaded = pipeline::restore_checkpoint(resumed, path);
    benchmark::DoNotOptimize(loaded.payload.size());
  }
  state.counters["payload_B"] =
      static_cast<double>(std::filesystem::file_size(path) - 24);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
}
BENCHMARK(BM_CheckpointLoad)->Unit(benchmark::kMillisecond);

void BM_PipelineRun(benchmark::State& state) {
  // End-to-end InferencePipeline::run over a small synthetic ecosystem:
  // passive-only (no LG surveys), 2 worker threads.
  scenario::ScenarioParams params;
  params.topology.n_ases = 500;
  params.membership_scale = 0.15;
  params.seed = 424242;
  scenario::Scenario s(params);
  const auto rels = topology::infer_relationships(s.collector_paths());
  // Archives are registered through the shared-buffer overload: one
  // decode-in-place copy for the whole benchmark, zero per-run copies.
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> archives;
  for (auto& collector : s.collectors())
    archives.push_back(std::make_shared<const std::vector<std::uint8_t>>(
        collector.table_dump(1367366400)));

  for (auto _ : state) {
    pipeline::PipelineConfig config;
    config.threads = 2;
    pipeline::InferencePipeline pipe(config);
    for (std::size_t i = 0; i < s.ixps().size(); ++i)
      pipe.add_ixp(s.ixp_context(i));
    pipe.set_relationships(rels.rel_fn());
    for (const auto& archive : archives) pipe.add_table_dump(archive);
    auto result = pipe.run();
    benchmark::DoNotOptimize(result.all_links.size());
  }
}
BENCHMARK(BM_PipelineRun)->Unit(benchmark::kMillisecond);

void BM_RoutingTree(benchmark::State& state) {
  // The dense kernel alone: one tree over a graph frozen once.
  topology::TopologyParams params;
  params.n_ases = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const auto topo = topology::generate_topology(params, rng);
  const auto index =
      std::make_shared<const propagation::GraphIndex>(topo.graph);
  const auto origin = topo.stubs.back();
  for (auto _ : state) {
    const propagation::RoutingTree tree(index, origin);
    benchmark::DoNotOptimize(tree.entries().data());
  }
}
BENCHMARK(BM_RoutingTree)->Arg(500)->Arg(2000);

void BM_RoutingSweep(benchmark::State& state) {
  // One origin-outer sweep over the report scenario's augmented graph and
  // announcement list (2000 distinct origins), with range(0) pool threads
  // and a visitor that only touches each tree.
  static const scenario::Scenario s(bench::default_params());
  propagation::RoutingModel model(s.topo().graph,
                                  static_cast<std::size_t>(state.range(0)));
  auto touch = [](const propagation::PrefixOrigin&,
                  const propagation::RoutingTree& tree) {
    benchmark::DoNotOptimize(tree.entries().data());
  };
  std::size_t trees = 0;
  for (auto _ : state) {
    const std::size_t before = model.computed();
    model.sweep(s.origins(), touch);
    trees += model.computed() - before;
  }
  state.counters["trees_per_s"] = benchmark::Counter(
      static_cast<double>(trees), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RoutingSweep)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
