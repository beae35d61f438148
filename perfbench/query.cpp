// The query path: published epochs read beside live ingest. One feeder
// thread replays the follow feeds in a loop into a LiveSession; one
// in-process reader runs a seeded read mix on epoch_snapshot(); one wire
// client keeps one loopback connection to QueryServer.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "bench.hpp"
#include "core/engine_snapshot.hpp"
#include "pipeline/query_server.hpp"

namespace perfbench {

namespace {

using mlp::pipeline::LiveSession;

constexpr std::size_t kBatch = 16;
constexpr std::size_t kLinksEvery = 64;
constexpr std::size_t kStatsEvery = 1024;
constexpr std::size_t kBlock = 64;  // reads between stop checks / timings
constexpr double kWarmupSeconds = 0.5;
/// The feeder's rate is sampled per block of this many seconds and
/// reported as the median block, so a short host stall moves one block.
constexpr double kRateBlockSeconds = 0.25;

struct Request {
  enum class Kind { Link, Links, Stats } kind = Kind::Link;
  std::size_t ixp = 0;
  Asn a = 0, b = 0;
};

/// The seeded read mix: `link` on member pairs, `links` every 64th
/// request and `stats` every 1024th, over IXPs picked uniformly.
class ReadMix {
 public:
  ReadMix(const std::vector<mlp::core::IxpContext>& contexts,
          std::uint64_t seed)
      : rng_(seed) {
    for (const auto& ctx : contexts) {
      names_.push_back(ctx.name);
      members_.emplace_back(ctx.rs_members.begin(), ctx.rs_members.end());
    }
  }

  Request next() {
    ++count_;
    Request r;
    if (count_ % kStatsEvery == 0) r.kind = Request::Kind::Stats;
    else if (count_ % kLinksEvery == 0) r.kind = Request::Kind::Links;
    return fill(r);
  }
  Request next_link() { return fill(Request{}); }

  std::string line(const Request& r) const {
    const std::string& name = names_[r.ixp];
    switch (r.kind) {
      case Request::Kind::Stats: return "stats " + name + "\n";
      case Request::Kind::Links:
        return "links " + name + " " + std::to_string(r.a) + "\n";
      case Request::Kind::Link: break;
    }
    return "link " + name + " " + std::to_string(r.a) + " " +
           std::to_string(r.b) + "\n";
  }

 private:
  Request fill(Request r) {
    r.ixp = rng_() % members_.size();
    const auto& m = members_[r.ixp];
    if (m.empty()) return r;  // an IXP without RS members: AS 0 is no one
    r.a = m[rng_() % m.size()];
    r.b = m[rng_() % m.size()];
    return r;
  }

  std::mt19937_64 rng_;
  std::vector<std::string> names_;
  std::vector<std::vector<Asn>> members_;
  std::uint64_t count_ = 0;
};

/// Client side of one loopback connection, line protocol.
class WireClient {
 public:
  explicit WireClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the query port failed");
    }
    // The client writes each request or batch in one send, so Nagle on
    // this side could only add delay; a stalled server fails the read.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval timeout{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~WireClient() { ::close(fd_); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool send(const std::string& data) {
    std::size_t at = 0;
    while (at < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + at, data.size() - at,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      at += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Read exactly `n` response lines (without their newlines).
  bool read_lines(std::size_t n, std::vector<std::string>& out) {
    out.clear();
    while (out.size() < n) {
      const std::size_t newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        out.push_back(buffer_.substr(0, newline));
        buffer_.erase(0, newline + 1);
        scanned_ = 0;
        continue;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

std::uint32_t read_u32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} << 24 | std::uint32_t{p[1]} << 16 |
         std::uint32_t{p[2]} << 8 | std::uint32_t{p[3]};
}

void add_u32(std::uint8_t* p, std::uint32_t delta) {
  const std::uint32_t v = read_u32(p) + delta;
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

/// Move a feed's clock forward by `delta` seconds in place, so the next
/// pass continues the stream instead of repeating old timestamps (which
/// would hold the watermark merge still). Raw MRT: the common header's
/// timestamp. BMP: the per-peer header's timestamp (RFC 7854 4.2), which
/// the framer stamps on the records it synthesizes.
void advance_clock(std::vector<std::uint8_t>& bytes, bool bmp,
                   std::uint32_t delta) {
  std::size_t at = 0;
  if (!bmp) {
    while (at + 12 <= bytes.size()) {
      add_u32(&bytes[at], delta);
      at += 12 + read_u32(&bytes[at + 8]);
    }
    return;
  }
  constexpr std::size_t kCommon = 6, kPeerTimestamp = 34;
  while (at + kCommon <= bytes.size()) {
    const std::uint32_t length = read_u32(&bytes[at + 1]);
    const std::uint8_t type = bytes[at + 5];
    if (type <= 3 && at + kCommon + kPeerTimestamp + 4 <= bytes.size())
      add_u32(&bytes[at + kCommon + kPeerTimestamp], delta);
    if (length == 0) break;
    at += length;
  }
}

bool is_ok(const std::string& response) {
  return response.rfind("ok ", 0) == 0;
}

struct WireStats {
  std::uint64_t requests = 0, responses = 0, errors = 0;
  bool broken = false;
};

/// Send `payload` (`n` request lines) and read the `n` responses.
bool exchange(WireClient& client, const std::string& payload, std::size_t n,
              std::vector<std::string>& responses, WireStats& stats) {
  stats.requests += n;
  if (!client.send(payload) || !client.read_lines(n, responses)) {
    stats.broken = true;
    return false;
  }
  stats.responses += responses.size();
  for (const auto& r : responses)
    if (!is_ok(r)) ++stats.errors;
  return true;
}

}  // namespace

QueryPhase run_query(const FollowInputs& in, double seconds,
                     std::uint64_t seed, Tracer& tracer, Result& result) {
  QueryPhase out;
  HeapWindow heap_window;
  // One CPU per busy thread: the session's pool, the feeder, the reader,
  // and the wire client with the query server (they take turns).
  const Placement cpus;
  std::unique_ptr<LiveSession> owned_session;
  with_cpus(cpus.one(0), [&] {
    owned_session = std::make_unique<LiveSession>(
        live_config(in, kQueryThreads), in.contexts,
        in.relationships->rel_fn());
  });
  LiveSession& session = *owned_session;
  Feeds feeds = add_feeds(session);
  std::unique_ptr<mlp::pipeline::QueryServer> server;
  with_cpus(cpus.one(3), [&] {
    server = std::make_unique<mlp::pipeline::QueryServer>(
        session, mlp::pipeline::QueryServer::Options{});
  });

  // Connected before any thread starts, so nothing below can throw while a
  // thread is running.
  WireClient client(server->port());

  // Every thread runs a warm-up until the window opens, so caches and
  // lazily built state are in place before anything is timed.
  std::atomic<bool> window_open{false}, stop_readers{false},
      stop_feeder{false};

  // Feeder: whole passes over both feeds, round-robin in 16 KiB chunks,
  // each pass span_s seconds later than the one before; it stops only at
  // the end of a pass, so no record is left torn.
  std::uint64_t chunks = 0, thrown = 0, passes = 0;
  std::vector<std::uint8_t> pass[2] = {in.wire[0], in.wire[1]};
  std::thread feeder([&] {
    restrict_to(cpus.one(1));
    while (!stop_feeder.load(std::memory_order_acquire)) {
      if (passes > 0)
        for (std::size_t f = 0; f < 2; ++f)
          advance_clock(pass[f], f == 1, in.span_s);
      thrown += feed_pass(pass, feeds, [&](Clock::time_point) { ++chunks; });
      ++passes;
    }
  });

  // In-process reader. A traced run alternates 50 ms periods of the plain
  // mix and of the same mix timed in blocks (epoch loads, then reads).
  std::uint64_t reads = 0, reads_plain = 0, reads_traced = 0;
  double plain_s = 0, traced_s = 0, reader_s = 0;
  double load_s = 0, has_link_s = 0, links_of_s = 0;
  std::uint64_t loads = 0, has_links = 0, links_ofs = 0;
  std::uint64_t epoch_advance = 0;
  std::thread reader([&] {
    ReadMix mix(in.contexts, seed ^ 0x5eed0001);
    std::vector<std::uint64_t> first(in.contexts.size(), 0),
        last(in.contexts.size(), 0);
    std::vector<bool> seen(in.contexts.size(), false);
    std::uint64_t sink = 0;
    auto note_epoch = [&](std::size_t ixp, std::uint64_t epoch) {
      if (!seen[ixp]) first[ixp] = epoch, seen[ixp] = true;
      last[ixp] = epoch;
    };
    auto read = [&](const Request& r, const mlp::core::EngineSnapshot& snap) {
      switch (r.kind) {
        case Request::Kind::Link: sink += snap.has_link(r.a, r.b); break;
        case Request::Kind::Links: sink += snap.links_of(r.a).size(); break;
        case Request::Kind::Stats: sink += snap.stats().links; break;
      }
    };
    std::vector<Request> requests(kBlock);
    std::vector<std::shared_ptr<const mlp::core::EngineSnapshot>> snaps(kBlock);
    restrict_to(cpus.one(2));
    while (!window_open.load(std::memory_order_acquire))
      for (std::size_t j = 0; j < kBlock; ++j) {
        const Request r = mix.next();
        read(r, *session.epoch_snapshot(r.ixp));
      }
    const auto start = Clock::now();
    auto period_start = start;
    bool traced_period = false;
    while (!stop_readers.load(std::memory_order_relaxed)) {
      if (!traced_period) {
        for (std::size_t j = 0; j < kBlock; ++j) {
          const Request r = mix.next();
          const auto snap = session.epoch_snapshot(r.ixp);
          note_epoch(r.ixp, snap->epoch());
          read(r, *snap);
        }
        reads_plain += kBlock;
      } else {
        const auto t0 = Clock::now();
        for (std::size_t j = 0; j < kBlock; ++j) {
          requests[j] = mix.next();
          snaps[j] = session.epoch_snapshot(requests[j].ixp);
        }
        const auto t1 = Clock::now();
        double others = 0;
        std::uint64_t links_in_block = 0;
        for (std::size_t j = 0; j < kBlock; ++j) {
          note_epoch(requests[j].ixp, snaps[j]->epoch());
          if (requests[j].kind == Request::Kind::Link) {
            read(requests[j], *snaps[j]);
            ++links_in_block;
            continue;
          }
          const auto a = Clock::now();
          read(requests[j], *snaps[j]);
          const double d = seconds_since(a);
          others += d;
          if (requests[j].kind == Request::Kind::Links) {
            links_of_s += d;
            ++links_ofs;
          }
        }
        const auto t2 = Clock::now();
        for (auto& s : snaps) s.reset();
        load_s += seconds_between(t0, t1);
        loads += kBlock;
        has_link_s += seconds_between(t1, t2) - others;
        has_links += links_in_block;
        reads_traced += kBlock;
      }
      if (!tracer.on()) continue;
      const auto now = Clock::now();
      if (seconds_between(period_start, now) >= 0.05) {
        (traced_period ? traced_s : plain_s) +=
            seconds_between(period_start, now);
        if (traced_period)
          tracer.add(0, "query.traced_reads", period_start, now);
        traced_period = !traced_period;
        period_start = now;
      }
    }
    const auto end = Clock::now();
    (traced_period ? traced_s : plain_s) += seconds_between(period_start, end);
    reader_s = seconds_between(start, end);
    reads = reads_plain + reads_traced;
    for (std::size_t i = 0; i < first.size(); ++i)
      epoch_advance += last[i] - first[i];
    if (sink == 0) std::fprintf(stderr, "reader: every read came back empty\n");
  });

  // Wire client: closed loop of one `link` request, then a pipelined batch
  // of 16 requests in the read mix.
  WireStats wire;
  double wire_s = 0;
  std::thread wire_thread([&] {
    restrict_to(cpus.one(3));
    ReadMix mix(in.contexts, seed ^ 0x5eed0002);
    std::vector<std::string> responses;
    std::string batch;
    // One cycle: a single `link` request, then a pipelined batch of 16.
    auto cycle = [&](bool record) {
      const std::string single = mix.line(mix.next_link());
      auto t0 = Clock::now();
      if (!exchange(client, single, 1, responses, wire)) return false;
      if (record) out.single_us.push_back(seconds_since(t0) * 1e6);
      batch.clear();
      for (std::size_t j = 0; j < kBatch; ++j) batch += mix.line(mix.next());
      t0 = Clock::now();
      if (!exchange(client, batch, kBatch, responses, wire)) return false;
      if (record) out.batch_us.push_back(seconds_since(t0) * 1e6);
      return true;
    };
    while (!window_open.load(std::memory_order_acquire))
      if (!cycle(false)) return;
    const auto start = Clock::now();
    while (!stop_readers.load(std::memory_order_relaxed))
      if (!cycle(true)) break;
    wire_s = seconds_since(start);
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  window_open.store(true, std::memory_order_release);
  const auto window_start = Clock::now();
  std::vector<double> block_rates;
  auto block_start = window_start;
  std::uint64_t block_records = session.records();
  while (seconds_since(window_start) < seconds) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kRateBlockSeconds));
    const auto now = Clock::now();
    const std::uint64_t records = session.records();
    block_rates.push_back(static_cast<double>(records - block_records) /
                          seconds_between(block_start, now));
    block_start = now;
    block_records = records;
  }
  out.window_s = seconds_since(window_start);
  stop_readers.store(true);
  reader.join();
  wire_thread.join();
  stop_feeder.store(true, std::memory_order_release);
  feeder.join();
  const auto live = session.finish();
  out.peak_heap_mb = heap_window.peak_mb();

  out.ingest_records_per_s = median(block_rates);
  out.reads_per_s = static_cast<double>(reads) / reader_s;
  out.reads_per_s_untraced_blocks =
      plain_s > 0 ? static_cast<double>(reads_plain) / plain_s : 0.0;
  out.reads_per_s_traced_blocks =
      traced_s > 0 ? static_cast<double>(reads_traced) / traced_s : 0.0;
  out.wire_rps = static_cast<double>(wire.responses) / wire_s;
  out.epochs_per_s = static_cast<double>(epoch_advance) / reader_s;
  auto per_ns = [](double s, std::uint64_t n) {
    return n == 0 ? 0.0 : s * 1e9 / static_cast<double>(n);
  };
  out.epoch_load_ns = per_ns(load_s, loads);
  out.has_link_ns = per_ns(has_link_s, has_links);
  out.links_of_ns = per_ns(links_of_s, links_ofs);

  // After finish(): a seeded sample of `link`/`links` answers must equal
  // the final link sets.
  std::mt19937_64 rng(seed ^ 0x5eed0003);
  ReadMix pairs(in.contexts, seed ^ 0x5eed0004);
  std::vector<std::vector<AsLink>> links(live.per_ixp.size());
  for (std::size_t i = 0; i < links.size(); ++i)
    links[i].assign(live.per_ixp[i].links.begin(), live.per_ixp[i].links.end());
  std::uint64_t sampled = 0, wrong = 0;
  std::vector<std::string> responses;
  for (int k = 0; k < 512 && !wire.broken; ++k) {
    Request r = pairs.next_link();
    if (k % 2 == 0 && !links[r.ixp].empty()) {
      const AsLink& l = links[r.ixp][rng() % links[r.ixp].size()];
      r.a = l.a, r.b = l.b;
    }
    if (!exchange(client, pairs.line(r), 1, responses, wire)) break;
    const bool want = live.per_ixp[r.ixp].links.count(AsLink(r.a, r.b)) != 0;
    ++sampled;
    if (responses[0] != (want ? "ok true" : "ok false")) ++wrong;
  }
  for (int k = 0; k < 64 && !wire.broken; ++k) {
    Request r = pairs.next_link();
    r.kind = Request::Kind::Links;
    if (!exchange(client, pairs.line(r), 1, responses, wire)) break;
    std::string want = "ok ";
    std::vector<Asn> partners;
    for (const AsLink& l : links[r.ixp]) {
      if (l.a == r.a) partners.push_back(l.b);
      if (l.b == r.a) partners.push_back(l.a);
    }
    std::sort(partners.begin(), partners.end());
    want += std::to_string(partners.size());
    for (const Asn p : partners) want += " " + std::to_string(p);
    ++sampled;
    if (responses[0] != want) ++wrong;
  }
  const std::uint64_t served = server->queries_served();
  out.served_ratio = wire.requests == 0
                         ? 0.0
                         : static_cast<double>(served) /
                               static_cast<double>(wire.requests);

  result.ops(chunks, thrown, "query: feed() threw");
  result.ops(reads, 0, "query: in-process reads");
  result.ops(wire.requests, wire.errors, "query: err responses");
  result.op(!wire.broken && wire.responses == wire.requests,
            format("query: %llu responses to %llu requests",
                   static_cast<unsigned long long>(wire.responses),
                   static_cast<unsigned long long>(wire.requests)));
  result.op(served == wire.requests,
            format("query: server counted %llu of %llu requests",
                   static_cast<unsigned long long>(served),
                   static_cast<unsigned long long>(wire.requests)));
  result.ops(sampled, wrong, "query: post-finish answers differ from finish()");
  result.op(sampled == 576, "query: post-finish sample incomplete");
  check_live_result("query", live, result);
  result.op(live.records == passes * in.records,
            format("query: %llu records framed in %llu passes",
                   static_cast<unsigned long long>(live.records),
                   static_cast<unsigned long long>(passes)));
  result.op(passes >= 1 && !out.single_us.empty() && !out.batch_us.empty(),
            "query: a thread made no progress");
  return out;
}

}  // namespace perfbench
