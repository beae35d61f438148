#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

#include "bench.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every global operator new/delete of the process goes
// through malloc and adds or removes malloc_usable_size() bytes. Each
// thread batches its net change and publishes it once it reaches
// kPublishBytes, so the shared counters are touched rarely; the peak is
// exact to within kPublishBytes per thread.

namespace {

constexpr std::int64_t kPublishBytes = 16 * 1024;

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void publish(std::int64_t delta) {
  const std::int64_t live =
      g_live.fetch_add(delta, std::memory_order_relaxed) + delta;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

struct PendingBytes {
  std::int64_t bytes = 0;
  ~PendingBytes() { publish(bytes); }
};
thread_local PendingBytes t_pending;

void account(std::int64_t delta) {
  std::int64_t& pending = t_pending.bytes;
  pending += delta;
  if (pending >= kPublishBytes || pending <= -kPublishBytes) {
    publish(pending);
    pending = 0;
  }
}

void count_alloc(void* p) {
  account(static_cast<std::int64_t>(malloc_usable_size(p)));
}

void count_free(void* p) {
  account(-static_cast<std::int64_t>(malloc_usable_size(p)));
}

void* allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  count_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  count_alloc(p);
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  count_free(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_aligned(n, a);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace perfbench {

namespace heap {
std::int64_t reset_peak() {
  const std::int64_t live = g_live.load(std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}
std::int64_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }
}  // namespace heap

mlp::scenario::ScenarioParams reproduce_params(std::uint64_t seed) {
  mlp::scenario::ScenarioParams params;
  params.topology.n_ases = 2000;
  params.membership_scale = 0.30;
  params.member_lgs = 40;
  params.seed = seed;
  return params;
}

// ---------------------------------------------------------------------------

Placement::Placement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE && cpus_.size() < 4; ++c)
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  if (cpus_.size() < 4) cpus_.clear();
}

std::vector<int> Placement::one(std::size_t k) const {
  return cpus_.empty() ? std::vector<int>{} : std::vector<int>{cpus_[k]};
}

std::vector<int> Placement::two(std::size_t k) const {
  return cpus_.empty() ? std::vector<int>{}
                       : std::vector<int>{cpus_[k], cpus_[k + 1]};
}

void restrict_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

void with_cpus(const std::vector<int>& cpus, const std::function<void()>& fn) {
  cpu_set_t saved;
  const bool restore =
      !cpus.empty() &&
      ::pthread_getaffinity_np(::pthread_self(), sizeof saved, &saved) == 0;
  restrict_to(cpus);
  fn();
  if (restore) ::pthread_setaffinity_np(::pthread_self(), sizeof saved, &saved);
}

// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

/// Nearest-rank percentile `p` of sorted `v` is v[ceil(p n) - 1]; the
/// samples beyond it are n - ceil(p n).
std::size_t rank_of(double p, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
}

}  // namespace

Tail tail(std::vector<double> values) {
  Tail out;
  out.samples = values.size();
  const std::size_t n = values.size();
  if (n == 0) return out;
  if (n >= kTailBlock) {
    // p95 of each block of consecutive samples (each block holds at least
    // kTailBlock, so ten or more lie beyond), then the median over blocks.
    const std::size_t blocks = n / kTailBlock;
    std::vector<double> block_tails;
    for (std::size_t b = 0; b < blocks; ++b) {
      std::vector<double> block(values.begin() + b * n / blocks,
                                values.begin() + (b + 1) * n / blocks);
      std::sort(block.begin(), block.end());
      block_tails.push_back(block[rank_of(95, block.size()) - 1]);
    }
    out.value = median(block_tails);
    out.percentile = 95;
    return out;
  }
  // Fewer samples: the highest percentile with ten samples beyond it.
  std::sort(values.begin(), values.end());
  for (const double p : {90.0, 85.0, 80.0, 75.0, 70.0, 60.0, 50.0}) {
    const std::size_t rank = rank_of(p, n);
    if (rank >= 1 && n - rank >= 10) {
      out.value = values[rank - 1];
      out.percentile = p;
      return out;
    }
  }
  out.value = values.back();  // fewer than 11 samples: the maximum
  out.percentile = 100;
  return out;
}

// ---------------------------------------------------------------------------

std::uint64_t Tracer::open() {
  return on_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

void Tracer::close(std::uint64_t id, std::uint64_t parent, const char* name,
                   Clock::time_point start, Clock::time_point end) {
  if (!on_) return;
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.start_s = seconds_between(origin_, start);
  span.end_s = seconds_between(origin_, end);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::uint64_t Tracer::add(std::uint64_t parent, const char* name,
                          Clock::time_point start, Clock::time_point end) {
  const std::uint64_t id = open();
  close(id, parent, name, start, end);
  return id;
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, double> child_time;
  for (const Span& s : spans_)
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans_) {
    LayerTime& t = out[s.name];
    const double d = s.end_s - s.start_s;
    t.total_s += d;
    const auto it = child_time.find(s.id);
    t.self_s += d - (it == child_time.end() ? 0.0 : it->second);
    ++t.count;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.name.c_str(),
                  s.start_s, s.end_s);
    out << line;
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

void Result::op(bool ok, const std::string& what) {
  ops(1, ok ? 0 : 1, what);
}

void Result::ops(std::uint64_t n, std::uint64_t failed,
                 const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed != 0)
    std::fprintf(stderr, "FAILED: %s (%llu of %llu)\n", what.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(n));
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::note(const std::string& line) {
  notes_.push_back(line);
}

std::string Result::json() const {
  std::string out = format("{\"correct\": %s, \"attempted\": %llu, "
                           "\"failed\": %llu, \"metrics\": {",
                           failed_ == 0 ? "true" : "false",
                           static_cast<unsigned long long>(attempted_),
                           static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, value_unit] : metrics_) {
    const double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v,
                  value_unit.second.c_str());
    first = false;
  }
  return out + "}}";
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
