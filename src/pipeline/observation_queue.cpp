#include "pipeline/observation_queue.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "core/state_codec.hpp"
#include "util/errors.hpp"

namespace mlp::pipeline {
namespace {

/// Frontier sentinel: no open, non-idle source constrains the merge.
constexpr std::uint32_t kUnbounded = std::numeric_limits<std::uint32_t>::max();
/// Above every real rank (a key and a source index of UINT32_MAX).
constexpr std::uint64_t kNoRank = std::numeric_limits<std::uint64_t>::max();

/// Strictly below the frontier (a source may still emit AT its own bound,
/// so ties must wait) -- or anything, when nothing constrains.
bool drainable(std::uint32_t frontier, std::uint64_t rank) {
  return frontier == kUnbounded || (rank >> 32) < frontier;
}

}  // namespace

ObservationQueue::ObservationQueue(std::size_t n_sources, MergePolicy policy)
    : policy_(policy), sources_(n_sources) {}

void ObservationQueue::add_source() {
  util::MutexLock lock(mutex_);
  sources_.emplace_back();
}

void ObservationQueue::push(std::size_t source,
                            std::vector<core::Observation> batch) {
  util::MutexLock lock(mutex_);
  auto& pending = checked_locked(source).pending;
  pending.insert(pending.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
}

void ObservationQueue::set_watermark(std::size_t source,
                                     std::uint32_t watermark) {
  if (policy_ != MergePolicy::Watermark) return;
  util::MutexLock lock(mutex_);
  Source& entry = checked_locked(source);
  if (watermark > entry.watermark) entry.watermark = watermark;  // monotone
}

void ObservationQueue::set_idle(std::size_t source, bool idle) {
  if (policy_ != MergePolicy::Watermark) return;
  util::MutexLock lock(mutex_);
  checked_locked(source).idle = idle;
}

void ObservationQueue::close(std::size_t source) {
  util::MutexLock lock(mutex_);
  checked_locked(source).closed = true;
}

void ObservationQueue::reopen(std::size_t source) {
  util::MutexLock lock(mutex_);
  if (policy_ != MergePolicy::Watermark)
    throw InvalidArgument(
        "observation queue: reopen() requires the Watermark policy");
  checked_locked(source).closed = false;
}

ObservationQueue::Source& ObservationQueue::checked_locked(
    std::size_t source) {
  if (source >= sources_.size())
    throw InvalidArgument("observation queue: bad source index");
  return sources_[source];
}

std::uint32_t ObservationQueue::frontier_locked() const {
  std::uint32_t frontier = kUnbounded;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const Source& source = sources_[i];
    if (source.closed || source.idle) continue;
    frontier = std::min(frontier, policy_ == MergePolicy::Concatenate
                                      ? static_cast<std::uint32_t>(i + 1)
                                      : source.watermark);
  }
  return frontier;
}

std::uint64_t ObservationQueue::rank_locked(std::size_t source) const {
  const std::uint64_t key = policy_ == MergePolicy::Concatenate
                                ? source
                                : sources_[source].pending.front().timestamp;
  return key << 32 | source;
}

bool ObservationQueue::try_pop(std::vector<core::Observation>& out) {
  util::MutexLock lock(mutex_);
  out.clear();
  const std::uint32_t frontier = frontier_locked();
  for (;;) {
    // The smallest drainable front wins and streams until its next front
    // would rank behind the runner-up's (ranks are unique: the source
    // index is part of them).
    std::size_t best = sources_.size();
    std::uint64_t best_rank = kNoRank;
    std::uint64_t runner_up = kNoRank;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (sources_[i].pending.empty()) continue;
      const std::uint64_t rank = rank_locked(i);
      if (!drainable(frontier, rank)) continue;
      if (rank < best_rank) {
        runner_up = best_rank;
        best_rank = rank;
        best = i;
      } else if (rank < runner_up) {
        runner_up = rank;
      }
    }
    if (best == sources_.size()) return !out.empty();
    auto& pending = sources_[best].pending;
    do {
      out.push_back(std::move(pending.front()));
      pending.pop_front();
    } while (!pending.empty() && rank_locked(best) < runner_up &&
             drainable(frontier, rank_locked(best)));
  }
}

bool ObservationQueue::has_ready() {
  util::MutexLock lock(mutex_);
  const std::uint32_t frontier = frontier_locked();
  for (std::size_t i = 0; i < sources_.size(); ++i)
    if (!sources_[i].pending.empty() && drainable(frontier, rank_locked(i)))
      return true;
  return false;
}

std::uint32_t ObservationQueue::min_watermark() {
  util::MutexLock lock(mutex_);
  // Concatenate's bounds are source positions, not stream time: report
  // the sentinel instead of a bogus timestamp.
  return policy_ == MergePolicy::Watermark ? frontier_locked() : kUnbounded;
}

std::size_t ObservationQueue::depth() {
  util::MutexLock lock(mutex_);
  std::size_t total = 0;
  for (const Source& source : sources_) total += source.pending.size();
  return total;
}

std::size_t ObservationQueue::depth(std::size_t source) {
  util::MutexLock lock(mutex_);
  return checked_locked(source).pending.size();
}

void ObservationQueue::serialize_state(ByteWriter& writer) {
  util::MutexLock lock(mutex_);
  writer.u32(static_cast<std::uint32_t>(sources_.size()));
  for (const Source& source : sources_) {
    writer.u8(static_cast<std::uint8_t>((source.idle ? 1 : 0) |
                                        (source.closed ? 2 : 0)));
    writer.u32(source.watermark);
    writer.u32(static_cast<std::uint32_t>(source.pending.size()));
    for (const core::Observation& observation : source.pending)
      core::codec::write_observation(writer, observation);
  }
}

void ObservationQueue::restore_state(ByteReader& reader) {
  // Parse the full image into locals first: a ParseError anywhere must
  // leave the queue exactly as it was.
  const std::size_t count =
      core::codec::read_count(reader, 9, "queue source");
  std::vector<Source> sources(count);
  for (Source& source : sources) {
    const std::uint8_t flags = reader.u8();
    if (flags > 3)
      throw ParseError("checkpoint: queue source flags " +
                       std::to_string(flags));
    source.idle = (flags & 1) != 0;
    source.closed = (flags & 2) != 0;
    source.watermark = reader.u32();
    const std::size_t pending =
        core::codec::read_count(reader, 14, "queued observation");
    for (std::size_t i = 0; i < pending; ++i)
      source.pending.push_back(core::codec::read_observation(reader));
  }

  util::MutexLock lock(mutex_);
  if (count != sources_.size())
    throw ParseError("checkpoint: queue source count " +
                     std::to_string(count) + " does not match the " +
                     std::to_string(sources_.size()) + " registered feeds");
  sources_ = std::move(sources);
}

}  // namespace mlp::pipeline
