#include "pipeline/observation_queue.hpp"

#include <limits>
#include <string>
#include <utility>

#include "core/state_codec.hpp"
#include "util/errors.hpp"

namespace mlp::pipeline {

ObservationQueue::ObservationQueue(std::size_t n_sources, MergePolicy policy)
    : policy_(policy), sources_(n_sources) {}

void ObservationQueue::add_source() {
  util::MutexLock lock(mutex_);
  sources_.emplace_back();
}

void ObservationQueue::push(std::size_t source,
                            std::vector<core::Observation> batch) {
  if (batch.empty()) return;
  util::MutexLock lock(mutex_);
  if (source >= sources_.size())
    throw InvalidArgument("observation queue: bad source index");
  if (policy_ == MergePolicy::Watermark) {
    auto& pending = sources_[source].pending;
    pending.insert(pending.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  } else {
    sources_[source].batches.push_back(std::move(batch));
  }
}

void ObservationQueue::set_watermark(std::size_t source,
                                     std::uint32_t watermark) {
  if (policy_ != MergePolicy::Watermark) return;
  util::MutexLock lock(mutex_);
  if (source >= sources_.size())
    throw InvalidArgument("observation queue: bad source index");
  Source& entry = sources_[source];
  if (watermark > entry.watermark) entry.watermark = watermark;  // monotone
}

void ObservationQueue::set_idle(std::size_t source, bool idle) {
  if (policy_ != MergePolicy::Watermark) return;
  util::MutexLock lock(mutex_);
  if (source >= sources_.size())
    throw InvalidArgument("observation queue: bad source index");
  sources_[source].idle = idle;
}

void ObservationQueue::close(std::size_t source) {
  util::MutexLock lock(mutex_);
  if (source >= sources_.size())
    throw InvalidArgument("observation queue: bad source index");
  sources_[source].closed = true;
}

void ObservationQueue::reopen(std::size_t source) {
  util::MutexLock lock(mutex_);
  if (policy_ != MergePolicy::Watermark)
    throw InvalidArgument(
        "observation queue: reopen() requires the Watermark policy");
  if (source >= sources_.size())
    throw InvalidArgument("observation queue: bad source index");
  sources_[source].closed = false;
}

std::uint32_t ObservationQueue::min_watermark_locked() const {
  std::uint32_t min = std::numeric_limits<std::uint32_t>::max();
  bool constrained = false;
  for (const Source& source : sources_) {
    if (source.closed || source.idle) continue;
    constrained = true;
    if (source.watermark < min) min = source.watermark;
  }
  // No open non-idle source: nothing can emit below any timestamp, so
  // everything queued is drainable (the sentinel max).
  return constrained ? min : std::numeric_limits<std::uint32_t>::max();
}

std::size_t ObservationQueue::next_source_locked() {
  const std::size_t none = sources_.size();
  if (policy_ == MergePolicy::Concatenate) {
    // The in-order head: step the cursor over closed, drained sources.
    for (; cursor_ < none; ++cursor_) {
      if (!sources_[cursor_].batches.empty()) return cursor_;
      if (!sources_[cursor_].closed) break;
    }
    return none;
  }
  // Eligible: strictly below the min watermark (a source may still emit
  // AT its own watermark, so ties with the watermark must wait) -- except
  // when nothing constrains, where the sentinel admits everything.
  const std::uint32_t min = min_watermark_locked();
  const bool drain_all = min == std::numeric_limits<std::uint32_t>::max();
  std::size_t best = none;
  std::uint32_t best_ts = 0;
  for (std::size_t i = 0; i < none; ++i) {
    const auto& pending = sources_[i].pending;
    if (pending.empty()) continue;
    const std::uint32_t ts = pending.front().timestamp;
    if (!drain_all && ts >= min) continue;
    if (best == none || ts < best_ts) {
      best = i;  // equal timestamps: lowest source index wins
      best_ts = ts;
    }
  }
  return best;
}

bool ObservationQueue::try_pop(std::vector<core::Observation>& out) {
  util::MutexLock lock(mutex_);
  out.clear();
  // Concatenate hands out the head batch whole; Watermark gathers every
  // eligible observation in merge order.
  for (std::size_t next; (next = next_source_locked()) != sources_.size();) {
    Source& source = sources_[next];
    if (policy_ == MergePolicy::Concatenate) {
      out = std::move(source.batches.front());
      source.batches.pop_front();
      return true;
    }
    out.push_back(std::move(source.pending.front()));
    source.pending.pop_front();
  }
  return !out.empty();
}

bool ObservationQueue::has_ready() {
  util::MutexLock lock(mutex_);
  return next_source_locked() != sources_.size();
}

std::uint32_t ObservationQueue::min_watermark() {
  util::MutexLock lock(mutex_);
  // Concatenate sources publish no watermarks, so every source reads as
  // an unconstrained 0 there; report the sentinel instead of a bogus 0.
  if (policy_ != MergePolicy::Watermark)
    return std::numeric_limits<std::uint32_t>::max();
  return min_watermark_locked();
}

std::size_t ObservationQueue::depth() {
  util::MutexLock lock(mutex_);
  std::size_t total = 0;
  for (const Source& source : sources_) {
    total += source.pending.size();
    for (const auto& batch : source.batches) total += batch.size();
  }
  return total;
}

std::size_t ObservationQueue::depth(std::size_t source) {
  util::MutexLock lock(mutex_);
  if (source >= sources_.size())
    throw InvalidArgument("observation queue: bad source index");
  std::size_t total = sources_[source].pending.size();
  for (const auto& batch : sources_[source].batches) total += batch.size();
  return total;
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
    writer.u32(static_cast<std::uint32_t>(source.batches.size()));
    for (const auto& batch : source.batches) {
      writer.u32(static_cast<std::uint32_t>(batch.size()));
      for (const core::Observation& observation : batch)
        core::codec::write_observation(writer, observation);
    }
  }
  writer.u32(static_cast<std::uint32_t>(cursor_));
}

void ObservationQueue::restore_state(ByteReader& reader) {
  // Parse the full image into locals first: a ParseError anywhere must
  // leave the queue exactly as it was.
  const std::size_t count =
      core::codec::read_count(reader, 13, "queue source");
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
    const std::size_t batches =
        core::codec::read_count(reader, 4, "queued batch");
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t size =
          core::codec::read_count(reader, 14, "batched observation");
      std::vector<core::Observation> batch;
      batch.reserve(size);
      for (std::size_t i = 0; i < size; ++i)
        batch.push_back(core::codec::read_observation(reader));
      source.batches.push_back(std::move(batch));
    }
  }
  const std::size_t cursor = reader.u32();
  if (cursor > count)
    throw ParseError("checkpoint: queue cursor past the source count");

  util::MutexLock lock(mutex_);
  if (count != sources_.size())
    throw ParseError("checkpoint: queue source count " +
                     std::to_string(count) + " does not match the " +
                     std::to_string(sources_.size()) + " registered feeds");
  sources_ = std::move(sources);
  cursor_ = cursor;
}

}  // namespace mlp::pipeline
