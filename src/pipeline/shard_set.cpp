#include "pipeline/shard_set.hpp"

#include <algorithm>
#include <utility>

#include "util/errors.hpp"

namespace mlp::pipeline {

std::set<AsLink> merge_links(const std::vector<IxpResult>& per_ixp) {
  std::vector<AsLink> merged;
  for (const IxpResult& slot : per_ixp)
    merged.insert(merged.end(), slot.links.begin(), slot.links.end());
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  std::set<AsLink> out;
  for (const AsLink& link : merged) out.insert(out.end(), link);
  return out;
}

ShardSet::ShardSet(
    std::shared_ptr<const std::vector<core::IxpContext>> contexts,
    MergePolicy policy, std::size_t threads,
    std::size_t publish_every_batches, bool assume_open_for_unobserved)
    : contexts_(std::move(contexts)),
      publish_every_batches_(publish_every_batches),
      assume_open_(assume_open_for_unobserved),
      pool_(util::ThreadPool::resolve(threads)) {
  for (std::size_t i = 0; i < contexts_->size(); ++i)
    if (ixp_index((*contexts_)[i].name) != i)
      throw InvalidArgument("shard set: duplicate IXP \"" +
                            (*contexts_)[i].name + "\"");
  shards_.reserve(contexts_->size());
  for (const core::IxpContext& context : *contexts_)
    shards_.push_back(std::make_unique<Shard>(context, policy));
  for (std::size_t i = 0; i < shards_.size(); ++i) publish_epoch(i);
}

void ShardSet::add_source() {
  for (auto& shard : shards_) shard->queue.add_source();
}

void ShardSet::push(std::size_t source, std::size_t ixp,
                    std::vector<core::Observation> batch) {
  checked(ixp).queue.push(source, std::move(batch));
  schedule_pump(ixp);
}

void ShardSet::each_queue(
    const std::function<void(ObservationQueue&)>& op) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    op(shards_[i]->queue);
    schedule_pump(i);
  }
}

void ShardSet::set_watermark(std::size_t source, std::uint32_t watermark) {
  // Raising one source's watermark can lift the merge frontier past other
  // sources' queued observations.
  each_queue([&](ObservationQueue& q) { q.set_watermark(source, watermark); });
}

void ShardSet::set_idle(std::size_t source, bool idle) {
  each_queue([&](ObservationQueue& q) { q.set_idle(source, idle); });
}

void ShardSet::close(std::size_t source) {
  // The source stops constraining the watermark / later sources become the
  // in-order head, and its queued observations become drainable.
  each_queue([&](ObservationQueue& q) { q.close(source); });
}

void ShardSet::reopen(std::size_t source) {
  each_queue([&](ObservationQueue& q) { q.reopen(source); });
}

void ShardSet::schedule_all() {
  for (std::size_t i = 0; i < shards_.size(); ++i) schedule_pump(i);
}

std::size_t ShardSet::depth(std::size_t source) const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->queue.depth(source);
  return total;
}

void ShardSet::pump(std::size_t ixp) {
  Shard& shard = *shards_[ixp];
  std::vector<core::Observation> batch;
  for (;;) {
    while (shard.queue.try_pop(batch)) {
      for (const core::Observation& observation : batch)
        shard.engine.add(observation);
      // Mid-run publish cadence: bound reader staleness even while a
      // deep backlog drains.
      if (publish_every_batches_ != 0 &&
          ++shard.batches_since_publish >= publish_every_batches_)
        publish_epoch(ixp);
    }
    // The drain run settled (the merge frontier is exhausted): publish
    // INSIDE the ownership window -- after the store(false) below a
    // successor pump may own the engine.
    publish_epoch(ixp);
    shard.pump_scheduled.store(false, std::memory_order_release);
    if (!shard.queue.has_ready()) return;
    // A push raced in after the drain: reclaim sole ownership unless the
    // producer already scheduled a successor pump.
    if (shard.pump_scheduled.exchange(true, std::memory_order_acq_rel))
      return;
  }
}

void ShardSet::schedule_pump(std::size_t ixp) {
  Shard& shard = *shards_[ixp];
  if (!shard.pump_scheduled.exchange(true, std::memory_order_acq_rel))
    pool_.submit([this, ixp] { pump(ixp); });
}

void ShardSet::publish_epoch(std::size_t ixp) {
  Shard& shard = *shards_[ixp];
  shard.batches_since_publish = 0;
  const std::uint64_t generation = shard.engine.generation();
  // Re-publishing an unchanged generation would be a copy for nothing:
  // the current epoch already describes this exact state.
  if (shard.epochs_published.load(std::memory_order_relaxed) != 0 &&
      generation == shard.last_published_generation)
    return;
  const std::uint64_t epoch =
      shard.epochs_published.load(std::memory_order_relaxed) + 1;
  shard.published.store(shard.engine.freeze(assume_open_, epoch),
                        std::memory_order_release);
  shard.epochs_published.store(epoch, std::memory_order_release);
  shard.last_published_generation = generation;
}

std::vector<IxpResult> ShardSet::results(const PostDrain& post_drain) {
  std::vector<IxpResult> out(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    pool_.submit([this, i, &out, &post_drain] {
      if (post_drain) post_drain(i, shards_[i]->engine, out[i]);
      publish_epoch(i);
      const auto epoch = shards_[i]->published.load(std::memory_order_acquire);
      IxpResult& slot = out[i];
      slot.name = epoch->ixp();
      slot.links = epoch->links();
      slot.stats = epoch->stats();
      slot.observed_members = epoch->observed_members();
      slot.rejected_observations = epoch->rejected_observations();
    });
  }
  pool_.wait_idle();
  return out;
}

ShardSet::Shard& ShardSet::checked(std::size_t ixp) const {
  if (ixp >= shards_.size())
    throw InvalidArgument("shard set: bad IXP index");
  return *shards_[ixp];
}

std::shared_ptr<const core::EngineSnapshot> ShardSet::epoch_snapshot(
    std::size_t ixp) const {
  return checked(ixp).published.load(std::memory_order_acquire);
}

std::size_t ShardSet::ixp_index(const std::string& ixp) const {
  // The IXP set is immutable after construction, so the name scan needs
  // no lock.
  for (std::size_t i = 0; i < contexts_->size(); ++i)
    if ((*contexts_)[i].name == ixp) return i;
  throw InvalidArgument("unknown IXP \"" + ixp + "\"");
}

std::uint32_t ShardSet::merge_frontier(std::size_t ixp) const {
  return checked(ixp).queue.min_watermark();
}

std::size_t ShardSet::merge_backlog(std::size_t ixp) const {
  return checked(ixp).queue.depth();
}

}  // namespace mlp::pipeline
