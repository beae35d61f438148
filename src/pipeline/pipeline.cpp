#include "pipeline/pipeline.hpp"

#include <memory>
#include <string>
#include <utility>

#include "util/errors.hpp"

namespace mlp::pipeline {

InferencePipeline::InferencePipeline(PipelineConfig config)
    : config_(std::move(config)) {
  if (config_.batch_size == 0) config_.batch_size = 1;
}

std::size_t InferencePipeline::find_ixp(const std::string& name) const {
  for (std::size_t i = 0; i < ixps_.size(); ++i)
    if (ixps_[i].context.name == name) return i;
  return ixps_.size();
}

std::size_t InferencePipeline::add_ixp(core::IxpContext context,
                                       lg::LookingGlassServer* lg) {
  if (find_ixp(context.name) != ixps_.size())
    throw InvalidArgument("pipeline: duplicate IXP " + context.name);
  ixps_.push_back(IxpSlot{std::move(context), lg});
  return ixps_.size() - 1;
}

void InferencePipeline::add_table_dump(std::vector<std::uint8_t> archive) {
  add_table_dump(std::make_shared<const std::vector<std::uint8_t>>(
      std::move(archive)));
}

void InferencePipeline::add_table_dump(
    std::shared_ptr<const std::vector<std::uint8_t>> archive) {
  sources_.push_back([archive = std::move(archive)](
                         core::PassiveExtractor& extractor, ShardSet&,
                         std::size_t) {
    extractor.consume_table_dump(*archive);
  });
}

void InferencePipeline::add_update_stream(std::vector<std::uint8_t> archive) {
  add_update_stream(std::make_shared<const std::vector<std::uint8_t>>(
      std::move(archive)));
}

void InferencePipeline::add_update_stream(
    std::shared_ptr<const std::vector<std::uint8_t>> archive) {
  sources_.push_back([archive = std::move(archive)](
                         core::PassiveExtractor& extractor, ShardSet&,
                         std::size_t) {
    extractor.consume_update_stream(*archive);
  });
}

void InferencePipeline::add_paths(std::vector<RawPath> paths) {
  sources_.push_back([paths = std::move(paths)](
                         core::PassiveExtractor& extractor, ShardSet&,
                         std::size_t) {
    for (const RawPath& raw : paths)
      extractor.consume_path(raw.path, raw.prefix, raw.communities,
                             raw.source);
  });
}

void InferencePipeline::add_observations(
    const std::string& ixp_name,
    std::vector<core::Observation> observations) {
  const std::size_t target = find_ixp(ixp_name);
  if (target == ixps_.size())
    throw InvalidArgument("pipeline: unknown IXP " + ixp_name);
  // Already attributed: one batch, drained in the same order as any split
  // of it would be.
  sources_.push_back([target, batch = std::move(observations)](
                         core::PassiveExtractor&, ShardSet& shards,
                         std::size_t source) mutable {
    shards.push(source, target, std::move(batch));
  });
}

void InferencePipeline::set_relationships(bgp::RelFn relationships) {
  relationships_ = std::move(relationships);
}

void InferencePipeline::set_irr(const irr::IrrDatabase* database) {
  irr_ = database;
}

PipelineResult InferencePipeline::run() {
  if (ran_) throw InvalidArgument("pipeline: run() already executed");
  ran_ = true;

  auto contexts = std::make_shared<std::vector<core::IxpContext>>();
  contexts->reserve(ixps_.size());
  for (const IxpSlot& slot : ixps_) contexts->push_back(slot.context);
  // Nothing reads epochs while an archive run drains, so the pumps
  // publish only when a drain run settles (cadence 0).
  ShardSet shards(contexts, MergePolicy::Concatenate,
                  config_.threads, /*publish_every_batches=*/0,
                  config_.assume_open_for_unobserved);

  // One extraction task per source. Each pushes under its own source
  // index and closes it at end of input; the pumps drain every source in
  // index order under Concatenate.
  const std::size_t n_sources = sources_.size();
  std::vector<core::PassiveStats> source_stats(n_sources);
  for (std::size_t s = 0; s < n_sources; ++s) {
    shards.add_source();  // source index s
    shards.submit([this, s, &contexts, &shards, &source_stats] {
      try {
        // Streaming mode: the sink pushes each full batch into its IXP's
        // shard mid-decode (the extractor's dense IXP index is the
        // add_ixp order, i.e. the shard index), so inference starts while
        // the archive is still being decoded and no task holds more than
        // O(batch x IXPs) observations.
        core::PassiveExtractor extractor(contexts, relationships_,
                                         config_.passive);
        extractor.set_sink(
            [&shards, s](std::size_t ixp,
                         std::vector<core::Observation>&& batch) {
              shards.push(s, ixp, std::move(batch));
            },
            config_.batch_size);
        sources_[s](extractor, shards, s);
        extractor.finish();
        source_stats[s] = extractor.stats();
      } catch (const std::exception& e) {
        throw ParseError("pipeline: source " + std::to_string(s) + ": " +
                         e.what());
      }
      shards.close(s);
    });
  }
  shards.wait_idle();

  // Post-drain, per settled shard: survey the LG for the members that
  // passive data did not cover (equation 2), then read the result.
  PipelineResult result;
  result.per_ixp = shards.results([this](std::size_t i,
                                         core::MlpInferenceEngine& engine,
                                         IxpResult& slot) {
    if (ixps_[i].lg == nullptr) return;
    const auto survey =
        core::run_active_survey(*ixps_[i].lg, config_.active,
                                core::FlatAsnSet(engine.observed_members()));
    slot.active_queries = survey.queries;
    for (const core::Observation& observation : survey.observations)
      engine.add(observation);
  });
  for (const auto& shard : shards)
    result.engines.push_back(std::move(shard->engine));
  for (const core::PassiveStats& stats : source_stats)
    result.passive += stats;
  for (const IxpResult& slot : result.per_ixp) {
    result.totals += slot.stats;
    result.total_active_queries += slot.active_queries;
  }
  result.all_links = merge_links(result.per_ixp);

  if (irr_ != nullptr) {
    // Concatenate every IXP's contribution once and let the FlatAsnSet
    // constructor sort+unique, instead of re-merging the accumulated set
    // per IXP.
    std::vector<Asn> member_pool;
    std::vector<Asn> peer_pool;
    for (std::size_t i = 0; i < ixps_.size(); ++i) {
      const auto& observed = result.per_ixp[i].observed_members;
      member_pool.insert(member_pool.end(), observed.begin(),
                         observed.end());
      const auto& rs_members = ixps_[i].context.rs_members;
      peer_pool.insert(peer_pool.end(), rs_members.begin(),
                       rs_members.end());
    }
    result.reciprocity =
        core::check_reciprocity(*irr_, core::FlatAsnSet(std::move(member_pool)),
                                core::FlatAsnSet(std::move(peer_pool)));
  }
  return result;
}

}  // namespace mlp::pipeline
