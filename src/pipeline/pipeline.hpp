// Parallel multi-IXP inference pipeline over archives.
//
//   MRT archives / raw paths / pre-attributed observations   (sources)
//        |  one streaming PassiveExtractor task per source, in parallel;
//        |  batches are pushed mid-decode, so no task ever materializes
//        |  a whole archive
//        v
//   ShardSet (shard_set.hpp) under Concatenate: per-IXP queues drained in
//        |  source-index order into one engine per IXP
//        v  after the drain settles, per IXP in parallel
//   active LG survey for uncovered members -> final epoch -> IxpResult
//        v
//   join: global link set, merged stats, optional IRR reciprocity pass
//
// The link sets are byte-identical for any thread count and batch size,
// and equal a LiveSession's under MergePolicy::Concatenate over the same
// per-source bytes: both drain through one ShardSet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/active.hpp"
#include "core/engine.hpp"
#include "core/passive.hpp"
#include "core/reciprocity.hpp"
#include "core/types.hpp"
#include "lg/lg_server.hpp"
#include "pipeline/shard_set.hpp"

namespace mlp::pipeline {

using bgp::AsLink;
using core::Asn;

struct PipelineConfig {
  /// Worker threads; 0 means hardware concurrency.
  std::size_t threads = 0;
  /// Observations per queue batch.
  std::size_t batch_size = 256;
  core::PassiveConfig passive;
  core::ActiveConfig active;
  /// Forwarded to MlpInferenceEngine::infer_links.
  bool assume_open_for_unobserved = false;
};

/// One decoded path observation (the third-party-LG feed).
struct RawPath {
  bgp::AsPath path;
  bgp::IpPrefix prefix;
  std::vector<bgp::Community> communities;
  core::Source source = core::Source::ThirdPartyLg;
};

struct PipelineResult {
  std::vector<IxpResult> per_ixp;
  /// The engines themselves (policy_of etc. for downstream reports),
  /// aligned with per_ixp.
  std::vector<core::MlpInferenceEngine> engines;
  /// Union of links over every IXP.
  std::set<AsLink> all_links;
  /// Passive stats merged over all extraction sources.
  core::PassiveStats passive;
  /// Engine stats summed over all IXPs.
  core::EngineStats totals;
  std::size_t total_active_queries = 0;
  /// Section 4.4 validation, present when an IRR database was attached.
  std::optional<core::ReciprocityReport> reciprocity;
};

/// Orchestrates passive + active inference over many IXPs on a thread
/// pool. Register IXPs and input sources, then call run() exactly once.
class InferencePipeline {
 public:
  explicit InferencePipeline(PipelineConfig config = PipelineConfig{});

  /// Register one IXP. `lg` (optional, non-owning, must outlive run())
  /// enables the active survey for members without passive coverage.
  /// Returns the IXP's index.
  std::size_t add_ixp(core::IxpContext context,
                      lg::LookingGlassServer* lg = nullptr);

  /// Queue a TABLE_DUMP_V2 archive for passive extraction.
  void add_table_dump(std::vector<std::uint8_t> archive);

  /// Zero-copy overload: the pipeline borrows the shared buffer (e.g. one
  /// archive fed to several pipelines, or an mmapped file wrapper).
  void add_table_dump(std::shared_ptr<const std::vector<std::uint8_t>> archive);

  /// Queue a BGP4MP update archive (transient filtering applies).
  void add_update_stream(std::vector<std::uint8_t> archive);

  /// Zero-copy overload of add_update_stream.
  void add_update_stream(
      std::shared_ptr<const std::vector<std::uint8_t>> archive);

  /// Queue already-decoded paths (e.g. gathered from member LGs); they run
  /// through the same attribution machinery as the archives.
  void add_paths(std::vector<RawPath> paths);

  /// Queue pre-attributed observations for one registered IXP, bypassing
  /// extraction (e.g. a route-server RIB read directly).
  void add_observations(const std::string& ixp_name,
                        std::vector<core::Observation> observations);

  /// Relationship oracle for setter case 3 (may stay unset).
  void set_relationships(bgp::RelFn relationships);

  /// Attach an IRR database: run() then ends with a reciprocity
  /// validation pass over every observed member (non-owning).
  void set_irr(const irr::IrrDatabase* database);

  /// Execute the pipeline. Consumes the queued inputs; callable once.
  /// Throws mlp::ParseError naming the source index if any source fails
  /// to decode.
  PipelineResult run();

 private:
  struct IxpSlot {
    core::IxpContext context;
    lg::LookingGlassServer* lg = nullptr;
  };

  /// One queued input, run once on the pool as source `source`: it feeds
  /// `extractor` (whose sink pushes under `source`) or pushes
  /// pre-attributed batches itself.
  using Source = std::function<void(core::PassiveExtractor& extractor,
                                    ShardSet& shards, std::size_t source)>;

  /// Index of the registered IXP called `name`, or ixps_.size().
  std::size_t find_ixp(const std::string& name) const;

  PipelineConfig config_;
  std::vector<IxpSlot> ixps_;
  std::vector<Source> sources_;
  bgp::RelFn relationships_;
  const irr::IrrDatabase* irr_ = nullptr;
  bool ran_ = false;
};

}  // namespace mlp::pipeline
