// Ground truth across scenario seeds: the full Table 2 inference of the
// report binaries (bench/common.cpp), scored against the scenario's own
// multilateral links.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common.hpp"

namespace mlp {
namespace {

/// The paper confirms 98.4% of the links it infers (Table 3), so at most
/// 1.6% of the inferred links may be false positives on any seed.
constexpr double kPaperFalsePositiveShare = 0.016;
constexpr std::uint64_t kDefaultSeed = 20130501;

class SeedBand : public ::testing::TestWithParam<std::uint64_t> {};

// Seed 11 is the worst seed known (1.19%): a setter misidentified under
// the inferred relationships. It stays in the band so that defect shows.
INSTANTIATE_TEST_SUITE_P(
    Seeds, SeedBand,
    ::testing::Values(kDefaultSeed, 1, 2, 3, 4, 5, 6, 11),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

TEST_P(SeedBand, FalsePositiveShareWithinPaperResidue) {
  auto params = bench::default_params();
  params.seed = GetParam();
  scenario::Scenario s(params);
  const auto run = bench::run_full_inference(s);

  std::size_t inferred = 0, false_positives = 0;
  for (std::size_t i = 0; i < s.ixps().size(); ++i) {
    inferred += run.links_per_ixp[i].size();
    for (const auto& link : run.links_per_ixp[i])
      if (!s.ixps()[i].rs_links.count(link)) ++false_positives;
  }
  std::printf("seed %llu: %zu false positives of %zu inferred links\n",
              static_cast<unsigned long long>(GetParam()), false_positives,
              inferred);
  ASSERT_GT(inferred, 0u);
  EXPECT_LE(static_cast<double>(false_positives),
            kPaperFalsePositiveShare * static_cast<double>(inferred));
  if (GetParam() == kDefaultSeed) {
    EXPECT_EQ(false_positives, 0u);
  }
}

}  // namespace
}  // namespace mlp
