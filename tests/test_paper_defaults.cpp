// Guard rails: the library defaults must match the paper's experimental
// setup (§IV-A) so every bench/example reproduces it out of the box.
#include <gtest/gtest.h>

#include "baselines/opt/opt_system.hpp"
#include "baselines/rvr/rvr_system.hpp"
#include "core/config.hpp"
#include "workload/subscription_models.hpp"

namespace vitis {
namespace {

TEST(PaperDefaults, VitisConfigMatchesSectionIVA) {
  const core::VitisConfig config;
  EXPECT_EQ(config.routing_table_size, 15u);  // "routing table size ... 15"
  EXPECT_EQ(config.structural_links, 3u);     // "k is set to 3"
  EXPECT_EQ(config.gateway_depth, 5u);        // "d is set to 5"
  EXPECT_EQ(config.friend_links(), 12u);      // 15 - (pred + succ + 1 sw)
  EXPECT_EQ(config.sampling, gossip::SamplingPolicy::kNewscast);
  EXPECT_DOUBLE_EQ(config.proximity_weight, 0.0);  // extension off
  EXPECT_NO_THROW(config.validate());
}

TEST(PaperDefaults, BaselinesShareTheDegreeBound) {
  const baselines::rvr::RvrConfig rvr;
  EXPECT_EQ(rvr.base.routing_table_size, 15u);
  const baselines::opt::OptConfig opt;
  EXPECT_EQ(opt.base.routing_table_size, 15u);
  EXPECT_EQ(opt.coverage_target, 2u);
  EXPECT_FALSE(opt.unbounded);
}

TEST(PaperDefaults, SyntheticPatternGeometry) {
  // 5000 topics / 100 buckets = 50 topics per bucket; 50 subs per node.
  workload::SyntheticSubscriptionParams params;
  EXPECT_EQ(params.nodes, 10'000u);
  EXPECT_EQ(params.topics, 5'000u);
  EXPECT_EQ(params.subs_per_node, 50u);
  EXPECT_EQ(workload::bucket_count(params), 100u);
}

}  // namespace
}  // namespace vitis
