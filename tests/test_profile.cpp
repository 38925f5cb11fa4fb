#include <gtest/gtest.h>

#include "core/profile.hpp"
#include "pubsub/subscription.hpp"

namespace vitis::core {
namespace {

// A profile for a node subscribed to three topics.
Profile make_profile() { return Profile(3); }

TEST(Profile, TopicPositions) {
  // A topic's proposal slot is its position in the node's sorted
  // subscription set; topics the node does not subscribe have none.
  const pubsub::SubscriptionSet subs({30, 10, 20});
  Profile p(subs.size());
  EXPECT_EQ(subs.position(10).value(), 0u);
  EXPECT_EQ(subs.position(20).value(), 1u);
  EXPECT_EQ(subs.position(30).value(), 2u);
  EXPECT_FALSE(subs.position(25).has_value());
  EXPECT_FALSE(subs.position(31).has_value());
  EXPECT_FALSE(pubsub::SubscriptionSet{}.position(0).has_value());

  const GatewayProposal prop{7, 777, 3, 2};
  p.set_proposal_at(subs.position(20).value(), prop);
  EXPECT_EQ(p.proposal_at(1), prop);
  EXPECT_EQ(p.proposal_at(subs.position(10).value()).gateway,
            ids::kInvalidNode);
}

TEST(Profile, ProposalsDefaultEmpty) {
  const Profile p = make_profile();
  ASSERT_EQ(p.size(), 3u);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.proposal_at(i).gateway, ids::kInvalidNode);
  }
}

TEST(Profile, SetAndGetProposals) {
  Profile p = make_profile();
  const GatewayProposal prop{7, 777, 3, 2};
  p.set_proposal_at(1, prop);
  EXPECT_EQ(p.proposal_at(1), prop);
  // Other topics untouched.
  EXPECT_EQ(p.proposal_at(0).gateway, ids::kInvalidNode);
  EXPECT_EQ(p.proposal_at(2).gateway, ids::kInvalidNode);
}

TEST(Profile, InsertAndEraseShiftLaterPositions) {
  // Subscribing inserts a proposal at the new topic's position and
  // unsubscribing erases it; the other topics keep their proposals.
  Profile p = make_profile();
  const GatewayProposal a{1, 11, 1, 0};
  const GatewayProposal b{2, 22, 2, 1};
  const GatewayProposal c{3, 33, 3, 2};
  const GatewayProposal fresh{9, 99, 9, 0};
  p.set_proposal_at(0, a);
  p.set_proposal_at(1, b);
  p.set_proposal_at(2, c);

  p.insert_proposal(1, fresh);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.proposal_at(0), a);
  EXPECT_EQ(p.proposal_at(1), fresh);
  EXPECT_EQ(p.proposal_at(2), b);
  EXPECT_EQ(p.proposal_at(3), c);

  p.insert_proposal(4, fresh);  // past the last topic
  EXPECT_EQ(p.proposal_at(4), fresh);
  p.erase_proposal(4);

  p.erase_proposal(0);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.proposal_at(0), fresh);
  EXPECT_EQ(p.proposal_at(1), b);
  EXPECT_EQ(p.proposal_at(2), c);
}

TEST(Profile, ResetProposalsSelfProposes) {
  Profile p = make_profile();
  p.set_proposal_at(2, GatewayProposal{9, 99, 9, 4});
  p.reset_proposals(5, 555);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const GatewayProposal& prop = p.proposal_at(i);
    EXPECT_EQ(prop.gateway, 5u);
    EXPECT_EQ(prop.gateway_id, 555u);
    EXPECT_EQ(prop.parent, 5u);
    EXPECT_EQ(prop.hops, 0u);
  }
}

TEST(Profile, EmptyProfile) {
  Profile p;
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.memory_bytes(), 0u);
  p.reset_proposals(1, 2);  // no-op, must not crash
}

}  // namespace
}  // namespace vitis::core
