#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/relay.hpp"
#include "sim/rng.hpp"

namespace vitis::core {
namespace {

TEST(RelayTable, AddAndQueryLinks) {
  RelayTable relay;
  EXPECT_FALSE(relay.is_relay_for(5));
  relay.add_link(5, 10);
  relay.add_link(5, 11);
  relay.add_link(6, 10);
  EXPECT_TRUE(relay.is_relay_for(5));
  EXPECT_TRUE(relay.is_relay_for(6));
  EXPECT_EQ(relay.topic_count(), 2u);
  EXPECT_EQ(relay.link_count(), 3u);
  std::vector<ids::NodeIndex> peers;
  for (const RelayTable::Link& link : relay.links(5)) peers.push_back(link.peer);
  std::sort(peers.begin(), peers.end());
  EXPECT_EQ(peers, (std::vector<ids::NodeIndex>{10, 11}));
  EXPECT_TRUE(relay.links(99).empty());
}

TEST(RelayTable, AddIsIdempotentAndRefreshes) {
  RelayTable relay;
  relay.add_link(1, 2);
  relay.age_and_expire(10);  // age -> 1
  relay.add_link(1, 2);      // refresh -> age 0
  EXPECT_EQ(relay.link_count(), 1u);
  // Two more agings with ttl 1: survives because it was refreshed.
  relay.age_and_expire(1);
  EXPECT_TRUE(relay.is_relay_for(1));
}

TEST(RelayTable, ExpiryDropsStaleLinks) {
  RelayTable relay;
  relay.add_link(1, 2);
  relay.add_link(1, 3);
  relay.age_and_expire(2);
  relay.add_link(1, 3);  // keep one fresh
  relay.age_and_expire(2);
  relay.age_and_expire(2);  // link to 2 now age 3 > ttl 2
  const auto links = relay.links(1);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].peer, 3u);
}

TEST(RelayTable, ExpiryRemovesEmptyTopics) {
  RelayTable relay;
  relay.add_link(7, 1);
  relay.age_and_expire(0);  // ttl 0: everything aged once is dropped
  EXPECT_FALSE(relay.is_relay_for(7));
  EXPECT_EQ(relay.topic_count(), 0u);
}

TEST(RelayTable, ClearResets) {
  RelayTable relay;
  relay.add_link(1, 2);
  relay.clear();
  EXPECT_EQ(relay.topic_count(), 0u);
  EXPECT_EQ(relay.link_count(), 0u);
}

// ---------------------------------------------------------------------------
// RelayTable::rebuild against its definition: age_and_expire(ttl), then one
// add_link per install in arrival order.
// ---------------------------------------------------------------------------

using Install = RelayTable::Install;

// Topics and peers are drawn below these bounds, so the comparison can walk
// every topic a table may hold.
constexpr ids::TopicIndex kTopics = 24;
constexpr ids::NodeIndex kPeers = 12;

// The randomized corpus shifts with the RELAY_REBUILD_SEED_OFFSET
// environment variable (as the batch-score and fault-fuzz corpora do), so
// scheduled runs sweep fresh tables while a failure stays replayable from
// the `seed=` line its trace prints.
std::uint64_t seed_offset() {
  const char* env = std::getenv("RELAY_REBUILD_SEED_OFFSET");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

// Segments, link order, ages and footprint.
void expect_same_table(const RelayTable& expected, const RelayTable& actual) {
  EXPECT_EQ(actual.topic_count(), expected.topic_count());
  EXPECT_EQ(actual.link_count(), expected.link_count());
  EXPECT_EQ(actual.memory_bytes(), expected.memory_bytes());
  for (ids::TopicIndex topic = 0; topic < kTopics; ++topic) {
    SCOPED_TRACE(testing::Message() << "topic=" << topic);
    EXPECT_EQ(actual.is_relay_for(topic), expected.is_relay_for(topic));
    const auto want = expected.links(topic);
    const auto got = actual.links(topic);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].peer, want[i].peer) << "link " << i;
      EXPECT_EQ(got[i].age, want[i].age) << "link " << i;
    }
  }
}

// Rebuild `table` from `installs` (arrival order) and check it against the
// definition; returns the rebuilt table. rebuild() takes the installs
// grouped by topic, arrival order kept within a topic: a stable sort.
RelayTable rebuild_checked(const RelayTable& table, std::uint32_t ttl,
                           std::vector<Install> installs,
                           RelayTable::Scratch& scratch) {
  RelayTable expected = table;
  expected.age_and_expire(ttl);
  for (const Install& install : installs) {
    expected.add_link(install.topic, install.peer);
  }
  std::stable_sort(installs.begin(), installs.end(),
                   [](const Install& x, const Install& y) {
                     return x.topic < y.topic;
                   });
  RelayTable actual = table;
  actual.rebuild(ttl, installs, scratch);
  expect_same_table(expected, actual);
  return actual;
}

TEST(RelayRebuild, DuplicateInstallsRefreshOneLink) {
  RelayTable table;
  table.add_link(3, 7);
  table.add_link(3, 8);
  RelayTable::Scratch scratch;
  const RelayTable rebuilt = rebuild_checked(
      table, 3, {{3, 8}, {3, 9}, {3, 8}, {3, 9}, {5, 1}, {5, 1}}, scratch);
  const auto links = rebuilt.links(3);
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links[0].peer, 7u);
  EXPECT_EQ(links[0].age, 1u);
  EXPECT_EQ(links[1].peer, 8u);
  EXPECT_EQ(links[1].age, 0u);
  EXPECT_EQ(links[2].peer, 9u);
  EXPECT_EQ(links[2].age, 0u);
  EXPECT_EQ(rebuilt.links(5).size(), 1u);
}

TEST(RelayRebuild, ExpiredLinkReinstalledMovesToSegmentEnd) {
  // Link 4 reaches age ttl + 1 this round; its re-install appends it after
  // the survivors instead of refreshing it in place.
  RelayTable table;
  table.add_link(2, 4);
  table.add_link(2, 5);
  table.age_and_expire(2);
  table.age_and_expire(2);
  table.add_link(2, 5);  // ages: 4 -> 2, 5 -> 0
  RelayTable::Scratch scratch;
  const RelayTable rebuilt = rebuild_checked(table, 2, {{2, 4}}, scratch);
  const auto links = rebuilt.links(2);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].peer, 5u);
  EXPECT_EQ(links[0].age, 1u);
  EXPECT_EQ(links[1].peer, 4u);
  EXPECT_EQ(links[1].age, 0u);
}

TEST(RelayRebuild, NewSegmentsAtFrontMiddleAndEnd) {
  RelayTable table;
  table.add_link(5, 1);
  table.add_link(10, 2);
  RelayTable::Scratch scratch;
  const RelayTable rebuilt = rebuild_checked(
      table, 3, {{20, 3}, {7, 4}, {1, 5}, {10, 6}, {7, 7}}, scratch);
  EXPECT_EQ(rebuilt.topic_count(), 5u);
  EXPECT_EQ(rebuilt.link_count(), 7u);
  ASSERT_EQ(rebuilt.links(7).size(), 2u);
  EXPECT_EQ(rebuilt.links(7)[0].peer, 4u);
  EXPECT_EQ(rebuilt.links(7)[1].peer, 7u);
}

TEST(RelayRebuild, SegmentsEmptiedByExpiryDisappear) {
  RelayTable table;
  table.add_link(1, 1);
  table.add_link(2, 2);
  table.add_link(3, 3);
  table.age_and_expire(1);
  table.add_link(2, 2);  // ages: topic 1 and 3 at 1, topic 2 at 0
  RelayTable::Scratch scratch;
  const RelayTable rebuilt = rebuild_checked(table, 1, {{3, 9}}, scratch);
  EXPECT_FALSE(rebuilt.is_relay_for(1));
  EXPECT_TRUE(rebuilt.is_relay_for(2));
  ASSERT_EQ(rebuilt.links(3).size(), 1u);
  EXPECT_EQ(rebuilt.links(3)[0].peer, 9u);
}

TEST(RelayRebuild, EmptyInstallListOnlyAges) {
  RelayTable table;
  table.add_link(4, 1);
  table.add_link(6, 2);
  table.age_and_expire(5);
  table.add_link(6, 3);
  RelayTable::Scratch scratch;
  const RelayTable rebuilt = rebuild_checked(table, 1, {}, scratch);
  EXPECT_FALSE(rebuilt.is_relay_for(4));
  ASSERT_EQ(rebuilt.links(6).size(), 1u);
  EXPECT_EQ(rebuilt.links(6)[0].peer, 3u);
  EXPECT_EQ(rebuilt.links(6)[0].age, 1u);
  const RelayTable empty;
  expect_same_table(empty, rebuild_checked(empty, 1, {}, scratch));
}

TEST(RelayRebuild, TtlZeroKeepsOnlyThisRoundsInstalls) {
  RelayTable table;
  table.add_link(1, 1);
  table.add_link(1, 2);
  table.add_link(2, 3);
  RelayTable::Scratch scratch;
  const RelayTable rebuilt =
      rebuild_checked(table, 0, {{1, 2}, {3, 4}}, scratch);
  EXPECT_EQ(rebuilt.topic_count(), 2u);
  ASSERT_EQ(rebuilt.links(1).size(), 1u);
  EXPECT_EQ(rebuilt.links(1)[0].peer, 2u);
  EXPECT_EQ(rebuilt.links(1)[0].age, 0u);
  EXPECT_FALSE(rebuilt.is_relay_for(2));
  EXPECT_TRUE(rebuilt.is_relay_for(3));
}

TEST(RelayRebuild, RandomizedTablesMatchAgeThenAdd) {
  // Each case grows a table through random add/age rounds, then compares
  // several rebuild rounds against the definition. Small topic and peer
  // universes make duplicates, refreshes, re-installs after expiry and
  // new segments anywhere common; one shared scratch proves its leftover
  // contents never leak into a table.
  constexpr std::uint64_t kBaseSeed = 9100;
  constexpr std::size_t kCases = 200;
  RelayTable::Scratch scratch;
  for (std::size_t c = 0; c < kCases; ++c) {
    const std::uint64_t seed = kBaseSeed + seed_offset() + c;
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    sim::Rng rng(seed);
    const auto ttl = static_cast<std::uint32_t>(rng.index(5));
    const std::size_t topics = 1 + rng.index(kTopics);
    const std::size_t peers = 1 + rng.index(kPeers);
    const auto draw_installs = [&](std::size_t count) {
      std::vector<Install> installs(count);
      for (Install& install : installs) {
        install = Install{static_cast<ids::TopicIndex>(rng.index(topics)),
                          static_cast<ids::NodeIndex>(rng.index(peers))};
      }
      return installs;
    };
    RelayTable table;
    for (std::size_t round = rng.index(6); round > 0; --round) {
      for (const Install& install : draw_installs(rng.index(3 * topics))) {
        table.add_link(install.topic, install.peer);
      }
      table.age_and_expire(ttl + static_cast<std::uint32_t>(rng.index(3)));
    }
    for (std::size_t round = 0; round < 4; ++round) {
      SCOPED_TRACE(testing::Message() << "round=" << round);
      const std::size_t count = rng.bernoulli(0.2) ? 0 : rng.index(2 * topics);
      table = rebuild_checked(table, ttl, draw_installs(count), scratch);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace vitis::core
