// The wave schedule behind the gossip merges: on seeded pair streams, no
// two exchanges of a wave share a node, every node's exchanges keep their
// stream order across waves, and each exchange lands in the earliest wave
// those two rules allow. run_waves then replays the schedule on the pool
// with a barrier per wave, each exchange exactly once, whatever the worker
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/cycle_engine.hpp"
#include "sim/rng.hpp"
#include "sim/wave_schedule.hpp"

namespace vitis::sim {
namespace {

// A gossip-shaped stream: initiators ascending (one lane per initiator
// slice), partners drawn at random, a few nodes popular as partners.
std::vector<Exchange> pair_stream(std::uint64_t seed, std::size_t nodes,
                                  std::size_t per_node) {
  Rng rng = Rng::at(seed, 0x7761766573ULL, nodes, per_node);
  std::vector<Exchange> stream;
  for (ids::NodeIndex node = 0; node < nodes; ++node) {
    for (std::size_t k = 0; k < per_node; ++k) {
      auto partner = static_cast<ids::NodeIndex>(
          rng.index(4) == 0 ? rng.index(3) : rng.index(nodes));
      if (partner == node) partner = (partner + 1) % nodes;
      stream.push_back(Exchange{node, partner});
    }
  }
  return stream;
}

struct Placement {
  std::size_t wave;
  std::size_t position;  // in the stream
};

// Where each stream position ended up, recovered by matching records in
// order (a wave lists its records in stream order, so equal records are
// matched first to first).
std::vector<std::size_t> waves_of(const WaveSchedule& schedule,
                                  const std::vector<Exchange>& stream) {
  std::vector<std::size_t> wave_of(stream.size(), schedule.waves());
  std::vector<bool> taken(stream.size(), false);
  for (std::size_t w = 0; w < schedule.waves(); ++w) {
    std::size_t from = 0;
    for (const Exchange& e : schedule.wave(w)) {
      while (from < stream.size() &&
             (taken[from] || stream[from].initiator != e.initiator ||
              stream[from].partner != e.partner)) {
        ++from;
      }
      EXPECT_LT(from, stream.size()) << "wave " << w << " out of order";
      if (from == stream.size()) return wave_of;
      taken[from] = true;
      wave_of[from] = w;
    }
  }
  return wave_of;
}

TEST(WaveSchedule, WavesAreNodeDisjointAndKeepEachNodesOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::size_t nodes = 5 + seed * 7;
    const std::vector<Exchange> stream = pair_stream(seed, nodes, 1 + seed % 3);
    WaveSchedule schedule;
    schedule.build(stream);
    ASSERT_EQ(schedule.size(), stream.size());

    // Node-disjoint waves.
    for (std::size_t w = 0; w < schedule.waves(); ++w) {
      std::vector<int> seen(nodes, 0);
      ASSERT_FALSE(schedule.wave(w).empty());
      for (const Exchange& e : schedule.wave(w)) {
        EXPECT_EQ(++seen[e.initiator], 1) << "seed " << seed << " wave " << w;
        if (e.partner != e.initiator) {
          EXPECT_EQ(++seen[e.partner], 1) << "seed " << seed << " wave " << w;
        }
      }
    }

    // Every exchange placed once; a node's exchanges sit in strictly
    // ascending waves in stream order, and each exchange sits in the
    // earliest wave after its node's previous ones.
    const std::vector<std::size_t> wave_of = waves_of(schedule, stream);
    std::vector<std::size_t> next_wave(nodes, 0);
    for (std::size_t k = 0; k < stream.size(); ++k) {
      const Exchange& e = stream[k];
      ASSERT_LT(wave_of[k], schedule.waves()) << "seed " << seed;
      const std::size_t earliest =
          std::max(next_wave[e.initiator], next_wave[e.partner]);
      EXPECT_EQ(wave_of[k], earliest) << "seed " << seed << " exchange " << k;
      next_wave[e.initiator] = wave_of[k] + 1;
      next_wave[e.partner] = wave_of[k] + 1;
    }
  }
}

TEST(WaveSchedule, RebuildsFromScratchAndFromOutboxLanes) {
  const std::vector<Exchange> stream = pair_stream(7, 40, 2);
  WaveSchedule direct;
  direct.build(stream);

  // The same stream spread over three lanes, in lane order.
  Outbox<Exchange> outbox;
  outbox.configure(3);
  for (std::size_t k = 0; k < stream.size(); ++k) {
    outbox.lane(k * 3 / stream.size()).push_back(stream[k]);
  }
  WaveSchedule from_lanes;
  from_lanes.build(pair_stream(8, 90, 3));  // a stale build must not leak
  from_lanes.build(outbox);
  ASSERT_EQ(from_lanes.waves(), direct.waves());
  for (std::size_t w = 0; w < direct.waves(); ++w) {
    const auto a = direct.wave(w);
    const auto b = from_lanes.wave(w);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].initiator, b[i].initiator);
      EXPECT_EQ(a[i].partner, b[i].partner);
    }
  }

  WaveSchedule empty;
  empty.build(std::vector<Exchange>{});
  EXPECT_EQ(empty.waves(), 0u);
}

TEST(WaveSchedule, SlicesConcatenateToTheWave) {
  const std::vector<Exchange> stream = pair_stream(3, 64, 1);
  WaveSchedule schedule;
  schedule.build(stream);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{7}}) {
    for (std::size_t w = 0; w < schedule.waves(); ++w) {
      const auto wave = schedule.wave(w);
      const Exchange* next = wave.data();
      for (std::size_t worker = 0; worker < workers; ++worker) {
        const auto slice = WaveSchedule::slice(wave, worker, workers);
        EXPECT_EQ(slice.data(), next);
        next += slice.size();
      }
      EXPECT_EQ(next, wave.data() + wave.size());
    }
  }
}

// run_waves on the pool: every exchange runs once, on the worker whose
// slice holds it, and no exchange of a wave starts before the previous
// wave's barrier ran.
TEST(WaveSchedule, RunWavesReplaysEveryExchangeBetweenBarriers) {
  const std::vector<Exchange> stream = pair_stream(11, 50, 2);
  WaveSchedule schedule;
  schedule.build(stream);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    CycleEngine engine(50, 1, jobs);
    std::vector<std::atomic<int>> runs(schedule.size());
    std::atomic<std::size_t> barriers{0};
    std::atomic<bool> early{false};
    std::vector<std::size_t> first(schedule.waves() + 1, 0);
    for (std::size_t w = 0; w < schedule.waves(); ++w) {
      first[w + 1] = first[w] + schedule.wave(w).size();
    }
    run_waves(
        &engine, schedule,
        [&](const Exchange& e, std::size_t worker) {
          EXPECT_LT(worker, jobs);
          const auto index = static_cast<std::size_t>(
              &e - schedule.wave(0).data());
          const std::size_t wave = static_cast<std::size_t>(
              std::upper_bound(first.begin(), first.end(), index) -
              first.begin() - 1);
          if (barriers.load() != wave) early = true;
          ++runs[index];
        },
        [&] { ++barriers; });
    EXPECT_EQ(barriers.load(), schedule.waves());
    EXPECT_FALSE(early.load()) << "jobs " << jobs;
    for (const auto& count : runs) EXPECT_EQ(count.load(), 1);
  }
}

}  // namespace
}  // namespace vitis::sim
