#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "sim/cycle_engine.hpp"
#include "sim/outbox.hpp"
#include "support/recorder.hpp"

namespace vitis::sim {
namespace {

// Shorthand: a stage body that ignores its RNG and worker index.
CycleEngine::NodeStageFn counting(std::vector<int>& calls) {
  return [&calls](ids::NodeIndex node, std::size_t, Rng&, std::size_t) {
    ++calls[node];
  };
}

TEST(CycleEngine, StartsWithEveryoneDead) {
  CycleEngine engine(10, 1);
  EXPECT_EQ(engine.alive_count(), 0u);
  EXPECT_EQ(engine.node_count(), 10u);
  EXPECT_TRUE(engine.active_nodes().empty());
  EXPECT_EQ(engine.run_jobs(), 1u);
}

TEST(CycleEngine, AliveBookkeeping) {
  CycleEngine engine(5, 1);
  engine.set_alive(0, true);
  engine.set_alive(3, true);
  EXPECT_EQ(engine.alive_count(), 2u);
  EXPECT_TRUE(engine.is_alive(0));
  EXPECT_FALSE(engine.is_alive(1));
  engine.set_alive(0, true);  // idempotent
  EXPECT_EQ(engine.alive_count(), 2u);
  engine.set_alive(0, false);
  EXPECT_EQ(engine.alive_count(), 1u);
  const auto active = engine.active_nodes();
  EXPECT_EQ(std::vector<ids::NodeIndex>(active.begin(), active.end()),
            std::vector<ids::NodeIndex>{3});
}

TEST(CycleEngine, StageRunsOncePerAliveNodePerCycle) {
  CycleEngine engine(6, 2);
  for (ids::NodeIndex i = 0; i < 4; ++i) engine.set_alive(i, true);
  std::vector<int> calls(6, 0);
  engine.add_stage("count", 0x1, counting(calls));
  engine.run(3);
  for (ids::NodeIndex i = 0; i < 4; ++i) EXPECT_EQ(calls[i], 3);
  EXPECT_EQ(calls[4], 0);
  EXPECT_EQ(calls[5], 0);
  EXPECT_EQ(engine.cycle(), 3u);
}

TEST(CycleEngine, StagesRunInRegistrationOrder) {
  CycleEngine engine(2, 3);
  engine.set_alive(0, true);
  std::vector<int> trace;
  engine.add_stage("first", 0x1,
                   [&](ids::NodeIndex, std::size_t, Rng&, std::size_t) {
                     trace.push_back(1);
                   });
  engine.add_stage("second", 0x2,
                   [&](ids::NodeIndex, std::size_t, Rng&, std::size_t) {
                     trace.push_back(2);
                   });
  engine.run(2);
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 1, 2}));
}

TEST(CycleEngine, HookRunsAfterEarlierStages) {
  CycleEngine engine(3, 4);
  engine.set_alive(0, true);
  engine.set_alive(1, true);
  std::vector<int> trace;
  engine.add_stage("p", 0x1,
                   [&](ids::NodeIndex, std::size_t, Rng&, std::size_t) {
                     trace.push_back(0);
                   });
  engine.add_cycle_hook("h", [&](std::size_t cycle) {
    trace.push_back(100 + static_cast<int>(cycle));
  });
  engine.run(2);
  EXPECT_EQ(trace, (std::vector<int>{0, 0, 100, 0, 0, 101}));
}

TEST(CycleEngine, NodeKilledByHookIsSkippedByLaterStages) {
  // Liveness mutation belongs to hooks (stages run over a frozen snapshot);
  // a node crashed by a hook must not be stepped by stages later in the
  // same cycle.
  CycleEngine engine(2, 5);
  engine.set_alive(0, true);
  engine.set_alive(1, true);
  int observed_runs = 0;
  engine.add_cycle_hook("killer", [&](std::size_t cycle) {
    if (cycle == 0) engine.set_alive(1, false);
  });
  engine.add_stage("observer", 0x1,
                   [&](ids::NodeIndex node, std::size_t, Rng&, std::size_t) {
                     if (node == 1) ++observed_runs;
                   });
  engine.run(1);
  EXPECT_EQ(observed_runs, 0);
}

TEST(CycleEngine, StageOrderIsAscendingByNode) {
  // The per-stage traversal is the ascending activation snapshot — this
  // order (not a shuffle) is what makes contiguous worker slices
  // concatenate identically for any worker count.
  CycleEngine engine(50, 6);
  for (ids::NodeIndex i = 0; i < 50; ++i) engine.set_alive(i, true);
  std::vector<ids::NodeIndex> order;
  engine.add_stage("record", 0x1,
                   [&](ids::NodeIndex node, std::size_t, Rng&, std::size_t) {
                     order.push_back(node);
                   });
  engine.run(1);
  ASSERT_EQ(order.size(), 50u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(CycleEngine, StageRngIsACounterStream) {
  // A node's stage draw is a pure function of (seed, salt, node, cycle):
  // independent of other nodes, of the traversal schedule, and of the
  // worker count.
  constexpr std::uint64_t kSeed = 77;
  constexpr std::uint64_t kSalt = 0xabc;
  CycleEngine engine(8, kSeed);
  for (ids::NodeIndex i = 0; i < 8; ++i) engine.set_alive(i, true);
  std::vector<std::vector<std::uint64_t>> draws(8);
  engine.add_stage("draw", kSalt,
                   [&](ids::NodeIndex node, std::size_t, Rng& rng,
                       std::size_t) { draws[node].push_back(rng.next_u64()); });
  engine.run(2);
  for (ids::NodeIndex node = 0; node < 8; ++node) {
    ASSERT_EQ(draws[node].size(), 2u);
    for (std::size_t cycle = 0; cycle < 2; ++cycle) {
      Rng expected = Rng::at(kSeed, kSalt, node, cycle);
      EXPECT_EQ(draws[node][cycle], expected.next_u64())
          << "node " << node << " cycle " << cycle;
    }
    EXPECT_NE(draws[node][0], draws[node][1]);  // fresh stream per cycle
  }
}

TEST(CycleEngine, MergeDrainsLanesInAscendingInitiatorOrder) {
  // The outbox contract: records appended per worker lane, drained in
  // worker order after the barrier, reassemble the global ascending
  // initiator order — for any worker count.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    CycleEngine engine(31, 9, jobs);
    for (ids::NodeIndex i = 0; i < 31; ++i) engine.set_alive(i, true);
    Outbox<ids::NodeIndex> outbox;
    outbox.configure(engine.run_jobs());
    std::vector<ids::NodeIndex> merged;
    engine.add_stage(
        "enqueue", 0x1,
        [&](ids::NodeIndex node, std::size_t, Rng&, std::size_t worker) {
          outbox.lane(worker).push_back(node);
        },
        [&](std::size_t) {
          outbox.for_each([&](const ids::NodeIndex& node) {
            merged.push_back(node);
          });
          outbox.clear();
        });
    engine.run(2);
    ASSERT_EQ(merged.size(), 62u) << "jobs=" << jobs;
    EXPECT_TRUE(std::is_sorted(merged.begin(), merged.begin() + 31));
    EXPECT_TRUE(std::is_sorted(merged.begin() + 31, merged.end()));
  }
}

TEST(CycleEngine, RunIsBitIdenticalAcrossWorkerCounts) {
  // The tentpole invariant at engine level: identical per-node state
  // evolution whatever run_jobs is.
  const auto simulate = [](std::size_t jobs) {
    CycleEngine engine(40, 123, jobs);
    for (ids::NodeIndex i = 0; i < 40; ++i) engine.set_alive(i, true);
    std::vector<std::uint64_t> state(40, 0);
    Outbox<std::pair<ids::NodeIndex, std::uint64_t>> outbox;
    outbox.configure(engine.run_jobs());
    engine.add_stage(
        "mix", 0x51,
        [&](ids::NodeIndex node, std::size_t, Rng& rng, std::size_t worker) {
          state[node] ^= rng.next_u64();  // node-local write only
          outbox.lane(worker).push_back({node, rng.next_u64()});
        },
        [&](std::size_t) {
          // Serial merge: cross-node writes happen only here.
          outbox.for_each([&](const auto& record) {
            state[(record.first + 1) % 40] += record.second;
          });
          outbox.clear();
        });
    engine.add_cycle_hook("churn", [&](std::size_t cycle) {
      if (cycle == 3) engine.set_alive(7, false);
      if (cycle == 5) engine.set_alive(7, true);
    });
    engine.run(8);
    return state;
  };
  const auto serial = simulate(1);
  EXPECT_EQ(serial, simulate(2));
  EXPECT_EQ(serial, simulate(7));
}

// One exchange record of the sharded-merge tests: `value` goes to both
// endpoints.
struct PairRecord {
  ids::NodeIndex a;
  ids::NodeIndex b;
  std::uint64_t value;
};

// Per node, the values it received, in application order.
using Applied = std::vector<std::vector<std::uint64_t>>;

constexpr std::size_t kShardNodes = 61;

// Every fifth node never joins, so the activation snapshot has holes and
// some records name dead nodes; a hook crashes and revives a few more.
void seed_liveness(CycleEngine& engine) {
  for (ids::NodeIndex i = 0; i < kShardNodes; ++i) {
    if (i % 5 != 3) engine.set_alive(i, true);
  }
  engine.add_cycle_hook("churn", [&engine](std::size_t cycle) {
    if (cycle == 2) engine.set_alive(10, false);
    if (cycle == 3) engine.set_alive(40, false);
    if (cycle == 4) engine.set_alive(10, true);
  });
}

// Each node sends one record to a near and one to a far node, so endpoints
// sit in different workers' ranges.
void emit_pairs(Outbox<PairRecord>& outbox, ids::NodeIndex node,
                std::size_t cycle, Rng& rng, std::size_t worker) {
  const auto near = static_cast<ids::NodeIndex>((node + cycle + 1) %
                                                kShardNodes);
  const auto far = static_cast<ids::NodeIndex>(kShardNodes - 1 - node);
  outbox.lane(worker).push_back({node, near, rng.next_u64()});
  outbox.lane(worker).push_back({far, node, rng.next_u64()});
}

// Reference: the same records applied by a serial drain.
Applied serial_drain_reference() {
  CycleEngine engine(kShardNodes, 31);
  seed_liveness(engine);
  Outbox<PairRecord> outbox;
  outbox.configure(engine.run_jobs());
  Applied applied(kShardNodes);
  engine.add_stage(
      "pairs", 0x77,
      [&](ids::NodeIndex node, std::size_t cycle, Rng& rng,
          std::size_t worker) { emit_pairs(outbox, node, cycle, rng, worker); },
      [&](std::size_t) {
        outbox.for_each([&](const PairRecord& r) {
          applied[r.a].push_back(r.value);
          applied[r.b].push_back(r.value);
        });
        outbox.clear();
      });
  engine.run(6);
  return applied;
}

TEST(CycleEngine, ShardedMergeMatchesSerialDrainPerOwner) {
  const Applied reference = serial_drain_reference();
  ASSERT_FALSE(reference[3].empty());  // dead nodes still receive records
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{7}}) {
    CycleEngine engine(kShardNodes, 31, jobs);
    seed_liveness(engine);
    Outbox<PairRecord> outbox;
    outbox.configure(engine.run_jobs());
    Applied applied(kShardNodes);
    std::vector<NodeRange> ranges(jobs);
    std::vector<std::size_t> slice_worker(kShardNodes, jobs);
    engine.add_stage(
        "pairs", 0x77,
        [&](ids::NodeIndex node, std::size_t cycle, Rng& rng,
            std::size_t worker) {
          slice_worker[node] = worker;
          emit_pairs(outbox, node, cycle, rng, worker);
        },
        [&](std::size_t) {
          engine.run_parallel([&](std::size_t worker) {
            const NodeRange owned = engine.owned_range(worker);
            ranges[worker] = owned;
            outbox.for_each([&](const PairRecord& r) {
              if (owned.contains(r.a)) applied[r.a].push_back(r.value);
              if (owned.contains(r.b)) applied[r.b].push_back(r.value);
            });
          });
          outbox.clear();
        });
    engine.add_cycle_hook("check-ranges", [&](std::size_t cycle) {
      // The ranges tile the index universe in worker order...
      EXPECT_EQ(ranges.front().begin, 0u);
      EXPECT_EQ(ranges.back().end, ids::kInvalidNode);
      for (std::size_t w = 0; w + 1 < jobs; ++w) {
        EXPECT_EQ(ranges[w].end, ranges[w + 1].begin);
      }
      for (ids::NodeIndex node = 0; node < kShardNodes; ++node) {
        const auto owners = std::count_if(
            ranges.begin(), ranges.end(),
            [node](const NodeRange& r) { return r.contains(node); });
        EXPECT_EQ(owners, 1) << "node " << node << " cycle " << cycle
                             << " jobs " << jobs;
      }
      // ...and each alive node is owned by the worker that stepped it.
      for (const ids::NodeIndex node : engine.active_nodes()) {
        ASSERT_LT(slice_worker[node], jobs);
        EXPECT_TRUE(ranges[slice_worker[node]].contains(node))
            << "node " << node << " cycle " << cycle << " jobs " << jobs;
      }
    });
    engine.run(6);
    EXPECT_EQ(applied, reference) << "jobs=" << jobs;
  }
}

TEST(CycleEngine, ShardedMergeTimeCountsTowardTheStage) {
  CycleEngine engine(8, 15, 2);
  for (ids::NodeIndex i = 0; i < 8; ++i) engine.set_alive(i, true);
  engine.add_stage(
      "merge-heavy", 0x1, [](ids::NodeIndex, std::size_t, Rng&, std::size_t) {},
      [&engine](std::size_t) {
        engine.run_parallel([](std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        });
      });
  engine.run(2);
  const auto timings = engine.stage_timings();
  ASSERT_EQ(timings.size(), 1u);
  EXPECT_GE(timings[0].span_ns, 2 * 5'000'000u);
  EXPECT_GE(timings[0].busy_ns, 2 * 2 * 5'000'000u);
  for (const std::uint64_t busy : timings[0].worker_busy_ns) {
    EXPECT_GE(busy, 2 * 5'000'000u);
  }
}

TEST(CycleEngine, SetAliveIsIdempotentOnDeadNodes) {
  // Regression: a crash-without-leave (fault layer) followed by a
  // node_leave — or a crash event firing twice — must not corrupt the
  // alive count. set_alive on an already-dead (or already-alive) node is a
  // no-op.
  CycleEngine engine(4, 8);
  for (ids::NodeIndex i = 0; i < 4; ++i) engine.set_alive(i, true);
  EXPECT_EQ(engine.alive_count(), 4u);
  engine.set_alive(2, false);
  EXPECT_EQ(engine.alive_count(), 3u);
  engine.set_alive(2, false);  // crash a node that already crashed
  engine.set_alive(2, false);
  EXPECT_EQ(engine.alive_count(), 3u);
  engine.set_alive(1, true);  // revive a node that never died
  EXPECT_EQ(engine.alive_count(), 3u);
  engine.set_alive(2, true);
  EXPECT_EQ(engine.alive_count(), 4u);
}

TEST(CycleEngineDeathTest, SetAliveRejectsOutOfRangeNodes) {
  // Regression for the activation-list guards: an out-of-range index would
  // previously walk off the bitmap; now it must trip VITIS_CHECK rather
  // than silently corrupt (or silently miss) the activation list the
  // worker slices are built from.
  CycleEngine engine(4, 8);
  EXPECT_DEATH(engine.set_alive(4, true), "VITIS_CHECK");
  EXPECT_DEATH(engine.set_alive(1000, false), "VITIS_CHECK");
}

TEST(CycleEngine, CycleCounterAdvancesAcrossRuns) {
  CycleEngine engine(1, 7);
  engine.set_alive(0, true);
  engine.run(2);
  engine.run(3);
  EXPECT_EQ(engine.cycle(), 5u);
}

TEST(CycleEngine, QuiescentNodesCostZeroWork) {
  // Event-driven activation: a huge universe with a handful of alive nodes
  // charges stage work only to the alive ones — the activation list is
  // the schedule, there is no O(node_count) scan per cycle.
  constexpr std::size_t kUniverse = 100'000;
  CycleEngine engine(kUniverse, 11);
  const std::vector<ids::NodeIndex> joined{7, 421, 90'000};
  for (const ids::NodeIndex node : joined) engine.set_alive(node, true);
  std::size_t total_calls = 0;
  std::vector<ids::NodeIndex> touched;
  engine.add_stage("count", 0x1,
                   [&](ids::NodeIndex node, std::size_t, Rng&, std::size_t) {
                     ++total_calls;
                     touched.push_back(node);
                   });
  engine.run(50);
  EXPECT_EQ(total_calls, joined.size() * 50);
  EXPECT_EQ(engine.active_nodes().size(), joined.size());
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  EXPECT_EQ(touched, joined);
}

TEST(CycleEngine, ActivationListMatchesFullBitmapScan) {
  // Equivalence digest: after an arbitrary churn history the incremental
  // activation list must equal the ascending full scan of the alive bitmap
  // — same members, same order (the order feeds the contiguous worker
  // slices, so divergence here would silently change every recorded
  // output).
  constexpr std::size_t kNodes = 257;
  CycleEngine engine(kNodes, 12);
  Rng churn(34);
  for (int step = 0; step < 2'000; ++step) {
    const auto node =
        static_cast<ids::NodeIndex>(churn.index(kNodes));
    engine.set_alive(node, churn.index(3) != 0);  // bias toward alive
    if (step % 100 != 0) continue;
    std::vector<ids::NodeIndex> scan;
    for (ids::NodeIndex i = 0; i < kNodes; ++i) {
      if (engine.is_alive(i)) scan.push_back(i);
    }
    const auto active = engine.active_nodes();
    ASSERT_EQ(std::vector<ids::NodeIndex>(active.begin(), active.end()),
              scan)
        << "activation list diverged from the bitmap at step " << step;
  }
  EXPECT_EQ(engine.active_nodes().size(), engine.alive_count());
}

TEST(CycleEngine, ThroughputGaugeCountsOnlyRunTime) {
  CycleEngine engine(8, 13);
  for (ids::NodeIndex i = 0; i < 8; ++i) engine.set_alive(i, true);
  engine.add_stage("noop", 0x1,
                   [](ids::NodeIndex, std::size_t, Rng&, std::size_t) {});
  // Telemetry gauges start at zero: no cycles, no rate.
  EXPECT_EQ(engine.run_wall_ms(), 0.0);
  EXPECT_EQ(engine.cycles_per_second(), 0.0);
  engine.run(25);
  EXPECT_GT(engine.run_wall_ms(), 0.0);
  EXPECT_GT(engine.cycles_per_second(), 0.0);
  // The gauge is cycles over accumulated run() wall time.
  EXPECT_DOUBLE_EQ(engine.cycles_per_second(),
                   static_cast<double>(engine.cycle()) /
                       (engine.run_wall_ms() / 1000.0));
  EXPECT_EQ(engine.observe_wall_ms(), 0.0);  // no observer attached
}

TEST(CycleEngine, ThroughputGaugeExcludesTheObserver) {
  CycleEngine engine(8, 16);
  for (ids::NodeIndex i = 0; i < 8; ++i) engine.set_alive(i, true);
  engine.add_stage("noop", 0x1,
                   [](ids::NodeIndex, std::size_t, Rng&, std::size_t) {});
  support::RecorderConfig config;
  config.enabled = true;
  config.stride = 2;
  support::Recorder recorder;
  recorder.configure(config);
  std::size_t observed = 0;
  engine.set_observer(&recorder, [&observed](std::size_t) {
    ++observed;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  engine.run(4);  // cycles 0 and 2 are sampled
  EXPECT_EQ(observed, 2u);
  EXPECT_GE(engine.observe_wall_ms(), 40.0);
  // Four no-op cycles take far less than the observer's 40 ms of sleep.
  EXPECT_LT(engine.run_wall_ms(), engine.observe_wall_ms());
  EXPECT_GT(engine.run_wall_ms(), 0.0);
}

TEST(CycleEngine, StageTimingsCoverStagesNotHooks) {
  CycleEngine engine(16, 14, 2);
  for (ids::NodeIndex i = 0; i < 16; ++i) engine.set_alive(i, true);
  engine.add_stage("a", 0x1,
                   [](ids::NodeIndex, std::size_t, Rng&, std::size_t) {});
  engine.add_cycle_hook("h", [](std::size_t) {});
  engine.add_stage("b", 0x2,
                   [](ids::NodeIndex, std::size_t, Rng&, std::size_t) {});
  engine.run(3);
  const auto timings = engine.stage_timings();
  ASSERT_EQ(timings.size(), 2u);
  EXPECT_EQ(timings[0].name, "a");
  EXPECT_EQ(timings[1].name, "b");
  for (const auto& t : timings) EXPECT_GT(t.span_ns, 0u);
}

}  // namespace
}  // namespace vitis::sim
