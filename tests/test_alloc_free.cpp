// Allocation audit of the steady-state gossip hot path: after warmup, one
// full gossip activation per node (peer-sampling exchange + T-Man exchange
// + Algorithm 4 selection) must perform ZERO heap allocations — all working
// sets live in member scratch buffers sized during warmup.
//
// The audit replaces the global operator new/delete with counting versions
// (this TU only links into this test binary), runs the system past its
// buffer-growth phase, and then asserts the allocation counter stays flat
// across gossip_step() calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "baselines/opt/opt_system.hpp"
#include "baselines/rvr/rvr_system.hpp"
#include "core/batch_score.hpp"
#include "core/utility.hpp"
#include "core/vitis_system.hpp"
#include "pubsub/subscription.hpp"
#include "pubsub/subscription_registry.hpp"
#include "sim/rng.hpp"
#include "support/histogram.hpp"
#include "support/recorder.hpp"
#include "workload/scenario.hpp"

namespace {

std::uint64_t g_allocations = 0;  // single-threaded test: plain counter

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Every replacement delete frees through this one out-of-line call. Were
// std::free inlined into them, GCC would pair it with the operator new it
// sees and warn (-Wmismatched-new-delete), although every new here
// allocates with malloc or aligned_alloc.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace vitis::core {
namespace {

workload::SyntheticScenario gossip_audit_scenario() {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 400;
  params.subscriptions.topics = 200;
  params.subscriptions.subs_per_node = 20;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 8;
  // Skewed rates put ranking on the memoized scoring path (with uniform
  // rates the memo is bypassed), so the audit covers probe + insert too.
  params.rate_alpha = 1.0;
  params.seed = 1234;
  return workload::make_synthetic_scenario(params);
}

/// Heap allocations across one full gossip activation for every node. Any
/// push_back past reserved capacity, any temporary vector, any node-local
/// map would count.
std::uint64_t allocations_in_gossip_steps(VitisSystem& system) {
  const std::uint64_t before = g_allocations;
  for (ids::NodeIndex node = 0; node < system.node_count(); ++node) {
    system.gossip_step(node);
  }
  return g_allocations - before;
}

TEST(AllocationAudit, SteadyStateGossipStepIsAllocationFree) {
  const auto scenario = gossip_audit_scenario();
  auto system = workload::make_vitis(scenario, VitisConfig{}, 1234);

  // Warmup: grows every scratch buffer (T-Man seen-arrays, exchange
  // buffers, selection working sets, partial views) to steady-state size.
  system->run_cycles(12);

  const std::uint64_t hits_before = system->utility_cache().stats().hits;
  const std::uint64_t during = allocations_in_gossip_steps(*system);
  EXPECT_EQ(during, 0u)
      << during << " heap allocations in " << system->node_count()
      << " steady-state gossip activations";

  // The window above exercised the memoized scoring path for real: in
  // steady state re-ranking the same interned pairs must hit the cache,
  // and the zero-allocation assertion covers those hits.
  if (utility_cache_env_enabled()) {
    ASSERT_TRUE(system->utility_cache().enabled());
    EXPECT_GT(system->utility_cache().stats().hits, hits_before)
        << "steady-state gossip window never hit the utility cache";
  }

  // The audit must be real: the same window at construction time allocates.
  const std::uint64_t fresh_before = g_allocations;
  auto second = workload::make_vitis(scenario, VitisConfig{}, 1234);
  EXPECT_GT(g_allocations, fresh_before)
      << "counting operator new is not wired in";
}

TEST(AllocationAudit, ChurnRejoinIsAllocationFree) {
  // A join draws its bootstrap contacts into the host's reused buffer and
  // re-interns an already-known set; a leave only clears node-local state.
  const auto scenario = gossip_audit_scenario();
  auto system = workload::make_vitis(scenario, VitisConfig{}, 1234);
  system->run_cycles(12);

  const std::uint64_t before = g_allocations;
  for (ids::NodeIndex node = 0; node < 72; node += 2) system->node_leave(node);
  for (ids::NodeIndex node = 0; node < 72; node += 2) system->node_join(node);
  const std::uint64_t during = g_allocations - before;
  EXPECT_EQ(during, 0u) << during
                        << " heap allocations in 36 leave/rejoin pairs";
  EXPECT_EQ(system->alive_count(), system->node_count());
}

TEST(AllocationAudit, CyclonGossipStepIsAllocationFree) {
  // The Cyclon policy frees the oldest slot in prepare and swaps subsets
  // drawn from a per-exchange fork in apply; both reuse the service's two
  // exchange buffers.
  const auto scenario = gossip_audit_scenario();
  VitisConfig config;
  config.sampling = gossip::SamplingPolicy::kCyclon;
  auto system = workload::make_vitis(scenario, config, 1234);
  system->run_cycles(12);

  const std::uint64_t during = allocations_in_gossip_steps(*system);
  EXPECT_EQ(during, 0u)
      << during << " heap allocations in " << system->node_count()
      << " steady-state Cyclon-backed gossip activations";
}

TEST(AllocationAudit, BatchScorerSteadyStateIsAllocationFree) {
  // Direct audit of the batch-scoring kernel, independent of gossip_step:
  // once the SoA pool columns, the memo key scratch, the merge scratch, the
  // lane's insert queue and the ranking vector reached steady-state
  // capacity, a full clear/add/score_all/commit/rank_top_k round —
  // prefilter mask, in-place key hashing, memo probes, interleaved union
  // merges, queued insertions committed with evictions, top-k selection —
  // must be allocation-free.
  constexpr std::size_t kTopics = 300;
  constexpr std::size_t kCandidates = 96;
  constexpr std::size_t kPrepared = 8;
  std::vector<double> rates(kTopics);
  for (std::size_t t = 0; t < kTopics; ++t) {
    rates[t] = 0.5 + static_cast<double>(t % 11);  // skewed: memo engages
  }

  sim::Rng rng(0xba7c45c02eULL);
  pubsub::SubscriptionRegistry registry;
  std::vector<pubsub::SubscriptionSet> sets;
  std::vector<pubsub::SetId> set_ids;
  for (std::size_t i = 0; i < kCandidates + kPrepared; ++i) {
    std::vector<ids::TopicIndex> topics;
    const std::size_t count = 2 + rng.index(14);
    for (std::size_t k = 0; k < count; ++k) {
      topics.push_back(static_cast<ids::TopicIndex>(rng.index(kTopics)));
    }
    sets.emplace_back(std::move(topics));
    set_ids.push_back(registry.intern(sets.back()));
  }

  UtilityFunction utility(rates);
  utility.set_prefilter_enabled(true);
  // Sized just above the ~768 live pairs: repeats from the previous epoch
  // hit, while direct-mapped collisions still evict inside the window.
  PairUtilityCache cache(1024);
  utility.set_cache(&cache);

  BatchScorer scorer;
  std::vector<std::pair<double, std::size_t>> ranked;
  const auto round = [&](std::size_t p) {
    const std::size_t prep = kCandidates + p;
    utility.prepare(sets[prep], set_ids[prep]);
    scorer.clear();
    for (std::size_t i = 0; i < kCandidates; ++i) {
      scorer.add(static_cast<ids::NodeIndex>(i), &sets[i],
                 sets[i].fingerprint(), set_ids[i]);
    }
    scorer.score_all(utility);
    cache.commit_lanes();  // where the wave barrier commits the lane
    rank_top_k(scorer.scores(), scorer.nodes(), /*tie_salt=*/0x5a17ULL,
               /*k=*/12, ranked);
  };

  // Warmup grows every scratch column to its high-water mark.
  for (std::size_t p = 0; p < kPrepared; ++p) round(p);

  const std::uint64_t hits_before = cache.stats().hits;
  const std::uint64_t before = g_allocations;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t p = 0; p < kPrepared; ++p) round(p);
  }
  const std::uint64_t during = g_allocations - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations in "
      << 2 * kPrepared * kCandidates << " steady-state batch scores";
  // The window scored for real: prefilter consulted, memo re-probed.
  EXPECT_GT(utility.prefilter_stats().calls, 0u);
  EXPECT_GT(cache.stats().hits, hits_before);
  EXPECT_EQ(ranked.size(), 12u);
}

TEST(AllocationAudit, ArenaSteadyStateMaintenanceCycleIsAllocationFree) {
  // The arena conversion must not reintroduce per-cycle churn: once every
  // scratch buffer (activation order, touched adjacency lists, exchange
  // buffers, slab-backed routing tables) reached steady-state size, a FULL
  // maintenance cycle — gossip, T-Man, ranking, election, relay repair,
  // heartbeats, adjacency rebuild — is amortized allocation-free. Strict
  // zero is not the invariant here (T-Man keeps reshaping the overlay, so a
  // node newly recruited onto a relay path or gaining its first adjacency
  // edges legitimately grows a vector's capacity once); the invariant is
  // that allocations are RARE capacity-growth events, orders of magnitude
  // below the activation count — any per-activation temporary (the failure
  // mode an arena regression would introduce) trips the budget immediately.
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 400;
  params.subscriptions.topics = 200;
  params.subscriptions.subs_per_node = 20;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 8;
  params.seed = 4321;
  const auto scenario = workload::make_synthetic_scenario(params);
  auto system = workload::make_vitis(scenario, VitisConfig{}, 4321);

  // Warmup long enough to cover every periodic protocol (election period,
  // relay refresh) at least twice, so all amortized growth has happened.
  system->run_cycles(48);

  const std::uint64_t before = g_allocations;
  constexpr std::size_t kCycles = 4;
  system->run_cycles(kCycles);
  const std::uint64_t during = g_allocations - before;
  // 400 nodes × 4 cycles ≈ 1600 activations; residual capacity growth
  // measures ~13 allocations here. One temporary per activation would be
  // ≥ 1600 — budget an order of magnitude below that, an order above the
  // residue (allocator growth policies differ across stdlibs).
  const std::uint64_t budget = system->node_count() * kCycles / 10;
  EXPECT_LT(during, budget)
      << during << " heap allocations in " << kCycles
      << " steady-state maintenance cycles (budget " << budget << ")";

  // The deterministic footprint gauge is itself allocation-free (the
  // capacity bench calls it per sweep point).
  const std::uint64_t gauge_before = g_allocations;
  const std::size_t footprint = system->memory_footprint();
  EXPECT_EQ(g_allocations - gauge_before, 0u);
  EXPECT_GT(footprint, 0u);
}

TEST(AllocationAudit, RvrSteadyStateMaintenanceCycleIsAllocationFree) {
  // RVR's twin of the audit above, on the same scenario and budget: its
  // Symphony selection runs on the host's selection scratch, and the
  // staggered tree refresh routes through the host's buffered lookup, so a
  // steady-state cycle allocates only on rare capacity growth.
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 400;
  params.subscriptions.topics = 200;
  params.subscriptions.subs_per_node = 20;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 8;
  params.seed = 4321;
  const auto scenario = workload::make_synthetic_scenario(params);
  auto system =
      workload::make_rvr(scenario, baselines::rvr::RvrConfig{}, 4321);
  system->run_cycles(48);

  const std::uint64_t before = g_allocations;
  constexpr std::size_t kCycles = 4;
  system->run_cycles(kCycles);
  const std::uint64_t during = g_allocations - before;
  const std::uint64_t budget = system->node_count() * kCycles / 10;
  EXPECT_LT(during, budget)
      << during << " heap allocations in " << kCycles
      << " steady-state RVR maintenance cycles (budget " << budget << ")";

  const std::uint64_t gauge_before = g_allocations;
  const std::size_t footprint = system->memory_footprint();
  EXPECT_EQ(g_allocations - gauge_before, 0u);
  EXPECT_GT(footprint, 0u);
}

TEST(AllocationAudit, FaultAdmissionGossipStepIsAllocationFree) {
  // The fault layer sits on the per-message hot path (every shuffle and
  // T-Man exchange consults deliver()); with an active plan — drop,
  // delay, and an open partition window all firing — the steady-state
  // gossip activation must stay allocation-free.
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 400;
  params.subscriptions.topics = 200;
  params.subscriptions.subs_per_node = 20;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 8;
  params.seed = 1234;
  const auto scenario = workload::make_synthetic_scenario(params);
  VitisConfig config;
  config.relay_retransmit = 2;      // retransmit loop on the relay path
  config.route_fallback_limit = 2;  // successor detour on dropped hops
  config.gateway_silence_limit = 3;
  auto system = workload::make_vitis(scenario, config, 1234);
  system->run_cycles(12);

  sim::FaultConfig fault;
  fault.drop = 0.2;
  fault.delay = 0.1;
  // Window open for the whole audit: the partition hash path runs on
  // every admission check.
  fault.partitions.push_back(sim::PartitionWindow{0, 1'000'000, 0x99ULL});
  system->set_fault_plan(fault);
  system->run_cycles(4);  // settle any plan-dependent scratch growth

  const std::uint64_t before = g_allocations;
  for (ids::NodeIndex node = 0; node < system->node_count(); ++node) {
    system->gossip_step(node);
  }
  const std::uint64_t during = g_allocations - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations in " << system->node_count()
      << " fault-admitted gossip activations";
  EXPECT_GT(system->fault_plan().stats().attempts, 0u);
}

TEST(AllocationAudit, FaultPlanPrimitivesAreAllocationFree) {
  // deliver()/hop_penalty()/for_due_crashes() are called per message; none
  // may touch the heap after configure().
  sim::CycleEngine engine(16, 9);
  sim::FaultConfig config;
  config.drop = 0.3;
  config.delay = 0.2;
  config.partitions.push_back(sim::PartitionWindow{0, 100, 0x7ULL});
  for (std::uint32_t i = 0; i < 8; ++i) {
    config.crashes.push_back(sim::CrashEvent{i, static_cast<ids::NodeIndex>(i)});
  }
  sim::FaultPlan plan;
  plan.configure(config, 4242, &engine);

  const std::uint64_t before = g_allocations;
  std::uint64_t admitted = 0;
  std::uint32_t penalty = 0;
  std::size_t crashed = 0;
  for (int i = 0; i < 10'000; ++i) {
    const auto a = static_cast<ids::NodeIndex>(i % 16);
    const auto b = static_cast<ids::NodeIndex>((i + 7) % 16);
    admitted += plan.deliver(a, b, sim::MessageKind::kPublication) ? 1 : 0;
    penalty += plan.hop_penalty(a, b);
  }
  plan.for_due_crashes(100, [&](ids::NodeIndex) { ++crashed; });
  const std::uint64_t during = g_allocations - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations in 10k fault-plan primitive calls";
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(penalty, 0u);
  EXPECT_EQ(crashed, 8u);
}

TEST(AllocationAudit, HistogramRecordPathIsAllocationFree) {
  // Distribution channels sit on per-cycle hot paths (heartbeat refresh,
  // stage passes, delivery accounting): once configure_workers() has sized
  // the lanes, record() must be a handful of scalar ops — and the merged
  // views are std::array-backed, so even read-out stays off the heap.
  support::HistogramSet set;
  set.configure_workers(4);  // lane sizing happens here, before the run

  const std::uint64_t before = g_allocations;
  std::uint64_t value = 1;
  for (int i = 0; i < 10'000; ++i) {
    const auto worker = static_cast<std::size_t>(i % 4);
    set.record(support::Channel::kDeliveryHops, value % 64, worker);
    set.record(support::Channel::kRoutingTableSize, value % 24, worker);
    set.record(support::Channel::kStageActivations, value);
    value = value * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  const support::Histogram merged =
      set.merged(support::Channel::kDeliveryHops);
  const std::uint64_t p99 = merged.quantile(0.99);
  set.reset_channel(support::Channel::kDeliveryHops);
  const std::uint64_t during = g_allocations - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations in 30k histogram records";
  EXPECT_EQ(merged.count(), 10'000u);
  EXPECT_LE(p99, 63u);
}

// Publication audits: the dissemination reuses its stamp arrays, next-hop
// buffer and queue across publications, so once one pass over the schedule
// grew them, publishing again from the same member publishers (subscribers:
// no rendezvous lookup) must not touch the heap.
workload::SyntheticScenario publish_audit_scenario() {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 400;
  params.subscriptions.topics = 200;
  params.subscriptions.subs_per_node = 20;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 60;
  params.seed = 2468;
  return workload::make_synthetic_scenario(params);
}

template <typename Publish>
void expect_steady_publish_allocation_free(
    const workload::SyntheticScenario& scenario, Publish&& publish) {
  std::uint64_t delivered = 0;
  for (const auto& [topic, publisher] : scenario.schedule) {
    delivered += publish(topic, publisher);  // warmup: grows the buffers
  }
  const std::uint64_t before = g_allocations;
  for (const auto& [topic, publisher] : scenario.schedule) {
    delivered += publish(topic, publisher);
  }
  const std::uint64_t during = g_allocations - before;
  EXPECT_EQ(during, 0u) << during << " heap allocations in "
                        << scenario.schedule.size()
                        << " steady-state publications";
  EXPECT_GT(delivered, 0u);
}

TEST(AllocationAudit, VitisPublishIsAllocationFree) {
  const auto scenario = publish_audit_scenario();
  auto system = workload::make_vitis(scenario, VitisConfig{}, 2468);
  system->run_cycles(30);
  const auto publish = [&](ids::TopicIndex topic, ids::NodeIndex publisher) {
    return system->publish(topic, publisher).delivered;
  };
  expect_steady_publish_allocation_free(scenario, publish);

  // The same schedule from publishers that neither subscribe to nor relay
  // the topic, so every publication first hands the event to the
  // rendezvous node by greedy routing.
  auto outsiders = scenario;
  const std::size_t n = system->node_count();
  std::size_t reaimed = 0;
  for (auto& [topic, publisher] : outsiders.schedule) {
    for (std::size_t step = 0; step < n; ++step) {
      const auto candidate =
          static_cast<ids::NodeIndex>((publisher + step) % n);
      if (system->subscriptions().of(candidate).contains(topic) ||
          system->relay_table(candidate).is_relay_for(topic)) {
        continue;
      }
      publisher = candidate;
      ++reaimed;
      break;
    }
  }
  ASSERT_EQ(reaimed, outsiders.schedule.size());
  expect_steady_publish_allocation_free(outsiders, publish);
}

TEST(AllocationAudit, RvrPublishIsAllocationFree) {
  // RVR's rendezvous route comes from the host's buffered lookup, so its
  // publications stay off the heap as well.
  const auto scenario = publish_audit_scenario();
  auto system = workload::make_rvr(scenario, baselines::rvr::RvrConfig{}, 2468);
  system->run_cycles(30);
  expect_steady_publish_allocation_free(
      scenario, [&](ids::TopicIndex topic, ids::NodeIndex publisher) {
        return system->publish(topic, publisher).delivered;
      });
}

TEST(AllocationAudit, OptPublishIsAllocationFree) {
  const auto scenario = publish_audit_scenario();
  auto system = workload::make_opt(scenario, baselines::opt::OptConfig{}, 2468);
  system->run_cycles(30);
  expect_steady_publish_allocation_free(
      scenario, [&](ids::TopicIndex topic, ids::NodeIndex publisher) {
        return system->publish(topic, publisher).delivered;
      });
}

TEST(AllocationAudit, ObserveSampleIsAllocationFree) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 400;
  params.subscriptions.topics = 200;
  params.subscriptions.subs_per_node = 20;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 8;
  params.seed = 1234;
  const auto scenario = workload::make_synthetic_scenario(params);
  auto system = workload::make_vitis(scenario, VitisConfig{}, 1234);

  // configure_recorder pre-sizes every recorder buffer and the health
  // analyzer's scratch (BFS stamps, frontier, ring order); the warmup
  // cycles sample through the cycle-engine observer and grow anything left.
  support::RecorderConfig config;
  config.enabled = true;
  config.stride = 1;
  config.invariants = true;
  config.expected_cycles = 64;
  system->configure_recorder(config);
  system->run_cycles(12);

  // Audit window: sampling the full gauge set (cluster BFS over every
  // topic, ring-consistency sort, view ages, window counters) plus the
  // invariant monitors must not touch the heap.
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 8; ++i) system->observe_sample();
  const std::uint64_t during = g_allocations - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations in 8 recorder samples";
}

}  // namespace
}  // namespace vitis::core
