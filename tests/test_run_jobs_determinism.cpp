// The --run-jobs contract: sharding the cycle engine across N workers is a
// wall-clock knob, never a semantics knob. For every system, a run at
// run_jobs ∈ {2, 7} must be BIT-IDENTICAL to the serial run_jobs=1 run —
// full protocol-visible state (alive bits, routing tables, delivery
// accounting), the flight recorder's time series, the sampled publication
// traces, and the fault-plan counters — under the most hostile schedule we
// can stage: mid-run churn (leaves and rejoins) plus an active fault plan
// (drops, delays, a partition window, crashes).
//
// This works because node stages draw from counter-based per-node streams
// (sim::Rng::at(seed, salt, node, cycle)) instead of one shared sequential
// stream, and cross-node effects travel through per-worker outbox lanes
// read in fixed lane order — by a serial merge, or by a sharded merge in
// which each worker writes only the nodes it owns — so worker count moves
// where work happens, not what happens.
//
// The same contract covers the distribution channels (schema v7): worker
// lanes merge by bucket-wise sum, so the merged histograms are compared
// bucket-exact across worker counts.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "ids/hash.hpp"
#include "support/histogram.hpp"
#include "support/recorder.hpp"
#include "workload/churn_driver.hpp"
#include "workload/scenario.hpp"

namespace vitis {
namespace {

constexpr std::size_t kCycles = 30;

workload::SyntheticScenario small_scenario(double rate_alpha = 0.0) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 200;
  params.subscriptions.topics = 100;
  params.subscriptions.subs_per_node = 12;
  params.subscriptions.pattern = workload::CorrelationPattern::kRandom;
  params.events = 30;
  params.seed = 6021;
  params.rate_alpha = rate_alpha;
  return workload::make_synthetic_scenario(params);
}

/// Drops, delays, one partition window and two crashes, all live inside the
/// measured cycle range.
sim::FaultConfig hostile_plan() {
  sim::FaultConfig config;
  config.drop = 0.1;
  config.delay = 0.05;
  config.delay_hops = 2;
  config.partitions.push_back(sim::PartitionWindow{8, 16, 0x5eedULL});
  config.crashes.push_back(sim::CrashEvent{10, 7});
  config.crashes.push_back(sim::CrashEvent{14, 31});
  return config;
}

/// Leaves and rejoins on nodes disjoint from the crash victims, timed so the
/// rejoins land while the partition window is open and after it closes.
sim::ChurnTrace hostile_churn() {
  std::vector<sim::ChurnEvent> events;
  events.push_back(sim::ChurnEvent{6.5, 5, false});
  events.push_back(sim::ChurnEvent{9.5, 17, false});
  events.push_back(sim::ChurnEvent{14.5, 5, true});
  events.push_back(sim::ChurnEvent{18.5, 40, false});
  events.push_back(sim::ChurnEvent{22.5, 17, true});
  events.push_back(sim::ChurnEvent{26.5, 40, true});
  return sim::ChurnTrace(std::move(events));
}

void mix(std::uint64_t& h, std::uint64_t v) {
  h = ids::mix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

/// Full protocol-visible state. Any worker-count-dependent divergence
/// cascades into the routing tables within a cycle or two. Vitis relay
/// tables are hashed too (every topic's links, peer and age, in link
/// order), so a relay reorder that leaves deliveries unchanged is caught;
/// so are Vitis' gateway proposals, which catch an election error before it
/// spreads into relay tables, and the pair memo's counters, which pin the
/// deferred insert lanes.
template <typename System>
std::uint64_t digest(const System& system, std::size_t topics) {
  std::uint64_t h = 0x72756e6a6f6273ULL;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    const auto node = static_cast<ids::NodeIndex>(i);
    mix(h, system.is_alive(node) ? 1 : 0);
    for (const auto& entry : system.routing_table(node).entries()) {
      mix(h, entry.node);
      mix(h, static_cast<std::uint64_t>(entry.kind));
      mix(h, entry.age);
    }
    if constexpr (requires { system.profile(node); }) {
      const auto& profile = system.profile(node);
      for (std::size_t p = 0; p < profile.size(); ++p) {
        const auto& proposal = profile.proposal_at(p);
        mix(h, proposal.gateway);
        mix(h, proposal.parent);
        mix(h, proposal.hops);
      }
    }
    if constexpr (requires { system.relay_table(node); }) {
      const auto& relay = system.relay_table(node);
      for (std::size_t t = 0; t < topics; ++t) {
        for (const auto& link :
             relay.links(static_cast<ids::TopicIndex>(t))) {
          mix(h, t);
          mix(h, link.peer);
          mix(h, link.age);
        }
      }
    }
  }
  mix(h, system.metrics().total_messages());
  mix(h, system.metrics().expected_total());
  mix(h, system.metrics().delivered_total());
  if constexpr (requires { system.utility_cache(); }) {
    const auto& memo = system.utility_cache().stats();
    mix(h, memo.hits);
    mix(h, memo.misses);
    mix(h, memo.evictions);
  }
  return h;
}

/// Bit-level double equality. Event-free windows record NaN gauges, and
/// IEEE == refuses NaN == NaN — but the contract here is bit-identity, so
/// compare the representations.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_series(const support::TimeSeries& serial,
                        const support::TimeSeries& sharded,
                        std::size_t jobs) {
  EXPECT_EQ(serial.stride, sharded.stride);
  ASSERT_EQ(serial.samples.size(), sharded.samples.size())
      << "sample count diverged at run_jobs=" << jobs;
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    const auto& a = serial.samples[i];
    const auto& b = sharded.samples[i];
    EXPECT_EQ(a.cycle, b.cycle);
    for (std::size_t g = 0; g < support::kGaugeCount; ++g) {
      EXPECT_TRUE(same_bits(a.gauges[g], b.gauges[g]))
          << "gauge " << support::to_string(static_cast<support::Gauge>(g))
          << " diverged at run_jobs=" << jobs << " sample " << i << ": "
          << a.gauges[g] << " vs " << b.gauges[g];
    }
    EXPECT_EQ(a.phase_calls, b.phase_calls)
        << "phase calls diverged at run_jobs=" << jobs << " sample " << i;
  }
}

struct RunResult {
  std::uint64_t state_digest = 0;
  support::TimeSeries series;
  std::vector<support::PublicationTrace> traces;
  sim::FaultStats faults;
  std::array<support::Histogram, support::kChannelCount> distributions;
};

/// One full hostile run at the given worker count: recorder on (stride 1,
/// invariants, trace every publication), fault plan armed, churn trace
/// replayed cycle by cycle, then the publication schedule.
template <typename Make>
RunResult run_once(Make make, std::size_t jobs, double rate_alpha) {
  const auto scenario = small_scenario(rate_alpha);
  auto system = make(scenario, jobs);
  EXPECT_EQ(system->run_jobs(), jobs);

  support::RecorderConfig recorder;
  recorder.enabled = true;
  recorder.stride = 1;
  recorder.invariants = true;
  recorder.trace_rate = 1.0;
  recorder.expected_cycles = kCycles + 8;
  system->configure_recorder(recorder);
  system->set_fault_plan(hostile_plan());

  const auto trace = hostile_churn();
  workload::ChurnDriver driver(trace);
  driver.attach(*system);
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    driver.advance_to(static_cast<double>(cycle));
    system->run_cycles(1);
  }

  for (const auto& [topic, publisher] : scenario.schedule) {
    if (!system->is_alive(publisher)) continue;
    (void)system->publish(topic, publisher);
  }

  RunResult result;
  result.state_digest =
      digest(*system, scenario.subscriptions.topic_count());
  result.series = system->recorder()->series();
  result.traces = system->recorder()->traces();
  result.faults = system->fault_plan().stats();
  result.distributions = system->distributions()->merged_all();
  return result;
}

template <typename Make>
void expect_worker_count_invariance(Make make, double rate_alpha = 0.0) {
  const RunResult serial = run_once(make, 1, rate_alpha);
  // The staged hostility really fired: faults drew from their streams, the
  // recorder sampled every cycle and captured routes.
  ASSERT_FALSE(serial.series.samples.empty());
  ASSERT_FALSE(serial.traces.empty());
  EXPECT_GT(serial.faults.attempts, 0u);
  EXPECT_GT(serial.faults.drops, 0u);
  EXPECT_EQ(serial.faults.crashes, 2u);
  // The distribution channels recorded for real on every system: events
  // delivered (hops) and the engine counted its stage passes. The
  // worker-lane channels (routing-table occupancy) fired too.
  const auto channel = [](const RunResult& r, support::Channel c) {
    return r.distributions[static_cast<std::size_t>(c)];
  };
  EXPECT_GT(channel(serial, support::Channel::kDeliveryHops).count(), 0u);
  EXPECT_GT(channel(serial, support::Channel::kStageActivations).count(), 0u);
  EXPECT_GT(channel(serial, support::Channel::kRoutingTableSize).count(), 0u);

  for (const std::size_t jobs : {std::size_t{2}, std::size_t{7}}) {
    const RunResult sharded = run_once(make, jobs, rate_alpha);
    EXPECT_EQ(serial.state_digest, sharded.state_digest)
        << "state diverged at run_jobs=" << jobs;
    expect_same_series(serial.series, sharded.series, jobs);
    EXPECT_EQ(serial.traces, sharded.traces)
        << "publication traces diverged at run_jobs=" << jobs;
    // Bucket-exact histogram compare (defaulted operator== covers every
    // bucket plus count/sum/max): lane merging must erase the worker count.
    for (std::size_t c = 0; c < support::kChannelCount; ++c) {
      EXPECT_EQ(serial.distributions[c], sharded.distributions[c])
          << "distribution channel "
          << support::to_string(static_cast<support::Channel>(c))
          << " diverged at run_jobs=" << jobs;
    }
    EXPECT_EQ(serial.faults.attempts, sharded.faults.attempts);
    EXPECT_EQ(serial.faults.drops, sharded.faults.drops);
    EXPECT_EQ(serial.faults.partition_drops, sharded.faults.partition_drops);
    EXPECT_EQ(serial.faults.delays, sharded.faults.delays);
    EXPECT_EQ(serial.faults.crashes, sharded.faults.crashes);
  }
}

TEST(RunJobsDeterminism, VitisIsBitIdenticalAcrossWorkerCounts) {
  expect_worker_count_invariance([](const auto& scenario, std::size_t jobs) {
    core::VitisConfig config;
    config.run_jobs = jobs;
    return workload::make_vitis(scenario, config, 6021);
  });
}

// Uniform rates keep the utility function in its all-ones fast path, which
// never touches the pairwise memo. Skewed publication rates flip it onto the
// weighted merge + memo cache, so this variant drives the batch-scoring
// kernel's skewed passes — memo lookups, interleaved union merges,
// deferred inserts and evictions included — under every worker count; the
// digest folds the memo's counters, so the lanes' commit order is pinned.
TEST(RunJobsDeterminism, VitisSkewedRatesIsBitIdenticalAcrossWorkerCounts) {
  expect_worker_count_invariance(
      [](const auto& scenario, std::size_t jobs) {
        core::VitisConfig config;
        config.run_jobs = jobs;
        return workload::make_vitis(scenario, config, 6021);
      },
      /*rate_alpha=*/1.5);
}

// Cyclon's partner pick frees a view slot in the parallel stage and its swap
// forks its subset draws in the serial merge; both must be as
// worker-count-blind as Newscast's.
TEST(RunJobsDeterminism, VitisCyclonIsBitIdenticalAcrossWorkerCounts) {
  expect_worker_count_invariance([](const auto& scenario, std::size_t jobs) {
    core::VitisConfig config;
    config.run_jobs = jobs;
    config.sampling = gossip::SamplingPolicy::kCyclon;
    return workload::make_vitis(scenario, config, 6021);
  });
}

TEST(RunJobsDeterminism, RvrIsBitIdenticalAcrossWorkerCounts) {
  expect_worker_count_invariance([](const auto& scenario, std::size_t jobs) {
    baselines::rvr::RvrConfig config;
    config.base.run_jobs = jobs;
    return workload::make_rvr(scenario, config, 6021);
  });
}

TEST(RunJobsDeterminism, OptIsBitIdenticalAcrossWorkerCounts) {
  expect_worker_count_invariance([](const auto& scenario, std::size_t jobs) {
    baselines::opt::OptConfig config;
    config.base.run_jobs = jobs;
    return workload::make_opt(scenario, config, 6021);
  });
}

}  // namespace
}  // namespace vitis
