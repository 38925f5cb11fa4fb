// Micro-benchmarks (google-benchmark) of the hot paths: Eq. 1 utility
// evaluation, subscription-set intersection, greedy lookup, a full gossip
// cycle, gateway election, and event dissemination.
//
// The main() accepts (and ignores) the common bench flags so harness
// scripts can pass --scale/--jobs uniformly to every binary; timings land
// in BENCH_micro_core.json like the figure benches' artifacts.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "core/batch_score.hpp"
#include "core/gateway.hpp"
#include "core/utility.hpp"
#include "core/vitis_system.hpp"
#include "ids/hash.hpp"
#include "pubsub/subscription_registry.hpp"
#include "workload/scenario.hpp"
#include "workload/skype_churn.hpp"
#include "workload/twitter.hpp"

namespace {

using namespace vitis;

pubsub::SubscriptionSet random_subs(sim::Rng& rng, std::size_t count,
                                    std::size_t topics) {
  std::vector<ids::TopicIndex> picks;
  for (std::size_t i = 0; i < count; ++i) {
    picks.push_back(static_cast<ids::TopicIndex>(rng.index(topics)));
  }
  return pubsub::SubscriptionSet(std::move(picks));
}

void BM_SubscriptionIntersection(benchmark::State& state) {
  sim::Rng rng(1);
  const auto subs_count = static_cast<std::size_t>(state.range(0));
  const auto a = random_subs(rng, subs_count, 5000);
  const auto b = random_subs(rng, subs_count, 5000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pubsub::intersection_size(a, b));
  }
}
BENCHMARK(BM_SubscriptionIntersection)->Arg(50)->Arg(200)->Arg(1000);

void BM_UtilityFunction(benchmark::State& state) {
  sim::Rng rng(2);
  const auto u = core::UtilityFunction::uniform(5000);
  const auto a = random_subs(rng, 50, 5000);
  const auto b = random_subs(rng, 50, 5000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(u(a, b));
  }
}
BENCHMARK(BM_UtilityFunction);

void BM_WeightedIntersection(benchmark::State& state) {
  sim::Rng rng(4);
  const auto subs_count = static_cast<std::size_t>(state.range(0));
  // Zipf-ish rates, like fig07's skewed workloads (any non-uniform vector
  // forces the exact weighted merge paths).
  std::vector<double> rates(5000);
  for (std::size_t t = 0; t < rates.size(); ++t) {
    rates[t] = 1.0 / static_cast<double>(t + 1);
  }
  const auto a = random_subs(rng, subs_count, 5000);
  const auto b = random_subs(rng, subs_count, 5000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pubsub::weighted_intersection(a, b, rates));
  }
}
BENCHMARK(BM_WeightedIntersection)->Arg(50)->Arg(200)->Arg(1000);

// Batch ranking workload: one prepared profile scored against a candidate
// pool, with the fingerprint prefilter off (arg0 = 0) and on (arg0 = 1) at
// a given profile size (arg1). Dense 50-topic profiles saturate the 64-bit
// signature (reject rate ~0); sparse Twitter-like 8-topic profiles reject a
// large fraction before the merge. The reject-rate counter is deterministic
// (fixed seed, fixed pool) and doubles as the prefilter hit-rate figure in
// BENCH_micro_core.json.
void BM_UtilityBatchScore(benchmark::State& state) {
  sim::Rng rng(11);
  auto u = core::UtilityFunction::uniform(5000);
  u.set_prefilter_enabled(state.range(0) != 0);
  const auto subs_count = static_cast<std::size_t>(state.range(1));
  const auto self = random_subs(rng, subs_count, 5000);
  std::vector<pubsub::SubscriptionSet> pool;
  for (int i = 0; i < 64; ++i) {
    pool.push_back(random_subs(rng, subs_count, 5000));
  }
  for (auto _ : state) {
    u.prepare(self);
    double sum = 0.0;
    for (const auto& candidate : pool) sum += u.score(candidate);
    benchmark::DoNotOptimize(sum);
  }
  const auto& stats = u.prefilter_stats();
  state.counters["prefilter_reject_rate"] = benchmark::Counter(
      stats.calls == 0 ? 0.0
                       : static_cast<double>(stats.rejects) /
                             static_cast<double>(stats.calls));
}
BENCHMARK(BM_UtilityBatchScore)
    ->Args({0, 50})
    ->Args({1, 50})
    ->Args({0, 8})
    ->Args({1, 8});

// The same four workloads as BM_UtilityBatchScore, routed through the SoA
// batch kernel (core::BatchScorer over support/simd.hpp) that the ranking
// path actually runs: the disjointness prefilter is evaluated 4-wide over
// the contiguous fingerprint column and the all-ones merge counts stamped
// topics 8-wide, instead of one score() call per candidate. The speedup of
// these points over their BM_UtilityBatchScore twins is the kernel's figure
// of merit on an AVX2 build; on a VITIS_SIMD=scalar build both land within
// noise of each other (same scalar loops, batched memory layout). The
// identical seed stream makes the pools — and therefore the deterministic
// prefilter_reject_rate counter — equal between the twins (arg2 = 0).
//
// arg2 = 1 is the skewed-rate twin of BM_UtilityBatchScoreMemo/0: its
// seed stream, rates and 50-topic pool, no memo, so every overlapping
// candidate pays the exact union kernel, four merges interleaved, where
// the twin pays one weighted_union each.
void BM_BatchScoreKernel(benchmark::State& state) {
  const bool skewed = state.range(2) != 0;
  // Same streams as the twins: identical pools.
  sim::Rng rng(skewed ? 13 : 11);
  std::vector<double> rates(5000, 1.0);
  if (skewed) {
    for (std::size_t t = 0; t < rates.size(); ++t) {
      rates[t] = 1.0 / static_cast<double>(t + 1);
    }
  }
  core::UtilityFunction u{std::span<const double>(rates)};
  u.set_prefilter_enabled(state.range(0) != 0);
  const auto subs_count = static_cast<std::size_t>(state.range(1));
  pubsub::SubscriptionRegistry registry;
  const auto self = random_subs(rng, subs_count, 5000);
  const pubsub::SetId self_id = registry.intern(self);
  std::vector<pubsub::SubscriptionSet> pool;
  std::vector<pubsub::SetId> pool_ids;
  for (int i = 0; i < 64; ++i) {
    pool.push_back(random_subs(rng, subs_count, 5000));
    pool_ids.push_back(registry.intern(pool.back()));
  }
  core::BatchScorer scorer;
  for (auto _ : state) {
    u.prepare(self, self_id);
    scorer.clear();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      scorer.add(static_cast<ids::NodeIndex>(i), &pool[i],
                 pool[i].fingerprint(), pool_ids[i]);
    }
    scorer.score_all(u);
    double sum = 0.0;
    for (const double score : scorer.scores()) sum += score;
    benchmark::DoNotOptimize(sum);
  }
  const auto& stats = u.prefilter_stats();
  state.counters["prefilter_reject_rate"] = benchmark::Counter(
      stats.calls == 0 ? 0.0
                       : static_cast<double>(stats.rejects) /
                             static_cast<double>(stats.calls));
}
BENCHMARK(BM_BatchScoreKernel)
    ->Args({0, 50, 0})
    ->Args({1, 50, 0})
    ->Args({0, 8, 0})
    ->Args({1, 8, 0})
    ->Args({1, 50, 1});

// Subscription interning: 1024 intern() calls round-robin over a pool of D
// distinct sets (arg0 = D), as in a node loop where many nodes share a
// profile. Hash-consing makes every repeat a table hit returning the
// existing SetId. The interning_rate counter (distinct sets / intern calls)
// is deterministic for the fixed seed and pool, independent of the
// iteration count.
void BM_SubscriptionInterning(benchmark::State& state) {
  sim::Rng rng(12);
  const auto distinct = static_cast<std::size_t>(state.range(0));
  std::vector<pubsub::SubscriptionSet> sets;
  for (std::size_t i = 0; i < distinct; ++i) {
    sets.push_back(random_subs(rng, 50, 5000));
  }
  constexpr std::size_t kCalls = 1024;
  for (auto _ : state) {
    pubsub::SubscriptionRegistry registry;
    std::uint32_t mixed = 0;
    for (std::size_t i = 0; i < kCalls; ++i) {
      mixed ^= registry.intern(sets[i % sets.size()]);
    }
    benchmark::DoNotOptimize(mixed);
  }
  pubsub::SubscriptionRegistry registry;
  for (std::size_t i = 0; i < kCalls; ++i) {
    (void)registry.intern(sets[i % sets.size()]);
  }
  state.counters["interning_rate"] =
      benchmark::Counter(static_cast<double>(registry.size()) /
                         static_cast<double>(registry.intern_calls()));
}
BENCHMARK(BM_SubscriptionInterning)->Arg(16)->Arg(256);

// Cached vs cold batch ranking: the same prepared-profile × 64-candidate
// pool as BM_UtilityBatchScore, with interned SetIds and the pairwise memo
// off (arg0 = 0) or on (arg0 = 1). The benchmark loop repeats the same
// pairs and commits the memo's lane after each pass, as the T-Man wave
// barrier does, so the cached variant times the steady-state hit path
// figure benches reach after the first ranking cycle. The memo_hit_rate
// counter is measured over one dedicated post-warmup pass against a fresh
// cache — exactly 1.0 cached / 0.0 cold, independent of the iteration
// count.
void BM_UtilityBatchScoreMemo(benchmark::State& state) {
  sim::Rng rng(13);
  // Skewed rates: the memo only engages on the weighted-merge path (with
  // all-ones rates the stamped count merge is cheaper than any probe and
  // the cache is bypassed), so that is the path worth timing.
  std::vector<double> rates(5000);
  for (std::size_t t = 0; t < rates.size(); ++t) {
    rates[t] = 1.0 / static_cast<double>(t + 1);
  }
  core::UtilityFunction u{std::span<const double>(rates)};
  core::PairUtilityCache cache(std::size_t{1} << 12);
  const bool cached = state.range(0) != 0;
  if (cached) u.set_cache(&cache);
  pubsub::SubscriptionRegistry registry;
  const auto self = random_subs(rng, 50, 5000);
  const pubsub::SetId self_id = registry.intern(self);
  std::vector<pubsub::SubscriptionSet> pool;
  std::vector<pubsub::SetId> pool_ids;
  for (int i = 0; i < 64; ++i) {
    pool.push_back(random_subs(rng, 50, 5000));
    pool_ids.push_back(registry.intern(pool.back()));
  }
  for (auto _ : state) {
    u.prepare(self, self_id);
    double sum = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      sum += u.score(pool[i], pool_ids[i]);
    }
    benchmark::DoNotOptimize(sum);
    if (cached) cache.commit_lanes();
  }
  // Dedicated measurement passes over a fresh cache: a cold pass fills it
  // once committed, the second pass is then all hits (first-pass hits are
  // zero, so the accumulated hit count is exactly the second pass's).
  core::PairUtilityCache fresh(std::size_t{1} << 12);
  if (cached) u.set_cache(&fresh);
  for (int pass = 0; pass < 2; ++pass) {
    u.prepare(self, self_id);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      benchmark::DoNotOptimize(u.score(pool[i], pool_ids[i]));
    }
    fresh.commit_lanes();
  }
  state.counters["memo_hit_rate"] = benchmark::Counter(
      cached ? static_cast<double>(fresh.stats().hits) /
                   static_cast<double>(pool.size())
             : 0.0);
}
BENCHMARK(BM_UtilityBatchScoreMemo)->Arg(0)->Arg(1);

void BM_GatewayElection(benchmark::State& state) {
  const auto neighbor_count = static_cast<std::size_t>(state.range(0));
  std::vector<core::NeighborProposal> neighbors;
  for (std::size_t i = 0; i < neighbor_count; ++i) {
    neighbors.push_back(core::NeighborProposal{
        static_cast<ids::NodeIndex>(i + 10),
        core::GatewayProposal{static_cast<ids::NodeIndex>(i + 100),
                              ids::node_ring_id(static_cast<ids::NodeIndex>(
                                  i + 100)),
                              static_cast<ids::NodeIndex>(i + 10), 1},
        true});
  }
  const core::ElectionInput input{1, ids::node_ring_id(1),
                                  ids::topic_ring_id(7), 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::elect_gateway(input, neighbors));
  }
}
BENCHMARK(BM_GatewayElection)->Arg(5)->Arg(15)->Arg(30);

struct SystemHarness {
  explicit SystemHarness(std::size_t nodes)
      : scenario(make_scenario(nodes)),
        system(workload::make_vitis(scenario, core::VitisConfig{}, 99)) {
    system->run_cycles(25);
  }

  static workload::SyntheticScenario make_scenario(std::size_t nodes) {
    workload::SyntheticScenarioParams params;
    params.subscriptions.nodes = nodes;
    params.subscriptions.topics = nodes / 2;
    params.subscriptions.subs_per_node = 20;
    params.subscriptions.pattern =
        workload::CorrelationPattern::kLowCorrelation;
    params.events = 16;
    params.seed = 99;
    return workload::make_synthetic_scenario(params);
  }

  workload::SyntheticScenario scenario;
  std::unique_ptr<core::VitisSystem> system;
};

void BM_GreedyLookup(benchmark::State& state) {
  SystemHarness harness(static_cast<std::size_t>(state.range(0)));
  sim::Rng rng(3);
  for (auto _ : state) {
    const auto origin = static_cast<ids::NodeIndex>(
        rng.index(harness.system->node_count()));
    benchmark::DoNotOptimize(
        harness.system->lookup(origin, rng.next_u64()));
  }
}
BENCHMARK(BM_GreedyLookup)->Arg(500)->Arg(2000);

void BM_GossipCycle(benchmark::State& state) {
  SystemHarness harness(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    harness.system->run_cycles(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_GossipCycle)->Unit(benchmark::kMillisecond)->Arg(500)->Arg(2000);

void BM_PublishDissemination(benchmark::State& state) {
  SystemHarness harness(1000);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [topic, publisher] =
        harness.scenario.schedule[i++ % harness.scenario.schedule.size()];
    benchmark::DoNotOptimize(harness.system->publish(topic, publisher));
  }
}
BENCHMARK(BM_PublishDissemination);

void BM_RvrGossipCycle(benchmark::State& state) {
  const auto scenario = SystemHarness::make_scenario(
      static_cast<std::size_t>(state.range(0)));
  auto system =
      workload::make_rvr(scenario, baselines::rvr::RvrConfig{}, 99);
  system->run_cycles(20);
  for (auto _ : state) {
    system->run_cycles(1);
  }
}
BENCHMARK(BM_RvrGossipCycle)->Unit(benchmark::kMillisecond)->Arg(500);

void BM_OptGossipCycle(benchmark::State& state) {
  const auto scenario = SystemHarness::make_scenario(
      static_cast<std::size_t>(state.range(0)));
  auto system =
      workload::make_opt(scenario, baselines::opt::OptConfig{}, 99);
  system->run_cycles(20);
  for (auto _ : state) {
    system->run_cycles(1);
  }
}
BENCHMARK(BM_OptGossipCycle)->Unit(benchmark::kMillisecond)->Arg(500);

void BM_CoverageSelection(benchmark::State& state) {
  const auto scenario = SystemHarness::make_scenario(500);
  baselines::opt::CoverageSelector selector(2, scenario.subscriptions);
  sim::Rng rng(5);
  std::vector<gossip::Descriptor> candidates;
  for (int i = 0; i < 40; ++i) {
    const auto node = static_cast<ids::NodeIndex>(rng.index(500));
    candidates.push_back(
        gossip::Descriptor{node, ids::node_ring_id(node), 0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        selector.select_bounded(scenario.subscriptions.of(0), candidates, 15));
  }
}
BENCHMARK(BM_CoverageSelection);

void BM_SkypeTraceGeneration(benchmark::State& state) {
  workload::SkypeChurnParams params;
  params.nodes = static_cast<std::size_t>(state.range(0));
  params.duration_hours = 400.0;
  for (auto _ : state) {
    sim::Rng rng(7);
    benchmark::DoNotOptimize(workload::make_skype_churn(params, rng));
  }
}
BENCHMARK(BM_SkypeTraceGeneration)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1000);

void BM_TwitterGeneration(benchmark::State& state) {
  workload::TwitterModelParams params;
  params.users = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Rng rng(9);
    benchmark::DoNotOptimize(workload::make_twitter_subscriptions(params, rng));
  }
}
BENCHMARK(BM_TwitterGeneration)->Unit(benchmark::kMillisecond)->Arg(2000);

// Console output as usual, plus a machine-readable copy of every finished
// run for the JSON artifact.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_time = 0.0;
    double cpu_time = 0.0;
    std::int64_t iterations = 0;
    const char* time_unit = "ns";
    // User counters (e.g. prefilter_reject_rate) — deterministic metrics,
    // unlike the timings.
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      Row row{run.benchmark_name(), run.GetAdjustedRealTime(),
              run.GetAdjustedCPUTime(), static_cast<std::int64_t>(run.iterations),
              benchmark::GetTimeUnitString(run.time_unit), {}};
      for (const auto& [name, counter] : run.counters) {
        row.counters.emplace_back(name, counter.value);
      }
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

// The common bench flags (and their detached values) must not reach
// benchmark::Initialize, which rejects unknown options.
bool is_common_flag(const char* arg) {
  static const char* kFlags[] = {"--scale",   "--nodes",   "--topics",
                                 "--cycles",  "--events",  "--seed",
                                 "--jobs",    "--csv",     "--json",
                                 "--observe", "--observe-stride",
                                 "--trace-sample", "--log-level"};
  for (const char* flag : kFlags) {
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) == 0 &&
        (arg[len] == '\0' || arg[len] == '=')) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = vitis::bench::BenchContext::from_args(argc, argv);

  std::vector<char*> bench_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (is_common_flag(argv[i])) {
      // `--flag value` style: swallow the detached value token too.
      if (i + 1 < argc && std::strchr(argv[i], '=') == nullptr &&
          std::strncmp(argv[i + 1], "--", 2) != 0) {
        ++i;
      }
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  auto artifact = vitis::bench::make_artifact(ctx, "micro_core");
  for (const auto& row : reporter.rows()) {
    auto& record = artifact.add_point();
    record.param("benchmark", row.name);
    record.param("time_unit", row.time_unit);
    record.metric("real_time", row.real_time);
    record.metric("cpu_time", row.cpu_time);
    record.metric("iterations", static_cast<double>(row.iterations));
    for (const auto& [name, value] : row.counters) {
      record.metric(name, value);
    }
  }
  vitis::bench::write_artifact(ctx, artifact);
  benchmark::Shutdown();
  return 0;
}
