// The flight recorder (support/recorder.hpp): stride sampling, pre-sized
// buffers, window gauges, the trace lifecycle — and the end-to-end
// determinism contract: two identical observed runs record equal series and
// traces, and observing a run never perturbs the simulated protocol.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "baselines/rvr/rvr_system.hpp"
#include "core/vitis_system.hpp"
#include "support/bench_artifact.hpp"
#include "support/recorder.hpp"
#include "workload/scenario.hpp"

namespace vitis::support {
namespace {

TEST(Recorder, DisabledRecorderIsInert) {
  Recorder recorder;  // default-constructed == disabled
  EXPECT_FALSE(recorder.enabled());
  EXPECT_FALSE(recorder.should_sample_cycle(0));
  EXPECT_EQ(recorder.begin_sample(0), nullptr);
  EXPECT_FALSE(recorder.want_trace());
  EXPECT_FALSE(recorder.invariants_enabled());
  EXPECT_EQ(recorder.series().stride, 0u);  // 0 marks "was disabled"
  EXPECT_TRUE(recorder.series().samples.empty());
  EXPECT_TRUE(recorder.traces().empty());
}

TEST(Recorder, StrideSelectsSampledCycles) {
  Recorder recorder;
  RecorderConfig config;
  config.enabled = true;
  config.stride = 3;
  config.expected_cycles = 30;
  recorder.configure(config);
  EXPECT_TRUE(recorder.should_sample_cycle(0));
  EXPECT_FALSE(recorder.should_sample_cycle(1));
  EXPECT_FALSE(recorder.should_sample_cycle(2));
  EXPECT_TRUE(recorder.should_sample_cycle(3));
  EXPECT_TRUE(recorder.should_sample_cycle(30));
}

TEST(Recorder, SampleBufferIsPreSizedAndNeverGrows) {
  Recorder recorder;
  RecorderConfig config;
  config.enabled = true;
  config.stride = 2;
  config.expected_cycles = 10;  // capacity 10/2 + 2 = 7
  recorder.configure(config);
  const std::size_t capacity = recorder.series().samples.capacity();
  EXPECT_EQ(capacity, 7u);
  for (std::size_t i = 0; i < capacity; ++i) {
    TimeSeriesSample* sample = recorder.begin_sample(i * 2);
    ASSERT_NE(sample, nullptr);
    EXPECT_EQ(sample->cycle, i * 2);
  }
  // The pre-sized buffer is exhausted: further samples are dropped, the
  // buffer does not reallocate (steady state stays allocation-free).
  EXPECT_EQ(recorder.begin_sample(99), nullptr);
  EXPECT_EQ(recorder.series().samples.capacity(), capacity);
  EXPECT_EQ(recorder.series().samples.size(), capacity);
}

TEST(Recorder, WindowGaugesDeltaAgainstPreviousSample) {
  Recorder recorder;
  RecorderConfig config;
  config.enabled = true;
  recorder.configure(config);

  double hit = 0.0, overhead = 0.0;
  // First window: 8/10 delivered, 25 of 100 messages uninterested.
  recorder.window_gauges(WindowCounters{10, 8, 25, 100}, hit, overhead);
  EXPECT_DOUBLE_EQ(hit, 0.8);
  EXPECT_DOUBLE_EQ(overhead, 25.0);
  // Second window is the delta, not the cumulative ratio: +10 expected all
  // delivered, +100 messages none uninterested.
  recorder.window_gauges(WindowCounters{20, 18, 25, 200}, hit, overhead);
  EXPECT_DOUBLE_EQ(hit, 1.0);
  EXPECT_DOUBLE_EQ(overhead, 0.0);
  // An event-free window yields NaN (rendered as JSON null downstream).
  recorder.window_gauges(WindowCounters{20, 18, 25, 200}, hit, overhead);
  EXPECT_TRUE(std::isnan(hit));
  EXPECT_TRUE(std::isnan(overhead));
}

TEST(Recorder, TraceLifecycleRespectsCaps) {
  Recorder recorder;
  RecorderConfig config;
  config.enabled = true;
  config.trace_rate = 1.0;
  config.max_traces = 2;
  config.max_hops_per_trace = 3;
  recorder.configure(config);

  ASSERT_TRUE(recorder.want_trace());
  recorder.begin_trace(/*event_index=*/5, /*topic=*/7, /*publisher=*/1);
  EXPECT_TRUE(recorder.trace_open());
  EXPECT_FALSE(recorder.want_trace());  // no nested traces
  for (std::uint32_t hop = 1; hop <= 5; ++hop) {
    recorder.add_hop(hop - 1, hop, hop, /*interested=*/hop % 2 == 0,
                     /*route=*/true);
  }
  recorder.end_trace(/*expected=*/4, /*delivered=*/3);
  EXPECT_FALSE(recorder.trace_open());

  ASSERT_EQ(recorder.traces().size(), 1u);
  const PublicationTrace& trace = recorder.traces()[0];
  EXPECT_EQ(trace.event_index, 5u);
  EXPECT_EQ(trace.topic, 7u);
  EXPECT_EQ(trace.publisher, 1u);
  EXPECT_EQ(trace.expected, 4u);
  EXPECT_EQ(trace.delivered, 3u);
  EXPECT_EQ(trace.hops.size(), 3u);  // hops past the cap are dropped
  EXPECT_EQ(trace.hops[2], (TraceHop{2, 3, 3, false, true}));

  // Second trace fills the max_traces budget; after it, want_trace is off.
  ASSERT_TRUE(recorder.want_trace());
  recorder.begin_trace(6, 7, 2);
  recorder.end_trace(1, 1);
  EXPECT_FALSE(recorder.want_trace());
}

TEST(Recorder, NanWindowGaugesRoundTripThroughJsonNull) {
  // Event-free windows store NaN gauges; JSON has no NaN, so the artifact
  // writer degrades them to null and readers (tools/validate_artifact.py,
  // tools/perf_diff.py) map null back to NaN. The full cycle must be
  // lossless: NaN in, null on the wire, bit-identical quiet NaN out.
  BenchArtifact artifact("nan_roundtrip");
  artifact.set_scale("quick", 1, 1, 1, 1);
  RunTelemetry telemetry;
  telemetry.series.stride = 1;
  TimeSeriesSample sample;
  sample.cycle = 0;
  sample.gauges.fill(1.5);
  const double recorded = std::numeric_limits<double>::quiet_NaN();
  sample.gauges[static_cast<std::size_t>(Gauge::kWindowHitRatio)] = recorded;
  telemetry.series.samples.push_back(sample);
  artifact.add_point().set_telemetry(telemetry);

  const std::string json = artifact.to_json();
  const std::string nan_key = "\"window_hit_ratio\":";
  const auto nan_pos = json.find(nan_key);
  ASSERT_NE(nan_pos, std::string::npos);
  EXPECT_EQ(json.substr(nan_pos + nan_key.size(), 4), "null");
  // A neighboring finite gauge keeps its numeric form — the degradation is
  // per value, not per sample.
  const std::string num_key = "\"window_overhead_pct\":";
  const auto num_pos = json.find(num_key);
  ASSERT_NE(num_pos, std::string::npos);
  EXPECT_EQ(json.substr(num_pos + num_key.size(), 3), "1.5");

  // Reader side: null decodes to quiet NaN, bitwise equal to the recording.
  const double reconstructed = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reconstructed),
            std::bit_cast<std::uint64_t>(recorded));
}

TEST(Recorder, GaugeNamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    names.insert(to_string(static_cast<Gauge>(g)));
  }
  EXPECT_EQ(names.size(), kGaugeCount);  // no duplicates, none "?"
  EXPECT_EQ(names.count("window_hit_ratio"), 1u);
  EXPECT_EQ(names.count("ring_consistency"), 1u);
  EXPECT_EQ(names.count("utility_cache_hit_rate"), 1u);
}

}  // namespace
}  // namespace vitis::support

namespace vitis {
namespace {

// NaN-aware series equality: event-free windows store NaN gauges, which the
// defaulted operator== would (correctly, per IEEE) report as unequal — here
// two NaNs in the same slot count as "recorded the same thing".
bool same_series(const support::TimeSeries& a, const support::TimeSeries& b) {
  if (a.stride != b.stride || a.samples.size() != b.samples.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& sa = a.samples[i];
    const auto& sb = b.samples[i];
    if (sa.cycle != sb.cycle || sa.phase_calls != sb.phase_calls) return false;
    for (std::size_t g = 0; g < support::kGaugeCount; ++g) {
      const bool both_nan = std::isnan(sa.gauges[g]) && std::isnan(sb.gauges[g]);
      if (!both_nan && sa.gauges[g] != sb.gauges[g]) return false;
    }
  }
  return true;
}

workload::SyntheticScenario small_scenario() {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 200;
  params.subscriptions.topics = 100;
  params.subscriptions.subs_per_node = 10;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 50;
  params.seed = 7;
  return workload::make_synthetic_scenario(params);
}

support::RecorderConfig observe_config() {
  support::RecorderConfig config;
  config.enabled = true;
  config.stride = 2;
  config.invariants = true;
  config.trace_rate = 1.0;
  config.max_traces = 8;
  config.expected_cycles = 20;
  return config;
}

TEST(RecorderIntegration, VitisSeriesAndTracesAreDeterministic) {
  const auto scenario = small_scenario();
  const auto run = [&](core::OverlaySystem& system) {
    system.configure_recorder(observe_config());
    return workload::run_measurement(system, 20, scenario.schedule);
  };
  auto first = workload::make_vitis(scenario, core::VitisConfig{}, 11);
  auto second = workload::make_vitis(scenario, core::VitisConfig{}, 11);
  const auto summary_a = run(*first);
  const auto summary_b = run(*second);

  EXPECT_DOUBLE_EQ(summary_a.hit_ratio, summary_b.hit_ratio);
  ASSERT_NE(first->recorder(), nullptr);
  ASSERT_NE(second->recorder(), nullptr);
  // Full comparison over the series and trace sets: any nondeterminism in
  // gauges, sampling cycles or hop ordering trips this.
  EXPECT_TRUE(same_series(first->recorder()->series(),
                          second->recorder()->series()));
  EXPECT_TRUE(first->recorder()->traces() == second->recorder()->traces());
  EXPECT_FALSE(first->recorder()->series().samples.empty());
  EXPECT_FALSE(first->recorder()->traces().empty());
}

TEST(RecorderIntegration, ObservingDoesNotPerturbTheProtocol) {
  const auto scenario = small_scenario();
  auto plain = workload::make_vitis(scenario, core::VitisConfig{}, 11);
  auto observed = workload::make_vitis(scenario, core::VitisConfig{}, 11);
  observed->configure_recorder(observe_config());

  const auto summary_plain =
      workload::run_measurement(*plain, 20, scenario.schedule);
  const auto summary_observed =
      workload::run_measurement(*observed, 20, scenario.schedule);

  // Gauges are read-only and the trace draw uses a dedicated RNG stream, so
  // the protocol outcome must be bit-identical with the recorder on.
  EXPECT_DOUBLE_EQ(summary_plain.hit_ratio, summary_observed.hit_ratio);
  EXPECT_DOUBLE_EQ(summary_plain.traffic_overhead_pct,
                   summary_observed.traffic_overhead_pct);
  EXPECT_DOUBLE_EQ(summary_plain.delay_hops, summary_observed.delay_hops);
  EXPECT_EQ(plain->metrics().total_messages(),
            observed->metrics().total_messages());
}

TEST(RecorderIntegration, SampledGaugesAreSane) {
  const auto scenario = small_scenario();
  auto system = workload::make_vitis(scenario, core::VitisConfig{}, 11);
  auto config = observe_config();
  config.stride = 4;
  system->configure_recorder(config);
  system->run_cycles(20);

  const auto& series = system->recorder()->series();
  EXPECT_EQ(series.stride, 4u);
  ASSERT_EQ(series.samples.size(), 5u);  // cycles 0, 4, 8, 12, 16
  std::uint64_t last_calls = 0;
  for (std::size_t i = 0; i < series.samples.size(); ++i) {
    const auto& sample = series.samples[i];
    EXPECT_EQ(sample.cycle, i * 4);
    const auto gauge = [&](support::Gauge g) {
      return sample.gauges[static_cast<std::size_t>(g)];
    };
    EXPECT_EQ(gauge(support::Gauge::kAliveNodes), 200.0);
    EXPECT_GE(gauge(support::Gauge::kMeanClustersPerTopic), 1.0);
    EXPECT_GE(gauge(support::Gauge::kRingConsistency), 0.0);
    EXPECT_LE(gauge(support::Gauge::kRingConsistency), 1.0);
    EXPECT_GE(gauge(support::Gauge::kMaxViewAge),
              gauge(support::Gauge::kMeanViewAge));
    // No publications ran: every window is event-free.
    EXPECT_TRUE(std::isnan(gauge(support::Gauge::kWindowHitRatio)));
    // Cumulative profiler calls are nondecreasing over samples.
    const std::uint64_t calls =
        sample.phase_calls[static_cast<std::size_t>(support::Phase::kTman)];
    EXPECT_GE(calls, last_calls);
    last_calls = calls;
  }
  EXPECT_GT(last_calls, 0u);
  // The overlay should have converged toward a consistent ring by cycle 16.
  const auto& last = series.samples.back();
  EXPECT_GT(last.gauges[static_cast<std::size_t>(
                support::Gauge::kRingConsistency)],
            0.5);
}

TEST(RecorderIntegration, RvrBaselineRecordsDeterministically) {
  const auto scenario = small_scenario();
  const auto run = [&](core::OverlaySystem& system) {
    system.configure_recorder(observe_config());
    return workload::run_measurement(system, 20, scenario.schedule);
  };
  auto first =
      workload::make_rvr(scenario, baselines::rvr::RvrConfig{}, 11);
  auto second =
      workload::make_rvr(scenario, baselines::rvr::RvrConfig{}, 11);
  (void)run(*first);
  (void)run(*second);

  ASSERT_NE(first->recorder(), nullptr);
  EXPECT_FALSE(first->recorder()->series().samples.empty());
  EXPECT_FALSE(first->recorder()->traces().empty());
  EXPECT_TRUE(same_series(first->recorder()->series(),
                          second->recorder()->series()));
  EXPECT_TRUE(first->recorder()->traces() == second->recorder()->traces());
}

}  // namespace
}  // namespace vitis
