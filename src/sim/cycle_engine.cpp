#include "sim/cycle_engine.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"
#include "support/run_stats.hpp"

namespace vitis::sim {

CycleEngine::CycleEngine(std::size_t node_count, std::uint64_t seed,
                         std::size_t run_jobs)
    : alive_(node_count, false),
      seed_(seed),
      pool_(run_jobs),
      worker_busy_ns_(pool_.jobs(), 0) {}

void CycleEngine::add_stage(std::string name, std::uint64_t salt,
                            NodeStageFn body, MergeFn merge,
                            std::optional<support::Phase> phase) {
  VITIS_CHECK(body != nullptr);
  Step step;
  step.name = std::move(name);
  step.salt = salt;
  step.body = std::move(body);
  step.merge = std::move(merge);
  step.phase = phase;
  step.worker_busy_ns.assign(pool_.jobs(), 0);
  steps_.push_back(std::move(step));
}

void CycleEngine::add_cycle_hook(std::string name, CycleHook hook) {
  VITIS_CHECK(hook != nullptr);
  Step step;
  step.name = std::move(name);
  step.hook = std::move(hook);
  steps_.push_back(std::move(step));
}

void CycleEngine::set_profiler(support::Profiler* profiler) {
  profiler_ = profiler;
  if (profiler_ != nullptr) profiler_->configure_workers(pool_.jobs());
}

void CycleEngine::set_histograms(support::HistogramSet* histograms) {
  histograms_ = histograms;
  if (histograms_ != nullptr) histograms_->configure_workers(pool_.jobs());
}

double CycleEngine::canonical_shard_imbalance() const {
  const std::size_t total = active_.size();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  std::size_t max_slice = 0;
  for (std::size_t shard = 0; shard < kCanonicalShards; ++shard) {
    const std::size_t begin = total * shard / kCanonicalShards;
    const std::size_t end = total * (shard + 1) / kCanonicalShards;
    max_slice = std::max(max_slice, end - begin);
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(kCanonicalShards);
  return static_cast<double>(max_slice) / mean;
}

void CycleEngine::set_alive(ids::NodeIndex node, bool alive) {
  VITIS_CHECK(node < alive_.size());
  if (alive_[node] == alive) return;
  alive_[node] = alive;
  // Keep the activation list dense and ascending: the common churn patterns
  // (join at the high end, crash anywhere) cost O(log A) to locate plus the
  // tail move. The ascending order is what makes the per-stage contiguous
  // worker slices — and so the outbox lane concatenation — independent of
  // the worker count.
  const auto at = std::lower_bound(active_.begin(), active_.end(), node);
  if (alive) {
    VITIS_CHECK(at == active_.end() || *at != node);
    active_.insert(at, node);
  } else {
    // A desynced caller (alive_ bitmap and activation list disagreeing)
    // would otherwise erase an unrelated neighbor silently.
    VITIS_CHECK(at != active_.end() && *at == node);
    active_.erase(at);
  }
}

void CycleEngine::run_stage(Step& step) {
  // Snapshot the activation list: an earlier hook in this cycle may mutate
  // it (crashes, churn), and the slices below must index a stable array.
  order_scratch_.assign(active_.begin(), active_.end());
  const std::size_t total = order_scratch_.size();
  const std::size_t jobs = pool_.jobs();
  // One activation-count recording per stage pass, taken serially before
  // the pool runs — the deterministic channels stay worker-count invariant.
  if (histograms_ != nullptr) {
    histograms_->record(support::Channel::kStageActivations, total);
  }
  // Stage-level phase attribution on worker lane 0 (covers the parallel
  // section and the merge); one call per stage per cycle, so the
  // deterministic call counts are independent of the worker count.
  const support::ScopedPhase scope(step.phase ? profiler_ : nullptr,
                                   step.phase.value_or(support::Phase::kSampling),
                                   0);
  const std::int64_t span_start = support::monotonic_ns();
  pool_.run([&](std::size_t worker) {
    const std::int64_t busy_start = support::monotonic_ns();
    // Contiguous ascending slices: worker w steps nodes [total·w/J,
    // total·(w+1)/J). Records appended to lane w in this order concatenate
    // to the global ascending node order for any J.
    const std::size_t begin = total * worker / jobs;
    const std::size_t end = total * (worker + 1) / jobs;
    for (std::size_t i = begin; i < end; ++i) {
      const ids::NodeIndex node = order_scratch_[i];
      if (!alive_[node]) continue;  // killed by an earlier hook this cycle
      Rng rng = Rng::at(seed_, step.salt, node, cycle_);
      step.body(node, cycle_, rng, worker);
    }
    worker_busy_ns_[worker] = support::monotonic_ns() - busy_start;
  });
  // The merge runs inside the span: its run_parallel work (a sharded
  // merge, the gossip waves) adds to each worker's busy time.
  merging_ = &step;
  if (step.merge != nullptr) step.merge(cycle_);
  merging_ = nullptr;
  step.span_ns += static_cast<std::uint64_t>(support::monotonic_ns() -
                                             span_start);
  for (std::size_t worker = 0; worker < worker_busy_ns_.size(); ++worker) {
    const auto busy = static_cast<std::uint64_t>(worker_busy_ns_[worker]);
    step.busy_ns += busy;
    step.worker_busy_ns[worker] += busy;
  }
}

NodeRange CycleEngine::owned_range(std::size_t worker) const {
  // Worker w's range starts at the first node of its slice [total·w/J,
  // total·(w+1)/J) and ends where worker w+1's starts. Worker 0 starts at
  // index 0 and the last range is open-ended, so the ranges partition every
  // index; an empty slice yields an empty range.
  const std::size_t total = order_scratch_.size();
  const std::size_t jobs = pool_.jobs();
  const auto lower = [&](std::size_t w) -> ids::NodeIndex {
    if (w == 0) return 0;
    const std::size_t first = total * w / jobs;
    return first < total ? order_scratch_[first] : ids::kInvalidNode;
  };
  return NodeRange{lower(worker), lower(worker + 1)};
}

void CycleEngine::run(std::size_t cycles) {
  const support::WallTimer timer;
  double observe_ms = 0.0;
  for (std::size_t c = 0; c < cycles; ++c) {
    for (Step& step : steps_) {
      if (step.hook != nullptr) {
        step.hook(cycle_);
      } else {
        run_stage(step);
      }
    }
    // Observability sampling last, so gauges see the post-maintenance state
    // of the cycle. The stride test keeps disabled recorders zero-cost.
    if (recorder_ != nullptr && observer_ != nullptr &&
        recorder_->should_sample_cycle(cycle_)) {
      const support::ScopedPhase phase_timer(profiler_,
                                             support::Phase::kObserve);
      const support::WallTimer observe_timer;
      observer_(cycle_);
      observe_ms += observe_timer.elapsed_ms();
    }
    ++cycle_;
  }
  // The observer is instrumentation: keep it out of the maintenance wall
  // that cycles_per_second() divides by.
  run_wall_ms_ += timer.elapsed_ms() - observe_ms;
  observe_wall_ms_ += observe_ms;
}

std::vector<CycleEngine::StageTiming> CycleEngine::stage_timings() const {
  std::vector<StageTiming> timings;
  for (const Step& step : steps_) {
    if (step.body == nullptr) continue;
    timings.push_back(StageTiming{step.name, step.busy_ns, step.span_ns,
                                  step.worker_busy_ns});
  }
  return timings;
}

}  // namespace vitis::sim
