// Cycle-driven simulation engine (PeerSim cycle-based mode substitute),
// sharded for deterministic intra-run parallelism.
//
// A *cycle* corresponds to one gossip period δt. Within a cycle the engine
// executes an ordered list of *steps* registered by the pub/sub systems:
//
//   * a **stage** runs a per-node body over every alive node, sliced into
//     `run_jobs` contiguous chunks of the ascending activation snapshot and
//     executed by a persistent worker pool (worker 0 = the calling thread).
//     Each activation receives a private counter-based RNG forked as
//     Rng::at(seed, stage_salt, node, cycle) — a pure function of the
//     identities, so a node's draws are schedule- and thread-independent.
//     Stage bodies may write only node-local state and append exchange
//     records to their worker's outbox lane; after the stage barrier an
//     optional **merge** reads the lanes in worker order. Because the slices
//     are contiguous over an ascending snapshot, lane concatenation is
//     globally ascending by initiating node for ANY worker count. A merge
//     may run its own work on the pool (run_parallel); the gossip merges
//     replay the lanes' exchanges in node-disjoint waves (run_waves), each
//     wave split into contiguous per-worker slices, so every node still sees
//     its exchanges in lane order — the merge order, and therefore the whole
//     run, is bit-identical whatever `--run-jobs` is.
//     A merge that applies records by node runs sharded: on the pool, each
//     worker reads every lane in lane order but writes only the nodes of
//     its owned_range() (the index range its own stage slice covers).
//     Every node then sees exactly the subsequence of the global record
//     stream that names it, in the global order — the serial merge's
//     result for any worker count. At `run_jobs = 1` the one range covers
//     every index.
//   * a **hook** runs once per cycle on the calling thread (elections,
//     crash delivery, anything with cross-node read-modify-write
//     dependencies); it too may shard independent work with run_parallel.
//
// The activation schedule is event-driven: `set_alive` maintains a dense,
// ascending activation list incrementally, so a cycle costs O(active ×
// steps) — quiescent nodes (dead, or never joined out of a large universe)
// cost zero per cycle. Liveness is frozen during a stage: set_alive may be
// called only from hooks or between run() calls, never from stage bodies
// (the per-stage snapshot plus the per-node alive check keep a node killed
// by an earlier hook in the same cycle from being stepped).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ids/id.hpp"
#include "sim/rng.hpp"
#include "sim/wave_schedule.hpp"
#include "sim/worker_pool.hpp"
#include "support/histogram.hpp"
#include "support/profiler.hpp"
#include "support/recorder.hpp"

namespace vitis::sim {

/// The half-open node-index range [begin, end) one worker owns during a
/// sharded merge (CycleEngine::owned_range). The last worker's range is
/// open-ended (end is ids::kInvalidNode, which names no node).
struct NodeRange {
  ids::NodeIndex begin = 0;
  ids::NodeIndex end = ids::kInvalidNode;

  [[nodiscard]] bool contains(ids::NodeIndex node) const {
    return node >= begin && node < end;
  }
};

class CycleEngine {
 public:
  /// `node_count` fixes the universe of node indices; nodes start dead and
  /// must be activated via `set_alive`. `seed` roots every stage's
  /// counter-based per-node RNG forks; `run_jobs` sizes the worker pool
  /// (1 = fully serial, identical semantics).
  CycleEngine(std::size_t node_count, std::uint64_t seed,
              std::size_t run_jobs = 1);

  /// A stage body: invoked once per alive node per cycle, possibly
  /// concurrently with other nodes' invocations. `rng` is the node's
  /// private counter-based stream for this (stage, cycle); `worker`
  /// selects the caller's outbox lane / profiler lane.
  using NodeStageFn = std::function<void(ids::NodeIndex node,
                                         std::size_t cycle, Rng& rng,
                                         std::size_t worker)>;

  /// A merge run after the stage barrier on the calling thread (reads the
  /// outbox lanes; may shard its work with run_parallel / run_waves).
  using MergeFn = std::function<void(std::size_t cycle)>;

  /// A per-cycle hook: invoked once per cycle on the calling thread, in
  /// step order.
  using CycleHook = std::function<void(std::size_t cycle)>;

  /// Append a parallel node stage to the per-cycle step list. `salt`
  /// namespaces the stage's RNG forks (distinct per stage). `phase`
  /// (optional) attributes the stage's pass — parallel section plus merge —
  /// to a profiler phase on worker lane 0 when a profiler is attached; the
  /// merge's run_parallel work on the other lanes counts toward the same
  /// phase without a call.
  void add_stage(std::string name, std::uint64_t salt, NodeStageFn body,
                 MergeFn merge = nullptr,
                 std::optional<support::Phase> phase = std::nullopt);

  /// Append a hook to the per-cycle step list.
  void add_cycle_hook(std::string name, CycleHook hook);

  /// Attach (or detach, with nullptr) the per-phase profiler; its worker
  /// lanes are sized to the pool. Not owned; must outlive run() calls.
  void set_profiler(support::Profiler* profiler);

  /// Attach (or detach, with nullptr) the distribution channels; worker
  /// lanes are sized to the pool. The engine records one
  /// Channel::kStageActivations value — the stage's activation-snapshot
  /// size — per stage pass (serial, so the counts are worker-count
  /// independent). Not owned; must outlive run() calls.
  void set_histograms(support::HistogramSet* histograms);

  /// Attach the flight recorder's sampling hook: after each cycle's steps,
  /// `hook(cycle)` fires when the recorder's stride says the cycle is
  /// sampled. Detach with (nullptr, nullptr). Neither is owned; both must
  /// outlive run().
  void set_observer(support::Recorder* recorder, CycleHook hook) {
    recorder_ = recorder;
    observer_ = std::move(hook);
  }

  void set_alive(ids::NodeIndex node, bool alive);
  [[nodiscard]] bool is_alive(ids::NodeIndex node) const {
    return alive_[node];
  }

  /// The liveness bitmap over the whole index universe. Sized once at
  /// construction, so the reference stays valid for the engine's lifetime;
  /// the gossip layers read it directly (frozen during stages).
  [[nodiscard]] const std::vector<bool>& alive() const { return alive_; }
  [[nodiscard]] std::size_t alive_count() const { return active_.size(); }
  [[nodiscard]] std::size_t node_count() const { return alive_.size(); }

  /// The activation list: indices of currently alive nodes, ascending.
  /// Valid until the next set_alive call. Systems iterate this instead of
  /// scanning [0, node_count) so per-cycle maintenance is O(active).
  [[nodiscard]] std::span<const ids::NodeIndex> active_nodes() const {
    return active_;
  }

  /// Run `cycles` more cycles.
  void run(std::size_t cycles);

  /// Invoke `task(worker)` once per worker of the pool (worker 0 on the
  /// calling thread) and return after all finished — for a merge or hook
  /// whose work shards. Allocation-free. Inside a stage's merge, each
  /// worker's time counts toward the stage's busy time, and workers 1..J-1
  /// add theirs to the stage's profiler phase without a call.
  template <typename Task>
  void run_parallel(Task&& task);

  /// `worker`'s owner range over the running stage's activation snapshot,
  /// for a merge that applies records by node (valid inside the merge).
  /// Ranges are cut at the worker slice boundaries: worker 0's starts at
  /// index 0, worker w's at the first node of its slice, and the last is
  /// open-ended, so the ranges partition every index.
  [[nodiscard]] NodeRange owned_range(std::size_t worker) const;

  /// Number of completed cycles since construction.
  [[nodiscard]] std::size_t cycle() const { return cycle_; }

  /// The seed rooting the counter-based stage RNG forks.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// The worker-pool size (`--run-jobs`).
  [[nodiscard]] std::size_t run_jobs() const { return pool_.jobs(); }

  /// Shard-load imbalance of the CURRENT activation list: max/mean slice
  /// size over kCanonicalShards contiguous slices cut by the same rule as
  /// the worker slices. Deliberately independent of --run-jobs (the shard
  /// count is fixed), so it may feed the recorder's deterministic gauges;
  /// NaN with no alive nodes. 1.0 = perfectly even; the theoretical ceiling
  /// for a dense list is kCanonicalShards (all nodes in one shard's range).
  static constexpr std::size_t kCanonicalShards = 16;
  [[nodiscard]] double canonical_shard_imbalance() const;

  /// Wall-clock milliseconds of maintenance accumulated inside run() calls:
  /// every step, but not the observer. Telemetry only — never printed on
  /// stdout (varies between runs).
  [[nodiscard]] double run_wall_ms() const { return run_wall_ms_; }

  /// Wall-clock milliseconds the observer took inside run() calls (the part
  /// run_wall_ms() leaves out). Telemetry only, like run_wall_ms().
  [[nodiscard]] double observe_wall_ms() const { return observe_wall_ms_; }

  /// Simulated cycles per wall-clock second across all run() calls so far
  /// (0 before the first cycle). Telemetry only, like run_wall_ms().
  [[nodiscard]] double cycles_per_second() const {
    return run_wall_ms_ > 0.0
               ? static_cast<double>(cycle_) / (run_wall_ms_ / 1000.0)
               : 0.0;
  }

  /// Per-stage parallel-efficiency accounting, accumulated across run()
  /// calls: busy_ns sums every worker's time inside the stage's parallel
  /// section and its merge's run_parallel work (a sharded merge, the
  /// gossip waves); span_ns is the wall time of section plus merge.
  /// Telemetry only (feeds the schema-v6 `parallel` block);
  /// busy/(span × run_jobs) ≈ efficiency.
  struct StageTiming {
    std::string name;
    std::uint64_t busy_ns = 0;
    std::uint64_t span_ns = 0;
    // Per-worker share of busy_ns (schema v7 `workers` split), indexed by
    // worker lane; sums to busy_ns.
    std::vector<std::uint64_t> worker_busy_ns;
  };
  [[nodiscard]] std::vector<StageTiming> stage_timings() const;

 private:
  struct Step {
    std::string name;
    std::uint64_t salt = 0;
    NodeStageFn body;  // null for hooks
    MergeFn merge;
    CycleHook hook;  // null for stages
    std::optional<support::Phase> phase;
    std::uint64_t busy_ns = 0;
    std::uint64_t span_ns = 0;
    std::vector<std::uint64_t> worker_busy_ns;  // per-lane busy accumulation
  };

  void run_stage(Step& step);

  std::vector<bool> alive_;  // O(1) is_alive for the full index universe
  std::vector<ids::NodeIndex> active_;  // dense ascending activation list
  std::vector<Step> steps_;
  std::size_t cycle_ = 0;
  double run_wall_ms_ = 0.0;
  double observe_wall_ms_ = 0.0;
  std::uint64_t seed_;
  WorkerPool pool_;
  support::Profiler* profiler_ = nullptr;
  support::HistogramSet* histograms_ = nullptr;
  support::Recorder* recorder_ = nullptr;
  CycleHook observer_;  // fires on sampled cycles, after the cycle hooks
  std::vector<ids::NodeIndex> order_scratch_;   // per-stage snapshot
  std::vector<std::int64_t> worker_busy_ns_;    // per-stage scratch
  const Step* merging_ = nullptr;  // the stage whose merge is running
};

template <typename Task>
void CycleEngine::run_parallel(Task&& task) {
  if (merging_ == nullptr) {
    pool_.run(task);
    return;
  }
  pool_.run([this, &task](std::size_t worker) {
    const std::int64_t start = support::monotonic_ns();
    {
      // Lane 0 already times the whole stage pass as one call.
      const bool share = worker != 0 && merging_->phase.has_value();
      const support::ScopedPhase phase(
          share ? profiler_ : nullptr,
          merging_->phase.value_or(support::Phase::kSampling), worker,
          /*calls=*/0);
      task(worker);
    }
    worker_busy_ns_[worker] += support::monotonic_ns() - start;
  });
}

/// Replay the exchanges of `schedule` wave by wave: `exchange(record,
/// worker)` for every record, worker w taking the w-th contiguous slice of
/// each wave, then `barrier()` on the calling thread before the next wave
/// starts. On `engine`'s pool when one is given; inline as worker 0
/// otherwise (unit tests that drive a protocol without an engine).
template <typename ExchangeFn, typename BarrierFn>
void run_waves(CycleEngine* engine, const WaveSchedule& schedule,
               ExchangeFn&& exchange, BarrierFn&& barrier) {
  const std::size_t workers = engine != nullptr ? engine->run_jobs() : 1;
  for (std::size_t w = 0; w < schedule.waves(); ++w) {
    const std::span<const Exchange> wave = schedule.wave(w);
    const auto share = [&](std::size_t worker) {
      for (const Exchange& record : WaveSchedule::slice(wave, worker, workers)) {
        exchange(record, worker);
      }
    };
    if (engine != nullptr) {
      engine->run_parallel(share);
    } else {
      share(0);
    }
    barrier();
  }
}

}  // namespace vitis::sim
