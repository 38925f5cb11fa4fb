// Lightweight per-phase profiler for the cycle engine's hot paths.
//
// The cycle engine (and the systems built on it) attribute work to a fixed
// set of phases: peer sampling, T-Man exchanges, candidate ranking, relay
// maintenance, gateway election, greedy routing, publication dissemination
// and flight-recorder sampling. Each phase accumulates two numbers:
//
//   * calls    — how many times the phase body ran. Deterministic per
//                (seed, scale): it counts protocol activations, not time.
//   * wall_ns  — monotonic wall-clock nanoseconds spent inside the phase.
//                Telemetry-only (varies between machines and runs), so it is
//                confined to the BENCH_*.json artifacts and stderr, never
//                printed on stdout.
//
// Parallel stages (`--run-jobs N`) attribute work per worker: the profiler
// keeps one isolated lane per worker (enter/exit/ScopedPhase take a worker
// index, default 0), and the read accessors return the merged sums across
// lanes. Call counts stay deterministic and independent of the worker
// count — they count activations, and every activation happens exactly once
// on exactly one lane; only the wall_ns split across lanes varies.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace vitis::support {

enum class Phase : std::uint8_t {
  kSampling = 0,  // peer-sampling exchanges (Newscast / Cyclon steps)
  kTman,          // T-Man buffer construction + exchange (minus selection)
  kRanking,       // selectNeighbors: ring/sw picks + utility ranking
  kRelay,         // relay-link installation and aging
  kRouting,       // greedy ring lookups (rendezvous routing)
  kDelivery,      // publish(): event dissemination
  kObserve,       // flight-recorder sampling + invariant monitors
  kElection,      // Algorithm 5 gateway election (cycle maintenance)
};

inline constexpr std::size_t kPhaseCount = 8;

[[nodiscard]] const char* to_string(Phase phase);

struct PhaseStats {
  std::uint64_t calls = 0;
  std::uint64_t wall_ns = 0;
};

/// Deterministic event counters riding alongside the phase stats: the
/// two-level scoring cache (subscription interning + memoized pairwise
/// utility) reports its hit/miss/evict totals here, and the bench artifact
/// serializes them in the telemetry `counters` block. All values are
/// deterministic per (seed, scale) — they count structural events, never
/// time — but stay confined to telemetry/stderr like the rest of the
/// profiler, never stdout.
enum class Counter : std::uint8_t {
  kUtilityCacheHits = 0,     // memoized pairwise-utility lookups served
  kUtilityCacheMisses,       // lookups that fell through to the merge
  kUtilityCacheEvictions,    // occupied slots overwritten (probe window full)
  kUtilityCacheInvalidations,  // always 0: the memo is never dropped
  kInternedSets,             // distinct subscription sets in the registry
  kInternCalls,              // total SubscriptionRegistry::intern() calls
};

inline constexpr std::size_t kCounterCount = 6;

[[nodiscard]] const char* to_string(Counter counter);

/// Monotonic clock read in nanoseconds (steady_clock).
[[nodiscard]] std::int64_t monotonic_ns();

/// Phases may nest (candidate ranking runs inside the T-Man exchange); the
/// profiler attributes *exclusive* (self) time via a per-lane phase stack,
/// so the per-phase wall_ns are disjoint and sum to the total profiled time.
class Profiler {
 public:
  Profiler() : lanes_(1) {}

  /// Size the per-worker lane set (>= 1). Existing accumulations on
  /// surviving lanes are kept; lanes must not shrink while scopes are open.
  void configure_workers(std::size_t workers) {
    lanes_.resize(workers == 0 ? 1 : workers);
  }

  [[nodiscard]] std::size_t workers() const { return lanes_.size(); }

  /// Direct accumulation (no nesting bookkeeping).
  void add(Phase phase, std::uint64_t wall_ns, std::uint64_t calls = 1,
           std::size_t worker = 0) {
    auto& s = lanes_[worker].stats[static_cast<std::size_t>(phase)];
    s.calls += calls;
    s.wall_ns += wall_ns;
  }

  /// Enter a phase on `worker`'s lane: pauses the enclosing phase (if any)
  /// and starts attributing wall time to `phase`. Counts `calls` calls (a
  /// worker's share of an activation counted on another lane passes 0).
  void enter(Phase phase, std::size_t worker = 0, std::uint64_t calls = 1) {
    Lane& lane = lanes_[worker];
    const std::int64_t now = monotonic_ns();
    if (lane.depth > 0) accumulate(lane, now);
    VITIS_DCHECK(lane.depth < lane.stack.size());
    lane.stack[lane.depth++] = phase;
    lane.mark = now;
    lane.stats[static_cast<std::size_t>(phase)].calls += calls;
  }

  /// Leave the innermost phase on `worker`'s lane and resume its parent.
  void exit(std::size_t worker = 0) {
    Lane& lane = lanes_[worker];
    VITIS_DCHECK(lane.depth > 0);
    const std::int64_t now = monotonic_ns();
    accumulate(lane, now);
    --lane.depth;
    lane.mark = now;
  }

  /// Merged (summed across worker lanes) stats for one phase.
  [[nodiscard]] PhaseStats stats(Phase phase) const {
    PhaseStats merged;
    for (const Lane& lane : lanes_) {
      merged.calls += lane.stats[static_cast<std::size_t>(phase)].calls;
      merged.wall_ns += lane.stats[static_cast<std::size_t>(phase)].wall_ns;
    }
    return merged;
  }

  /// Merged stats for every phase.
  [[nodiscard]] std::array<PhaseStats, kPhaseCount> all() const {
    std::array<PhaseStats, kPhaseCount> merged{};
    for (const Lane& lane : lanes_) {
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        merged[p].calls += lane.stats[p].calls;
        merged[p].wall_ns += lane.stats[p].wall_ns;
      }
    }
    return merged;
  }

  /// Counters are absolute values owned by their producer (the cache keeps
  /// its own running stats and publishes them here), so the setter stores
  /// rather than accumulates. Single-valued (no lanes): producers publish
  /// from serial code only.
  void set_counter(Counter counter, std::uint64_t value) {
    counters_[static_cast<std::size_t>(counter)] = value;
  }

  [[nodiscard]] std::uint64_t counter(Counter counter) const {
    return counters_[static_cast<std::size_t>(counter)];
  }

  [[nodiscard]] const std::array<std::uint64_t, kCounterCount>& counters()
      const {
    return counters_;
  }

  void reset() {
    for (Lane& lane : lanes_) lane = Lane{};
    counters_ = {};
  }

 private:
  // Cache-line aligned so concurrent lanes never false-share.
  struct alignas(64) Lane {
    std::array<PhaseStats, kPhaseCount> stats{};
    std::array<Phase, 8> stack{};  // nesting depth in practice: <= 2
    std::size_t depth = 0;
    std::int64_t mark = 0;
  };

  static void accumulate(Lane& lane, std::int64_t now) {
    lane.stats[static_cast<std::size_t>(lane.stack[lane.depth - 1])].wall_ns +=
        static_cast<std::uint64_t>(now - lane.mark);
  }

  std::vector<Lane> lanes_;
  std::array<std::uint64_t, kCounterCount> counters_{};
};

/// RAII phase scope over Profiler::enter/exit. A null profiler makes the
/// scope a no-op (for unwired systems). Parallel stage bodies pass their
/// worker index so the scope lands on that worker's lane.
class ScopedPhase {
 public:
  ScopedPhase(Profiler* profiler, Phase phase, std::size_t worker = 0,
              std::uint64_t calls = 1)
      : profiler_(profiler), worker_(worker) {
    if (profiler_ != nullptr) profiler_->enter(phase, worker_, calls);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if (profiler_ != nullptr) profiler_->exit(worker_);
  }

 private:
  Profiler* profiler_;
  std::size_t worker_;
};

}  // namespace vitis::support
