// The peer-sampling abstraction (Jelasity et al., "Gossip-based peer
// sampling"): a service every node queries for fresh, roughly uniform
// random peers. The paper notes any implementation works ([6], [23]-[25]);
// we ship the two it cites — a Newscast-style full-view shuffle
// (PeerSamplingService) and Cyclon (CyclonSampling) — behind this
// interface, selectable per system via SamplingPolicy.
//
// Exchanges follow the engine's two-phase protocol: `prepare` is the
// parallel stage body (own-view writes only — aging, dead-partner
// eviction — plus a thin {initiator, partner} exchange record appended to
// the worker's outbox lane), and `apply` is the serial barriered merge that
// re-executes every recorded two-sided exchange from live state in lane
// order. Every random choice in prepare comes from the caller's
// counter-based per-(node, cycle) stream, and apply's draws fork from
// (seed, initiator, partner, cycle) — so the whole exchange schedule is a
// pure function of the run seed, independent of `--run-jobs`.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "gossip/view.hpp"
#include "sim/rng.hpp"

namespace vitis::sim {
class FaultPlan;
}  // namespace vitis::sim

namespace vitis::gossip {

class SamplingService {
 public:
  virtual ~SamplingService() = default;

  /// Bootstrap a joining node with introduction contacts.
  virtual void init_node(ids::NodeIndex node,
                         std::span<const ids::NodeIndex> bootstrap) = 0;

  /// Forget all state of a departed node.
  virtual void remove_node(ids::NodeIndex node) = 0;

  /// Parallel stage body: age `node`'s own view, pick an exchange partner
  /// from `rng` (the node's counter-based stream), and enqueue the exchange
  /// into worker `worker`'s outbox lane. Touches only node-local state;
  /// safe to call concurrently for distinct nodes.
  virtual void prepare(ids::NodeIndex node, sim::Rng& rng,
                       std::size_t worker) = 0;

  /// Serial barriered merge: execute every exchange recorded by prepare(),
  /// lanes in worker order, records in append order (= ascending initiator
  /// order for any worker count).
  virtual void apply(std::size_t cycle) = 0;

  /// Size the per-worker outbox lanes (>= 1); call before the first
  /// prepare() whenever the engine's run_jobs differs from 1.
  virtual void set_workers(std::size_t workers) = 0;

  /// Append up to `k` uniformly random descriptors of alive peers to `out`
  /// (not cleared), drawing the subsample from `rng`. The allocation-free
  /// primitive under sample().
  virtual void sample_into(ids::NodeIndex node, std::size_t k,
                           std::vector<Descriptor>& out, sim::Rng& rng) = 0;

  /// Up to `k` uniformly random descriptors of alive peers.
  [[nodiscard]] std::vector<Descriptor> sample(ids::NodeIndex node,
                                               std::size_t k, sim::Rng& rng) {
    std::vector<Descriptor> out;
    sample_into(node, k, out, rng);
    return out;
  }

  [[nodiscard]] virtual const PartialView& view(
      ids::NodeIndex node) const = 0;

  [[nodiscard]] virtual Descriptor self_descriptor(
      ids::NodeIndex node) const = 0;

  /// Attach (or detach with nullptr) the fault-injection layer: when set,
  /// every shuffle request passes a deliver() admission check after the
  /// partner-alive check; a dropped request loses the exchange for this
  /// cycle (timeout semantics). Not owned; must outlive prepare() calls.
  virtual void set_fault_plan(const sim::FaultPlan* plan) { (void)plan; }

  /// Deterministic logical footprint of the service's per-node state in
  /// bytes (descriptor slab + view handles + scratch; the ring ids belong
  /// to the caller). Depends only on (node count, view size), never on run
  /// history — safe for stdout.
  [[nodiscard]] virtual std::size_t memory_bytes() const { return 0; }
};

enum class SamplingPolicy {
  kNewscast,  // full-view freshest-entries shuffle with a random partner
  kCyclon,    // fixed-size subset swap with the oldest partner
};

[[nodiscard]] const char* to_string(SamplingPolicy policy);

/// Build the configured sampling service. `ring_ids` is not copied and must
/// outlive the service. `seed` roots the service's apply-time
/// counter-based RNG forks (derive it from the system seed).
[[nodiscard]] std::unique_ptr<SamplingService> make_sampling_service(
    SamplingPolicy policy, std::span<const ids::RingId> ring_ids,
    std::size_t view_size, std::function<bool(ids::NodeIndex)> is_alive,
    std::uint64_t seed);

}  // namespace vitis::gossip
