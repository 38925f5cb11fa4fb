// T-Man topology construction (Jelasity & Babaoglu), the overlay
// construction protocol shared by Vitis, RVR and OPT in the paper's
// evaluation. Implements Algorithms 2 (active thread) and 3 (passive
// thread): each round a node merges its routing table with a random
// neighbor's and a fresh peer-sampling batch, then a pluggable
// `selectNeighbors` policy (Algorithm 4 for Vitis) rebuilds the table.
//
// Split per the engine's two-phase protocol: prepare() picks the exchange
// partner from the node's counter-based stream (own-table writes only) and
// records the exchange; apply() replays the recorded exchanges in lane
// order, forking each exchange's draws — buffer subsampling and the
// selection policy's randomness — from (seed, initiator, partner, cycle).
// An exchange reads frozen state (views, liveness from the engine's bitmap,
// and whatever the selection policy reads) and writes only its two nodes'
// routing tables, so apply() runs the stream in node-disjoint waves on the
// engine's pool (sim::WaveSchedule), each worker with its own buffers and
// seen-array: every table sees its exchanges in lane order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gossip/peer_sampling.hpp"
#include "overlay/routing_table.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/outbox.hpp"
#include "sim/rng.hpp"
#include "sim/wave_schedule.hpp"

namespace vitis::gossip {

class TManProtocol {
 public:
  /// Rebuilds `table` for node `self` from the merged candidate buffer.
  /// Candidates never include `self` and are unique by node. `rng` is the
  /// exchange's deterministic stream (small-world draws etc.); `worker`
  /// names the wave worker running it, whose scratch the policy must use
  /// (other exchanges of the wave run concurrently).
  using SelectFn = std::function<void(ids::NodeIndex self,
                                      std::span<const Descriptor> candidates,
                                      overlay::RoutingTable& table,
                                      sim::Rng& rng, std::size_t worker)>;

  struct Config {
    std::size_t sample_size = 10;  // fresh descriptors drawn per exchange
  };

  /// `tables[n]` is node n's routing table and `alive[n]` whether node n
  /// is online (the engine's liveness bitmap); the span, `sampling` and
  /// `alive` must stay valid for the protocol's lifetime. `seed` roots the
  /// apply-time per-exchange RNG forks (derive from the system seed).
  TManProtocol(std::span<overlay::RoutingTable> tables,
               const PeerSampling& sampling, const std::vector<bool>& alive,
               SelectFn select, Config config, std::uint64_t seed);

  /// Stage body of one active exchange: pick a random routing-table
  /// neighbor (falling back to the peer-sampling view when the table is
  /// empty), screen liveness/faults, and enqueue the exchange. Touches only
  /// `node`'s own table.
  void prepare(ids::NodeIndex node, sim::Rng& rng, std::size_t worker);

  /// Barriered merge: replay the recorded exchanges — buffer construction
  /// and two-sided selection — from live state, in node-disjoint waves on
  /// the engine's pool (inline without an engine). The wave barrier runs
  /// after each wave.
  void apply(std::size_t cycle);

  /// Run the merge on `engine`'s pool: sizes the outbox lanes and the
  /// per-worker scratch to its run_jobs. Call before the first prepare();
  /// `engine` must outlive the protocol.
  void set_engine(sim::CycleEngine& engine);

  /// Work to run on the calling thread after each wave of exchanges, before
  /// the next one starts (the host commits its pair memo's inserts there).
  void set_wave_barrier(std::function<void()> barrier) {
    wave_barrier_ = std::move(barrier);
  }

  /// The merged candidate buffer node would build this instant from a
  /// peer-sampling batch `sample` (exposed for tests): `sample` ∪ node's
  /// routing table, without `exclude` and dead nodes, unique by node.
  [[nodiscard]] std::vector<Descriptor> build_buffer(
      ids::NodeIndex node, ids::NodeIndex exclude,
      std::span<const Descriptor> sample) const;

  /// Attach (or detach with nullptr) the fault-injection layer: each
  /// exchange request passes a deliver() admission check after the
  /// partner-alive check; a dropped request loses the exchange for this
  /// cycle on both ends. Not owned; must outlive prepare() calls.
  void set_fault_plan(const sim::FaultPlan* plan) { fault_ = plan; }

 private:
  using Exchange = sim::Exchange;

  // One worker's exchange scratch, hoisted out of apply() (allocation-free
  // steady state). The dedup seen-array is indexed by node:
  // `seen_stamp[n] == seen_epoch` means n is already in the buffer opened
  // by the last begin_buffer(), at position `seen_slot[n]`; it grows on
  // demand. Cache-line aligned, so workers share no line.
  struct alignas(64) Scratch {
    std::vector<std::uint32_t> seen_stamp;
    std::vector<std::size_t> seen_slot;
    std::uint32_t seen_epoch = 0;
    std::vector<Descriptor> sample;
    std::vector<Descriptor> mine;
    std::vector<Descriptor> theirs;
    std::vector<Descriptor> for_me;
    std::vector<Descriptor> for_partner;
    std::vector<Descriptor> fallback;  // prepare()'s sampling fallback
  };

  /// One exchange of apply(), on worker `worker`'s scratch.
  void exchange(const Exchange& exchange, std::size_t cycle,
                std::size_t worker);

  /// Opens a fresh dedup scope on `buffer`: clears it and advances the
  /// epoch so the seen-array forgets every previous membership in O(1).
  static void begin_buffer(Scratch& scratch, std::vector<Descriptor>& buffer);

  /// O(1) amortized merge: skips `exclude` and dead nodes; a duplicate
  /// keeps the youngest age (epoch-stamped seen-array, not a linear scan).
  void merge_unique(Scratch& scratch, std::vector<Descriptor>& buffer,
                    const Descriptor& d, ids::NodeIndex exclude) const;

  void build_buffer_into(Scratch& scratch, ids::NodeIndex node,
                         ids::NodeIndex exclude,
                         std::span<const Descriptor> sample,
                         std::vector<Descriptor>& buffer) const;

  std::span<overlay::RoutingTable> tables_;
  const PeerSampling* sampling_;
  const std::vector<bool>& alive_;  // the engine's bitmap
  SelectFn select_;
  std::function<void()> wave_barrier_;
  Config config_;
  std::uint64_t seed_;  // roots the apply-time per-exchange forks
  const sim::FaultPlan* fault_ = nullptr;  // optional admission (not owned)
  sim::CycleEngine* engine_ = nullptr;     // runs the waves (not owned)
  sim::Outbox<Exchange> outbox_;
  sim::WaveSchedule schedule_;
  // Per-worker scratch; mutable because build_buffer (a test hook, worker
  // 0's) is logically const.
  mutable std::vector<Scratch> scratch_;
};

}  // namespace vitis::gossip
