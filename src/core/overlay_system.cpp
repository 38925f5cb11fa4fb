#include "core/overlay_system.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "core/utility.hpp"
#include "ids/hash.hpp"
#include "overlay/small_world.hpp"
#include "support/check.hpp"

namespace vitis::core {

namespace {

// Stage RNG salts: each parallel stage's per-(node, cycle) forks live in
// their own namespace of the engine seed. gossip_step() reuses these to
// reproduce the engine's exact draws.
constexpr std::uint64_t kSaltSampling = 0x73616d706c65ULL;  // "sample"
constexpr std::uint64_t kSaltTman = 0x746d616eULL;          // "tman"
constexpr std::uint64_t kSaltHeartbeat = 0x6862656174ULL;   // "hbeat"
constexpr std::uint64_t kSaltRelay = 0x72656c6179ULL;       // "relay"

}  // namespace

OverlaySystem::OverlaySystem(const OverlayConfig& config,
                             pubsub::SubscriptionTable subscriptions,
                             std::uint64_t seed)
    : config_(config),
      subscriptions_(std::move(subscriptions)),
      engine_(subscriptions_.node_count(), seed ^ 0x656e67696e65ULL,
              config.run_jobs),
      metrics_(subscriptions_.node_count()),
      rng_(seed),
      dissemination_(subscriptions_.node_count(), subscriptions_, metrics_,
                     recorder_, seed ^ 0x7472616365ULL),
      fault_seed_(seed) {
  config_.validate();
  const std::size_t n = subscriptions_.node_count();
  ring_ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ring_ids_[i] = ids::node_ring_id(static_cast<ids::NodeIndex>(i));
  }
  // Unbounded configurations pass SIZE_MAX; a table can never usefully hold
  // more than the whole network, so clamp capacity there.
  rt_capacity_ =
      std::min(config_.routing_table_size, std::max<std::size_t>(n, 2));
  rt_slab_ = std::make_unique<overlay::RoutingEntry[]>(n * rt_capacity_);
  tables_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tables_.emplace_back(rt_slab_.get() + i * rt_capacity_, rt_capacity_);
  }
  join_cycles_.assign(n, 0);
  undirected_.resize(n);
  selections_.resize(engine_.run_jobs());
  for (Selection& selection : selections_) {
    selection.candidates_.reserve(64);
    selection.selected_.reserve(rt_capacity_);
  }

  set_ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    set_ids_[i] =
        registry_.intern(subscriptions_.of(static_cast<ids::NodeIndex>(i)));
  }

  sampling_ = std::make_unique<gossip::PeerSampling>(
      config_.sampling, ring_ids_, config_.view_size, engine_.alive(),
      ids::mix64(seed ^ 0x73616d70ULL));
  tman_ = std::make_unique<gossip::TManProtocol>(
      tables_, *sampling_, engine_.alive(),
      [this](ids::NodeIndex self,
             std::span<const gossip::Descriptor> candidates,
             overlay::RoutingTable& table, sim::Rng& rng,
             std::size_t worker) {
        select_neighbors(self, candidates, table, rng, worker);
      },
      gossip::TManProtocol::Config{config_.sample_size},
      ids::mix64(seed ^ 0x746d616eULL));
  tman_->set_wave_barrier([this] { end_selection_wave(); });

  engine_.set_profiler(&profiler_);
  engine_.set_histograms(&histograms_);
  metrics_.set_histograms(&histograms_);
  engine_.add_stage(
      "peer-sampling", kSaltSampling,
      [this](ids::NodeIndex node, std::size_t, sim::Rng& rng,
             std::size_t worker) { sampling_->prepare(node, rng, worker); },
      [this](std::size_t cycle) { sampling_->apply(cycle); },
      support::Phase::kSampling);
  engine_.add_stage(
      "t-man", kSaltTman,
      [this](ids::NodeIndex node, std::size_t, sim::Rng& rng,
             std::size_t worker) { tman_->prepare(node, rng, worker); },
      [this](std::size_t cycle) { tman_->apply(cycle); },
      support::Phase::kTman);
  engine_.add_stage(
      "heartbeats", kSaltHeartbeat,
      [this](ids::NodeIndex node, std::size_t, sim::Rng&,
             std::size_t worker) { refresh_heartbeats(node, worker); });
  // The adjacency rebuild and the system's maintenance (elections, relay
  // requests) have cross-node read-modify-write dependencies: a hook.
  engine_.add_cycle_hook("overlay-maintenance",
                         [this](std::size_t) { cycle_maintenance(); });

  sampling_->set_engine(engine_);
  tman_->set_engine(engine_);
}

void OverlaySystem::start(bool start_online) {
  // Registered unconditionally so installing a fault plan later never
  // reorders the hook sequence; a no-op while no crashes are scheduled.
  engine_.add_cycle_hook("fault-crashes", [this](std::size_t cycle) {
    fault_.for_due_crashes(cycle,
                           [this](ids::NodeIndex node) { node_crash(node); });
  });
  if (!start_online) return;
  const std::size_t n = tables_.size();
  for (std::size_t i = 0; i < n; ++i) {
    engine_.set_alive(static_cast<ids::NodeIndex>(i), true);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<ids::NodeIndex>(i);
    sampling_->init_node(
        node, random_alive_contacts(config_.bootstrap_contacts, node));
  }
}

void OverlaySystem::add_relay_refresh(std::uint32_t ttl,
                                      std::uint32_t retransmit) {
  VITIS_CHECK(relays_.empty());
  relay_ttl_ = ttl;
  relay_retransmit_ = retransmit;
  // Each worker rebuilds the relay tables it owns from the records that
  // name them. A topic's records all sit in one lane in requester order,
  // and per-topic order is all a relay table depends on, so any worker
  // count yields the serial result.
  engine_.add_stage(
      "relay-refresh", kSaltRelay,
      [this](ids::NodeIndex node, std::size_t, sim::Rng&,
             std::size_t worker) { refresh_relays(node, worker); },
      [this](std::size_t) {
        engine_.run_parallel([this](std::size_t worker) {
          apply_relay_installs(worker, engine_.owned_range(worker));
        });
        relay_outbox_.clear();
      });

  const std::size_t n = tables_.size();
  const std::size_t workers = engine_.run_jobs();
  relays_.resize(n);
  relay_outbox_.configure(workers);
  relay_runs_.resize(subscriptions_.topic_count());
  relay_slot_.assign(n, 0);
  relay_apply_.resize(workers);
  lookup_ctx_.resize(workers);
  for (LookupCtx& ctx : lookup_ctx_) ctx.marks.resize(n);
}

void OverlaySystem::run_cycles(std::size_t cycles) { engine_.run(cycles); }

const support::Profiler* OverlaySystem::profiler() const {
  profiler_.set_counter(support::Counter::kInternedSets, registry_.size());
  profiler_.set_counter(support::Counter::kInternCalls,
                        registry_.intern_calls());
  if (const PairUtilityCache* cache = pair_cache()) {
    const UtilityCacheStats& stats = cache->stats();
    profiler_.set_counter(support::Counter::kUtilityCacheHits, stats.hits);
    profiler_.set_counter(support::Counter::kUtilityCacheMisses,
                          stats.misses);
    profiler_.set_counter(support::Counter::kUtilityCacheEvictions,
                          stats.evictions);
    profiler_.set_counter(support::Counter::kUtilityCacheInvalidations,
                          stats.invalidations);
  }
  return &profiler_;
}

const support::HistogramSet* OverlaySystem::distributions() const {
  // Node message totals are cumulative state, not a stream of events —
  // re-derive the channel on each export (idempotent, like the counter
  // sync in profiler()). Nodes that saw no traffic are omitted.
  histograms_.reset_channel(support::Channel::kNodeMessages);
  for (const pubsub::NodeTraffic& traffic : metrics_.traffic()) {
    if (traffic.total() == 0) continue;
    histograms_.record(support::Channel::kNodeMessages, traffic.total());
  }
  return &histograms_;
}

void OverlaySystem::refresh_set_id(ids::NodeIndex node) {
  set_ids_[node] = registry_.intern(subscriptions_.of(node));
}

std::span<const ids::NodeIndex> OverlaySystem::random_alive_contacts(
    std::size_t count, ids::NodeIndex exclude) {
  contacts_.clear();
  const std::size_t n = tables_.size();
  if (engine_.alive_count() == 0) return contacts_;
  // Rejection sampling: the alive fraction is high in every scenario we
  // simulate, so a bounded number of draws suffices.
  const std::size_t max_draws = 20 * count + 100;
  for (std::size_t draw = 0; draw < max_draws && contacts_.size() < count;
       ++draw) {
    const auto candidate = static_cast<ids::NodeIndex>(rng_.index(n));
    if (candidate == exclude || !engine_.is_alive(candidate)) continue;
    if (std::find(contacts_.begin(), contacts_.end(), candidate) !=
        contacts_.end()) {
      continue;
    }
    contacts_.push_back(candidate);
  }
  return contacts_;
}

// ---------------------------------------------------------------------------
// Neighbor selection: the ring links every policy but OPT's takes first.
// ---------------------------------------------------------------------------
OverlaySystem::Selection& OverlaySystem::select_ring_links(
    ids::NodeIndex self, std::span<const gossip::Descriptor> candidates,
    std::size_t worker) {
  Selection& selection = selections_[worker];
  selection.candidates_.assign(candidates.begin(), candidates.end());
  selection.selected_.clear();
  // Lookup consistency depends on the ring neighbors.
  const ids::RingId self_id = ring_ids_[self];
  if (const auto succ = overlay::best_successor(selection.candidates_,
                                                self_id, self)) {
    selection.take(*succ, overlay::LinkKind::kSuccessor);
  }
  if (const auto pred = overlay::best_predecessor(selection.candidates_,
                                                  self_id, self)) {
    selection.take(*pred, overlay::LinkKind::kPredecessor);
  }
  return selection;
}

void OverlaySystem::Selection::take(std::size_t index,
                                    overlay::LinkKind kind) {
  add(index, kind);
  candidates_.erase(candidates_.begin() + static_cast<std::ptrdiff_t>(index));
}

void OverlaySystem::Selection::add(std::size_t index, overlay::LinkKind kind) {
  const gossip::Descriptor& d = candidates_[index];
  selected_.push_back(overlay::RoutingEntry{d.node, d.id, kind, 0});
}

// ---------------------------------------------------------------------------
// Per-cycle maintenance: heartbeats, adjacency rebuild, system maintenance.
// ---------------------------------------------------------------------------
void OverlaySystem::cycle_maintenance() {
  rebuild_undirected();
  relay_requests_.clear();
  maintenance_extra();
  if (!relays_.empty()) group_relay_requests();
}

void OverlaySystem::refresh_heartbeats(ids::NodeIndex node,
                                       std::size_t worker) {
  overlay::RoutingTable& rt = tables_[node];
  rt.increment_ages();
  for (const auto& entry : rt.entries()) {
    if (engine_.is_alive(entry.node)) rt.mark_fresh(entry.node);
  }
  rt.drop_older_than(config_.staleness_threshold);
  histograms_.record(support::Channel::kRoutingTableSize, rt.entries().size(),
                     worker);
}

void OverlaySystem::rebuild_undirected() {
  // Clear only the adjacency lists the previous rebuild populated; clearing
  // all N vectors would reintroduce the O(N) per-cycle sweep the engine's
  // activation list removed. The active list is ascending, so edges are
  // appended in the same order as the historical full scan.
  for (const ids::NodeIndex node : undirected_touched_) {
    undirected_[node].clear();
  }
  undirected_touched_.clear();
  const auto adjacency = [this](ids::NodeIndex node)
      -> std::vector<ids::NodeIndex>& {
    std::vector<ids::NodeIndex>& list = undirected_[node];
    if (list.empty()) undirected_touched_.push_back(node);
    return list;
  };
  for (const ids::NodeIndex node : engine_.active_nodes()) {
    for (const auto& entry : tables_[node].entries()) {
      if (entry.node == node || !engine_.is_alive(entry.node)) continue;
      adjacency(node).push_back(entry.node);
      adjacency(entry.node).push_back(node);
    }
  }
  for (const ids::NodeIndex node : undirected_touched_) {
    std::vector<ids::NodeIndex>& neighbors = undirected_[node];
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }
}

std::vector<support::ParallelPhaseStats> OverlaySystem::parallel_phases()
    const {
  std::vector<support::ParallelPhaseStats> phases;
  for (const auto& timing : engine_.stage_timings()) {
    support::ParallelPhaseStats stage{
        timing.name, static_cast<double>(timing.busy_ns) / 1e6,
        static_cast<double>(timing.span_ns) / 1e6, {}};
    stage.worker_busy_ms.reserve(timing.worker_busy_ns.size());
    for (const std::uint64_t busy : timing.worker_busy_ns) {
      stage.worker_busy_ms.push_back(static_cast<double>(busy) / 1e6);
    }
    phases.push_back(std::move(stage));
  }
  return phases;
}

// ---------------------------------------------------------------------------
// Lookups.
// ---------------------------------------------------------------------------
const overlay::LookupResult& OverlaySystem::lookup(ids::NodeIndex origin,
                                                   ids::RingId target) const {
  lookup_into(origin, target, lookup_result_, nullptr, 0);
  return lookup_result_;
}

void OverlaySystem::lookup_into(ids::NodeIndex origin, ids::RingId target,
                                overlay::LookupResult& result,
                                const overlay::RouteMarks* marks,
                                std::size_t worker) const {
  const support::ScopedPhase phase(&profiler_, support::Phase::kRouting,
                                   worker);
  overlay::greedy_lookup_into(
      tables_, ring_ids_,
      [this](ids::NodeIndex node) { return engine_.is_alive(node); }, origin,
      target, config_.lookup_hop_budget, result, marks);
}

// ---------------------------------------------------------------------------
// Relay trees: Vitis' relay paths (§III-B) and RVR's multicast trees (§IV).
// ---------------------------------------------------------------------------
void OverlaySystem::group_relay_requests() {
  // Relay work but no walk or table visit: timed without a call.
  const std::int64_t start = support::monotonic_ns();
  // Counting sort by topic. The requests arrive in ascending node order, so
  // the stable placement keeps each topic's requesters ascending — the
  // order in which a serial pass emits the topic's installs, which is all
  // its relay tables depend on.
  const std::size_t topics = subscriptions_.topic_count();
  relay_topic_begin_.assign(topics + 1, 0);
  for (const RelayRequest& request : relay_requests_) {
    ++relay_topic_begin_[request.topic];
  }
  // After the prefix sum relay_topic_begin_[t] is the end of topic t's
  // range (and [topics] the total); filling each range from its end, in
  // reverse request order, leaves it at the range's start.
  std::partial_sum(relay_topic_begin_.begin(), relay_topic_begin_.end(),
                   relay_topic_begin_.begin());
  relay_requesters_.resize(relay_requests_.size());
  for (auto it = relay_requests_.rbegin(); it != relay_requests_.rend();
       ++it) {
    relay_requesters_[--relay_topic_begin_[it->topic]] = it->requester;
  }

  // One worker walks all of a topic's routes. Handing the topic to the
  // requester closest to hash(t) spreads topics evenly over worker slices;
  // requesters are alive, so the relay-refresh stage activates each of
  // them.
  relay_walks_.clear();
  for (std::size_t t = 0; t < topics; ++t) {
    const std::uint32_t begin = relay_topic_begin_[t];
    const std::uint32_t end = relay_topic_begin_[t + 1];
    if (begin == end) continue;
    const auto topic = static_cast<ids::TopicIndex>(t);
    const ids::RingId key = ids::topic_ring_id(topic);
    ids::NodeIndex walker = relay_requesters_[begin];
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      const ids::NodeIndex requester = relay_requesters_[i];
      if (ids::closer_to(key, ring_ids_[requester], ring_ids_[walker])) {
        walker = requester;
      }
    }
    relay_walks_.push_back(RelayRequest{walker, topic});
  }
  std::sort(relay_walks_.begin(), relay_walks_.end(),
            [](const RelayRequest& x, const RelayRequest& y) {
              return x.requester != y.requester ? x.requester < y.requester
                                                : x.topic < y.topic;
            });
  profiler_.add(support::Phase::kRelay,
                static_cast<std::uint64_t>(support::monotonic_ns() - start),
                0);
}

void OverlaySystem::refresh_relays(ids::NodeIndex node, std::size_t worker) {
  // The topics this node walks (see group_relay_requests).
  auto walk = std::lower_bound(
      relay_walks_.begin(), relay_walks_.end(), node,
      [](const RelayRequest& r, ids::NodeIndex n) { return r.requester < n; });
  if (walk == relay_walks_.end() || walk->requester != node) return;

  LookupCtx& ctx = lookup_ctx_[worker];
  // Relay-hop admission under a fault plan draws and counts per hop, so a
  // skipped suffix would change the fault counters: walk in full then.
  overlay::RouteMarks* const marks = fault_active() ? nullptr : &ctx.marks;

  std::vector<RelayInstall>& lane = relay_outbox_.lane(worker);
  for (; walk != relay_walks_.end() && walk->requester == node; ++walk) {
    const ids::TopicIndex topic = walk->topic;
    const ids::RingId target = ids::topic_ring_id(topic);
    const auto run_begin = static_cast<std::uint32_t>(lane.size());
    ctx.marks.next_target();
    for (std::uint32_t r = relay_topic_begin_[topic];
         r < relay_topic_begin_[topic + 1]; ++r) {
      const ids::NodeIndex requester = relay_requesters_[r];
      const support::ScopedPhase phase(&profiler_, support::Phase::kRelay,
                                       worker);
      lookup_into(requester, target, ctx.result, marks, worker);
      const overlay::LookupResult& result = ctx.result;
      if (!result.converged || result.hops() == 0) continue;
      histograms_.record(support::Channel::kRelayPathLength, result.hops(),
                         worker);
      const std::vector<ids::NodeIndex>& path = result.path;
      const std::uint64_t nonce_base =
          ids::mix64((static_cast<std::uint64_t>(requester) << 32) ^ topic);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        // Setup messages travel hop by hop; a lost hop (after retransmits)
        // truncates the path there — links before it are still emitted and
        // will be refreshed or expire through the relay TTL.
        if (!relay_hop_delivered(path[i], path[i + 1], nonce_base,
                                 static_cast<std::uint32_t>(i))) {
          break;
        }
        lane.push_back(RelayInstall{topic, path[i], path[i + 1]});
      }
      // Without a fault plan every install of the route was emitted (the
      // walked ones above, the remainder by the earlier route), so later
      // walks may end on its nodes.
      if (marks != nullptr) marks->mark(result);
    }
    relay_runs_[topic] = InstallRun{static_cast<std::uint32_t>(worker),
                                    run_begin,
                                    static_cast<std::uint32_t>(lane.size())};
  }
}

void OverlaySystem::apply_relay_installs(std::size_t worker,
                                         sim::NodeRange owned) {
  const std::int64_t bucket_start = support::monotonic_ns();
  RelayApply& apply = relay_apply_[worker];
  std::uint32_t total = 0;
  relay_outbox_.for_each([&](const RelayInstall& install) {
    if (owned.contains(install.a)) {
      ++relay_slot_[install.a];
      ++total;
    }
    if (owned.contains(install.b)) {
      ++relay_slot_[install.b];
      ++total;
    }
  });
  // The alive nodes this worker owns are one run of the activation list;
  // each one's bucket starts where the previous one's ends.
  const std::span<const ids::NodeIndex> alive = engine_.active_nodes();
  const auto first = std::lower_bound(alive.begin(), alive.end(), owned.begin);
  const auto last = std::lower_bound(first, alive.end(), owned.end);
  std::uint32_t offset = 0;
  for (auto it = first; it != last; ++it) {
    const std::uint32_t count = relay_slot_[*it];
    relay_slot_[*it] = offset;
    offset += count;
  }
  // Routes run over alive nodes only, and liveness is frozen during the
  // stage, so every endpoint counted above has its bucket.
  VITIS_CHECK(offset == total);
  apply.installs.resize(total);
  // Fill topic by topic, ascending: a topic's installs are one run of one
  // lane, so every bucket comes out grouped by topic ascending, in arrival
  // order within a topic — the order rebuild() takes.
  const std::size_t topics = subscriptions_.topic_count();
  for (std::size_t t = 0; t < topics; ++t) {
    if (relay_topic_begin_[t] == relay_topic_begin_[t + 1]) continue;
    const auto topic = static_cast<ids::TopicIndex>(t);
    const InstallRun run = relay_runs_[t];
    const std::vector<RelayInstall>& lane =
        std::as_const(relay_outbox_).lane(run.lane);
    for (std::uint32_t i = run.begin; i < run.end; ++i) {
      const RelayInstall& install = lane[i];
      if (owned.contains(install.a)) {
        apply.installs[relay_slot_[install.a]++] = {topic, install.b};
      }
      if (owned.contains(install.b)) {
        apply.installs[relay_slot_[install.b]++] = {topic, install.a};
      }
    }
  }
  // The bucketing is relay work but no table visit: time without a call.
  profiler_.add(
      support::Phase::kRelay,
      static_cast<std::uint64_t>(support::monotonic_ns() - bucket_start), 0,
      worker);

  // Every alive owned node once, named by an install or not: its links
  // age either way. One relay call per visit.
  const std::span<const RelayTable::Install> installs(apply.installs);
  std::uint32_t begin = 0;
  for (auto it = first; it != last; ++it) {
    const support::ScopedPhase phase(&profiler_, support::Phase::kRelay,
                                     worker);
    const std::uint32_t end = relay_slot_[*it];
    relay_slot_[*it] = 0;
    relays_[*it].rebuild(relay_ttl_, installs.subspan(begin, end - begin),
                         apply.scratch);
    begin = end;
  }
}

bool OverlaySystem::relay_hop_delivered(ids::NodeIndex src, ids::NodeIndex dst,
                                        std::uint64_t nonce_base,
                                        std::uint32_t hop) const {
  if (!fault_.active()) return true;
  // Bounded retransmit-with-backoff, abstracted to attempts within the
  // cycle (real backoff timing has no meaning at cycle granularity; the
  // bound is what matters for the drop-survival probability). Explicit
  // nonces keep each (hop, attempt) draw distinct and schedule-independent;
  // 64 bounds attempts-per-hop, far above any sane relay_retransmit.
  const std::uint32_t attempts = 1 + relay_retransmit_;
  for (std::uint32_t a = 0; a < attempts; ++a) {
    if (fault_.deliver(src, dst, sim::MessageKind::kRelay,
                       nonce_base + std::uint64_t{hop} * 64 + a)) {
      return true;
    }
  }
  return false;
}

std::size_t OverlaySystem::relay_link_count() const {
  std::size_t links = 0;
  if (relays_.empty()) return links;
  for (const ids::NodeIndex node : engine_.active_nodes()) {
    links += relays_[node].link_count();
  }
  return links;
}

void OverlaySystem::gossip_step(ids::NodeIndex node) {
  VITIS_CHECK(engine_.is_alive(node));
  // Mirror one engine activation: the same counter-based forks the stages
  // would produce for this node at the current cycle, with the merge run
  // immediately after (a one-node stage is its own barrier).
  sim::Rng sampling_rng =
      sim::Rng::at(engine_.seed(), kSaltSampling, node, engine_.cycle());
  sampling_->prepare(node, sampling_rng, 0);
  sampling_->apply(engine_.cycle());
  sim::Rng tman_rng =
      sim::Rng::at(engine_.seed(), kSaltTman, node, engine_.cycle());
  tman_->prepare(node, tman_rng, 0);
  tman_->apply(engine_.cycle());
}

analysis::Graph OverlaySystem::overlay_snapshot() const {
  analysis::Graph graph(tables_.size());
  for (const ids::NodeIndex node : engine_.active_nodes()) {
    for (const auto& entry : tables_[node].entries()) {
      if (entry.node != node && engine_.is_alive(entry.node)) {
        graph.add_edge(node, entry.node);
      }
    }
  }
  return graph;
}

std::size_t OverlaySystem::memory_footprint() const {
  std::size_t adjacency_links = 0;
  for (const ids::NodeIndex node : undirected_touched_) {
    adjacency_links += undirected_[node].size();
  }
  std::size_t relay_bytes = relays_.size() * sizeof(RelayTable);
  for (const RelayTable& relay : relays_) relay_bytes += relay.memory_bytes();
  const std::size_t n = tables_.size();
  return n * rt_capacity_ * sizeof(overlay::RoutingEntry) + relay_bytes +
         n * (sizeof(overlay::RoutingTable) + sizeof(ids::RingId) +
              sizeof(std::uint32_t) + sizeof(pubsub::SetId)) +
         sampling_->memory_bytes() +
         undirected_.size() * sizeof(std::vector<ids::NodeIndex>) +
         adjacency_links * sizeof(ids::NodeIndex) +
         dissemination_.memory_bytes() + extra_memory_bytes();
}

pubsub::Dissemination& OverlaySystem::begin_publish(ids::TopicIndex topic,
                                                    ids::NodeIndex publisher) {
  VITIS_CHECK(topic < subscriptions_.topic_count());
  VITIS_CHECK(engine_.is_alive(publisher));
  dissemination_.begin(topic, publisher, [this](ids::NodeIndex s) {
    // A freshly joined node is not yet expected to receive events.
    return engine_.is_alive(s) &&
           join_cycles_[s] + config_.join_grace_cycles <= engine_.cycle();
  });
  return dissemination_;
}

// ---------------------------------------------------------------------------
// Flight recorder (observability).
// ---------------------------------------------------------------------------
void OverlaySystem::configure_recorder(const support::RecorderConfig& config) {
  recorder_.configure(config);
  if (!recorder_.enabled()) {
    engine_.set_observer(nullptr, nullptr);
    return;
  }
  if (!health_.attached()) health_.attach(ring_ids_);
  engine_.set_observer(&recorder_, [this](std::size_t) { observe_sample(); });
}

void OverlaySystem::observe_sample() {
  if (!recorder_.enabled()) return;
  support::TimeSeriesSample* sample = recorder_.begin_sample(engine_.cycle());
  if (sample != nullptr) {
    const auto is_alive = [this](ids::NodeIndex node) {
      return engine_.is_alive(node);
    };
    const auto table_of =
        [this](ids::NodeIndex node) -> const overlay::RoutingTable& {
      return tables_[node];
    };
    const auto slot = [&](support::Gauge gauge) -> double& {
      return sample->gauges[static_cast<std::size_t>(gauge)];
    };
    slot(support::Gauge::kAliveNodes) =
        static_cast<double>(engine_.alive_count());
    slot(support::Gauge::kMeanClustersPerTopic) =
        health_.mean_clusters_per_topic(undirected_, subscriptions_, is_alive);
    slot(support::Gauge::kRelayLinks) =
        static_cast<double>(relay_link_count());
    slot(support::Gauge::kRingConsistency) =
        health_.ring_consistency(is_alive, table_of);
    analysis::view_ages(tables_.size(), is_alive, table_of,
                        slot(support::Gauge::kMeanViewAge),
                        slot(support::Gauge::kMaxViewAge));
    recorder_.window_gauges(
        support::WindowCounters{metrics_.expected_total(),
                                metrics_.delivered_total(),
                                metrics_.uninterested_messages(),
                                metrics_.total_messages()},
        slot(support::Gauge::kWindowHitRatio),
        slot(support::Gauge::kWindowOverheadPct));
    const PairUtilityCache* cache = pair_cache();
    slot(support::Gauge::kUtilityCacheHitRate) =
        cache != nullptr ? cache->stats().hit_rate()
                         : std::numeric_limits<double>::quiet_NaN();
    slot(support::Gauge::kShardImbalance) =
        engine_.canonical_shard_imbalance();
    for (std::size_t p = 0; p < support::kPhaseCount; ++p) {
      sample->phase_calls[p] =
          profiler_.stats(static_cast<support::Phase>(p)).calls;
    }
  }
  if (recorder_.invariants_enabled()) check_invariants();
}

void OverlaySystem::check_invariants() const {
  // OPT's coverage tables carry no kSuccessor entries, which makes the ring
  // check vacuous there.
  for (const ids::NodeIndex node : engine_.active_nodes()) {
    VITIS_CHECK(analysis::table_within_bounds(node, tables_[node]));
    VITIS_CHECK(analysis::successor_is_clockwise_closest(
        ring_ids_[node], tables_[node].entries()));
    check_node_invariants(node);
  }
}

// ---------------------------------------------------------------------------
// Churn (§III-D) and fault injection.
// ---------------------------------------------------------------------------
void OverlaySystem::node_join(ids::NodeIndex node) {
  VITIS_CHECK(node < tables_.size());
  if (engine_.is_alive(node)) return;
  engine_.set_alive(node, true);
  tables_[node].clear();
  if (!relays_.empty()) relays_[node].clear();
  join_cycles_[node] = static_cast<std::uint32_t>(engine_.cycle());
  on_join(node);
  sampling_->init_node(node,
                       random_alive_contacts(config_.bootstrap_contacts, node));
}

void OverlaySystem::node_leave(ids::NodeIndex node) {
  VITIS_CHECK(node < tables_.size());
  if (!engine_.is_alive(node)) return;
  engine_.set_alive(node, false);
  tables_[node].clear();
  if (!relays_.empty()) relays_[node].clear();
  sampling_->remove_node(node);
  on_leave(node);
}

void OverlaySystem::set_fault_plan(const sim::FaultConfig& config) {
  fault_.configure(config, fault_seed_, &engine_);
  // The gossip layers only pay the admission branch while a plan is live.
  sim::FaultPlan* plan = fault_.active() ? &fault_ : nullptr;
  sampling_->set_fault_plan(plan);
  tman_->set_fault_plan(plan);
}

void OverlaySystem::node_crash(ids::NodeIndex node) {
  VITIS_CHECK(node < tables_.size());
  if (!engine_.is_alive(node)) return;  // idempotent, like node_leave
  // Only the alive bit flips: the node's state and every reference its
  // peers hold survive. Heartbeat staleness (and, in Vitis, relay TTLs and
  // re-election) repair the damage.
  engine_.set_alive(node, false);
}

}  // namespace vitis::core
