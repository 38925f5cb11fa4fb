#include "core/vitis_system.hpp"

#include <algorithm>
#include <utility>

#include "ids/hash.hpp"
#include "overlay/small_world.hpp"
#include "support/check.hpp"

namespace vitis::core {

VitisSystem::VitisSystem(VitisConfig config,
                         pubsub::SubscriptionTable subscriptions,
                         std::vector<double> rates, std::uint64_t seed,
                         bool start_online)
    : OverlaySystem(config, std::move(subscriptions), seed),
      config_(config) {
  config_.validate();
  VITIS_CHECK(rates.size() == this->subscriptions().topic_count());

  const std::size_t workers = engine().run_jobs();
  rankers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    rankers_.push_back(Ranker{UtilityFunction(rates), {}, {}});
    rankers_.back().ranked.reserve(64);
  }
  // Uniform rates never consult the memo (UtilityFunction::score), so they
  // get no table. Each worker's rankings read it and queue their inserts
  // on the worker's lane; the wave barrier commits them.
  if (!rankers_.front().utility.uniform_rates() &&
      config_.utility_cache_slots > 0 && utility_cache_env_enabled()) {
    utility_cache_.reset(config_.utility_cache_slots);
    utility_cache_.configure_lanes(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      rankers_[w].utility.set_cache(&utility_cache_, w);
    }
  }

  const std::size_t n = node_count();
  profiles_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<ids::NodeIndex>(i);
    profiles_.emplace_back(this->subscriptions().of(node).size())
        .reset_proposals(node, ring_id(node));
  }
  add_relay_refresh(config_.relay_ttl, config_.relay_retransmit);

  const std::size_t topics = this->subscriptions().topic_count();
  election_.resize(workers);
  for (ElectionShard& shard : election_) {
    shard.end = static_cast<ids::TopicIndex>(topics);
    shard.topic_stamp.assign(topics, 0);
    shard.topic_pos.assign(topics, 0);
    shard.neighbor_mark.assign(n, 0);
    if (workers > 1) {
      shard.first.assign(n, 0);
      shard.last.assign(n, 0);
    }
  }
  request_cursor_.resize(workers);
  if (config_.gateway_silence_limit > 0) {
    silence_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      silence_[i].assign(profiles_[i].size(), TopicSilence{});
    }
  }

  start(start_online);
}

// ---------------------------------------------------------------------------
// Algorithm 4: selectNeighbors.
// ---------------------------------------------------------------------------
void VitisSystem::select_neighbors(
    ids::NodeIndex self, std::span<const gossip::Descriptor> candidates,
    overlay::RoutingTable& table, sim::Rng& rng, std::size_t worker) {
  const support::ScopedPhase phase(&profiler_mut(), support::Phase::kRanking,
                                   worker);
  const ids::RingId self_id = ring_id(self);

  // Lines 2-7: ring neighbors first (lookup consistency depends on them).
  Selection& selection = select_ring_links(self, candidates, worker);

  // Lines 8-10: small-world links at random harmonic distances.
  const std::size_t sw_links = config_.structural_links - 2;
  for (std::size_t i = 0; i < sw_links && !selection.unselected().empty();
       ++i) {
    const ids::RingId target = overlay::random_sw_target(
        self_id, std::max<std::size_t>(alive_count(), 2), rng);
    if (const auto sw = overlay::closest_to_target(selection.unselected(),
                                                   target, self)) {
      selection.take(*sw, overlay::LinkKind::kSmallWorld);
    }
  }

  // Lines 11-16: rank the rest by the preference function, keep the top.
  // One prepare() amortizes this node's side of every Jaccard merge and
  // arms the fingerprint prefilter (bit-identical scores either way).
  // The remaining candidates stream into the batch kernel as an SoA pool
  // of their live subscription sets and SetIds, read from the host (the one
  // copy, so the pairwise memo keys stay canonical). score_all runs the
  // SIMD prefilter and memo-prefetch passes, then scores in pool order —
  // bit-identical to the former per-candidate loop (see
  // core/batch_score.hpp).
  Ranker& ranker = rankers_[worker];
  const std::span<const gossip::Descriptor> pool = selection.unselected();
  const bool use_proximity =
      config_.proximity_weight > 0.0 && !coordinates_.empty();
  ranker.utility.prepare(subscriptions().of(self), set_id(self));
  ranker.batch.clear();
  for (const gossip::Descriptor& d : pool) {
    const pubsub::SubscriptionSet& subs = subscriptions().of(d.node);
    ranker.batch.add(d.node, &subs, subs.fingerprint(), set_id(d.node));
  }
  ranker.batch.score_all(ranker.utility);
  // With coordinates installed and proximity_weight > 0, physically distant
  // candidates are discounted (§III-A2's network-topology extension) — a
  // post-pass over the raw utilities, exactly as the inline loop applied.
  if (use_proximity) {
    const std::span<double> scores = ranker.batch.mutable_scores();
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] > 0.0) {
        const double normalized =
            sim::latency_ms(coordinates_[self], coordinates_[pool[i].node]) /
            sim::kMaxLatencyMs;
        scores[i] /= 1.0 + config_.proximity_weight * normalized;
      }
    }
  }
  // Ties (common under uniform rates: many candidates share utility 0) are
  // broken by a per-node pseudo-random order inside rank_top_k. A global
  // order — e.g. by node index — would funnel every tie toward the same
  // few nodes and grow pathological hubs.
  const std::uint64_t tie_salt = ids::mix64(self ^ 0x7469656272656b00ULL);
  rank_top_k(ranker.batch.scores(), ranker.batch.nodes(), tie_salt,
             config_.friend_links(), ranker.ranked);
  for (const auto& [score, index] : ranker.ranked) {
    selection.add(index, overlay::LinkKind::kFriend);
  }

  selection.install(table);
}

void VitisSystem::end_selection_wave() { utility_cache_.commit_lanes(); }

// ---------------------------------------------------------------------------
// Per-cycle maintenance: gateway election.
// ---------------------------------------------------------------------------
void VitisSystem::maintenance_extra() {
  // Attributed per cycle, not per node: one election sweep is one phase
  // activation on lane 0 (profiling found it to be the largest
  // unattributed slice of figure-bench wall — see DESIGN.md "Hot path &
  // determinism"); the other workers add their share without a call.
  const support::ScopedPhase phase(&profiler_mut(), support::Phase::kElection);
  cut_election_shards();
  engine().run_parallel([this](std::size_t worker) {
    const std::int64_t start = support::monotonic_ns();
    ElectionShard& shard = election_[worker];
    shard.requests.clear();
    if (!shard.all_topics) {
      // Where the range starts and ends in each alive node's topic list,
      // found once per node instead of once per (node, neighbor) pair.
      for (const ids::NodeIndex node : engine().active_nodes()) {
        const auto topics = subscriptions().of(node).topics();
        const auto lo =
            std::lower_bound(topics.begin(), topics.end(), shard.begin);
        const auto hi = std::lower_bound(lo, topics.end(), shard.end);
        shard.first[node] = static_cast<std::uint32_t>(lo - topics.begin());
        shard.last[node] = static_cast<std::uint32_t>(hi - topics.begin());
      }
    }
    for (const ids::NodeIndex node : engine().active_nodes()) {
      run_election(node, shard);
    }
    if (worker != 0) {
      profiler_mut().add(
          support::Phase::kElection,
          static_cast<std::uint64_t>(support::monotonic_ns() - start), 0,
          worker);
    }
  });
  // Each shard's requests ascend by (node, topic), and the shards' topic
  // ranges ascend with the worker index: per node, taking the shards in
  // order yields its topics ascending.
  std::fill(request_cursor_.begin(), request_cursor_.end(), 0);
  for (;;) {
    ids::NodeIndex node = ids::kInvalidNode;
    for (std::size_t w = 0; w < election_.size(); ++w) {
      const std::vector<RelayRequest>& requests = election_[w].requests;
      if (request_cursor_[w] < requests.size()) {
        node = std::min(node, requests[request_cursor_[w]].node);
      }
    }
    if (node == ids::kInvalidNode) break;
    for (std::size_t w = 0; w < election_.size(); ++w) {
      const std::vector<RelayRequest>& requests = election_[w].requests;
      std::size_t& cursor = request_cursor_[w];
      for (; cursor < requests.size() && requests[cursor].node == node;
           ++cursor) {
        request_relay(node, requests[cursor].topic);
      }
    }
  }
}

void VitisSystem::cut_election_shards() {
  const std::size_t workers = election_.size();
  if (workers == 1) return;  // one range covers every topic
  // Cut w sits at the first topic where the subscriber prefix reaches
  // w/J of the total, so each range holds about as many (node, topic)
  // pairs as the others.
  const std::size_t topics = subscriptions().topic_count();
  std::size_t total = 0;
  for (std::size_t t = 0; t < topics; ++t) {
    total += subscriptions().subscribers(static_cast<ids::TopicIndex>(t))
                 .size();
  }
  std::size_t prefix = 0;
  std::size_t t = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    ElectionShard& shard = election_[w];
    shard.begin = static_cast<ids::TopicIndex>(t);
    const std::size_t target = total * (w + 1) / workers;
    while (t < topics && (w + 1 == workers || prefix < target)) {
      prefix +=
          subscriptions().subscribers(static_cast<ids::TopicIndex>(t)).size();
      ++t;
    }
    shard.end = static_cast<ids::TopicIndex>(t);
    shard.all_topics = shard.begin == 0 && t == topics;
  }
}

void VitisSystem::run_election(ids::NodeIndex node, ElectionShard& shard) {
  // The positions [first, last) of an alive node's sorted topic list that
  // fall in the shard's range.
  const auto in_range = [&shard](ids::NodeIndex x, std::size_t size) {
    return shard.all_topics
               ? std::pair<std::size_t, std::size_t>{0, size}
               : std::pair<std::size_t, std::size_t>{shard.first[x],
                                                     shard.last[x]};
  };
  const pubsub::SubscriptionSet& my_subs = subscriptions().of(node);
  const auto my_topics = my_subs.topics();
  const auto [first, last] = in_range(node, my_topics.size());
  if (first == last) return;

  // Stamp the positions of this node's topics and the node's neighbors
  // once: a neighbor's (sorted) topic list is then scanned with O(1)
  // membership tests, and the line-7 scope test is one compare.
  if (++shard.epoch == 0) {
    std::fill(shard.topic_stamp.begin(), shard.topic_stamp.end(), 0U);
    std::fill(shard.neighbor_mark.begin(), shard.neighbor_mark.end(), 0U);
    shard.epoch = 1;
  }
  const std::uint32_t epoch = shard.epoch;
  const ids::RingId self_id = ring_id(node);
  if (shard.ballots.size() < last - first) shard.ballots.resize(last - first);
  for (std::size_t i = first; i < last; ++i) {
    shard.topic_stamp[my_topics[i]] = epoch;
    shard.topic_pos[my_topics[i]] = i;
    shard.ballots[i - first] = Ballot{ids::topic_ring_id(my_topics[i]),
                                      GatewayProposal{node, self_id, node, 0}};
  }
  const auto& my_neighbors = undirected(node);
  for (const ids::NodeIndex neighbor : my_neighbors) {
    shard.neighbor_mark[neighbor] = epoch;
  }
  const auto in_scope = [&shard, epoch](ids::NodeIndex parent) {
    return shard.neighbor_mark[parent] == epoch;
  };

  // Fold each neighbor's proposal for a shared topic into that topic's
  // running proposal as the scan reaches it: each election is a left fold
  // over its candidates, neighbors ascending (see DESIGN.md "One pass per
  // election").
  for (const ids::NodeIndex neighbor : my_neighbors) {
    const pubsub::SubscriptionSet& their_subs = subscriptions().of(neighbor);
    // Cheap whole-set screen first: disjoint fingerprints prove this
    // neighbor shares no topic with us.
    if (pubsub::fingerprints_disjoint(my_subs.fingerprint(),
                                      their_subs.fingerprint())) {
      continue;
    }
    const Profile& their_profile = profiles_[neighbor];
    const auto their_topics = their_subs.topics();
    const auto [their_first, their_last] =
        in_range(neighbor, their_topics.size());
    if (shard.shared_pos.size() < their_last - their_first) {
      shard.shared_pos.resize(their_last - their_first);
    }
    // Positions of the shared topics, collected without branches.
    std::size_t shared = 0;
    for (std::size_t b = their_first; b < their_last; ++b) {
      shard.shared_pos[shared] = static_cast<std::uint32_t>(b);
      shared += shard.topic_stamp[their_topics[b]] == epoch ? 1 : 0;
    }
    for (std::size_t k = 0; k < shared; ++k) {
      const std::size_t b = shard.shared_pos[k];
      const std::size_t a = shard.topic_pos[their_topics[b]];
      const GatewayProposal& candidate = their_profile.proposal_at(b);
      if (!silence_.empty()) {
        TopicSilence& ts = silence_[node][a];
        if (ts.banned != ids::kInvalidNode) {
          if (neighbor == ts.banned) {
            // The banned gateway itself is proposing again — it is
            // demonstrably back; lift the ban immediately.
            ts.banned = ids::kInvalidNode;
            ts.ban_ttl = 0;
          } else if (candidate.gateway == ts.banned) {
            continue;  // suppressed echo of the silent gateway
          }
        }
      }
      Ballot& ballot = shard.ballots[a - first];
      consider_proposal(
          ElectionInput{node, self_id, ballot.topic_hash,
                        config_.gateway_depth},
          ballot.proposal, neighbor, candidate, in_scope);
    }
  }

  Profile& my_profile = profiles_[node];
  for (std::size_t i = first; i < last; ++i) {
    const GatewayProposal previous = my_profile.proposal_at(i);
    my_profile.set_proposal_at(i, shard.ballots[i - first].proposal);
    if (config_.gateway_silence_limit > 0) {
      apply_gateway_silence(node, i, previous);
    }
    if (is_self_gateway(node, my_profile.proposal_at(i))) {
      // Algorithm 5 lines 20-22, deferred: the relay-refresh stage serves
      // the requests after the sweep (lookups over stable routing state).
      shard.requests.push_back(RelayRequest{node, my_topics[i]});
    }
  }
}

void VitisSystem::apply_gateway_silence(ids::NodeIndex node, std::size_t pos,
                                        const GatewayProposal& previous) {
  Profile& profile = profiles_[node];
  TopicSilence& ts = silence_[node][pos];
  if (ts.ban_ttl > 0 && --ts.ban_ttl == 0) ts.banned = ids::kInvalidNode;
  const GatewayProposal current = profile.proposal_at(pos);
  // A healthy remote gateway re-proposes itself at a stable depth every
  // round; a crashed one survives only through neighbor echoes, and each
  // echo round strictly inflates the hop count until the depth threshold
  // kills it. That inflation is the "K consecutive silent cycles" signal.
  const bool echo = current.gateway != node &&
                    current.gateway == previous.gateway &&
                    current.hops > previous.hops;
  if (!echo) {
    ts.silent = 0;
    return;
  }
  if (++ts.silent < config_.gateway_silence_limit) return;
  // Re-elect now instead of waiting out the echo decay: fall back to a
  // self-proposal (which triggers the relay-path request next round) and
  // ban the silent gateway long enough for the echoes to drain.
  ts.silent = 0;
  ts.banned = current.gateway;
  ts.ban_ttl = 2 * config_.gateway_silence_limit;
  profile.set_proposal_at(pos, GatewayProposal{node, ring_id(node), node, 0});
}

// ---------------------------------------------------------------------------
// Host hooks: invariants, footprint.
// ---------------------------------------------------------------------------
void VitisSystem::check_node_invariants(ids::NodeIndex node) const {
  const Profile& profile = profiles_[node];
  for (std::size_t t = 0; t < profile.size(); ++t) {
    VITIS_CHECK(analysis::gateway_depth_bounded(profile.proposal_at(t).hops,
                                                config_.gateway_depth));
  }
}

std::size_t VitisSystem::extra_memory_bytes() const {
  std::size_t bytes = profiles_.size() * sizeof(Profile);
  for (const Profile& profile : profiles_) bytes += profile.memory_bytes();
  // One copy of the election's topic stamps and positions, whatever the
  // worker count.
  return bytes + subscriptions().topic_count() *
                     (sizeof(std::uint32_t) + sizeof(std::size_t));
}

// ---------------------------------------------------------------------------
// Event dissemination (§III-C).
// ---------------------------------------------------------------------------
// Vitis forwards to subscribed overlay neighbours and along the topic's
// live relay links, in ascending node order; a fault plan drops and delays.
struct VitisSystem::Hops : FaultAdmission {
  VitisSystem& vitis;
  const pubsub::Dissemination& flood;
  ids::TopicIndex topic;

  // The flood's per-node loop. Starting it on a cache line keeps its
  // loops' placement, and so the publish latency, independent of the size
  // of the code laid out before it.
  template <typename Fn>
  [[gnu::aligned(64)]] void for_each_next(ids::NodeIndex node, Fn&& fn) {
    // The few live relay peers, sorted, merged into the ascending neighbour
    // list; a peer that is also a subscribed neighbour is sent to once.
    std::vector<ids::NodeIndex>& relays = vitis.relay_peers_;
    relays.clear();
    for (const auto& link : vitis.relay_table(node).links(topic)) {
      if (vitis.is_alive(link.peer)) relays.push_back(link.peer);
    }
    std::sort(relays.begin(), relays.end());
    auto relay = relays.begin();
    for (const ids::NodeIndex y : vitis.undirected(node)) {
      if (!flood.interested(y)) continue;
      for (; relay != relays.end() && *relay < y; ++relay) fn(*relay);
      if (relay != relays.end() && *relay == y) ++relay;
      fn(y);
    }
    for (; relay != relays.end(); ++relay) fn(*relay);
  }
  // Unlike the baselines, Vitis charges the fault plan's delay hops.
  [[nodiscard]] std::uint32_t penalty(ids::NodeIndex from,
                                      ids::NodeIndex to) const {
    return vitis.fault_active() ? vitis.fault_plan().hop_penalty(from, to)
                                : 0;
  }
};

pubsub::DisseminationReport VitisSystem::publish(ids::TopicIndex topic,
                                                 ids::NodeIndex publisher) {
  const support::ScopedPhase phase(&profiler_mut(),
                                   support::Phase::kDelivery);
  pubsub::Dissemination& flood = begin_publish(topic, publisher);
  Hops hops{{*this}, *this, flood, topic};
  flood.seed(publisher);

  // A publisher outside any cluster of the topic (not subscribed, not a
  // relay) hands the event to the rendezvous node by greedy routing first.
  if (!flood.interested(publisher) &&
      !relay_table(publisher).is_relay_for(topic)) {
    const ids::RingId target = ids::topic_ring_id(topic);
    // The host's lookup buffer, which a successor detour refills.
    const overlay::LookupResult* route = &lookup(publisher, target);
    std::uint32_t fallbacks_left =
        fault_active() ? config_.route_fallback_limit : 0;
    std::size_t i = 1;
    while (i < route->path.size()) {
      const ids::NodeIndex from = route->path[i - 1];
      if (!hops.admit(from, route->path[i])) {
        // The greedy hop is lost. With the fallback knob the sender
        // detects the hop timeout and hands the event to its ring
        // successor, which restarts the greedy descent from there;
        // without it the rendezvous handoff fails here.
        if (fallbacks_left == 0) break;
        --fallbacks_left;
        const auto succ =
            routing_table(from).first_of(overlay::LinkKind::kSuccessor);
        if (!succ.has_value() || !is_alive(succ->node)) break;
        const ids::NodeIndex detour = succ->node;
        if (!hops.admit(from, detour)) break;
        flood.route_hop(hops, from, detour);
        route = &lookup(detour, target);
        i = 1;
        continue;
      }
      flood.route_hop(hops, from, route->path[i]);
      ++i;
    }
  }

  flood.flood(hops);
  return flood.finish();
}

// ---------------------------------------------------------------------------
// Churn (§III-D).
// ---------------------------------------------------------------------------
void VitisSystem::on_join(ids::NodeIndex node) {
  profiles_[node].reset_proposals(node, ring_id(node));
  // A rejoining node may come back with a different subscription set (it
  // can subscribe or unsubscribe while offline); refresh its canonical id.
  reintern(node);
}

void VitisSystem::on_leave(ids::NodeIndex node) {
  profiles_[node].reset_proposals(node, ring_id(node));
}

// ---------------------------------------------------------------------------
// Physical proximity extension (§III-A2).
// ---------------------------------------------------------------------------
void VitisSystem::set_coordinates(std::vector<sim::Coordinate> coordinates) {
  VITIS_CHECK(coordinates.size() == node_count());
  coordinates_ = std::move(coordinates);
}

double VitisSystem::mean_friend_latency_ms() const {
  if (coordinates_.empty()) return 0.0;
  double sum = 0.0;
  std::size_t links = 0;
  for (const ids::NodeIndex node : engine().active_nodes()) {
    for (const auto& entry : routing_table(node).entries()) {
      if (entry.kind != overlay::LinkKind::kFriend) continue;
      sum += sim::latency_ms(coordinates_[node], coordinates_[entry.node]);
      ++links;
    }
  }
  return links == 0 ? 0.0 : sum / static_cast<double>(links);
}

// ---------------------------------------------------------------------------
// Dynamic subscriptions (§III).
// ---------------------------------------------------------------------------
bool VitisSystem::subscribe(ids::NodeIndex node, ids::TopicIndex topic) {
  VITIS_CHECK(node < node_count());
  if (!subscriptions_mut().subscribe(node, topic)) return false;
  // The new topic starts from the self-proposal at its sorted position.
  const auto position = subscriptions().of(node).position(topic);
  VITIS_CHECK(position.has_value());
  profiles_[node].insert_proposal(
      *position, GatewayProposal{node, ring_id(node), node, 0});
  reintern(node);
  return true;
}

bool VitisSystem::unsubscribe(ids::NodeIndex node, ids::TopicIndex topic) {
  VITIS_CHECK(node < node_count());
  const auto position = subscriptions().of(node).position(topic);
  if (!subscriptions_mut().unsubscribe(node, topic)) return false;
  VITIS_CHECK(position.has_value());
  profiles_[node].erase_proposal(*position);
  reintern(node);
  return true;
}

void VitisSystem::reintern(ids::NodeIndex node) {
  if (!silence_.empty()) {
    // Topic positions shift with the subscription set; start the silence
    // bookkeeping fresh rather than remapping counters.
    silence_[node].assign(subscriptions().of(node).size(), TopicSilence{});
  }
  // The memo stays: its keys are canonical ids, which are never reused.
  refresh_set_id(node);
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------
std::optional<GatewayProposal> VitisSystem::proposal(
    ids::NodeIndex node, ids::TopicIndex topic) const {
  const auto position = subscriptions().of(node).position(topic);
  if (!position.has_value()) return std::nullopt;
  return profiles_[node].proposal_at(*position);
}

bool VitisSystem::is_gateway(ids::NodeIndex node, ids::TopicIndex topic) const {
  const auto current = proposal(node, topic);
  return current.has_value() && current->gateway == node;
}

std::vector<ids::NodeIndex> VitisSystem::gateways_of(
    ids::TopicIndex topic) const {
  std::vector<ids::NodeIndex> gateways;
  for (const ids::NodeIndex node : subscriptions().subscribers(topic)) {
    if (is_alive(node) && is_gateway(node, topic)) {
      gateways.push_back(node);
    }
  }
  return gateways;
}

ids::NodeIndex VitisSystem::global_rendezvous(ids::TopicIndex topic) const {
  const ids::RingId target = ids::topic_ring_id(topic);
  ids::NodeIndex best = ids::kInvalidNode;
  for (const ids::NodeIndex node : engine().active_nodes()) {
    if (best == ids::kInvalidNode ||
        ids::closer_to(target, ring_id(node), ring_id(best))) {
      best = node;
    }
  }
  return best;
}

}  // namespace vitis::core
