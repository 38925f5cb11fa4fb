#include "core/utility.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "ids/hash.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/simd.hpp"

namespace vitis::core {

namespace {

/// Unordered pair key: (min << 32) | max, so {a, b} and {b, a} collapse to
/// one slot. Mixed through mix64 before masking so dense low ids spread
/// over the table.
inline std::uint64_t pair_key(pubsub::SetId a, pubsub::SetId b) {
  const pubsub::SetId lo = a < b ? a : b;
  const pubsub::SetId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

// W exact union merges of one prepared list with W candidates' rest lists
// (all ascending, sentinel-ended; each rest disjoint from the prepared
// list), interleaved: the step count all W share runs every chain per
// iteration, so their independent dependency chains overlap in the
// pipeline; then each chain finishes its own remaining steps.
template <std::size_t W>
void union_group(const ids::TopicIndex* prepared, std::size_t prepared_size,
                 std::span<const std::span<const ids::TopicIndex>> rests,
                 const double* rates, double* sums) {
  std::array<const ids::TopicIndex*, W> rest;
  std::array<std::size_t, W> ia{};
  std::array<std::size_t, W> ib{};
  std::array<double, W> sum{};
  std::size_t common = rests[0].size();
  for (std::size_t k = 0; k < W; ++k) {
    rest[k] = rests[k].data();
    common = std::min(common, rests[k].size());
  }
  // One step adds the rate of the smaller head and advances that side by a
  // compare. Indexing the rates by the min topic compiles to cmov and adc,
  // free of branches; selecting between two loaded rates, or advancing
  // pointers, compiled to a branch. The heads differ until both lists reach
  // their sentinels, which the counted steps never consume.
  const auto step = [&](std::size_t k) {
    const ids::TopicIndex head_a = prepared[ia[k]];
    const ids::TopicIndex head_b = rest[k][ib[k]];
    sum[k] += rates[std::min(head_a, head_b)];
    ia[k] += head_a < head_b;
    ib[k] += head_b < head_a;
  };
  for (std::size_t s = 0; s < prepared_size + common; ++s) {
    for (std::size_t k = 0; k < W; ++k) step(k);
  }
  for (std::size_t k = 0; k < W; ++k) {
    for (std::size_t s = common; s < rests[k].size(); ++s) step(k);
    sums[k] = sum[k];
  }
}

}  // namespace

double UtilityCacheStats::hit_rate() const {
  const std::uint64_t total = lookups();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(hits) / static_cast<double>(total);
}

void PairUtilityCache::reset(std::size_t min_slots) {
  slots_.clear();
  mask_ = 0;
  stats_ = {};
  configure_lanes(lanes_.size());
  if (min_slots == 0) return;
  std::size_t size = 1;
  while (size < min_slots) size <<= 1;
  slots_.assign(size, Slot{});
  mask_ = size - 1;
}

void PairUtilityCache::prefetch_batch(
    pubsub::SetId a, std::span<const pubsub::SetId> bs,
    std::span<const std::uint8_t> skip,
    std::vector<std::uint64_t>& key_scratch) const {
  if (!enabled()) return;
  VITIS_DCHECK(skip.size() == bs.size());
  const std::size_t n = bs.size();
  // Amortized allocation-free: the scratch retains its high-water capacity
  // across pools, like every other ranking buffer.
  key_scratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    key_scratch[i] = pair_key(a, bs[i]);
  }
  support::simd::mix64_batch(key_scratch.data(), n, key_scratch.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (skip[i] != 0 || bs[i] == pubsub::kInvalidSetId) continue;
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[key_scratch[i] & mask_], /*rw=*/0,
                       /*locality=*/1);
#endif
  }
}

bool PairUtilityCache::probe(pubsub::SetId a, pubsub::SetId b,
                             double& value) const {
  VITIS_DCHECK(a != pubsub::kInvalidSetId && b != pubsub::kInvalidSetId);
  if (!enabled()) return false;
  const std::uint64_t key = pair_key(a, b);
  const std::uint64_t start = ids::mix64(key) & mask_;
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    const Slot& slot = slots_[(start + i) & mask_];
    // A valid pair's key is never kEmptyKey, so empty slots cannot hit.
    if (slot.key == key) {
      value = slot.value;
      return true;
    }
  }
  return false;
}

bool PairUtilityCache::lookup(pubsub::SetId a, pubsub::SetId b,
                              double& value) {
  const bool hit = probe(a, b, value);
  ++(hit ? stats_.hits : stats_.misses);
  return hit;
}

bool PairUtilityCache::lookup(pubsub::SetId a, pubsub::SetId b, double& value,
                              std::size_t lane) {
  const bool hit = probe(a, b, value);
  Lane& counts = lanes_[lane];
  ++(hit ? counts.hits : counts.misses);
  return hit;
}

void PairUtilityCache::configure_lanes(std::size_t lanes) {
  lanes_.assign(lanes == 0 ? 1 : lanes, Lane{});
}

void PairUtilityCache::defer_insert(pubsub::SetId a, pubsub::SetId b,
                                    double value, std::size_t lane) {
  VITIS_DCHECK(a != pubsub::kInvalidSetId && b != pubsub::kInvalidSetId);
  lanes_[lane].inserts.push_back(Pending{pair_key(a, b), value});
}

void PairUtilityCache::commit_lanes() {
  // A queued insert lands on a probe window its lookup touched a whole
  // wave ago, which has left the cache since: hint each window a few
  // inserts ahead so the misses overlap instead of serializing.
  constexpr std::size_t kAhead = 8;
  for (Lane& lane : lanes_) {
    const std::vector<Pending>& inserts = lane.inserts;
    for (std::size_t i = 0; enabled() && i < inserts.size(); ++i) {
#if defined(__GNUC__) || defined(__clang__)
      if (i + kAhead < inserts.size()) {
        const std::uint64_t ahead = ids::mix64(inserts[i + kAhead].key);
        __builtin_prefetch(&slots_[ahead & mask_], /*rw=*/1, /*locality=*/1);
      }
#endif
      insert_key(inserts[i].key, inserts[i].value);
    }
    lane.inserts.clear();
    stats_.hits += lane.hits;
    stats_.misses += lane.misses;
    lane.hits = 0;
    lane.misses = 0;
  }
}

void PairUtilityCache::insert(pubsub::SetId a, pubsub::SetId b,
                              double value) {
  VITIS_DCHECK(a != pubsub::kInvalidSetId && b != pubsub::kInvalidSetId);
  if (!enabled()) return;
  insert_key(pair_key(a, b), value);
}

void PairUtilityCache::insert_key(std::uint64_t key, double value) {
  const std::uint64_t start = ids::mix64(key) & mask_;
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    Slot& slot = slots_[(start + i) & mask_];
    if (slot.key == kEmptyKey || slot.key == key) {
      slot = Slot{key, value};
      return;
    }
  }
  // Window full of live entries: deterministically overwrite the
  // probe-start slot. No recency bookkeeping — the rule depends only on
  // the insertion sequence, which is deterministic per (seed, scale).
  ++stats_.evictions;
  slots_[start] = Slot{key, value};
}

bool utility_cache_env_enabled() {
  const auto value = support::env_string("VITIS_UTILITY_CACHE");
  if (!value.has_value()) return true;
  return *value != "off" && *value != "0";
}

UtilityFunction::UtilityFunction(std::span<const double> rates)
    : rates_(rates.begin(), rates.end()), stamp_(rates_.size(), 0) {
  VITIS_CHECK(rates_.size() < kTopicSentinel);
  for (const double r : rates_) {
    VITIS_CHECK(r >= 0.0);
    if (r != 1.0) all_ones_ = false;
  }
}

UtilityFunction UtilityFunction::uniform(std::size_t topic_count) {
  return UtilityFunction(std::vector<double>(topic_count, 1.0));
}

double UtilityFunction::operator()(const pubsub::SubscriptionSet& a,
                                   const pubsub::SubscriptionSet& b) const {
  ++prefilter_stats_.calls;
  if (prefilter_enabled_ &&
      pubsub::fingerprints_disjoint(a.fingerprint(), b.fingerprint())) {
    ++prefilter_stats_.rejects;  // proven disjoint: exact merge would be 0
    return 0.0;
  }
  const double shared = pubsub::weighted_intersection(a, b, rates_);
  if (shared == 0.0) return 0.0;  // avoids the union scan for strangers
  const double combined = pubsub::weighted_union(a, b, rates_);
  return combined == 0.0 ? 0.0 : shared / combined;
}

void UtilityFunction::prepare(const pubsub::SubscriptionSet& a,
                              pubsub::SetId a_id) const {
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: invalidate every stale stamp
    std::fill(stamp_.begin(), stamp_.end(), 0U);
    epoch_ = 1;
  }
  for (const ids::TopicIndex topic : a) {
    VITIS_DCHECK(topic < stamp_.size());
    stamp_[topic] = epoch_;
  }
  if (!all_ones_) {
    // Amortized allocation-free: keeps its high-water capacity.
    prepared_topics_.assign(a.begin(), a.end());
    prepared_topics_.push_back(kTopicSentinel);
  }
  prepared_ = &a;
  prepared_fp_ = a.fingerprint();
  prepared_size_ = a.size();
  prepared_id_ = a_id;
}

double UtilityFunction::score(const pubsub::SubscriptionSet& b,
                              pubsub::SetId b_id) const {
  // The memo only engages when the merge it replaces is expensive: skewed
  // rates pay a union sum per overlapping pair. With all-ones rates the
  // stamped count path costs ~tens of ns — cheaper than a probe into a
  // figure-scale table — so uniform-rate workloads keep the plain path
  // (measured: an always-on memo regressed uniform fig04 ranking ~1.5x
  // while winning on skewed fig07).
  if (!all_ones_ && cache_ != nullptr && cache_->enabled() &&
      prepared_id_ != pubsub::kInvalidSetId &&
      b_id != pubsub::kInvalidSetId) {
    // Prefilter before the probe: a proven-disjoint pair is exactly the
    // zero the merge would produce, and the fingerprint AND is cheaper
    // than any table access — so zero-score pairs never occupy slots and
    // the memo's working set stays the overlapping pairs only.
    ++prefilter_stats_.calls;
    if (prefilter_enabled_ &&
        pubsub::fingerprints_disjoint(prepared_fp_, b.fingerprint())) {
      ++prefilter_stats_.rejects;
      return 0.0;
    }
    double cached = 0.0;
    if (memo_lookup(b_id, cached)) return cached;
    const double fresh = score_merge(b);
    memo_insert(b_id, fresh);
    return fresh;
  }
  return score_fresh(b);
}

double UtilityFunction::score_fresh(const pubsub::SubscriptionSet& b) const {
  VITIS_DCHECK(prepared_ != nullptr);
  ++prefilter_stats_.calls;
  if (prefilter_enabled_ &&
      pubsub::fingerprints_disjoint(prepared_fp_, b.fingerprint())) {
    ++prefilter_stats_.rejects;
    return 0.0;
  }
  return score_merge(b);
}

double UtilityFunction::score_merge(const pubsub::SubscriptionSet& b) const {
  if (all_ones_) {
    // All-ones rates: the merged sums are exact integer counts, so the
    // stamped count divides out bit-identically to the merge path. The
    // count itself is an order-free integer reduction, so it runs through
    // the SIMD gather kernel (8 stamps per step on AVX2; same result on
    // the scalar path by construction).
    const auto topics = b.topics();
#if !defined(NDEBUG)
    for (const ids::TopicIndex topic : topics) {
      VITIS_DCHECK(topic < stamp_.size());
    }
#endif
    const std::size_t shared = support::simd::stamped_count(
        topics.data(), topics.size(), stamp_.data(), epoch_);
    if (shared == 0) return 0.0;
    const auto combined = prepared_size_ + b.size() - shared;
    return static_cast<double>(shared) / static_cast<double>(combined);
  }
  // Skewed rates: the shared topics are visited ascending (b is sorted),
  // matching the merge's addition order exactly. The per-candidate
  // reference keeps the two-sided merge for the union sum; BatchScorer
  // runs the exact union kernel instead (split_shared, union_sums).
  double shared = 0.0;
  for (const ids::TopicIndex topic : b) {
    VITIS_DCHECK(topic < stamp_.size());
    if (stamp_[topic] == epoch_) shared += rates_[topic];
  }
  if (shared == 0.0) return 0.0;
  const double combined = pubsub::weighted_union(*prepared_, b, rates_);
  return combined == 0.0 ? 0.0 : shared / combined;
}

void UtilityFunction::prefilter_batch(const std::uint64_t* fingerprints,
                                      std::size_t n,
                                      std::uint8_t* rejected) const {
  VITIS_DCHECK(prepared_ != nullptr);
  prefilter_stats_.calls += n;
  if (!prefilter_enabled_) {
    // Every candidate pays the merge, exactly like score() (and disjoint
    // pairs still probe the memo).
    std::fill_n(rejected, n, std::uint8_t{0});
    return;
  }
  support::simd::disjoint_mask(prepared_fp_, fingerprints, n, rejected);
  std::uint64_t rejects = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // The SIMD mask must agree with the scalar prefilter exactly — the
    // verdict is batched, never relaxed.
    VITIS_DCHECK((rejected[i] != 0) ==
                 pubsub::fingerprints_disjoint(prepared_fp_, fingerprints[i]));
    rejects += rejected[i];
  }
  prefilter_stats_.rejects += rejects;
}

double UtilityFunction::split_shared(const pubsub::SubscriptionSet& b,
                                     ids::TopicIndex* rest,
                                     std::size_t& rest_size) const {
  VITIS_DCHECK(prepared_ != nullptr && !all_ones_);
  double shared = 0.0;
  std::size_t n = 0;
  for (const ids::TopicIndex topic : b) {
    VITIS_DCHECK(topic < stamp_.size());
    const bool in_a = stamp_[topic] == epoch_;
    if (in_a) shared += rates_[topic];
    rest[n] = topic;
    n += !in_a;
  }
  rest[n] = kTopicSentinel;
  rest_size = n;
  return shared;
}

void UtilityFunction::union_sums(
    std::span<const std::span<const ids::TopicIndex>> rests,
    double* sums) const {
  VITIS_DCHECK(prepared_ != nullptr && !all_ones_);
#if !defined(NDEBUG)
  for (const std::span<const ids::TopicIndex> rest : rests) {
    VITIS_DCHECK(rest.data()[rest.size()] == kTopicSentinel);
  }
#endif
  VITIS_CHECK(!rests.empty() && rests.size() <= 4);
  const ids::TopicIndex* prepared = prepared_topics_.data();
  const double* rates = rates_.data();
  switch (rests.size()) {
    case 1:
      union_group<1>(prepared, prepared_size_, rests, rates, sums);
      break;
    case 2:
      union_group<2>(prepared, prepared_size_, rests, rates, sums);
      break;
    case 3:
      union_group<3>(prepared, prepared_size_, rests, rates, sums);
      break;
    default:
      union_group<4>(prepared, prepared_size_, rests, rates, sums);
      break;
  }
}

}  // namespace vitis::core
