#include "core/batch_score.hpp"

#include <algorithm>
#include <array>

#include "ids/hash.hpp"
#include "support/check.hpp"

namespace vitis::core {

void BatchScorer::score_all(const UtilityFunction& utility) {
  const std::size_t n = nodes_.size();
  scores_.resize(n);
  rejects_.resize(n);
  if (n == 0) return;
  utility.prefilter_batch(fingerprints_.data(), n, rejects_.data());
  if (!utility.uniform_rates()) {
    score_skewed(utility);
    return;
  }
  // All-ones rates: the stamped count costs tens of ns, and no memo is
  // consulted, so each candidate is scored in place.
  for (std::size_t i = 0; i < n; ++i) {
    scores_[i] = rejects_[i] != 0 ? 0.0 : utility.score_merge(*sets_[i]);
  }
}

void BatchScorer::score_skewed(const UtilityFunction& utility) {
  const std::size_t n = nodes_.size();
  const bool memo = utility.memo_engaged();
  if (memo) {
    utility.cache()->prefetch_batch(utility.prepared_set_id(),
                                    {ids_.data(), n}, {rejects_.data(), n},
                                    key_scratch_);
  }
  // Pass 1, in pool order: every lookup before any insert. The lane reads
  // the table as of the last commit, so this is the hit/miss sequence of
  // score() per candidate.
  queued_.clear();
  std::size_t rest_capacity = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rejects_[i] != 0) {
      scores_[i] = 0.0;
      continue;
    }
    if (memo && ids_[i] != pubsub::kInvalidSetId &&
        utility.memo_lookup(ids_[i], scores_[i])) {
      continue;
    }
    queued_.push_back(i);
    rest_capacity += sets_[i]->size() + 1;
  }

  // Pass 2: split each queued candidate into its shared sum and the topics
  // the prepared set lacks; a pair with nothing shared scores 0.0 with no
  // union work. The rest are merged four at a time.
  rest_.resize(rest_capacity);
  merges_.clear();
  std::size_t rest_end = 0;
  for (const std::size_t i : queued_) {
    std::size_t rest_size = 0;
    const double shared =
        utility.split_shared(*sets_[i], rest_.data() + rest_end, rest_size);
    if (shared == 0.0) {
      scores_[i] = 0.0;
      continue;
    }
    merges_.push_back(Merge{i, shared, rest_end, rest_size});
    rest_end += rest_size + 1;
  }
  std::array<std::span<const ids::TopicIndex>, 4> rests;
  std::array<double, 4> combined{};
  for (std::size_t group = 0; group < merges_.size(); group += 4) {
    const std::size_t width = std::min<std::size_t>(4, merges_.size() - group);
    for (std::size_t k = 0; k < width; ++k) {
      const Merge& merge = merges_[group + k];
      rests[k] = {rest_.data() + merge.rest_begin, merge.rest_size};
    }
    utility.union_sums({rests.data(), width}, combined.data());
    for (std::size_t k = 0; k < width; ++k) {
      const Merge& merge = merges_[group + k];
      scores_[merge.index] =
          combined[k] == 0.0 ? 0.0 : merge.shared / combined[k];
    }
  }

  // Pass 3: the misses' memo inserts, queued on the lane in pool order.
  if (memo) {
    for (const std::size_t i : queued_) {
      if (ids_[i] != pubsub::kInvalidSetId) {
        utility.memo_insert(ids_[i], scores_[i]);
      }
    }
  }
}

void rank_top_k(std::span<const double> scores,
                std::span<const ids::NodeIndex> nodes, std::uint64_t tie_salt,
                std::size_t k,
                std::vector<std::pair<double, std::size_t>>& ranked) {
  VITIS_DCHECK(scores.size() == nodes.size());
  ranked.clear();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    ranked.emplace_back(scores[i], i);
  }
  const auto ranks_before = [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return ids::mix64(tie_salt ^ nodes[a.second]) <
           ids::mix64(tie_salt ^ nodes[b.second]);
  };
  const std::size_t top = std::min(k, ranked.size());
  if (top < ranked.size()) {
    // Selecting with nth_element and sorting just the prefix yields exactly
    // the prefix a full sort would (the comparator is a strict total
    // order), at O(n + k log k) instead of O(n log n).
    std::nth_element(ranked.begin(),
                     ranked.begin() + static_cast<std::ptrdiff_t>(top),
                     ranked.end(), ranks_before);
    std::sort(ranked.begin(),
              ranked.begin() + static_cast<std::ptrdiff_t>(top),
              ranks_before);
    ranked.resize(top);
  } else {
    std::sort(ranked.begin(), ranked.end(), ranks_before);
  }
}

}  // namespace vitis::core
