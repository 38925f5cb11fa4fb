// Deterministic distribution telemetry: fixed log-linear histograms over
// 64-bit values, registered per channel alongside the profiler's
// phase/counter channels.
//
// Unlike wall-clock telemetry, everything recorded here is DETERMINISTIC
// per (seed, scale): bucket counts are exact event tallies, so the
// artifact's `distributions` block (schema v7) must be bit-identical across
// `--jobs` and `--run-jobs`. Two properties make that hold:
//
//   * the bucket layout is a pure function of the value — log-linear with
//     kSubBits sub-bucket resolution per octave (HdrHistogram-style), fixed
//     at compile time, never rescaled or resized;
//   * concurrent recording goes through per-worker lanes (one cache line
//     apart) that are merged by bucket-wise SUM on read — addition is
//     associative and commutative over exact integers, so the merged
//     histogram is independent of which worker recorded which value.
//
// Recording is allocation-free and O(1): lanes are pre-sized by
// configure_workers() before the run (audited by tests/test_alloc_free).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace vitis::support {

/// The fixed distribution channels captured per run. Values are raw
/// simulation quantities (hops, cycles, entry counts, message tallies) —
/// never wall-clock readings, which belong to the profiler/telemetry side.
enum class Channel : std::uint8_t {
  kDeliveryHops = 0,    // per-delivery hop distance publisher -> subscriber
  kPublicationLatency,  // per-publication worst delivery hop (cycles of δt)
  kRelayPathLength,     // hops of each converged relay-setup route (Vitis'
                        // gateways, RVR's resubscribing subscribers)
  kRoutingTableSize,    // routing-table occupancy, per node per cycle
  kNodeMessages,        // per-node message totals over the whole run
  kStageActivations,    // alive-node count per engine stage pass
};

inline constexpr std::size_t kChannelCount = 6;

[[nodiscard]] const char* to_string(Channel channel);

/// One log-linear histogram: exact counts for values < 2^(kSubBits), then
/// 2^kSubBits sub-buckets per octave (~12.5% relative resolution at
/// kSubBits = 3) all the way to 2^64 - 1. The layout is fixed — 496 buckets,
/// ~4 KB — so record() is a handful of scalar ops and never allocates.
class Histogram {
 public:
  static constexpr std::size_t kSubBits = 3;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;  // 8
  // Values below kSub get one exact bucket each; each of the remaining
  // 64 - kSubBits octaves [2^m, 2^(m+1)) with m >= kSubBits splits into
  // kSub sub-buckets.
  static constexpr std::size_t kBucketCount = kSub + (64 - kSubBits) * kSub;

  /// Bucket index for a value — pure function of the value alone.
  [[nodiscard]] static constexpr std::size_t bucket_index(
      std::uint64_t value) {
    if (value < kSub) return static_cast<std::size_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const auto sub = static_cast<std::size_t>(
        (value >> (static_cast<std::size_t>(msb) - kSubBits)) & (kSub - 1));
    return kSub * (static_cast<std::size_t>(msb) - kSubBits + 1) + sub;
  }

  struct Bounds {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };

  /// Inclusive value range [lo, hi] covered by bucket `index`.
  [[nodiscard]] static constexpr Bounds bucket_bounds(std::size_t index) {
    if (index < kSub) return Bounds{index, index};
    const std::size_t block = index >> kSubBits;  // >= 1
    const std::size_t sub = index & (kSub - 1);
    const std::uint64_t lo = static_cast<std::uint64_t>(kSub + sub)
                             << (block - 1);
    const std::uint64_t width = std::uint64_t{1} << (block - 1);
    return Bounds{lo, lo + width - 1};
  }

  void record(std::uint64_t value) {
    ++buckets_[bucket_index(value)];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
  }

  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  void reset() {
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
    max_ = 0;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t index) const {
    return buckets_[index];
  }

  /// The q-quantile as the upper bound of the bucket holding the
  /// ceil(q·count)-th smallest recorded value, clamped to the exact maximum
  /// (so quantile(1.0) == max()). 0 for an empty histogram. Deterministic:
  /// derived from exact integer bucket counts only.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Fixed-width linear binning over [lo, hi) for figure axes with a known
/// range (Fig. 5's 0..100% overhead deciles); values outside are clamped to
/// the boundary bins so no sample is lost. Keeps the raw samples so tail
/// queries ("fraction of nodes >= 20% overhead") are exact rather than
/// bin-resolved. This is the analysis-side complement of the telemetry
/// Histogram above — one module owns both so figure code has a single
/// histogram home (the former analysis/histogram.hpp duplicate is gone).
class LinearHistogram {
 public:
  LinearHistogram(double lo, double hi, std::size_t bins);

  void add(double value);
  void add_all(std::span<const double> values);

  [[nodiscard]] std::uint64_t count(std::size_t bin) const {
    return counts_[bin];
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Fraction of samples in a bin (0 when empty).
  [[nodiscard]] double fraction(std::size_t bin) const;

  /// Center of a bin, for plotting.
  [[nodiscard]] double bin_center(std::size_t bin) const;

  /// Fraction of samples with value >= threshold (exact, from the raw
  /// samples — never approximated through the binning).
  [[nodiscard]] double tail_fraction(double threshold) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::vector<double> samples_;  // kept for exact tail queries
  std::uint64_t total_ = 0;
};

/// The per-run channel registry: one Histogram per Channel per worker lane.
/// Stage bodies record into their worker's lane (no sharing, no atomics);
/// serial callers use the default lane 0. merged() sums lanes bucket-wise,
/// so the result is bit-identical for any worker count.
class HistogramSet {
 public:
  HistogramSet() : lanes_(1) {}

  /// Size the per-worker lanes (>= 1). Existing counts are preserved in the
  /// lanes that remain; call before the run, never from stage bodies.
  void configure_workers(std::size_t workers) {
    lanes_.resize(workers == 0 ? 1 : workers);
  }

  [[nodiscard]] std::size_t workers() const { return lanes_.size(); }

  void record(Channel channel, std::uint64_t value, std::size_t worker = 0) {
    VITIS_DCHECK(worker < lanes_.size());
    lanes_[worker].channels[static_cast<std::size_t>(channel)].record(value);
  }

  /// Clear one channel across every lane (used by the lazy end-of-run
  /// channels that re-derive their contents on each export).
  void reset_channel(Channel channel) {
    for (Lane& lane : lanes_) {
      lane.channels[static_cast<std::size_t>(channel)].reset();
    }
  }

  void reset() {
    for (Lane& lane : lanes_) {
      for (Histogram& h : lane.channels) h.reset();
    }
  }

  /// Lane-merged view of one channel.
  [[nodiscard]] Histogram merged(Channel channel) const {
    Histogram merged;
    for (const Lane& lane : lanes_) {
      merged.merge(lane.channels[static_cast<std::size_t>(channel)]);
    }
    return merged;
  }

  /// Lane-merged view of every channel, indexed by Channel.
  [[nodiscard]] std::array<Histogram, kChannelCount> merged_all() const {
    std::array<Histogram, kChannelCount> all;
    for (std::size_t c = 0; c < kChannelCount; ++c) {
      all[c] = merged(static_cast<Channel>(c));
    }
    return all;
  }

 private:
  struct alignas(64) Lane {
    std::array<Histogram, kChannelCount> channels{};
  };
  std::vector<Lane> lanes_;
};

}  // namespace vitis::support
