// Mass-weighted latency statistics. The fluid engine contributes
// (latency, record-mass) pairs at the sink. LatencyMean keeps the exact
// mass-weighted mean; LatencyStats adds a deterministic log-bucketed
// histogram for percentile queries (Fig. 8(b) plots per-record latency
// distributions).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace autra::sim {

/// Exact mass-weighted mean: a (mass, weighted-sum) pair.
class LatencyMean {
 public:
  /// Adds `mass` records that each experienced `latency_sec`.
  void add(double latency_sec, double mass) noexcept {
    if (mass <= 0.0) return;
    total_mass_ += mass;
    weighted_sum_ += latency_sec * mass;
  }

  [[nodiscard]] double mean() const noexcept {
    return total_mass_ > 0.0 ? weighted_sum_ / total_mass_ : 0.0;
  }
  [[nodiscard]] double total_mass() const noexcept { return total_mass_; }
  [[nodiscard]] bool empty() const noexcept { return total_mass_ <= 0.0; }

  void reset() noexcept {
    total_mass_ = 0.0;
    weighted_sum_ = 0.0;
  }

 private:
  double total_mass_ = 0.0;
  double weighted_sum_ = 0.0;
};

/// LatencyMean plus a fixed-memory, mass-weighted, log-bucketed histogram
/// (HdrHistogram/DDSketch style). Each power-of-two octave in
/// [2^kMinExponent, 2^kMaxExponent) seconds is split into 2^kSubBucketBits
/// equal-width buckets; a bucket index is the IEEE-754 exponent and the top
/// kSubBucketBits mantissa bits of the latency, so add() needs no libm call,
/// no RNG and no loop.
///
/// Error bound: quantile() reports its bucket's midpoint clamped to the
/// exact [min, max] observed, so for latencies inside the range it is within
/// a relative kRelativeError = 2^-(kSubBucketBits + 1) (< 0.4%) of the exact
/// mass-weighted quantile. Latencies below the range (and non-positive
/// ones) share an underflow bucket reported as the exact min, so the error
/// there is below 2^kMinExponent s; latencies at or above it share an
/// overflow bucket reported as the exact max.
class LatencyStats {
 public:
  static constexpr int kSubBucketBits = 7;
  static constexpr int kMinExponent = -20;  ///< ~0.95 us.
  static constexpr int kMaxExponent = 20;   ///< ~12 days.
  /// In-range buckets plus the underflow and overflow buckets.
  static constexpr std::size_t kBuckets =
      (static_cast<std::size_t>(kMaxExponent - kMinExponent)
       << kSubBucketBits) + 2;
  static constexpr double kRelativeError =
      1.0 / static_cast<double>(2 << kSubBucketBits);

  LatencyStats();

  /// Adds `mass` records that each experienced `latency_sec`.
  void add(double latency_sec, double mass);

  [[nodiscard]] double mean() const noexcept { return mean_.mean(); }
  [[nodiscard]] double total_mass() const noexcept {
    return mean_.total_mass();
  }
  [[nodiscard]] bool empty() const noexcept { return mean_.empty(); }

  /// Mass-weighted quantile, q in [0, 1]: quantile(0) is the exact min and
  /// quantile(1) the exact max observed. Returns 0 when empty; throws
  /// std::invalid_argument for q outside [0,1].
  [[nodiscard]] double quantile(double q) const;

  /// Clears the accumulator, zeroing only the bucket range touched.
  void reset();

 private:
  LatencyMean mean_;
  std::vector<double> bucket_mass_;
  std::size_t lo_bucket_ = kBuckets;  ///< Touched range; empty when lo > hi.
  std::size_t hi_bucket_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace autra::sim
