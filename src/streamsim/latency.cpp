#include "streamsim/latency.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace autra::sim {

namespace {

// A positive double's bits shifted right by kShift are its biased exponent
// followed by its top kSubBucketBits mantissa bits: monotone in the value.
// The offset puts 2^kMinExponent in bucket 1, after the underflow bucket.
constexpr int kShift = 52 - LatencyStats::kSubBucketBits;
constexpr std::int64_t kBiasedMinExponent = 1023 + LatencyStats::kMinExponent;
constexpr std::int64_t kKeyOffset =
    (kBiasedMinExponent << LatencyStats::kSubBucketBits) - 1;
constexpr std::size_t kOverflow = LatencyStats::kBuckets - 1;

std::size_t bucket_of(double latency_sec) {
  // Non-positive (and NaN) latencies join the underflow.
  const double v = latency_sec > 0.0 ? latency_sec : 0.0;
  const std::int64_t key =
      static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(v) >> kShift) -
      kKeyOffset;
  return static_cast<std::size_t>(
      std::clamp<std::int64_t>(key, 0, static_cast<std::int64_t>(kOverflow)));
}

/// The exact midpoint of in-range bucket b: its lower edge with the
/// mantissa bit just below the bucket bits set.
double midpoint(std::size_t b) {
  const std::uint64_t key = static_cast<std::uint64_t>(b) +
                            static_cast<std::uint64_t>(kKeyOffset);
  return std::bit_cast<double>((key << kShift) |
                               (std::uint64_t{1} << (kShift - 1)));
}

}  // namespace

LatencyStats::LatencyStats() : bucket_mass_(kBuckets, 0.0) {}

void LatencyStats::add(double latency_sec, double mass) {
  if (mass <= 0.0) return;
  mean_.add(latency_sec, mass);
  const std::size_t b = bucket_of(latency_sec);
  bucket_mass_[b] += mass;
  lo_bucket_ = std::min(lo_bucket_, b);
  hi_bucket_ = std::max(hi_bucket_, b);
  min_ = std::min(min_, latency_sec);
  max_ = std::max(max_, latency_sec);
}

double LatencyStats::quantile(double q) const {
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("LatencyStats::quantile: q outside [0,1]");
  }
  if (empty()) return 0.0;
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  // First bucket whose cumulative mass reaches q of the total.
  const double target = q * total_mass();
  double cumulative = 0.0;
  for (std::size_t b = lo_bucket_; b <= hi_bucket_; ++b) {
    cumulative += bucket_mass_[b];
    if (cumulative >= target) {
      if (b == 0) return min_;
      if (b == kOverflow) return max_;
      return std::min(std::max(midpoint(b), min_), max_);
    }
  }
  return max_;  // Rounding left the bucket sums just short of the total.
}

void LatencyStats::reset() {
  for (std::size_t b = lo_bucket_; b <= hi_bucket_; ++b) bucket_mass_[b] = 0.0;
  mean_.reset();
  lo_bucket_ = kBuckets;
  hi_bucket_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

}  // namespace autra::sim
