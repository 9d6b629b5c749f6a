// Discrete integer search space for parallelism configurations.
//
// In AuTraScale the BO search space is the integer box
// [k'_i, P_max]^N (paper Sec. III-D): per-operator parallelism bounded below
// by the throughput-optimal configuration and above by the maximum
// parallelism the cluster resources allow.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace autra::bo {

/// A point in the search space: one parallelism per operator.
using Config = std::vector<int>;

/// Integer box [lower_i, upper_i] per dimension.
class SearchSpace {
 public:
  /// Throws std::invalid_argument if bounds are empty, of different length,
  /// or any lower bound exceeds its upper bound.
  SearchSpace(Config lower, Config upper);

  /// Uniform box [lo, hi]^dims.
  SearchSpace(std::size_t dims, int lo, int hi);

  [[nodiscard]] std::size_t dims() const noexcept { return lower_.size(); }
  [[nodiscard]] const Config& lower() const noexcept { return lower_; }

  [[nodiscard]] bool contains(const Config& c) const noexcept;

  /// Clamps each coordinate into its bounds.
  [[nodiscard]] Config clamp(Config c) const noexcept;

  /// Total number of points, saturating at max uint64 on overflow.
  [[nodiscard]] std::uint64_t cardinality() const noexcept;

  /// All points of the space in lexicographic order. Throws
  /// std::length_error if cardinality() exceeds `max_points`.
  [[nodiscard]] std::vector<Config> enumerate(
      std::uint64_t max_points = 200000) const;

  /// `n` points sampled uniformly at random (with replacement).
  [[nodiscard]] std::vector<Config> sample(std::size_t n,
                                           std::mt19937_64& rng) const;

  /// Candidate set for acquisition maximisation: full enumeration when the
  /// space is small, otherwise `budget` random samples plus the corners of
  /// the box. Duplicates are removed.
  [[nodiscard]] std::vector<Config> candidates(std::size_t budget,
                                               std::mt19937_64& rng) const;

  /// Local moves around `center`, clamped into the space: every single
  /// coordinate changed by ±1..±radius, every coordinate pair changed by
  /// ±1, and the all-coordinates ±1 steps. In a large discrete space
  /// random candidates almost never fall next to the incumbent, yet the
  /// optimum of a benefit surface usually does — mixing these in is what
  /// makes EI able to fine-tune a configuration.
  [[nodiscard]] std::vector<Config> local_candidates(const Config& center,
                                                     int radius = 2) const;

  /// Axis sweeps through `center`: for every dimension, `levels` values
  /// spread over [lower_i, upper_i] with the other coordinates fixed at
  /// (the clamped) center. These cover the coordinate profiles between the
  /// base configuration and the incumbent — where per-operator benefit
  /// surfaces put their optima — which neither random sampling nor +-2
  /// local moves reach in a large space.
  [[nodiscard]] std::vector<Config> axis_candidates(const Config& center,
                                                    int levels = 8) const;

 private:
  Config lower_;
  Config upper_;
};

/// Converts an integer config to the double feature vector the GP consumes.
[[nodiscard]] std::vector<double> to_features(const Config& c);

}  // namespace autra::bo
