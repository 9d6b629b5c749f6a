#include "gp/gp_regressor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "exec/exec.hpp"

namespace autra::gp {

namespace {

/// Log marginal likelihood for a given factorisation:
/// -1/2 y^T alpha - sum log L_ii - n/2 log(2 pi).
double compute_log_ml(const linalg::Cholesky& chol, const linalg::Vector& y,
                      const linalg::Vector& alpha) {
  double fit = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) fit += y[i] * alpha[i];
  const double n = static_cast<double>(y.size());
  return -0.5 * fit - 0.5 * chol.log_determinant() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

/// FNV-1a over a byte range, chained through `h`.
std::uint64_t fnv1a_bytes(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fingerprint of a training set: shape plus the raw bytes of X and y.
/// Bitwise-equal inputs (the only case fit() may skip) hash equal.
std::uint64_t fingerprint_of(const linalg::Matrix& x, const linalg::Vector& y) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::uint64_t shape[2] = {x.rows(), x.cols()};
  h = fnv1a_bytes(shape, sizeof(shape), h);
  h = fnv1a_bytes(x.data().data(), x.data().size() * sizeof(double), h);
  h = fnv1a_bytes(y.data(), y.size() * sizeof(double), h);
  return h;
}

}  // namespace

double Prediction::stddev() const noexcept { return std::sqrt(variance); }

GpRegressor::GpRegressor(GpConfig config)
    : config_(std::move(config)),
      kernel_(make_kernel(config_.kernel, config_.signal_variance,
                          config_.length_scale)) {}

GpRegressor::GpRegressor(const GpRegressor& other)
    : config_(other.config_),
      kernel_(other.kernel_->clone()),
      fitted_(other.fitted_),
      x_raw_(other.x_raw_),
      y_raw_(other.y_raw_),
      fingerprint_(other.fingerprint_),
      observe_count_(other.observe_count_),
      x_(other.x_),
      y_(other.y_),
      x_offset_(other.x_offset_),
      x_scale_(other.x_scale_),
      x_lo_(other.x_lo_),
      x_hi_(other.x_hi_),
      y_mean_(other.y_mean_),
      y_std_(other.y_std_),
      chol_(other.chol_),
      alpha_(other.alpha_),
      log_ml_(other.log_ml_),
      jitter_(other.jitter_),
      stats_(other.stats_) {}

GpRegressor& GpRegressor::operator=(const GpRegressor& other) {
  if (this != &other) {
    GpRegressor copy(other);
    *this = std::move(copy);
  }
  return *this;
}

void GpRegressor::fit(const linalg::Matrix& x, const linalg::Vector& y) {
  if (x.rows() == 0 || x.cols() == 0) {
    throw std::invalid_argument("GpRegressor::fit: empty training data");
  }
  if (x.rows() != y.size()) {
    throw std::invalid_argument("GpRegressor::fit: X/y size mismatch");
  }
  const std::uint64_t fp = fingerprint_of(x, y);
  if (fitted_ && fp == fingerprint_) {
    ++stats_.fingerprint_hits;
    return;
  }
  x_raw_ = x;
  y_raw_ = y;
  fingerprint_ = fp;
  fit_from_raw();
}

void GpRegressor::fit_from_raw() {
  const std::size_t n = x_raw_.rows();
  const std::size_t d = x_raw_.cols();

  // Input normalisation to [0, 1] per dimension (constant dims map to 0).
  // The data box is frozen here: observe() extends the factor only for
  // points inside it, which is exactly the condition under which a batch
  // refit would derive the same offset/scale.
  x_offset_.assign(d, 0.0);
  x_scale_.assign(d, 1.0);
  x_lo_.assign(d, 0.0);
  x_hi_.assign(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    double lo = x_raw_(0, j), hi = x_raw_(0, j);
    for (std::size_t i = 1; i < n; ++i) {
      lo = std::min(lo, x_raw_(i, j));
      hi = std::max(hi, x_raw_(i, j));
    }
    x_lo_[j] = lo;
    x_hi_[j] = hi;
    x_offset_[j] = lo;
    x_scale_[j] = (hi > lo) ? (hi - lo) : 1.0;
  }
  x_ = linalg::Matrix(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      x_(i, j) = (x_raw_(i, j) - x_offset_[j]) / x_scale_[j];
    }
  }

  refresh_targets();

  fitted_ = true;
  observe_count_ = 0;
  ++stats_.full_fits;

  if (!config_.optimize_hyperparams || n < 3) {
    refit_factorisation();
    return;
  }

  // Multi-start grid search over (signal variance, length scale) maximising
  // the log marginal likelihood. With standardised targets the optimal
  // signal variance is near 1, so a modest grid around it suffices. Each
  // grid point is an independent kernel build + Cholesky + log-ML, so the
  // grid is evaluated in parallel; the argmax scan runs serially in grid
  // order, which keeps the selected hyper-parameters bit-identical at any
  // thread count.
  const int g = std::max(2, config_.grid_points);
  struct GridPoint {
    double sv = 1.0;
    double ls = 1.0;
  };
  std::vector<GridPoint> grid;
  grid.reserve(static_cast<std::size_t>(g) * static_cast<std::size_t>(g));
  for (int a = 0; a < g; ++a) {
    // Signal variance grid: log-spaced in [0.1, 10].
    const double sv =
        std::exp(std::log(0.1) + (std::log(10.0) - std::log(0.1)) *
                                     static_cast<double>(a) /
                                     static_cast<double>(g - 1));
    for (int b = 0; b < g; ++b) {
      const double ls = std::exp(
          std::log(config_.min_length_scale) +
          (std::log(config_.max_length_scale) -
           std::log(config_.min_length_scale)) *
              static_cast<double>(b) / static_cast<double>(g - 1));
      grid.push_back({sv, ls});
    }
  }

  const exec::ExecContext ctx(config_.threads);
  const std::vector<double> log_mls = exec::parallel_map(
      ctx, grid.size(), [&](std::size_t i) {
        const auto kernel = kernel_->clone();
        kernel->set_signal_variance(grid[i].sv);
        kernel->set_length_scale(grid[i].ls);
        linalg::Matrix k = kernel->gram(x_);
        k.add_diagonal(config_.noise_variance);
        const auto chol = linalg::Cholesky::factor(k);
        if (!chol) return -std::numeric_limits<double>::infinity();
        const linalg::Vector alpha = chol->solve(y_);
        return compute_log_ml(*chol, y_, alpha);
      });

  double best_ml = -std::numeric_limits<double>::infinity();
  GridPoint best;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (log_mls[i] > best_ml) {
      best_ml = log_mls[i];
      best = grid[i];
    }
  }
  kernel_->set_signal_variance(best.sv);
  kernel_->set_length_scale(best.ls);
  refit_factorisation();
}

void GpRegressor::refit_factorisation() {
  linalg::Matrix k = kernel_->gram(x_);
  k.add_diagonal(config_.noise_variance);
  chol_ = linalg::Cholesky::factor_with_jitter(std::move(k), 1e-10, 1e-2,
                                               &jitter_);
  alpha_ = chol_->solve(y_);
  log_ml_ = compute_log_ml(*chol_, y_, alpha_);
}

void GpRegressor::refresh_targets() {
  // Identical floating-point op order to the historical batch fit(): a
  // posterior built through observe() must match a from-scratch fit on the
  // same raw window bit-for-bit on the y side.
  const std::size_t n = y_raw_.size();
  double mean = 0.0;
  for (double v : y_raw_) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : y_raw_) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n);
  y_mean_ = mean;
  y_std_ = var > 1e-12 ? std::sqrt(var) : 1.0;
  y_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) y_[i] = (y_raw_[i] - y_mean_) / y_std_;
}

void GpRegressor::observe(std::span<const double> x, double y) {
  if (!fitted_) {
    throw std::logic_error("GpRegressor::observe: model not fitted");
  }
  if (x.size() != x_raw_.cols()) {
    throw std::invalid_argument("GpRegressor::observe: dimension mismatch");
  }

  x_raw_.append_row(x);
  y_raw_.push_back(y);
  bool evicted = false;
  if (config_.max_observations > 0 &&
      x_raw_.rows() > static_cast<std::size_t>(config_.max_observations)) {
    x_raw_.drop_first_row();
    y_raw_.erase(y_raw_.begin());
    evicted = true;
    ++stats_.window_evictions;
  }
  fingerprint_ = fingerprint_of(x_raw_, y_raw_);
  ++observe_count_;

  // Fallback ladder: conditions under which the cached factor cannot be
  // extended exactly, each falling back to (and counted as) a full refit.
  if (config_.optimize_hyperparams && config_.reoptimize_every > 0 &&
      observe_count_ %
              static_cast<std::uint64_t>(config_.reoptimize_every) ==
          0) {
    ++stats_.hyperparam_refits;
    fit_from_raw();
    return;
  }
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] < x_lo_[j] || x[j] > x_hi_[j]) {
      ++stats_.normalisation_refits;
      fit_from_raw();
      return;
    }
  }
  if (jitter_ > 0.0) {
    ++stats_.jitter_refits;
    fit_from_raw();
    return;
  }

  // Incremental path: O(n^2) factor surgery instead of the O(n^3) refit.
  if (evicted) {
    chol_->drop_first();
    x_.drop_first_row();
  }
  const std::vector<double> z = normalize_point(x);
  const linalg::Vector k_star = kernel_->cross(x_, z);
  try {
    chol_->append_row(k_star, kernel_->diagonal() + config_.noise_variance);
  } catch (const std::runtime_error&) {
    ++stats_.jitter_refits;
    fit_from_raw();
    return;
  }
  x_.append_row(z);
  refresh_targets();
  alpha_ = chol_->solve(y_);
  log_ml_ = compute_log_ml(*chol_, y_, alpha_);
  ++stats_.incremental_updates;
}

GpSnapshot GpRegressor::snapshot() const {
  if (!fitted_) {
    throw std::logic_error("GpRegressor::snapshot: model not fitted");
  }
  GpSnapshot s;
  s.kernel = kernel_->kind();
  s.signal_variance = kernel_->signal_variance();
  s.length_scale = kernel_->length_scale();
  s.noise_variance = config_.noise_variance;
  s.jitter = jitter_;
  s.observe_count = observe_count_;
  s.x_lo = x_lo_;
  s.x_hi = x_hi_;
  s.x = x_raw_;
  s.y = y_raw_;
  s.l = chol_->lower();
  return s;
}

void GpRegressor::restore(const GpSnapshot& snap) {
  const std::size_t n = snap.x.rows();
  const std::size_t d = snap.x.cols();
  if (n == 0 || d == 0) {
    throw std::invalid_argument("GpRegressor::restore: empty snapshot");
  }
  if (snap.y.size() != n || snap.l.rows() != n || snap.l.cols() != n ||
      snap.x_lo.size() != d || snap.x_hi.size() != d) {
    throw std::invalid_argument(
        "GpRegressor::restore: inconsistent snapshot shapes");
  }

  config_.kernel = snap.kernel;
  config_.noise_variance = snap.noise_variance;
  kernel_ = make_kernel(snap.kernel, snap.signal_variance, snap.length_scale);

  x_raw_ = snap.x;
  y_raw_ = snap.y;
  x_lo_ = snap.x_lo;
  x_hi_ = snap.x_hi;
  x_offset_.assign(d, 0.0);
  x_scale_.assign(d, 1.0);
  for (std::size_t j = 0; j < d; ++j) {
    x_offset_[j] = x_lo_[j];
    x_scale_[j] = (x_hi_[j] > x_lo_[j]) ? (x_hi_[j] - x_lo_[j]) : 1.0;
  }
  x_ = linalg::Matrix(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      x_(i, j) = (x_raw_(i, j) - x_offset_[j]) / x_scale_[j];
    }
  }
  refresh_targets();
  // The serialised factor is adopted verbatim — an incrementally built L
  // differs from a refactorisation in the low bits, and bit-identity of
  // subsequent decisions depends on keeping exactly it.
  chol_ = linalg::Cholesky::from_lower(snap.l);
  alpha_ = chol_->solve(y_);
  log_ml_ = compute_log_ml(*chol_, y_, alpha_);
  jitter_ = snap.jitter;
  observe_count_ = snap.observe_count;
  fingerprint_ = fingerprint_of(x_raw_, y_raw_);
  fitted_ = true;
}

std::vector<double> GpRegressor::normalize_point(
    std::span<const double> x_star) const {
  if (x_star.size() != x_.cols()) {
    throw std::invalid_argument("GpRegressor::predict: dimension mismatch");
  }
  std::vector<double> z(x_star.size());
  for (std::size_t j = 0; j < z.size(); ++j) {
    z[j] = (x_star[j] - x_offset_[j]) / x_scale_[j];
  }
  return z;
}

Prediction GpRegressor::predict(std::span<const double> x_star) const {
  if (!fitted_) {
    throw std::logic_error("GpRegressor::predict: model not fitted");
  }
  const std::vector<double> z = normalize_point(x_star);
  const linalg::Vector k_star = kernel_->cross(x_, z);
  const double mean_n = linalg::dot(k_star, alpha_);
  const linalg::Vector v = chol_->solve_lower(k_star);
  double var_n = kernel_->diagonal() - linalg::dot(v, v);
  var_n = std::max(var_n, 0.0);

  Prediction p;
  p.mean = mean_n * y_std_ + y_mean_;
  p.variance = var_n * y_std_ * y_std_;
  return p;
}

double GpRegressor::log_marginal_likelihood() const {
  if (!fitted_) {
    throw std::logic_error(
        "GpRegressor::log_marginal_likelihood: model not fitted");
  }
  return log_ml_;
}

double GpRegressor::best_observed() const {
  if (!fitted_) {
    throw std::logic_error("GpRegressor::best_observed: model not fitted");
  }
  double best = -std::numeric_limits<double>::infinity();
  for (double v : y_) best = std::max(best, v);
  return best * y_std_ + y_mean_;
}

}  // namespace autra::gp
