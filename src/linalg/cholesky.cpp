#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

namespace autra::linalg {

std::optional<Cholesky> Cholesky::factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Cholesky::factor: matrix must be square");
  }
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0 || !std::isfinite(s)) return std::nullopt;
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  return Cholesky(std::move(l));
}

Cholesky Cholesky::factor_with_jitter(Matrix a, double jitter,
                                      double max_jitter,
                                      double* applied_jitter) {
  if (auto c = factor(a)) {
    if (applied_jitter != nullptr) *applied_jitter = 0.0;
    return std::move(*c);
  }
  for (double j = jitter; j <= max_jitter; j *= 10.0) {
    Matrix jittered = a;
    jittered.add_diagonal(j);
    if (auto c = factor(jittered)) {
      if (applied_jitter != nullptr) *applied_jitter = j;
      return std::move(*c);
    }
  }
  throw std::runtime_error(
      "Cholesky::factor_with_jitter: matrix not positive definite even with "
      "maximum jitter");
}

Cholesky Cholesky::from_lower(Matrix l) {
  if (l.rows() != l.cols() || l.rows() == 0) {
    throw std::invalid_argument(
        "Cholesky::from_lower: factor must be square and non-empty");
  }
  for (std::size_t i = 0; i < l.rows(); ++i) {
    if (!(l(i, i) > 0.0) || !std::isfinite(l(i, i))) {
      throw std::invalid_argument(
          "Cholesky::from_lower: diagonal must be positive and finite");
    }
    for (std::size_t j = i + 1; j < l.cols(); ++j) l(i, j) = 0.0;
  }
  return Cholesky(std::move(l));
}

namespace {

/// In-place rank-1 update sweep (standard `cholupdate` Givens rotations)
/// behind drop_first(): rewrites the lower-triangular `l` into the factor
/// of L L^T + v v^T. Consumes `v` as scratch.
void rank1_update_sweep(Matrix& l, Vector& v) {
  const std::size_t n = l.rows();
  for (std::size_t k = 0; k < n; ++k) {
    const double r = std::hypot(l(k, k), v[k]);
    const double c = r / l(k, k);
    const double s = v[k] / l(k, k);
    l(k, k) = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      l(i, k) = (l(i, k) + s * v[i]) / c;
      v[i] = c * v[i] - s * l(i, k);
    }
  }
}

}  // namespace

void Cholesky::append_row(const Vector& cross, double diag) {
  const std::size_t n = size();
  if (cross.size() != n) {
    throw std::invalid_argument("Cholesky::append_row: size mismatch");
  }
  const Vector l_row = solve_lower(cross);
  const double d2 = diag - dot(l_row, l_row);
  if (!(d2 > 0.0) || !std::isfinite(d2)) {
    throw std::runtime_error(
        "Cholesky::append_row: extended matrix is not positive definite");
  }
  Matrix grown(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l_(i, j);
  }
  for (std::size_t j = 0; j < n; ++j) grown(n, j) = l_row[j];
  grown(n, n) = std::sqrt(d2);
  l_ = std::move(grown);
}

void Cholesky::drop_first() {
  const std::size_t n = size();
  if (n < 2) {
    throw std::logic_error("Cholesky::drop_first: need at least two rows");
  }
  // With L = [[l00, 0], [l10, L11]], the trailing block of A satisfies
  // A22 = l10 l10^T + L11 L11^T, so chol(A22) is L11 rank-1 updated by l10.
  Vector v(n - 1);
  for (std::size_t i = 1; i < n; ++i) v[i - 1] = l_(i, 0);
  Matrix sub(n - 1, n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 1; j <= i; ++j) sub(i - 1, j - 1) = l_(i, j);
  }
  rank1_update_sweep(sub, v);
  l_ = std::move(sub);
}

Vector Cholesky::solve_lower(const Vector& b) const {
  const std::size_t n = size();
  if (b.size() != n) {
    throw std::invalid_argument("Cholesky::solve_lower: size mismatch");
  }
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l_(i, k) * x[k];
    x[i] = s / l_(i, i);
  }
  return x;
}

Vector Cholesky::solve_upper(const Vector& b) const {
  const std::size_t n = size();
  if (b.size() != n) {
    throw std::invalid_argument("Cholesky::solve_upper: size mismatch");
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * x[k];
    x[ii] = s / l_(ii, ii);
  }
  return x;
}

Vector Cholesky::solve(const Vector& b) const {
  return solve_upper(solve_lower(b));
}

double Cholesky::log_determinant() const noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < size(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

}  // namespace autra::linalg
