// Cholesky factorisation and solves for symmetric positive-definite systems.
// This is the numerical core of the GP regressor: K = L L^T, alpha = K^-1 y,
// and log|K| all come from here.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"

namespace autra::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
class Cholesky {
 public:
  /// Factorises `a` (must be square, symmetric, positive definite).
  /// Returns std::nullopt if the matrix is not positive definite.
  [[nodiscard]] static std::optional<Cholesky> factor(const Matrix& a);

  /// Factorises `a + jitter*I`, growing the jitter by 10x (up to
  /// `max_jitter`) until the factorisation succeeds. Throws
  /// std::runtime_error if even the maximum jitter fails. This is the
  /// standard defence against nearly-singular GP kernel matrices built from
  /// duplicated sample points. When `applied_jitter` is non-null it
  /// receives the jitter that was actually added (0.0 when the plain
  /// factorisation succeeded) — the incremental GP only extends factors it
  /// knows to be jitter-free.
  [[nodiscard]] static Cholesky factor_with_jitter(
      Matrix a, double jitter = 1e-10, double max_jitter = 1e-2,
      double* applied_jitter = nullptr);

  /// Wraps an externally produced lower-triangular factor (e.g. one read
  /// back from a model snapshot). Entries above the diagonal are forced to
  /// zero. Throws std::invalid_argument unless `l` is square with strictly
  /// positive, finite diagonal entries.
  [[nodiscard]] static Cholesky from_lower(Matrix l);

  /// Factor extension: after the call this is the factor of the bordered
  /// matrix [[A, cross], [cross^T, diag]] — a new observation appended
  /// without refactorising, in O(n^2) (one triangular solve). Throws
  /// std::invalid_argument on size mismatch and std::runtime_error when
  /// the extended matrix is not positive definite (the factor is left
  /// untouched so the caller can fall back to a full refactorisation).
  void append_row(const Vector& cross, double diag);

  /// Removes the first row/column of A (the oldest point of a sliding
  /// observation window): the trailing (n-1)x(n-1) block is rank-1
  /// *updated* with the first column's sub-diagonal entries, in O(n^2).
  /// Throws std::logic_error when the factor has fewer than two rows.
  void drop_first();

  /// Solves L x = b (forward substitution).
  [[nodiscard]] Vector solve_lower(const Vector& b) const;

  /// Solves L^T x = b (back substitution).
  [[nodiscard]] Vector solve_upper(const Vector& b) const;

  /// Solves the full system (L L^T) x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// log|A| = 2 * sum(log L_ii).
  [[nodiscard]] double log_determinant() const noexcept;

  [[nodiscard]] const Matrix& lower() const noexcept { return l_; }
  [[nodiscard]] std::size_t size() const noexcept { return l_.rows(); }

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

}  // namespace autra::linalg
