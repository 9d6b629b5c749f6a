// Unit tests for the dense linear-algebra substrate.
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

#include <cmath>
#include <random>

#include <gtest/gtest.h>

namespace autra::linalg {
namespace {

// Test-local dense helpers for building SPD inputs and checking residuals.
Matrix eye(std::size_t n) {
  Matrix m(n, n);
  m.add_diagonal(1.0);
  return m;
}

/// B B^T.
Matrix gram(const Matrix& b) {
  Matrix out(b.rows(), b.rows());
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      out(i, j) = dot(b.row(i), b.row(j));
    }
  }
  return out;
}

/// A x.
Vector mat_vec(const Matrix& a, const Vector& x) {
  Vector out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) out[i] = dot(a.row(i), x);
  return out;
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, SizedConstructorFills) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, AddDiagonal) {
  Matrix a(3, 3, 1.0);
  a.add_diagonal(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
}

TEST(VectorOps, DotKnownValue) {
  EXPECT_DOUBLE_EQ(dot(Vector{1.0, 2.0, 3.0}, Vector{4.0, 5.0, 6.0}), 32.0);
}

TEST(VectorOps, DotLengthMismatchThrows) {
  EXPECT_THROW(dot(Vector{1.0}, Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(VectorOps, SquaredDistance) {
  EXPECT_DOUBLE_EQ(squared_distance(Vector{0.0, 0.0}, Vector{3.0, 4.0}), 25.0);
  EXPECT_THROW(squared_distance(Vector{1.0}, Vector{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Cholesky, KnownFactorisation) {
  // A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const auto c = Cholesky::factor(a);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->lower()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(c->lower()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(c->lower()(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, NonSquareThrows) {
  EXPECT_THROW(Cholesky::factor(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, IndefiniteReturnsNullopt) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::factor(a).has_value());
}

TEST(Cholesky, JitterRecoversNearSingular) {
  // Rank-one matrix: singular, needs jitter.
  const Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_NO_THROW({
    const Cholesky c = Cholesky::factor_with_jitter(a);
    EXPECT_GT(c.lower()(1, 1), 0.0);
  });
}

TEST(Cholesky, JitterGivesUpOnNegativeDefinite) {
  const Matrix a{{-5.0, 0.0}, {0.0, -5.0}};
  EXPECT_THROW(Cholesky::factor_with_jitter(a), std::runtime_error);
}

TEST(Cholesky, SolveKnownSystem) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const auto c = Cholesky::factor(a);
  ASSERT_TRUE(c);
  const Vector x = c->solve(Vector{8.0, 7.0});
  // Verify A x = b.
  const Vector b = mat_vec(a, x);
  EXPECT_NEAR(b[0], 8.0, 1e-10);
  EXPECT_NEAR(b[1], 7.0, 1e-10);
}

TEST(Cholesky, SolveSizeMismatchThrows) {
  const auto c = Cholesky::factor(eye(2));
  ASSERT_TRUE(c);
  EXPECT_THROW(c->solve(Vector{1.0, 2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(c->solve_lower(Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(c->solve_upper(Vector{1.0}), std::invalid_argument);
}

TEST(Cholesky, LogDeterminantIdentity) {
  const auto c = Cholesky::factor(eye(4));
  ASSERT_TRUE(c);
  EXPECT_NEAR(c->log_determinant(), 0.0, 1e-12);
}

TEST(Cholesky, LogDeterminantDiagonal) {
  Matrix a = eye(3);
  a(0, 0) = 2.0;
  a(1, 1) = 3.0;
  a(2, 2) = 4.0;
  const auto c = Cholesky::factor(a);
  ASSERT_TRUE(c);
  EXPECT_NEAR(c->log_determinant(), std::log(24.0), 1e-12);
}

// Property: for random SPD systems A = B B^T + I of any size, the Cholesky
// solve reproduces b to high accuracy.
class CholeskyProperty : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyProperty, RandomSpdSolveResidualSmall) {
  const int n = GetParam();
  std::mt19937_64 rng(42 + static_cast<unsigned>(n));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix b(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (std::size_t r = 0; r < b.rows(); ++r) {
    for (std::size_t c = 0; c < b.cols(); ++c) b(r, c) = dist(rng);
  }
  Matrix a = gram(b);
  a.add_diagonal(1.0);

  Vector rhs(static_cast<std::size_t>(n));
  for (double& v : rhs) v = dist(rng);

  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol);
  const Vector x = chol->solve(rhs);
  const Vector reproduced = mat_vec(a, x);
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    EXPECT_NEAR(reproduced[i], rhs[i], 1e-8) << "n=" << n << " i=" << i;
  }
  // log|A| must be finite and positive (all eigenvalues >= 1).
  EXPECT_GE(chol->log_determinant(), -1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

// --------------------------------------------------------------------------
// Factor surgery: append_row/drop_first against freshly factored
// references on random SPD matrices.

Matrix random_spd(std::mt19937_64& rng, std::size_t n, double ridge) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = dist(rng);
  }
  Matrix a = gram(b);
  a.add_diagonal(ridge);
  return a;
}

void expect_lower_near(const Matrix& got, const Matrix& want, double tol) {
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(got(i, j), want(i, j), tol) << "(" << i << "," << j << ")";
    }
  }
}

class CholeskyRank1Property : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRank1Property, AppendRowMatchesFullFactorOfBorderedMatrix) {
  const auto n = static_cast<std::size_t>(GetParam());
  std::mt19937_64 rng(300 + n);
  const Matrix big = random_spd(rng, n + 1, 1.0);
  Matrix lead(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) lead(i, j) = big(i, j);
  }
  Vector cross(n);
  for (std::size_t i = 0; i < n; ++i) cross[i] = big(n, i);

  auto chol = Cholesky::factor(lead);
  ASSERT_TRUE(chol);
  chol->append_row(cross, big(n, n));
  ASSERT_EQ(chol->size(), n + 1);

  const auto fresh = Cholesky::factor(big);
  ASSERT_TRUE(fresh);
  expect_lower_near(chol->lower(), fresh->lower(), 1e-9);
  EXPECT_NEAR(chol->log_determinant(), fresh->log_determinant(), 1e-9);
}

// drop_first is the only caller of the rank-1 update sweep; n = size + 1 >= 2
// so every size of the suite runs the sweep.
TEST_P(CholeskyRank1Property, DropFirstMatchesFactorOfTrailingBlock) {
  const auto n = static_cast<std::size_t>(GetParam()) + 1;
  std::mt19937_64 rng(400 + n);
  const Matrix a = random_spd(rng, n, 1.0);
  Matrix trailing(n - 1, n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 1; j < n; ++j) trailing(i - 1, j - 1) = a(i, j);
  }

  auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol);
  chol->drop_first();
  ASSERT_EQ(chol->size(), n - 1);

  const auto fresh = Cholesky::factor(trailing);
  ASSERT_TRUE(fresh);
  expect_lower_near(chol->lower(), fresh->lower(), 1e-9);
  EXPECT_NEAR(chol->log_determinant(), fresh->log_determinant(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyRank1Property,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(CholeskyRank1, NonPositiveAppendRowThrowsAndPreservesFactor) {
  auto chol = Cholesky::factor(eye(2));
  ASSERT_TRUE(chol);
  const Matrix before = chol->lower();
  // diag <= |cross|^2 makes the Schur complement non-positive.
  EXPECT_THROW(chol->append_row(Vector{1.0, 1.0}, 1.0), std::runtime_error);
  EXPECT_EQ(chol->size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(chol->lower()(i, j), before(i, j));
    }
  }
}

TEST(CholeskyRank1, SizeAndStateValidation) {
  auto chol = Cholesky::factor(eye(2));
  ASSERT_TRUE(chol);
  EXPECT_THROW(chol->append_row(Vector{1.0}, 2.0), std::invalid_argument);

  auto one = Cholesky::factor(eye(1));
  ASSERT_TRUE(one);
  EXPECT_THROW(one->drop_first(), std::logic_error);

  EXPECT_THROW(Cholesky::from_lower(Matrix(2, 3)), std::invalid_argument);
  Matrix bad = eye(2);
  bad(1, 1) = 0.0;
  EXPECT_THROW(Cholesky::from_lower(bad), std::invalid_argument);
}

TEST(CholeskyRank1, FromLowerZeroesUpperTriangleAndRoundTrips) {
  Matrix l{{2.0, 7.0}, {1.0, 3.0}};  // Junk above the diagonal.
  const Cholesky c = Cholesky::from_lower(l);
  EXPECT_EQ(c.lower()(0, 1), 0.0);
  EXPECT_EQ(c.lower()(0, 0), 2.0);
  EXPECT_EQ(c.lower()(1, 0), 1.0);
  EXPECT_EQ(c.lower()(1, 1), 3.0);
  // Solves treat it as the factor of A = L L^T = [[4, 2], [2, 10]].
  const Vector x = c.solve(Vector{4.0, 10.0});
  EXPECT_NEAR(4.0 * x[0] + 2.0 * x[1], 4.0, 1e-12);
  EXPECT_NEAR(2.0 * x[0] + 10.0 * x[1], 10.0, 1e-12);
}

TEST(Matrix, AppendAndDropRows) {
  Matrix m;
  m.append_row(Vector{1.0, 2.0});
  m.append_row(Vector{3.0, 4.0});
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_THROW(m.append_row(Vector{1.0}), std::invalid_argument);
  m.drop_first_row();
  ASSERT_EQ(m.rows(), 1u);
  EXPECT_EQ(m(0, 0), 3.0);
  EXPECT_EQ(m(0, 1), 4.0);
  m.drop_first_row();
  EXPECT_THROW(m.drop_first_row(), std::logic_error);
}

}  // namespace
}  // namespace autra::linalg
