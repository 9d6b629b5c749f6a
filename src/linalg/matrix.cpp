#include "linalg/matrix.hpp"

#include <stdexcept>

namespace autra::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

void Matrix::append_row(std::span<const double> values) {
  if (data_.empty() && rows_ == 0) {
    cols_ = values.size();
  } else if (values.size() != cols_) {
    throw std::invalid_argument("Matrix::append_row: length mismatch");
  }
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

void Matrix::drop_first_row() {
  if (rows_ == 0) {
    throw std::logic_error("Matrix::drop_first_row: empty matrix");
  }
  data_.erase(data_.begin(),
              data_.begin() + static_cast<std::ptrdiff_t>(cols_));
  --rows_;
}

void Matrix::add_diagonal(double v) noexcept {
  const std::size_t n = rows_ < cols_ ? rows_ : cols_;
  for (std::size_t i = 0; i < n; ++i) (*this)(i, i) += v;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: length mismatch");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("squared_distance: length mismatch");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace autra::linalg
