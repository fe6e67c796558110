#include "linalg/solve.h"

#include <cmath>

#include "common/assert.h"
#include "common/error.h"

namespace mulink::linalg {

std::vector<double> SolveLinear(RMatrix a, std::vector<double> b) {
  std::vector<double> x(a.rows, 0.0);
  SolveLinearInPlace(a, b, x);
  return x;
}

void SolveLinearInPlace(RMatrix& a, std::span<double> b, std::span<double> x) {
  MULINK_REQUIRE(a.rows == a.cols, "SolveLinear: matrix must be square");
  MULINK_REQUIRE(a.rows == b.size(), "SolveLinear: dimension mismatch");
  MULINK_REQUIRE(x.size() == a.rows, "SolveLinear: solution size mismatch");
  const std::size_t n = a.rows;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::abs(a.At(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(a.At(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-14) {
      throw NumericalError("SolveLinear: singular or near-singular matrix");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a.At(pivot, c), a.At(col, c));
      }
      std::swap(b[pivot], b[col]);
    }
    // Eliminate below.
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a.At(r, col) / a.At(col, col);
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) {
        a.At(r, c) -= factor * a.At(col, c);
      }
      b[r] -= factor * b[col];
    }
  }

  // Back substitution.
  for (std::size_t ri = n; ri > 0; --ri) {
    const std::size_t r = ri - 1;
    double sum = b[r];
    for (std::size_t c = r + 1; c < n; ++c) sum -= a.At(r, c) * x[c];
    x[r] = sum / a.At(r, r);
  }
}

std::vector<double> SolveLeastSquares(const RMatrix& a,
                                      const std::vector<double>& b) {
  MULINK_REQUIRE(a.rows == b.size(), "SolveLeastSquares: dimension mismatch");
  MULINK_REQUIRE(a.rows >= a.cols,
                 "SolveLeastSquares: need at least as many rows as unknowns");
  const std::size_t n = a.cols;
  RMatrix ata(n, n);
  std::vector<double> atb(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t r = 0; r < a.rows; ++r) sum += a.At(r, i) * a.At(r, j);
      ata.At(i, j) = sum;
    }
    double sum = 0.0;
    for (std::size_t r = 0; r < a.rows; ++r) sum += a.At(r, i) * b[r];
    atb[i] = sum;
  }
  std::vector<double> x(n);
  SolveLinearInPlace(ata, atb, x);
  return x;
}

}  // namespace mulink::linalg
