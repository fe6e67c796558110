// Small dense real linear solves and least squares, used by the fitting
// utilities (logarithmic sensitivity fits of Fig. 3) and model calibration.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mulink::linalg {

// Row-major dense real matrix, minimal interface for the solver below.
struct RMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> data;

  RMatrix() = default;
  RMatrix(std::size_t r, std::size_t c) : rows(r), cols(c), data(r * c, 0.0) {}

  double& At(std::size_t r, std::size_t c) { return data[r * cols + c]; }
  double At(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
};

// Solve A x = b via Gaussian elimination with partial pivoting.
// Throws NumericalError on (near-)singular systems.
std::vector<double> SolveLinear(RMatrix a, std::vector<double> b);

// In-place core of SolveLinear: destroys `a` and `b`, writes the solution to
// `x` (x.size() == a.rows). No heap traffic — the allocating overload above
// is a thin wrapper around this.
void SolveLinearInPlace(RMatrix& a, std::span<double> b, std::span<double> x);

// Minimize ||A x - b||_2 via the normal equations (A^T A) x = A^T b, each
// entry summed from +0.0 in row order. Adequate for the tiny,
// well-conditioned design matrices in this project.
std::vector<double> SolveLeastSquares(const RMatrix& a,
                                      const std::vector<double>& b);

}  // namespace mulink::linalg
