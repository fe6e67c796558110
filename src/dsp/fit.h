// Curve fitting used by the link characterization study.
//
// Fig. 3b/3c of the paper fit the per-subcarrier RSS change Delta-s against
// the multipath factor mu with a logarithmic model
//   Delta_s(mu) ~= a + b * ln(mu),
// which follows from Eq. 6 (Delta_s is 10*lg of an affine function of mu).
#pragma once

#include <cstddef>
#include <vector>

namespace mulink::dsp {

struct LinearFit {
  double intercept = 0.0;  // a
  double slope = 0.0;      // b
  double r_squared = 0.0;  // coefficient of determination
  std::size_t num_points = 0;

  double Evaluate(double x) const { return intercept + slope * x; }
};

// Ordinary least squares fit of y = a + b x, solved through the normal
// equations (linalg::SolveLeastSquares).
LinearFit FitLinear(const std::vector<double>& xs,
                    const std::vector<double>& ys);

// Fit of y = a + b ln(x). Points with x <= 0 are skipped (the multipath
// factor is strictly positive in theory, but quantization can produce zeros).
// Throws PreconditionError when fewer than 2 usable points remain.
LinearFit FitLogarithmic(const std::vector<double>& xs,
                         const std::vector<double>& ys);

double EvaluateLogFit(const LinearFit& fit, double x);

}  // namespace mulink::dsp
