#include "dsp/fit.h"

#include <cmath>

#include "common/assert.h"
#include "linalg/solve.h"

namespace mulink::dsp {

namespace {

double RSquared(const std::vector<double>& xs, const std::vector<double>& ys,
                const LinearFit& fit) {
  double mean_y = 0.0;
  for (double y : ys) mean_y += y;
  mean_y /= static_cast<double>(ys.size());

  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.Evaluate(xs[i]);
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - mean_y) * (ys[i] - mean_y);
  }
  if (ss_tot == 0.0) return 1.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace

LinearFit FitLinear(const std::vector<double>& xs,
                    const std::vector<double>& ys) {
  MULINK_REQUIRE(xs.size() == ys.size(), "FitLinear: size mismatch");
  MULINK_REQUIRE(xs.size() >= 2, "FitLinear: need >= 2 points");

  linalg::RMatrix design(xs.size(), 2);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    design.At(i, 0) = 1.0;
    design.At(i, 1) = xs[i];
  }
  const auto coeffs = linalg::SolveLeastSquares(design, ys);

  LinearFit fit;
  fit.intercept = coeffs[0];
  fit.slope = coeffs[1];
  fit.num_points = xs.size();
  fit.r_squared = RSquared(xs, ys, fit);
  return fit;
}

LinearFit FitLogarithmic(const std::vector<double>& xs,
                         const std::vector<double>& ys) {
  MULINK_REQUIRE(xs.size() == ys.size(), "FitLogarithmic: size mismatch");
  std::vector<double> lx, ly;
  // mulink-lint: allow(alloc): model fitting, calibration path
  lx.reserve(xs.size());
  // mulink-lint: allow(alloc): model fitting, calibration path
  ly.reserve(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] > 0.0) {
      // mulink-lint: allow(alloc): model fitting, calibration path
      lx.push_back(std::log(xs[i]));
      // mulink-lint: allow(alloc): model fitting, calibration path
      ly.push_back(ys[i]);
    }
  }
  MULINK_REQUIRE(lx.size() >= 2, "FitLogarithmic: need >= 2 positive-x points");
  return FitLinear(lx, ly);
}

double EvaluateLogFit(const LinearFit& fit, double x) {
  MULINK_REQUIRE(x > 0.0, "EvaluateLogFit: x must be positive");
  return fit.Evaluate(std::log(x));
}

}  // namespace mulink::dsp
