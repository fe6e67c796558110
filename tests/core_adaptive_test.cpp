// The promoted new-path angle estimator. (Closed-loop drift compensation is
// the calibration ladder's; see core_calibration_test.)
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "core/detector.h"
#include "core/music.h"
#include "core/sanitize.h"
#include "experiments/scenario.h"
#include "experiments/workload.h"

namespace mulink::core {
namespace {

namespace ex = mulink::experiments;

TEST(NewPathAngle, RecoversHumanReflectionAngle) {
  const auto lc = ex::MakeShortWallLink();
  auto sim = ex::MakeSimulator(lc);
  Rng rng(9);
  const auto calibration = SanitizePhase(
      sim.CaptureSession(200, std::nullopt, rng), sim.band());
  const auto static_cov = SampleCovariance(calibration);

  // Off-LOS angles only: a person ON the LOS mostly *removes* power (the
  // shadowed direct path), which is not a "new path" for this estimator.
  for (double truth : {-35.0, 30.0, 50.0}) {
    const auto spots = ex::AngularArc(lc, 1.2, {truth});
    propagation::HumanBody body;
    body.position = spots[0].position;
    const auto window = SanitizePhase(sim.CaptureSession(40, body, rng),
                                      sim.band());
    const double estimate =
        EstimateNewPathAngleDeg(window, static_cov, sim.array(), sim.band());
    // 3-antenna aperture: generous tolerance (the paper's Fig. 10 reports
    // >20-degree medians).
    EXPECT_NEAR(estimate, spots[0].angle_deg, 25.0) << truth;
  }
}

TEST(NewPathAngle, ValidatesCovarianceSize) {
  const auto lc = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(lc);
  Rng rng(11);
  const auto window = sim.CaptureSession(10, std::nullopt, rng);
  const auto wrong = linalg::CMatrix::Identity(2);
  EXPECT_THROW(
      EstimateNewPathAngleDeg(window, wrong, sim.array(), sim.band()),
      PreconditionError);
}

}  // namespace
}  // namespace mulink::core
