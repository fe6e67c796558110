// Path weighting via spatial diversity (paper Sec. IV-B2, Eq. 17).
//
// The detection threshold is global, so the weak impact of human presence on
// NLOS (reflected) paths limits coverage. Path weighting boosts those
// directions: given the *static* (calibration-time) pseudospectrum Ps(theta),
// the weight is w(theta) = 1 / Ps(theta) inside a trusted angular window
// [theta_min, theta_max] (±60° in the paper's implementation — ULA angle
// estimates degrade toward endfire) and 0 outside.
#pragma once

#include <vector>

#include "core/music.h"

namespace mulink::core {

struct PathWeightingConfig {
  double theta_min_deg = -60.0;
  double theta_max_deg = 60.0;
  // Ps(theta) floor, as a fraction of the spectrum's max, protecting 1/Ps
  // against division blow-ups in deep pseudospectrum nulls.
  double spectrum_floor_ratio = 0.1;
};

struct PathWeights {
  std::vector<double> theta_deg;
  std::vector<double> weights;  // w(theta) of Eq. 17 on the same grid
};

// Eq. 17 weights from the calibration-stage static pseudospectrum.
PathWeights ComputePathWeights(const Pseudospectrum& static_spectrum,
                               const PathWeightingConfig& config = {});

// Scratch variant writing into `out`: allocation-free once `out` holds a
// grid of the same size (the profile-refresh path rewrites it in place).
void ComputePathWeightsInto(const Pseudospectrum& static_spectrum,
                            const PathWeightingConfig& config,
                            PathWeights& out);

// Element-wise weighted pseudospectrum (grids must match).
std::vector<double> ApplyPathWeights(const PathWeights& weights,
                                     const Pseudospectrum& spectrum);

// Scratch variant: `out` is resized to the grid; no allocation once warm.
void ApplyPathWeightsInto(const PathWeights& weights,
                          const Pseudospectrum& spectrum,
                          std::vector<double>& out);

}  // namespace mulink::core
