#include "core/path_weighting.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "kernels/kernels.h"

namespace mulink::core {

PathWeights ComputePathWeights(const Pseudospectrum& static_spectrum,
                               const PathWeightingConfig& config) {
  PathWeights w;
  ComputePathWeightsInto(static_spectrum, config, w);
  return w;
}

void ComputePathWeightsInto(const Pseudospectrum& static_spectrum,
                            const PathWeightingConfig& config,
                            PathWeights& out) {
  MULINK_REQUIRE(!static_spectrum.power.empty(),
                 "ComputePathWeights: empty static spectrum");
  MULINK_REQUIRE(config.theta_max_deg > config.theta_min_deg,
                 "ComputePathWeights: empty angular window");
  MULINK_REQUIRE(config.spectrum_floor_ratio > 0.0,
                 "ComputePathWeights: floor ratio must be > 0");

  const double max_power = *std::max_element(static_spectrum.power.begin(),
                                             static_spectrum.power.end());
  MULINK_REQUIRE(max_power > 0.0,
                 "ComputePathWeights: static spectrum has no power");
  const double floor = max_power * config.spectrum_floor_ratio;

  out.theta_deg = static_spectrum.theta_deg;  // copy-assign reuses capacity
  // mulink-lint: allow(alloc): calibration path; reuses capacity on refresh
  out.weights.resize(static_spectrum.power.size());
  for (std::size_t i = 0; i < out.weights.size(); ++i) {
    const double theta = static_spectrum.theta_deg[i];
    if (theta < config.theta_min_deg || theta > config.theta_max_deg) {
      out.weights[i] = 0.0;
    } else {
      out.weights[i] = 1.0 / std::max(static_spectrum.power[i], floor);
    }
  }
}

std::vector<double> ApplyPathWeights(const PathWeights& weights,
                                     const Pseudospectrum& spectrum) {
  std::vector<double> out;
  ApplyPathWeightsInto(weights, spectrum, out);
  return out;
}

void ApplyPathWeightsInto(const PathWeights& weights,
                          const Pseudospectrum& spectrum,
                          std::vector<double>& out) {
  MULINK_REQUIRE(weights.weights.size() == spectrum.power.size(),
                 "ApplyPathWeights: grid size mismatch");
  // mulink-lint: allow(alloc): warm output; sized to the fixed angular grid
  out.resize(spectrum.power.size());
  kernels::Multiply(weights.weights.data(), spectrum.power.data(), out.size(),
                    out.data());
}

}  // namespace mulink::core
