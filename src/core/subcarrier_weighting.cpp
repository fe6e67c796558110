#include "core/subcarrier_weighting.h"

#include <cmath>

#include "common/assert.h"
#include "core/multipath_factor.h"
#include "dsp/stats.h"
#include "kernels/kernels.h"

namespace mulink::core {

const char* ToString(WeightingMode mode) {
  switch (mode) {
    case WeightingMode::kUniform:
      return "uniform";
    case WeightingMode::kMeanMuOnly:
      return "mean-mu";
    case WeightingMode::kStabilityOnly:
      return "stability";
    case WeightingMode::kMeanMuTimesStability:
      return "mean-mu*stability";
  }
  return "unknown";
}

SubcarrierWeights ComputeSubcarrierWeights(
    const std::vector<std::vector<double>>& mu_per_packet,
    WeightingMode mode) {
  SubcarrierWeights w;
  std::vector<double> median_scratch;
  ComputeSubcarrierWeightsInto(mu_per_packet, mode, w, median_scratch);
  return w;
}

namespace {

// Shared Eq. 15 tail: out.mean_mu / out.stability hold the per-subcarrier
// sums over `num_packets` rows; normalize them and derive the weights.
void FinishSubcarrierWeights(std::size_t num_packets, WeightingMode mode,
                             SubcarrierWeights& out) {
  const std::size_t num_sc = out.mean_mu.size();
  for (std::size_t k = 0; k < num_sc; ++k) {
    out.mean_mu[k] /= static_cast<double>(num_packets);
    out.stability[k] /= static_cast<double>(num_packets);
  }

  double sum_mu = 0.0, sum_r = 0.0;
  for (std::size_t k = 0; k < num_sc; ++k) {
    sum_mu += out.mean_mu[k];
    sum_r += out.stability[k];
  }
  // mulink-lint: allow(alloc): warm output; assign reuses capacity
  out.weights.assign(num_sc, 0.0);
  const double uniform = 1.0 / static_cast<double>(num_sc);
  bool degenerate = false;
  switch (mode) {
    case WeightingMode::kUniform:
      for (auto& v : out.weights) v = uniform;
      break;
    case WeightingMode::kMeanMuOnly:
      if (sum_mu > 0.0) {
        for (std::size_t k = 0; k < num_sc; ++k) {
          out.weights[k] = std::abs(out.mean_mu[k]) / sum_mu;
        }
      } else {
        degenerate = true;
      }
      break;
    case WeightingMode::kStabilityOnly:
      if (sum_r > 0.0) {
        for (std::size_t k = 0; k < num_sc; ++k) {
          out.weights[k] = out.stability[k] / sum_r;
        }
      } else {
        degenerate = true;
      }
      break;
    case WeightingMode::kMeanMuTimesStability:
      if (sum_mu * sum_r > 0.0) {
        for (std::size_t k = 0; k < num_sc; ++k) {
          out.weights[k] =
              std::abs(out.mean_mu[k] * out.stability[k]) / (sum_mu * sum_r);
        }
      } else {
        degenerate = true;
      }
      break;
  }
  if (degenerate) {
    // Degenerate window (all-zero mu or stability): fall back to uniform so
    // the detector degrades to the baseline instead of reporting zeros.
    for (auto& v : out.weights) v = uniform;
  }
}

}  // namespace

void ComputeSubcarrierWeightsInto(
    std::span<const std::vector<double>> mu_per_packet, WeightingMode mode,
    SubcarrierWeights& out, std::vector<double>& median_scratch) {
  MULINK_REQUIRE(!mu_per_packet.empty(),
                 "ComputeSubcarrierWeights: need >= 1 packet");
  const std::size_t num_packets = mu_per_packet.size();
  const std::size_t num_sc = mu_per_packet[0].size();
  MULINK_REQUIRE(num_sc >= 1, "ComputeSubcarrierWeights: empty mu vector");
  for (const auto& row : mu_per_packet) {
    MULINK_REQUIRE(row.size() == num_sc,
                   "ComputeSubcarrierWeights: ragged mu matrix");
  }

  // mulink-lint: allow(alloc): warm output; assign reuses capacity
  out.mean_mu.assign(num_sc, 0.0);
  // mulink-lint: allow(alloc): warm output; assign reuses capacity
  out.stability.assign(num_sc, 0.0);

  for (std::size_t m = 0; m < num_packets; ++m) {
    const double median = dsp::Median(mu_per_packet[m], median_scratch);
    // mean_mu[k] += mu; stability[k] += (mu > median) — delta_m of Eq. 14.
    kernels::MeanStabilityAccumulate(mu_per_packet[m].data(), median, num_sc,
                                     out.mean_mu.data(), out.stability.data());
  }
  FinishSubcarrierWeights(num_packets, mode, out);
}

void ComputeSubcarrierWeightsInto(std::span<const double* const> mu_rows,
                                  std::span<const double> medians,
                                  std::size_t num_sc, WeightingMode mode,
                                  SubcarrierWeights& out) {
  MULINK_REQUIRE(!mu_rows.empty(),
                 "ComputeSubcarrierWeights: need >= 1 packet");
  MULINK_REQUIRE(medians.size() == mu_rows.size(),
                 "ComputeSubcarrierWeights: median/row count mismatch");
  MULINK_REQUIRE(num_sc >= 1, "ComputeSubcarrierWeights: empty mu vector");

  // mulink-lint: allow(alloc): warm output; assign reuses capacity
  out.mean_mu.assign(num_sc, 0.0);
  // mulink-lint: allow(alloc): warm output; assign reuses capacity
  out.stability.assign(num_sc, 0.0);

  for (std::size_t m = 0; m < mu_rows.size(); ++m) {
    kernels::MeanStabilityAccumulate(mu_rows[m], medians[m], num_sc,
                                     out.mean_mu.data(), out.stability.data());
  }
  FinishSubcarrierWeights(mu_rows.size(), mode, out);
}

SubcarrierWeights ComputeSubcarrierWeightsSinglePacket(
    const std::vector<double>& mu) {
  return ComputeSubcarrierWeights(std::vector<std::vector<double>>{mu});
}

std::vector<double> ApplySubcarrierWeights(const SubcarrierWeights& weights,
                                           const std::vector<double>& delta_s) {
  MULINK_REQUIRE(weights.weights.size() == delta_s.size(),
                 "ApplySubcarrierWeights: size mismatch");
  std::vector<double> out(delta_s.size());
  for (std::size_t k = 0; k < delta_s.size(); ++k) {
    out[k] = weights.weights[k] * delta_s[k];
  }
  return out;
}

SubcarrierWeights ComputeSubcarrierWeights(
    const std::vector<wifi::CsiPacket>& window, const wifi::BandPlan& band) {
  return ComputeSubcarrierWeights(MeasureMultipathFactors(window, band));
}

}  // namespace mulink::core
