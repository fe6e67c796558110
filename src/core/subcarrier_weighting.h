// Subcarrier weighting via frequency diversity (paper Sec. IV-A2,
// Eq. 12–15).
//
// Subcarriers whose multipath factor is consistently large are the most
// sensitive to human presence; weighting the per-subcarrier RSS change by
//   w_k = | mu_bar_k * r_k | / ( sum_k mu_bar_k * sum_k r_k )
// (Eq. 15) boosts them, where mu_bar_k is the temporal mean of mu over the
// monitoring window and r_k (Eq. 13/14) is the fraction of packets whose
// mu_k exceeds the per-packet median across subcarriers — a stability vote.
#pragma once

#include <span>
#include <vector>

#include "wifi/band.h"
#include "wifi/csi.h"

namespace mulink::core {

struct SubcarrierWeights {
  std::vector<double> mean_mu;    // mu_bar_k
  std::vector<double> stability;  // r_k in [0, 1]
  std::vector<double> weights;    // Eq. 15 combined weight per subcarrier
};

// Which factors enter the combined weight — for ablating the design of
// Eq. 15 (the paper motivates both factors; ablate_weighting quantifies
// them separately).
enum class WeightingMode {
  kUniform,               // w_k = 1/K (no weighting)
  kMeanMuOnly,            // w_k ∝ mu_bar_k (Eq. 12 aggregated over packets)
  kStabilityOnly,         // w_k ∝ r_k
  kMeanMuTimesStability,  // w_k ∝ mu_bar_k * r_k (Eq. 15, the paper's choice)
};

const char* ToString(WeightingMode mode);

// Eq. 13–15 from per-packet multipath factors (mu_per_packet[m][k]).
SubcarrierWeights ComputeSubcarrierWeights(
    const std::vector<std::vector<double>>& mu_per_packet,
    WeightingMode mode = WeightingMode::kMeanMuTimesStability);

// Scratch variant: reuses `out`'s vectors and `median_scratch` so the
// monitoring loop computes weights without heap traffic.
void ComputeSubcarrierWeightsInto(
    std::span<const std::vector<double>> mu_per_packet, WeightingMode mode,
    SubcarrierWeights& out, std::vector<double>& median_scratch);

// Prepared-factors variant: each window packet's mu row (`mu_rows[m]`, a
// pointer to `num_sc` doubles) and its cross-subcarrier median were computed
// once at ingest, so overlapping windows skip re-deriving them per decision.
// Bit-identical to the scratch variant fed the same rows, because it runs
// the same accumulation in the same order.
void ComputeSubcarrierWeightsInto(std::span<const double* const> mu_rows,
                                  std::span<const double> medians,
                                  std::size_t num_sc, WeightingMode mode,
                                  SubcarrierWeights& out);

// Single-packet variant (Eq. 12): weights proportional to |mu_k|.
SubcarrierWeights ComputeSubcarrierWeightsSinglePacket(
    const std::vector<double>& mu);

// Weighted per-subcarrier RSS change: Delta_s~(f_k) = w_k * Delta_s(f_k).
std::vector<double> ApplySubcarrierWeights(const SubcarrierWeights& weights,
                                           const std::vector<double>& delta_s);

// Convenience: compute weights directly from a monitoring window of packets.
SubcarrierWeights ComputeSubcarrierWeights(
    const std::vector<wifi::CsiPacket>& window, const wifi::BandPlan& band);

}  // namespace mulink::core
