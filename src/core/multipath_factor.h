// Runtime measurement of the multipath factor mu (paper Sec. IV-A1,
// Eq. 9–11) — the paper's central measurable proxy for detection
// sensitivity, extracted from a single packet.
//
// mu_k = P_L(f_k) / |H(f_k)|^2, with the per-subcarrier LOS power split from
// the dominant delay tap by Friis' f^{-2} frequency dependence:
//   P_L(f_k) = (f_k^{-2} / sum_i f_i^{-2}) * |h_hat(0)|^2.
#pragma once

#include <span>
#include <vector>

#include "wifi/band.h"
#include "wifi/csi.h"

namespace mulink::core {

// Reusable buffers for per-packet multipath factor extraction. The Friis
// f^{-2} LOS fractions depend only on the band plan, so they are computed
// once and cached against the band fingerprint below instead of being
// rebuilt per antenna row (they were the bulk of the per-packet cost).
struct MultipathScratch {
  // los_frac[k] = f_k^{-2} / sum_i f_i^{-2} for the cached band.
  std::vector<double> los_frac;
  double band_center_hz = 0.0;
  double band_spacing_hz = 0.0;
  std::vector<int> band_indices;
};

// Per-subcarrier LOS power estimate P_L(f_k) of Eq. 10 for one antenna's CFR.
std::vector<double> EstimateLosPower(const std::vector<Complex>& cfr,
                                     const wifi::BandPlan& band);

// Eq. 11 multipath factors for one antenna's CFR (one value per subcarrier).
// Subcarriers whose measured power quantized to zero yield mu = 0.
std::vector<double> MeasureMultipathFactors(const std::vector<Complex>& cfr,
                                            const wifi::BandPlan& band);

// Antenna-averaged multipath factors for a whole packet. The paper's
// single-antenna schemes average metrics across the three antennas.
std::vector<double> MeasureMultipathFactors(const wifi::CsiPacket& packet,
                                            const wifi::BandPlan& band);

// Scratch variant: writes the antenna-averaged factors into `out`, which
// must hold exactly the subcarrier count, without allocating.
void MeasureMultipathFactorsInto(const wifi::CsiPacket& packet,
                                 const wifi::BandPlan& band,
                                 std::span<double> out,
                                 MultipathScratch& scratch);

// Multipath factors for every packet of a session: result[m][k] is packet
// m's factor on subcarrier k.
std::vector<std::vector<double>> MeasureMultipathFactors(
    const std::vector<wifi::CsiPacket>& packets, const wifi::BandPlan& band);

// Scratch variant over a window: rows [0, packets.size()) of `out` receive
// the factors. `out` only grows, so a shorter window (the ladder's staged
// rescoring on a shared scratch) keeps the rows a full window reuses; read
// the first packets.size() rows.
void MeasureMultipathFactorsInto(std::span<const wifi::CsiPacket> packets,
                                 const wifi::BandPlan& band,
                                 std::vector<std::vector<double>>& out,
                                 MultipathScratch& scratch);

}  // namespace mulink::core
