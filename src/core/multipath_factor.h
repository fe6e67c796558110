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

// The band-only half of Eq. 10: los_frac[k] = f_k^{-2} / sum_i f_i^{-2}
// (los_frac.size() == band.NumSubcarriers()). IngestPlan caches it per
// band; the per-packet factors below take it as an input.
void LosFractionsInto(const wifi::BandPlan& band, std::span<double> los_frac);

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

// Allocation-free variant: writes the antenna-averaged factors into `out`,
// which must hold exactly the subcarrier count (as must `los_frac`).
void MeasureMultipathFactorsInto(const wifi::CsiPacket& packet,
                                 std::span<const double> los_frac,
                                 std::span<double> out);

// The same factors from split rows (antenna m's real parts at
// re[m * out.size()], imaginary parts at im[m * out.size()]) — bit-identical
// to the interleaved variant on the same CSI.
void MeasureMultipathFactorsSplitInto(const double* re, const double* im,
                                      std::size_t antennas,
                                      std::span<const double> los_frac,
                                      std::span<double> out);

// Multipath factors for every packet of a session: result[m][k] is packet
// m's factor on subcarrier k.
std::vector<std::vector<double>> MeasureMultipathFactors(
    const std::vector<wifi::CsiPacket>& packets, const wifi::BandPlan& band);

// Scratch variant over a window: rows [0, packets.size()) of `out` receive
// the factors. `out` only grows, so a shorter window keeps the rows a
// longer one reuses; read the first packets.size() rows.
void MeasureMultipathFactorsInto(std::span<const wifi::CsiPacket> packets,
                                 std::span<const double> los_frac,
                                 std::vector<std::vector<double>>& out);

}  // namespace mulink::core
