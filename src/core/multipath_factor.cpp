#include "core/multipath_factor.h"

#include <cmath>

#include "common/assert.h"
#include "dsp/delay_domain.h"
#include "kernels/kernels.h"

namespace mulink::core {

void LosFractionsInto(const wifi::BandPlan& band, std::span<double> los_frac) {
  MULINK_REQUIRE(los_frac.size() == band.NumSubcarriers(),
                 "LosFractionsInto: output/band size mismatch");
  double inv_f2_sum = 0.0;
  for (std::size_t k = 0; k < los_frac.size(); ++k) {
    const double f = band.FrequencyHz(k);
    los_frac[k] = 1.0 / (f * f);
    inv_f2_sum += los_frac[k];
  }
  for (double& v : los_frac) v /= inv_f2_sum;
}

std::vector<double> EstimateLosPower(const std::vector<Complex>& cfr,
                                     const wifi::BandPlan& band) {
  MULINK_REQUIRE(cfr.size() == band.NumSubcarriers(),
                 "EstimateLosPower: CFR/band size mismatch");
  const double dominant = dsp::DominantTapPower(cfr);
  std::vector<double> los(cfr.size());
  LosFractionsInto(band, los);
  for (double& v : los) v *= dominant;
  return los;
}

std::vector<double> MeasureMultipathFactors(const std::vector<Complex>& cfr,
                                            const wifi::BandPlan& band) {
  const auto los = EstimateLosPower(cfr, band);
  std::vector<double> mu(cfr.size());
  for (std::size_t k = 0; k < cfr.size(); ++k) {
    const double power = std::norm(cfr[k]);
    mu[k] = power > 0.0 ? los[k] / power : 0.0;
  }
  return mu;
}

std::vector<double> MeasureMultipathFactors(const wifi::CsiPacket& packet,
                                            const wifi::BandPlan& band) {
  MULINK_REQUIRE(packet.NumSubcarriers() == band.NumSubcarriers(),
                 "MeasureMultipathFactors: packet/band size mismatch");
  std::vector<double> los_frac(band.NumSubcarriers());
  LosFractionsInto(band, los_frac);
  std::vector<double> avg(packet.NumSubcarriers());
  MeasureMultipathFactorsInto(packet, los_frac, avg);
  return avg;
}

void MeasureMultipathFactorsInto(const wifi::CsiPacket& packet,
                                 std::span<const double> los_frac,
                                 std::span<double> out) {
  MULINK_REQUIRE(packet.NumAntennas() >= 1,
                 "MeasureMultipathFactors: packet has no antennas");
  const std::size_t num_sc = packet.NumSubcarriers();
  MULINK_REQUIRE(num_sc == los_frac.size() && out.size() == num_sc,
                 "MeasureMultipathFactors: packet/band/output size mismatch");
  for (double& v : out) v = 0.0;
  const Complex* csi = packet.csi.raw();
  for (std::size_t m = 0; m < packet.NumAntennas(); ++m) {
    const Complex* row = csi + m * num_sc;
    // Eq. 10/11 with the band's LOS fractions: the per-antenna work is one
    // dominant-tap mean plus the vectorized mu accumulation. The kernel's
    // (los_frac * dominant) / power matches the historical
    // (inv_f2/sum) * dominant then /power evaluation order exactly.
    const double dominant =
        dsp::DominantTapPower(std::span<const Complex>(row, num_sc));
    kernels::MuAccumulateRow(row, los_frac.data(), dominant, num_sc,
                             out.data());
  }
  for (auto& v : out) v /= static_cast<double>(packet.NumAntennas());
}

void MeasureMultipathFactorsSplitInto(const double* re, const double* im,
                                      std::size_t antennas,
                                      std::span<const double> los_frac,
                                      std::span<double> out) {
  const std::size_t num_sc = out.size();
  MULINK_REQUIRE(antennas >= 1 && num_sc >= 1 && los_frac.size() == num_sc,
                 "MeasureMultipathFactors: split rows/band size mismatch");
  for (double& v : out) v = 0.0;
  for (std::size_t m = 0; m < antennas; ++m) {
    const double* row_re = re + m * num_sc;
    const double* row_im = im + m * num_sc;
    const double dominant =
        kernels::DominantTapPowerSplit(row_re, row_im, num_sc);
    kernels::MuAccumulateSplitRow(row_re, row_im, los_frac.data(), dominant,
                                  num_sc, out.data());
  }
  for (auto& v : out) v /= static_cast<double>(antennas);
}

std::vector<std::vector<double>> MeasureMultipathFactors(
    const std::vector<wifi::CsiPacket>& packets, const wifi::BandPlan& band) {
  std::vector<double> los_frac(band.NumSubcarriers());
  LosFractionsInto(band, los_frac);
  std::vector<std::vector<double>> out;
  MeasureMultipathFactorsInto(packets, los_frac, out);
  return out;
}

void MeasureMultipathFactorsInto(std::span<const wifi::CsiPacket> packets,
                                 std::span<const double> los_frac,
                                 std::vector<std::vector<double>>& out) {
  if (out.size() < packets.size()) {
    // mulink-lint: allow(alloc): warm per-packet output rows; grow-only
    out.resize(packets.size());
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    // mulink-lint: allow(alloc): warm rows; no realloc once sized
    out[i].resize(packets[i].NumSubcarriers());
    MeasureMultipathFactorsInto(packets[i], los_frac, out[i]);
  }
}

}  // namespace mulink::core
