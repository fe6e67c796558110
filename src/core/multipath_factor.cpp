#include "core/multipath_factor.h"

#include <cmath>

#include "common/assert.h"
#include "dsp/delay_domain.h"
#include "kernels/kernels.h"

namespace mulink::core {

namespace {

// (Re)build the cached LOS fractions when the band fingerprint changes.
// The fractions are produced by the same sequential ops as
// EstimateLosPower's inv_f2 pass, so factors computed from the cache match
// the allocating path bit-for-bit.
void EnsureLosFractions(const wifi::BandPlan& band, MultipathScratch& scratch) {
  const std::size_t num_sc = band.NumSubcarriers();
  const bool stale = scratch.los_frac.size() != num_sc ||
                     scratch.band_center_hz != band.center_hz() ||
                     scratch.band_spacing_hz != band.spacing_hz() ||
                     scratch.band_indices != band.indices();
  if (!stale) return;
  // mulink-lint: allow(alloc): band-fingerprint cache rebuild, cold
  scratch.los_frac.resize(num_sc);
  double inv_f2_sum = 0.0;
  for (std::size_t k = 0; k < num_sc; ++k) {
    const double f = band.FrequencyHz(k);
    scratch.los_frac[k] = 1.0 / (f * f);
    inv_f2_sum += scratch.los_frac[k];
  }
  for (std::size_t k = 0; k < num_sc; ++k) {
    scratch.los_frac[k] /= inv_f2_sum;
  }
  scratch.band_center_hz = band.center_hz();
  scratch.band_spacing_hz = band.spacing_hz();
  scratch.band_indices = band.indices();  // allow(alloc): cache rebuild, cold
}

}  // namespace

std::vector<double> EstimateLosPower(const std::vector<Complex>& cfr,
                                     const wifi::BandPlan& band) {
  MULINK_REQUIRE(cfr.size() == band.NumSubcarriers(),
                 "EstimateLosPower: CFR/band size mismatch");
  const double dominant = dsp::DominantTapPower(cfr);

  double inv_f2_sum = 0.0;
  std::vector<double> inv_f2(cfr.size());
  for (std::size_t k = 0; k < cfr.size(); ++k) {
    const double f = band.FrequencyHz(k);
    inv_f2[k] = 1.0 / (f * f);
    inv_f2_sum += inv_f2[k];
  }

  std::vector<double> los(cfr.size());
  for (std::size_t k = 0; k < cfr.size(); ++k) {
    los[k] = inv_f2[k] / inv_f2_sum * dominant;
  }
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
  std::vector<double> avg(packet.NumSubcarriers());
  MultipathScratch scratch;
  MeasureMultipathFactorsInto(packet, band, avg, scratch);
  return avg;
}

void MeasureMultipathFactorsInto(const wifi::CsiPacket& packet,
                                 const wifi::BandPlan& band,
                                 std::span<double> out,
                                 MultipathScratch& scratch) {
  MULINK_REQUIRE(packet.NumAntennas() >= 1,
                 "MeasureMultipathFactors: packet has no antennas");
  const std::size_t num_sc = packet.NumSubcarriers();
  MULINK_REQUIRE(num_sc == band.NumSubcarriers() && out.size() == num_sc,
                 "MeasureMultipathFactors: packet/band/output size mismatch");
  for (double& v : out) v = 0.0;
  EnsureLosFractions(band, scratch);
  const Complex* csi = packet.csi.raw();
  for (std::size_t m = 0; m < packet.NumAntennas(); ++m) {
    const Complex* row = csi + m * num_sc;
    // Eq. 10/11 with the cached LOS fractions: the per-antenna work is one
    // dominant-tap mean plus the vectorized mu accumulation. The kernel's
    // (los_frac * dominant) / power matches the historical
    // (inv_f2/sum) * dominant then /power evaluation order exactly.
    const double dominant =
        dsp::DominantTapPower(std::span<const Complex>(row, num_sc));
    kernels::MuAccumulateRow(row, scratch.los_frac.data(), dominant, num_sc,
                             out.data());
  }
  for (auto& v : out) v /= static_cast<double>(packet.NumAntennas());
}

std::vector<std::vector<double>> MeasureMultipathFactors(
    const std::vector<wifi::CsiPacket>& packets, const wifi::BandPlan& band) {
  std::vector<std::vector<double>> out;
  MultipathScratch scratch;
  MeasureMultipathFactorsInto(packets, band, out, scratch);
  return out;
}

void MeasureMultipathFactorsInto(std::span<const wifi::CsiPacket> packets,
                                 const wifi::BandPlan& band,
                                 std::vector<std::vector<double>>& out,
                                 MultipathScratch& scratch) {
  if (out.size() < packets.size()) {
    // mulink-lint: allow(alloc): warm per-packet output rows; grow-only
    out.resize(packets.size());
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    // mulink-lint: allow(alloc): warm rows; no realloc once sized
    out[i].resize(packets[i].NumSubcarriers());
    MeasureMultipathFactorsInto(packets[i], band, out[i], scratch);
  }
}

}  // namespace mulink::core
