#include "core/sanitize.h"

#include <cmath>

#include "common/assert.h"
#include "common/constants.h"
#include "dsp/fit.h"
#include "kernels/kernels.h"

namespace mulink::core {

namespace {

// (Re)fill the cached subcarrier offsets when the band fingerprint changes.
// The cached values are exactly BandPlan::OffsetHz(k), so warm and cold
// packets sanitize bit-identically.
void EnsureOffsets(const wifi::BandPlan& band, SanitizeScratch& scratch) {
  const std::size_t num_sc = band.NumSubcarriers();
  const bool stale = scratch.offsets.size() != num_sc ||
                     scratch.band_center_hz != band.center_hz() ||
                     scratch.band_spacing_hz != band.spacing_hz() ||
                     scratch.band_indices != band.indices();
  if (!stale) return;
  // mulink-lint: allow(alloc): band-fingerprint cache rebuild, cold
  scratch.offsets.resize(num_sc);
  for (std::size_t k = 0; k < num_sc; ++k) {
    scratch.offsets[k] = band.OffsetHz(k);
  }
  scratch.band_center_hz = band.center_hz();
  scratch.band_spacing_hz = band.spacing_hz();
  scratch.band_indices = band.indices();  // allow(alloc): cache rebuild, cold
}

}  // namespace

std::vector<double> UnwrapPhase(const std::vector<double>& phases) {
  std::vector<double> out(phases.size());
  UnwrapPhaseInto(phases, out);
  return out;
}

void UnwrapPhaseInto(std::span<const double> phases, std::span<double> out) {
  MULINK_REQUIRE(out.size() == phases.size(),
                 "UnwrapPhaseInto: output size mismatch");
  if (phases.empty()) return;
  out[0] = phases[0];
  double accumulator = 0.0;
  for (std::size_t i = 1; i < phases.size(); ++i) {
    double delta = phases[i] - phases[i - 1];
    while (delta > kPi) {
      delta -= 2.0 * kPi;
      accumulator -= 2.0 * kPi;
    }
    while (delta < -kPi) {
      delta += 2.0 * kPi;
      accumulator += 2.0 * kPi;
    }
    out[i] = phases[i] + accumulator;
  }
}

PhaseFit FitLinearPhase(const wifi::CsiPacket& packet,
                        const wifi::BandPlan& band) {
  SanitizeScratch scratch;
  return FitLinearPhase(packet, band, scratch);
}

PhaseFit FitLinearPhase(const wifi::CsiPacket& packet,
                        const wifi::BandPlan& band, SanitizeScratch& scratch) {
  MULINK_REQUIRE(packet.NumSubcarriers() == band.NumSubcarriers(),
                 "FitLinearPhase: packet/band subcarrier mismatch");
  const std::size_t num_sc = packet.NumSubcarriers();
  const std::size_t num_ant = packet.NumAntennas();
  MULINK_REQUIRE(num_ant >= 1 && num_sc >= 2,
                 "FitLinearPhase: need >= 1 antenna and >= 2 subcarriers");

  // Antenna-averaged phase per subcarrier. Averaging complex values rather
  // than raw angles keeps weak antennas from dominating via wrap glitches.
  // The sums stay in split-complex lanes so the angle extraction runs
  // through the vectorized kernels::Atan2 (same accumulation order as the
  // historical std::arg loop; the atan2 itself is the kernel-layer
  // polynomial, re-baselined per DESIGN.md §14).
  scratch.avg_phase.resize(num_sc);  // mulink-lint: allow(alloc): warm scratch
  scratch.sum_re.Ensure(num_sc);
  scratch.sum_im.Ensure(num_sc);
  const Complex* csi = packet.csi.raw();
  for (std::size_t k = 0; k < num_sc; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t m = 0; m < num_ant; ++m) acc += csi[m * num_sc + k];
    scratch.sum_re[k] = acc.real();
    scratch.sum_im[k] = acc.imag();
  }
  kernels::Atan2(scratch.sum_im.data(), scratch.sum_re.data(), num_sc,
                 scratch.avg_phase.data());
  scratch.unwrapped.resize(num_sc);  // mulink-lint: allow(alloc): warm scratch
  UnwrapPhaseInto(scratch.avg_phase, scratch.unwrapped);

  EnsureOffsets(band, scratch);

  const auto fit =
      dsp::FitLinear(std::span<const double>(scratch.offsets),
                     std::span<const double>(scratch.unwrapped), scratch.fit);
  return PhaseFit{fit.intercept, fit.slope};
}

wifi::CsiPacket SanitizePhase(const wifi::CsiPacket& packet,
                              const wifi::BandPlan& band) {
  wifi::CsiPacket out;
  SanitizeScratch scratch;
  SanitizePhaseInto(packet, band, out, scratch);
  return out;
}

void SanitizePhaseInto(const wifi::CsiPacket& packet,
                       const wifi::BandPlan& band, wifi::CsiPacket& out,
                       SanitizeScratch& scratch) {
  const PhaseFit fit = FitLinearPhase(packet, band, scratch);
  const std::size_t num_sc = packet.NumSubcarriers();
  // RotateRows below writes every CSI entry: copy only the metadata, and
  // reshape (reusing out's capacity) only on a shape change.
  if (out.NumAntennas() != packet.NumAntennas() ||
      out.NumSubcarriers() != num_sc) {
    out.csi.Resize(packet.NumAntennas(), num_sc);
  }
  out.timestamp_s = packet.timestamp_s;
  out.rssi_db = packet.rssi_db;
  out.sequence = packet.sequence;
  // Per-subcarrier rotation e^{-j correction}, with the sin/cos pair from
  // the vectorized kernel and the rotation applied row-wise across all
  // antennas (they share the correction — inter-antenna phase is preserved).
  scratch.corrections.Ensure(num_sc);
  scratch.rot_cos.Ensure(num_sc);
  scratch.rot_sin.Ensure(num_sc);
  // scratch.offsets is warm: FitLinearPhase above ran EnsureOffsets.
  for (std::size_t k = 0; k < num_sc; ++k) {
    scratch.corrections[k] =
        -(fit.offset_rad + fit.slope_rad_per_hz * scratch.offsets[k]);
  }
  kernels::SinCos(scratch.corrections.data(), num_sc, scratch.rot_sin.data(),
                  scratch.rot_cos.data());
  kernels::RotateRows(packet.csi.raw(), packet.NumAntennas(), num_sc,
                      scratch.rot_cos.data(), scratch.rot_sin.data(),
                      out.csi.raw());
}

std::vector<wifi::CsiPacket> SanitizePhase(
    const std::vector<wifi::CsiPacket>& packets, const wifi::BandPlan& band) {
  std::vector<wifi::CsiPacket> out;
  SanitizeScratch scratch;
  SanitizePhaseInto(packets, band, out, scratch);
  return out;
}

void SanitizePhaseInto(std::span<const wifi::CsiPacket> packets,
                       const wifi::BandPlan& band,
                       std::vector<wifi::CsiPacket>& out,
                       SanitizeScratch& scratch) {
  // mulink-lint: allow(alloc): warm batch output rows
  out.resize(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    SanitizePhaseInto(packets[i], band, out[i], scratch);
  }
}

}  // namespace mulink::core
