#include "core/sanitize.h"

#include <cmath>

#include "common/assert.h"
#include "common/constants.h"
#include "common/error.h"
#include "core/multipath_factor.h"
#include "kernels/kernels.h"

namespace mulink::core {

namespace {

// Fold one adjacent phase step into [-pi, pi], carrying the removed 2*pi
// multiples into `accumulator` — UnwrapPhaseInto's rule.
inline void FoldStep(double delta, double& accumulator) {
  while (delta > kPi) {
    delta -= 2.0 * kPi;
    accumulator -= 2.0 * kPi;
  }
  while (delta < -kPi) {
    delta += 2.0 * kPi;
    accumulator += 2.0 * kPi;
  }
}

// Fit the packet's phase line and leave the rotation e^{-j correction_k}
// in scratch.rot_cos / rot_sin.
void PrepareRotation(const wifi::CsiPacket& packet, const IngestPlan& plan,
                     SanitizeScratch& scratch) {
  const PhaseFit fit = FitLinearPhase(packet, plan, scratch);
  const std::size_t num_sc = plan.num_subcarriers();
  scratch.corrections.Ensure(num_sc);
  scratch.rot_cos.Ensure(num_sc);
  scratch.rot_sin.Ensure(num_sc);
  for (std::size_t k = 0; k < num_sc; ++k) {
    scratch.corrections[k] =
        -(fit.offset_rad + fit.slope_rad_per_hz * plan.offsets[k]);
  }
  kernels::SinCos(scratch.corrections.data(), num_sc, scratch.rot_sin.data(),
                  scratch.rot_cos.data());
}

}  // namespace

IngestPlan::IngestPlan(const wifi::BandPlan& band) {
  const std::size_t num_sc = band.NumSubcarriers();
  MULINK_REQUIRE(num_sc >= 2, "IngestPlan: need >= 2 subcarriers");
  // mulink-lint: allow(alloc): plan build, calibration path
  offsets.resize(num_sc);
  for (std::size_t k = 0; k < num_sc; ++k) offsets[k] = band.OffsetHz(k);
  // mulink-lint: allow(alloc): plan build, calibration path
  los_frac.resize(num_sc);
  LosFractionsInto(band, los_frac);

  // The design matrix is [1, x_k]; linalg::SolveLeastSquares sums its
  // normal matrix from +0.0 in index order (1*1, 1*x_k and x_k*x_k, of which
  // the products with 1 are exact).
  double count = 0.0;
  double sum_x = 0.0;
  double sum_xx = 0.0;
  for (const double x : offsets) {
    count += 1.0;
    sum_x += x;
    sum_xx += x * x;
  }
  // SolveLinearInPlace, column 0: the Sx row takes the pivot only when
  // strictly larger in magnitude (count >= 2 clears the singularity bound).
  swapped = std::abs(sum_x) > std::abs(count);
  row0_0 = swapped ? sum_x : count;
  row0_1 = swapped ? sum_xx : sum_x;
  const double row1_0 = swapped ? count : sum_x;
  const double row1_1 = swapped ? sum_x : sum_xx;
  factor = row1_0 / row0_0;
  reduced = factor == 0.0 ? row1_1 : row1_1 - factor * row0_1;
  // Column 1's pivot check.
  if (std::abs(reduced) < 1e-14) {
    throw NumericalError(
        "IngestPlan: subcarrier offsets admit no unique phase line");
  }
}

PhaseFit IngestPlan::Fit(double sum_y, double sum_xy) const {
  // The y-dependent half of SolveLinearInPlace: the right-hand side follows
  // the pivot swap and the elimination, then back substitution.
  const double b0 = swapped ? sum_xy : sum_y;
  double b1 = swapped ? sum_y : sum_xy;
  if (factor != 0.0) b1 -= factor * b0;
  const double slope = b1 / reduced;
  double intercept = b0;
  intercept -= row0_1 * slope;
  return PhaseFit{intercept / row0_0, slope};
}

void SanitizeScratch::Reserve(std::size_t num_subcarriers) {
  for (auto* lane :
       {&sum_re, &sum_im, &avg_phase, &corrections, &rot_cos, &rot_sin}) {
    lane->Ensure(num_subcarriers);
  }
}

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
    FoldStep(phases[i] - phases[i - 1], accumulator);
    out[i] = phases[i] + accumulator;
  }
}

PhaseFit FitLinearPhase(const wifi::CsiPacket& packet, const IngestPlan& plan,
                        SanitizeScratch& scratch) {
  const std::size_t num_sc = packet.NumSubcarriers();
  const std::size_t num_ant = packet.NumAntennas();
  MULINK_REQUIRE(num_sc == plan.num_subcarriers(),
                 "FitLinearPhase: packet/band subcarrier mismatch");
  MULINK_REQUIRE(num_ant >= 1, "FitLinearPhase: need >= 1 antenna");

  // Antenna-averaged phase per subcarrier. Averaging complex values rather
  // than raw angles keeps weak antennas from dominating via wrap glitches.
  // The sums stay in split-complex lanes so the angle extraction runs
  // through the vectorized kernels::Atan2 (re-baselined against std::arg
  // per DESIGN.md §14).
  scratch.sum_re.Ensure(num_sc);
  scratch.sum_im.Ensure(num_sc);
  scratch.avg_phase.Ensure(num_sc);
  const Complex* csi = packet.csi.raw();
  for (std::size_t k = 0; k < num_sc; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t m = 0; m < num_ant; ++m) acc += csi[m * num_sc + k];
    scratch.sum_re[k] = acc.real();
    scratch.sum_im[k] = acc.imag();
  }
  kernels::Atan2(scratch.sum_im.data(), scratch.sum_re.data(), num_sc,
                 scratch.avg_phase.data());

  // Unwrap on the fly into the per-packet normal-equation sums (from +0.0,
  // index order, as the least-squares solver forms them).
  const double* phase = scratch.avg_phase.data();
  const double* x = plan.offsets.data();
  double sum_y = 0.0 + phase[0];
  double sum_xy = 0.0 + x[0] * phase[0];
  double accumulator = 0.0;
  for (std::size_t k = 1; k < num_sc; ++k) {
    FoldStep(phase[k] - phase[k - 1], accumulator);
    const double y = phase[k] + accumulator;
    sum_y += y;
    sum_xy += x[k] * y;
  }
  return plan.Fit(sum_y, sum_xy);
}

wifi::CsiPacket SanitizePhase(const wifi::CsiPacket& packet,
                              const wifi::BandPlan& band) {
  wifi::CsiPacket out;
  SanitizeScratch scratch;
  SanitizePhaseInto(packet, IngestPlan(band), out, scratch);
  return out;
}

void SanitizePhaseInto(const wifi::CsiPacket& packet, const IngestPlan& plan,
                       wifi::CsiPacket& out, SanitizeScratch& scratch) {
  PrepareRotation(packet, plan, scratch);
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
  // Every antenna row takes the same per-subcarrier rotation (they share
  // the correction — inter-antenna phase is preserved).
  kernels::RotateRows(packet.csi.raw(), packet.NumAntennas(), num_sc,
                      scratch.rot_cos.data(), scratch.rot_sin.data(),
                      out.csi.raw());
}

void SanitizePhaseSplitInto(const wifi::CsiPacket& packet,
                            const IngestPlan& plan, double* re, double* im,
                            SanitizeScratch& scratch) {
  PrepareRotation(packet, plan, scratch);
  kernels::RotateRowsSplit(packet.csi.raw(), packet.NumAntennas(),
                           packet.NumSubcarriers(), scratch.rot_cos.data(),
                           scratch.rot_sin.data(), re, im);
}

std::vector<wifi::CsiPacket> SanitizePhase(
    const std::vector<wifi::CsiPacket>& packets, const wifi::BandPlan& band) {
  const IngestPlan plan(band);
  SanitizeScratch scratch;
  // mulink-lint: allow(alloc): convenience wrapper, not a scoring path
  std::vector<wifi::CsiPacket> out(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    SanitizePhaseInto(packets[i], plan, out[i], scratch);
  }
  return out;
}

}  // namespace mulink::core
