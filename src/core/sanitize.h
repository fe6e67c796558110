// CSI phase sanitization, following Sen et al., MobiSys'12 (paper ref [26]).
//
// Commodity NICs stamp every packet with a random common phase (CFO/PLL) and
// a random linear phase slope across subcarriers (sampling time offset).
// Sanitization removes both by fitting a line to the unwrapped cross-
// subcarrier phase and subtracting it. The *same* correction is applied to
// every RX antenna — they share an oscillator — so inter-antenna phase
// relations, which MUSIC needs, are preserved.
#pragma once

#include <span>
#include <vector>

#include "kernels/aligned.h"
#include "wifi/band.h"
#include "wifi/csi.h"

namespace mulink::core {

// Linear phase model fitted during sanitization: phase ~ offset + slope * f_off.
struct PhaseFit {
  double offset_rad = 0.0;
  double slope_rad_per_hz = 0.0;
};

// Everything the per-packet ingest maps (the phase fit and the Eq. 10–11
// multipath factors) need that depends only on the band, computed once per
// band — a Detector builds its plan with its profile — so no packet
// re-derives or re-validates it.
//
// The phase fit is ordinary least squares of y = a + b x over the
// subcarrier offsets x, i.e. the 2x2 normal equations
// [n Sx; Sx Sxx] [a; b] = [Sy; Sxy] that dsp::FitLinear forms and
// linalg::SolveLinearInPlace solves. Every band-only step of that solve —
// the sums in index order, the partial-pivot swap, the elimination factor
// and the reduced pivot — is done here with the same IEEE operations, so
// Fit() only replays the steps that involve y and returns FitLinear's
// coefficients bit for bit.
struct IngestPlan {
  // Throws PreconditionError for fewer than 2 subcarriers and
  // NumericalError when the offsets admit no unique line (the reduced pivot
  // is below SolveLinearInPlace's singularity bound).
  explicit IngestPlan(const wifi::BandPlan& band);

  // Solve for the line given the per-packet sums Sy = sum_k y_k and
  // Sxy = sum_k x_k * y_k, both accumulated from +0.0 in index order.
  PhaseFit Fit(double sum_y, double sum_xy) const;

  std::size_t num_subcarriers() const { return offsets.size(); }

  // BandPlan::OffsetHz(k), the fit's x values.
  std::vector<double> offsets;
  // Eq. 10 LOS fractions f_k^-2 / sum_i f_i^-2 (see LosFractionsInto).
  std::vector<double> los_frac;
  // The normal matrix after the partial-pivot step: row 0 is the pivot
  // row, `swapped` when the Sx row won the pivot (|Sx| > n). `factor` is
  // row1[0] / row0[0] and `reduced` the eliminated row1[1] (factor == 0
  // skips the elimination, as the solver does).
  double row0_0 = 0.0;
  double row0_1 = 0.0;
  double factor = 0.0;
  double reduced = 0.0;
  bool swapped = false;
};

// Reusable per-packet lanes: the antenna-summed CSI (split complex), its
// angle, and the per-subcarrier correction and rotation. Allocation-free
// once warm (Ensure grows only).
struct SanitizeScratch {
  kernels::AlignedBuffer sum_re;
  kernels::AlignedBuffer sum_im;
  kernels::AlignedBuffer avg_phase;
  kernels::AlignedBuffer corrections;  // -(offset + slope * f_off) per k
  kernels::AlignedBuffer rot_cos;
  kernels::AlignedBuffer rot_sin;

  // Pre-size every lane for `num_subcarriers`.
  void Reserve(std::size_t num_subcarriers);
};

// Unwrap a phase sequence (adjacent jumps > pi are folded).
std::vector<double> UnwrapPhase(const std::vector<double>& phases);

// Allocation-free variant: out.size() must equal phases.size().
void UnwrapPhaseInto(std::span<const double> phases, std::span<double> out);

// Fit the linear phase model to the antenna-averaged unwrapped CSI phase
// (IngestPlan::Fit on the unwrapped phase).
PhaseFit FitLinearPhase(const wifi::CsiPacket& packet, const IngestPlan& plan,
                        SanitizeScratch& scratch);

// Remove the fitted common phase and STO slope from all antennas. The band
// overloads build a plan on the spot.
wifi::CsiPacket SanitizePhase(const wifi::CsiPacket& packet,
                              const wifi::BandPlan& band);

// Scratch variant writing into `out`; no heap traffic once `out` and the
// scratch have warmed up to the packet shape.
void SanitizePhaseInto(const wifi::CsiPacket& packet, const IngestPlan& plan,
                       wifi::CsiPacket& out, SanitizeScratch& scratch);

// Sanitize straight into split rows: antenna m's real parts land at
// re[m * num_subcarriers], its imaginary parts at im[m * num_subcarriers] —
// exactly the bytes of SanitizePhaseInto followed by kernels::Deinterleave
// of each row. The engine's ingest path: one pass from the raw frame into
// the link's slab slot.
void SanitizePhaseSplitInto(const wifi::CsiPacket& packet,
                            const IngestPlan& plan, double* re, double* im,
                            SanitizeScratch& scratch);

// Convenience: sanitize a whole capture session.
std::vector<wifi::CsiPacket> SanitizePhase(
    const std::vector<wifi::CsiPacket>& packets, const wifi::BandPlan& band);

}  // namespace mulink::core
