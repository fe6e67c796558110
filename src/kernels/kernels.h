// Vectorized kernel layer for the scoring core (DESIGN.md §14).
//
// A small set of typed kernels — split-complex covariance accumulation,
// steering-table spectral scans (Bartlett / MUSIC), the sanitize trig maps,
// and the weighting / scoring reductions — each available as a portable
// scalar implementation and, when MULINK_SIMD is ON and the CPU supports it,
// an AVX2 implementation selected by runtime CPUID dispatch.
//
// Contract: for identical inputs, every backend produces bit-identical
// outputs. Elementwise kernels vectorize with lane == output element, so the
// scalar loop and the SIMD lanes perform the same rounded operations per
// element. Reductions are defined with a fixed 4-way striped accumulation
// (acc[t % 4], combined as (l0+l2)+(l1+l3)); the scalar backend implements
// exactly that striping, so reassociation never diverges between backends.
// The trig kernels (Atan2/SinCos) share one polynomial definition across
// backends — they agree with libm to ~1e-13 but are NOT bit-identical to it;
// call sites that switched from libm re-baselined (tolerance policy in
// DESIGN.md §14).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/annotations.h"
#include "common/constants.h"

namespace mulink::kernels {

enum class Backend {
  kScalar,  // portable fallback; also the semantic reference
  kAvx2,    // AVX2 (no FMA — contraction would break cross-backend parity)
};

const char* ToString(Backend backend);

// Whether the AVX2 backend was compiled in (-DMULINK_SIMD=ON).
bool SimdCompiledIn();

// Whether `backend` can execute on this machine (compiled in + CPUID).
bool BackendAvailable(Backend backend);

// The backend every kernel below currently dispatches to. Defaults to the
// fastest available one (AVX2 when compiled in and supported by the CPU).
Backend ActiveBackend();

// Override dispatch (parity tests score the same window under both
// backends). Requires BackendAvailable(backend).
void SetBackend(Backend backend);

// Restore the default (auto-detected) backend.
void ResetBackend();

// ---- sanitize trig maps ------------------------------------------------

// out[i] = atan2(y[i], x[i]). Shared half-angle + series definition across
// backends; agrees with std::atan2 to ~1e-13 rad (exact for the axis cases
// atan2(±0, x)). Both zero -> ±0 like libm.
MULINK_HOT void Atan2(const double* y, const double* x, std::size_t n, double* out);

// sin_out[i] = sin(x[i]), cos_out[i] = cos(x[i]) via Cody–Waite reduction
// and the classic fdlibm kernel polynomials; ~1e-14 absolute error for the
// |x| < 1e6 range the sanitize corrections live in.
MULINK_HOT void SinCos(const double* x, std::size_t n, double* sin_out, double* cos_out);

// ---- complex layout / rotation -----------------------------------------

// Split an interleaved complex array into SoA planes: re[i] = src[i].real().
MULINK_HOT void Deinterleave(const Complex* src, std::size_t n, double* re, double* im);

// dst[r*cols + k] = src[r*cols + k] * (cos_v[k] + i*sin_v[k]) — the common
// per-subcarrier phase rotation applied to every antenna row. In-place
// (dst == src) is allowed.
MULINK_HOT void RotateRows(const Complex* src, std::size_t rows, std::size_t cols,
                const double* cos_v, const double* sin_v, Complex* dst);

// RotateRows writing split rows: re[r*cols + k] / im[r*cols + k] receive the
// real / imaginary part of the rotated src[r*cols + k] — the same
// re*c - im*s, re*s + im*c products, so the bytes equal RotateRows followed
// by Deinterleave of each row. The outputs must not alias src.
MULINK_HOT void RotateRowsSplit(const Complex* src, std::size_t rows,
                                std::size_t cols, const double* cos_v,
                                const double* sin_v, double* re, double* im);

// ---- multipath / weighting reductions ----------------------------------

// Eq. 11 per-subcarrier multipath factors of one antenna row, accumulated:
// mu_accum[k] += |row[k]|^2 > 0 ? (los_frac[k] * dominant) / |row[k]|^2 : 0.
MULINK_HOT void MuAccumulateRow(const Complex* row, const double* los_frac,
                     double dominant, std::size_t n, double* mu_accum);

// MuAccumulateRow over one split row (re[k], im[k]): the same per-element
// power and ratio, so the sums match the interleaved kernel bit for bit.
MULINK_HOT void MuAccumulateSplitRow(const double* re, const double* im,
                                     const double* los_frac, double dominant,
                                     std::size_t n, double* mu_accum);

// Eq. 10's dominant-tap power |mean_k h[k]|^2 of one split row: re and im
// summed in index order from +0.0, each divided by n, then re^2 + im^2 —
// dsp::DominantTapPower's complex accumulation, componentwise (n >= 1).
MULINK_HOT double DominantTapPowerSplit(const double* re, const double* im,
                                        std::size_t n);

// Eq. 14/15 accumulation for one packet's mu row:
// mean_mu[k] += mu_row[k]; stability[k] += (mu_row[k] > median) ? 1 : 0.
MULINK_HOT void MeanStabilityAccumulate(const double* mu_row, double median,
                             std::size_t n, double* mean_mu,
                             double* stability);

// out[i] = a[i] * b[i] (path-weight application).
MULINK_HOT void Multiply(const double* a, const double* b, std::size_t n, double* out);

// Striped sum of a[i]^2 (spectrum norm).
MULINK_HOT double SumSquares(const double* a, std::size_t n);

// Striped sum of ((a[i] - b[i]) / norm)^2 (the combined scheme's
// profile-normalized spectrum distance).
MULINK_HOT double NormalizedDistanceSq(const double* a, const double* b, double norm,
                            std::size_t n);

// ---- covariance --------------------------------------------------------

// Weighted Hermitian sample covariance from split-complex planes.
// re/im hold `antennas` planes of n elements each (plane m at offset m*n);
// w_rep holds the per-element weight (the subcarrier weight replicated
// across packets, zero-clipped). Writes the full antennas x antennas
// row-major Hermitian matrix: out[i][j] = striped-sum_t w[t] * x_i(t) *
// conj(x_j(t)), with out[j][i] its exact conjugate and a real diagonal.
MULINK_HOT void WeightedCovariance(const double* re, const double* im,
                        std::size_t antennas, std::size_t n,
                        const double* w_rep, Complex* out);

// ---- spectral scans ----------------------------------------------------

// Packed real layout of a Hermitian matrix consumed by the scans below:
// [diag_0 .. diag_{A-1}, re_01, im_01, re_02, im_02, ..] (pairs i<j in
// row-major order). Size is A^2 doubles.
std::size_t PackedHermitianSize(std::size_t antennas);
MULINK_HOT void PackHermitian(const Complex* cov, std::size_t antennas, double* packed);

// Bartlett scan over an SoA steering table (steer_re/steer_im: plane m at
// offset m*points), batched across `num_covs` packed covariances so the
// steering work amortizes: outs[c][i] = max(a_i^H R_c a_i * inv_norm, 0).
MULINK_HOT void BartlettScan(const double* steer_re, const double* steer_im,
                  std::size_t points, std::size_t antennas,
                  const double* const* packed_covs, std::size_t num_covs,
                  double inv_norm, double* const* outs);

// MUSIC scan: out[i] = 1 / max(sum_e |<v_e, a_i>|^2, denom_floor) over the
// noise eigenvectors v_e (noise_re/noise_im: vector e at offset e*antennas).
MULINK_HOT void MusicScan(const double* steer_re, const double* steer_im,
               std::size_t points, std::size_t antennas,
               const double* noise_re, const double* noise_im,
               std::size_t noise_dim, double denom_floor, double* out);

// ---- column statistics -------------------------------------------------

// Per-column raw moments of a row-major rows x stride plane over its first
// `cols` columns (lane == column): sum[c], sum_sq[c] and sum_sqrt[c] add
// x, x*x and sqrt(x) of column c row by row in row order, from +0.0 — the
// order a per-cell loop over the rows uses (sqrt is correctly rounded, so
// the vector lanes agree with std::sqrt).
MULINK_HOT void ColumnMoments(const double* plane, std::size_t rows,
                              std::size_t cols, std::size_t stride,
                              double* sum, double* sum_sq, double* sum_sqrt);

// ---- order statistics --------------------------------------------------

// Column medians of a row-major rows x stride plane, over its first `cols`
// columns (lane == column; rows >= 1, cols <= stride). Sorts each column in
// place with Batcher's odd–even merge network pruned to `rows` and writes
// median[c] = sorted[mid] for odd rows, 0.5 * (sorted[mid-1] + sorted[mid])
// for even rows (mid = rows / 2) — the value dsp::MedianInPlace returns,
// because an order statistic does not depend on how it was selected. When
// `mad` is non-null, each column is then replaced by |x - median[c]|
// (V-shaped over the sorted column, so a bitonic merge re-sorts it) and
// mad[c] is its median — dsp::MedianAbsDeviation. Compare-exchange is
// lo = a < b ? a : b, hi = a < b ? b : a, so backends agree even on NaN.
MULINK_HOT void ColumnMedians(double* plane, std::size_t rows, std::size_t cols,
                              std::size_t stride, double* median, double* mad);

// ---- cache hints ---------------------------------------------------------

// Start loading the cache line holding `p` into every cache level (with
// intent to write when `for_write`), so a later access finds it cached. A
// hint only: it never faults and never changes a value.
//
// On x86 the instruction is a volatile asm statement. GCC treats
// __builtin_prefetch as free of side effects, so a function that only
// prefetches is inferred `const` and a call to it that is not inlined is
// deleted (GCC 12 at -O2 emptied SensingEngine::PrefetchLink that way).
inline void Prefetch(const void* p, bool for_write = false) {
#if defined(__x86_64__) || defined(__i386__)
  // PREFETCHW runs as a NOP on x86 parts without it.
  if (for_write) {
    asm volatile("prefetchw %0" : : "m"(*static_cast<const char*>(p)));
  } else {
    asm volatile("prefetcht0 %0" : : "m"(*static_cast<const char*>(p)));
  }
#elif defined(__GNUC__) || defined(__clang__)
  if (for_write) {
    __builtin_prefetch(p, 1, 3);
  } else {
    __builtin_prefetch(p, 0, 3);
  }
#else
  (void)p;
  (void)for_write;
#endif
}

// Prefetch every cache line that [p, p + bytes) touches.
inline void PrefetchRange(const void* p, std::size_t bytes,
                          bool for_write = false) {
  constexpr std::uintptr_t kLine = 64;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  for (std::uintptr_t line = begin & ~(kLine - 1); line < begin + bytes;
       line += kLine) {
    Prefetch(reinterpret_cast<const void*>(line), for_write);
  }
}

}  // namespace mulink::kernels
