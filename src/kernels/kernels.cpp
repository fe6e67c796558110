#include "kernels/kernels.h"

#include <atomic>

#include "common/assert.h"
#include "kernels/table.h"

namespace mulink::kernels {
namespace {

using detail::KernelTable;

bool CpuHasAvx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const KernelTable* TableFor(Backend backend) {
#if defined(MULINK_SIMD_AVX2)
  if (backend == Backend::kAvx2) {
    return &detail::Avx2Table();
  }
#else
  (void)backend;
#endif
  return &detail::ScalarTable();
}

Backend DefaultBackend() {
  return SimdCompiledIn() && CpuHasAvx2() ? Backend::kAvx2 : Backend::kScalar;
}

// The active table pointer. Dispatch is a relaxed atomic load: scoring
// threads only ever read it, and the only writers are process start and the
// test-only SetBackend/ResetBackend (called while no scoring runs).
std::atomic<const KernelTable*> g_active_table{TableFor(DefaultBackend())};
std::atomic<Backend> g_active_backend{DefaultBackend()};

const KernelTable& Active() {
  return *g_active_table.load(std::memory_order_relaxed);
}

}  // namespace

const char* ToString(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool SimdCompiledIn() {
#if defined(MULINK_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

bool BackendAvailable(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      return SimdCompiledIn() && CpuHasAvx2();
  }
  return false;
}

Backend ActiveBackend() {
  return g_active_backend.load(std::memory_order_relaxed);
}

void SetBackend(Backend backend) {
  MULINK_REQUIRE(BackendAvailable(backend),
                 "requested kernel backend is not available on this machine");
  g_active_backend.store(backend, std::memory_order_relaxed);
  g_active_table.store(TableFor(backend), std::memory_order_relaxed);
}

void ResetBackend() { SetBackend(DefaultBackend()); }

void Atan2(const double* y, const double* x, std::size_t n, double* out) {
  Active().atan2(y, x, n, out);
}

void SinCos(const double* x, std::size_t n, double* sin_out, double* cos_out) {
  Active().sincos(x, n, sin_out, cos_out);
}

void Deinterleave(const Complex* src, std::size_t n, double* re, double* im) {
  Active().deinterleave(src, n, re, im);
}

void RotateRows(const Complex* src, std::size_t rows, std::size_t cols,
                const double* cos_v, const double* sin_v, Complex* dst) {
  Active().rotate_rows(src, rows, cols, cos_v, sin_v, dst);
}

void RotateRowsSplit(const Complex* src, std::size_t rows, std::size_t cols,
                     const double* cos_v, const double* sin_v, double* re,
                     double* im) {
  Active().rotate_rows_split(src, rows, cols, cos_v, sin_v, re, im);
}

void MuAccumulateRow(const Complex* row, const double* los_frac,
                     double dominant, std::size_t n, double* mu_accum) {
  Active().mu_accumulate_row(row, los_frac, dominant, n, mu_accum);
}

void MuAccumulateSplitRow(const double* re, const double* im,
                          const double* los_frac, double dominant,
                          std::size_t n, double* mu_accum) {
  Active().mu_accumulate_split_row(re, im, los_frac, dominant, n, mu_accum);
}

double DominantTapPowerSplit(const double* re, const double* im,
                             std::size_t n) {
  return Active().dominant_tap_power_split(re, im, n);
}

void MeanStabilityAccumulate(const double* mu_row, double median,
                             std::size_t n, double* mean_mu,
                             double* stability) {
  Active().mean_stability_accumulate(mu_row, median, n, mean_mu, stability);
}

void Multiply(const double* a, const double* b, std::size_t n, double* out) {
  Active().multiply(a, b, n, out);
}

double SumSquares(const double* a, std::size_t n) {
  return Active().sum_squares(a, n);
}

double NormalizedDistanceSq(const double* a, const double* b, double norm,
                            std::size_t n) {
  return Active().normalized_distance_sq(a, b, norm, n);
}

void WeightedCovariance(const double* re, const double* im,
                        std::size_t antennas, std::size_t n,
                        const double* w_rep, Complex* out) {
  Active().weighted_covariance(re, im, antennas, n, w_rep, out);
}

std::size_t PackedHermitianSize(std::size_t antennas) {
  return antennas * antennas;
}

// Packing is layout shuffling, not arithmetic — one scalar definition.
void PackHermitian(const Complex* cov, std::size_t antennas, double* packed) {
  for (std::size_t m = 0; m < antennas; ++m) {
    packed[m] = cov[m * antennas + m].real();
  }
  std::size_t idx = antennas;
  for (std::size_t m = 0; m < antennas; ++m) {
    for (std::size_t j = m + 1; j < antennas; ++j) {
      packed[idx] = cov[m * antennas + j].real();
      packed[idx + 1] = cov[m * antennas + j].imag();
      idx += 2;
    }
  }
}

void BartlettScan(const double* steer_re, const double* steer_im,
                  std::size_t points, std::size_t antennas,
                  const double* const* packed_covs, std::size_t num_covs,
                  double inv_norm, double* const* outs) {
  Active().bartlett_scan(steer_re, steer_im, points, antennas, packed_covs,
                         num_covs, inv_norm, outs);
}

void MusicScan(const double* steer_re, const double* steer_im,
               std::size_t points, std::size_t antennas,
               const double* noise_re, const double* noise_im,
               std::size_t noise_dim, double denom_floor, double* out) {
  Active().music_scan(steer_re, steer_im, points, antennas, noise_re, noise_im,
                      noise_dim, denom_floor, out);
}

void ColumnMoments(const double* plane, std::size_t rows, std::size_t cols,
                   std::size_t stride, double* sum, double* sum_sq,
                   double* sum_sqrt) {
  Active().column_moments(plane, rows, cols, stride, sum, sum_sq, sum_sqrt);
}

void ColumnMedians(double* plane, std::size_t rows, std::size_t cols,
                   std::size_t stride, double* median, double* mad) {
  Active().column_medians(plane, rows, cols, stride, median, mad);
}

}  // namespace mulink::kernels
