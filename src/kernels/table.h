// Internal dispatch table: one function pointer per kernel. kernels.cpp
// selects a table at startup (CPUID) or on SetBackend(); the public entry
// points in kernels.h forward through the active table.
#pragma once

#include <cstddef>

#include "common/constants.h"

namespace mulink::kernels::detail {

struct KernelTable {
  void (*atan2)(const double* y, const double* x, std::size_t n, double* out);
  void (*sincos)(const double* x, std::size_t n, double* sin_out,
                 double* cos_out);
  void (*deinterleave)(const Complex* src, std::size_t n, double* re,
                       double* im);
  void (*rotate_rows)(const Complex* src, std::size_t rows, std::size_t cols,
                      const double* cos_v, const double* sin_v, Complex* dst);
  void (*rotate_rows_split)(const Complex* src, std::size_t rows,
                            std::size_t cols, const double* cos_v,
                            const double* sin_v, double* re, double* im);
  void (*mu_accumulate_row)(const Complex* row, const double* los_frac,
                            double dominant, std::size_t n, double* mu_accum);
  void (*mu_accumulate_split_row)(const double* re, const double* im,
                                  const double* los_frac, double dominant,
                                  std::size_t n, double* mu_accum);
  double (*dominant_tap_power_split)(const double* re, const double* im,
                                     std::size_t n);
  void (*mean_stability_accumulate)(const double* mu_row, double median,
                                    std::size_t n, double* mean_mu,
                                    double* stability);
  void (*multiply)(const double* a, const double* b, std::size_t n,
                   double* out);
  double (*sum_squares)(const double* a, std::size_t n);
  double (*normalized_distance_sq)(const double* a, const double* b,
                                   double norm, std::size_t n);
  void (*weighted_covariance)(const double* re, const double* im,
                              std::size_t antennas, std::size_t n,
                              const double* w_rep, Complex* out);
  void (*bartlett_scan)(const double* steer_re, const double* steer_im,
                        std::size_t points, std::size_t antennas,
                        const double* const* packed_covs, std::size_t num_covs,
                        double inv_norm, double* const* outs);
  void (*music_scan)(const double* steer_re, const double* steer_im,
                     std::size_t points, std::size_t antennas,
                     const double* noise_re, const double* noise_im,
                     std::size_t noise_dim, double denom_floor, double* out);
  void (*column_moments)(const double* plane, std::size_t rows,
                         std::size_t cols, std::size_t stride, double* sum,
                         double* sum_sq, double* sum_sqrt);
  void (*column_medians)(double* plane, std::size_t rows, std::size_t cols,
                         std::size_t stride, double* median, double* mad);
};

const KernelTable& ScalarTable();

#if defined(MULINK_SIMD_AVX2)
const KernelTable& Avx2Table();
#endif

}  // namespace mulink::kernels::detail
