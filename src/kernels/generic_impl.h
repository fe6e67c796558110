// Portable reference implementations of every kernel (DESIGN.md §14).
//
// These ARE the semantic definition of the kernel layer: the scalar backend
// is a thin table over these loops, and the AVX2 backend must reproduce
// their results bitwise. Reductions use a fixed 4-way striped accumulator
// (lane = t % 4, combined (l0+l2)+(l1+l3)) so a 4-lane vector accumulator
// performs the identical rounded additions. The AVX2 TU also calls the
// per-element helpers here for loop tails.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/constants.h"
#include "kernels/trig_core.h"

namespace mulink::kernels::detail {

// Striped 4-accumulator sum: the reduction order every backend implements.
// Tail elements (n % 4) continue filling lanes 0..2 in order, matching the
// AVX2 masked-tail load where absent lanes contribute exact +0.0 terms.
template <typename Term>
inline double StripedSum(std::size_t n, Term term) {
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    acc0 += term(t);
    acc1 += term(t + 1);
    acc2 += term(t + 2);
    acc3 += term(t + 3);
  }
  if (t < n) acc0 += term(t++);
  if (t < n) acc1 += term(t++);
  if (t < n) acc2 += term(t);
  return (acc0 + acc2) + (acc1 + acc3);
}

inline void GenericAtan2(const double* y, const double* x, std::size_t n,
                         double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = Atan2Scalar(y[i], x[i]);
  }
}

inline void GenericSinCos(const double* x, std::size_t n, double* sin_out,
                          double* cos_out) {
  for (std::size_t i = 0; i < n; ++i) {
    const SinCosPair sc = SinCosScalar(x[i]);
    sin_out[i] = sc.sin;
    cos_out[i] = sc.cos;
  }
}

inline void GenericDeinterleave(const Complex* src, std::size_t n, double* re,
                                double* im) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = src[i].real();
    im[i] = src[i].imag();
  }
}

// (a + bi) * (c + si) with the exact operation order the AVX2 path uses:
// re' = a*c - b*s, im' = a*s + b*c. This matches libstdc++'s non-C99
// complex operator* DAG for finite inputs, so switching the sanitize
// rotation onto this kernel did not change results.
inline Complex RotateOne(Complex z, double c, double s) {
  const double re = z.real();
  const double im = z.imag();
  return {re * c - im * s, re * s + im * c};
}

inline void GenericRotateRows(const Complex* src, std::size_t rows,
                              std::size_t cols, const double* cos_v,
                              const double* sin_v, Complex* dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    const Complex* src_row = src + r * cols;
    Complex* dst_row = dst + r * cols;
    for (std::size_t k = 0; k < cols; ++k) {
      dst_row[k] = RotateOne(src_row[k], cos_v[k], sin_v[k]);
    }
  }
}

inline void GenericRotateRowsSplit(const Complex* src, std::size_t rows,
                                   std::size_t cols, const double* cos_v,
                                   const double* sin_v, double* re,
                                   double* im) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < cols; ++k) {
      const std::size_t i = r * cols + k;
      const Complex z = RotateOne(src[i], cos_v[k], sin_v[k]);
      re[i] = z.real();
      im[i] = z.imag();
    }
  }
}

inline double MuSplitOne(double re, double im, double los_frac,
                         double dominant) {
  const double power = re * re + im * im;
  return power > 0.0 ? (los_frac * dominant) / power : 0.0;
}

inline double MuOne(Complex h, double los_frac, double dominant) {
  return MuSplitOne(h.real(), h.imag(), los_frac, dominant);
}

inline void GenericMuAccumulateRow(const Complex* row, const double* los_frac,
                                   double dominant, std::size_t n,
                                   double* mu_accum) {
  for (std::size_t k = 0; k < n; ++k) {
    mu_accum[k] += MuOne(row[k], los_frac[k], dominant);
  }
}

inline void GenericMuAccumulateSplitRow(const double* re, const double* im,
                                        const double* los_frac,
                                        double dominant, std::size_t n,
                                        double* mu_accum) {
  for (std::size_t k = 0; k < n; ++k) {
    mu_accum[k] += MuSplitOne(re[k], im[k], los_frac[k], dominant);
  }
}

inline double GenericDominantTapPowerSplit(const double* re, const double* im,
                                           std::size_t n) {
  double sum_re = 0.0;
  double sum_im = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum_re += re[k];
    sum_im += im[k];
  }
  const double mean_re = sum_re / static_cast<double>(n);
  const double mean_im = sum_im / static_cast<double>(n);
  return mean_re * mean_re + mean_im * mean_im;
}

inline void GenericMeanStabilityAccumulate(const double* mu_row, double median,
                                           std::size_t n, double* mean_mu,
                                           double* stability) {
  for (std::size_t k = 0; k < n; ++k) {
    mean_mu[k] += mu_row[k];
    // The AVX2 path adds (mask & 1.0), i.e. +0.0 on false lanes — exact.
    stability[k] += mu_row[k] > median ? 1.0 : 0.0;
  }
}

inline void GenericMultiply(const double* a, const double* b, std::size_t n,
                            double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

inline double GenericSumSquares(const double* a, std::size_t n) {
  return StripedSum(n, [&](std::size_t t) { return a[t] * a[t]; });
}

inline double GenericNormalizedDistanceSq(const double* a, const double* b,
                                          double norm, std::size_t n) {
  return StripedSum(n, [&](std::size_t t) {
    const double d = (a[t] - b[t]) / norm;
    return d * d;
  });
}

inline void GenericWeightedCovariance(const double* re, const double* im,
                                      std::size_t antennas, std::size_t n,
                                      const double* w_rep, Complex* out) {
  for (std::size_t i = 0; i < antennas; ++i) {
    const double* xr = re + i * n;
    const double* xi = im + i * n;
    out[i * antennas + i] =
        Complex(StripedSum(n,
                           [&](std::size_t t) {
                             return w_rep[t] *
                                    (xr[t] * xr[t] + xi[t] * xi[t]);
                           }),
                0.0);
    for (std::size_t j = i + 1; j < antennas; ++j) {
      const double* yr = re + j * n;
      const double* yi = im + j * n;
      // R_ij = sum_t w * x_i(t) * conj(x_j(t))
      const double c_re = StripedSum(n, [&](std::size_t t) {
        return w_rep[t] * (xr[t] * yr[t] + xi[t] * yi[t]);
      });
      const double c_im = StripedSum(n, [&](std::size_t t) {
        return w_rep[t] * (xi[t] * yr[t] - xr[t] * yi[t]);
      });
      out[i * antennas + j] = Complex(c_re, c_im);
      out[j * antennas + i] = Complex(c_re, -c_im);
    }
  }
}

// One Bartlett grid point against one packed covariance: the expanded
// Hermitian quadratic form a^H R a = sum_m d_m |a_m|^2
// + 2 * sum_{m<j} [re_mj*(p*u + q*v) - im_mj*(p*v - q*u)] with a_m = p + qi,
// a_j = u + vi. Evaluated per grid point (SIMD lane = grid point), so both
// backends run the same per-point DAG.
inline double BartlettPoint(const double* steer_re, const double* steer_im,
                            std::size_t points, std::size_t antennas,
                            const double* packed, std::size_t i) {
  double acc = 0.0;
  for (std::size_t m = 0; m < antennas; ++m) {
    const double p = steer_re[m * points + i];
    const double q = steer_im[m * points + i];
    acc += packed[m] * (p * p + q * q);
  }
  std::size_t idx = antennas;
  for (std::size_t m = 0; m < antennas; ++m) {
    for (std::size_t j = m + 1; j < antennas; ++j) {
      const double r = packed[idx];
      const double s = packed[idx + 1];
      idx += 2;
      const double p = steer_re[m * points + i];
      const double q = steer_im[m * points + i];
      const double u = steer_re[j * points + i];
      const double v = steer_im[j * points + i];
      acc += 2.0 * (r * (p * u + q * v) - s * (p * v - q * u));
    }
  }
  return acc;
}

inline void GenericBartlettScan(const double* steer_re, const double* steer_im,
                                std::size_t points, std::size_t antennas,
                                const double* const* packed_covs,
                                std::size_t num_covs, double inv_norm,
                                double* const* outs) {
  for (std::size_t i = 0; i < points; ++i) {
    for (std::size_t c = 0; c < num_covs; ++c) {
      const double value =
          BartlettPoint(steer_re, steer_im, points, antennas, packed_covs[c],
                        i) *
          inv_norm;
      outs[c][i] = value > 0.0 ? value : 0.0;
    }
  }
}

inline double MusicPoint(const double* steer_re, const double* steer_im,
                         std::size_t points, std::size_t antennas,
                         const double* noise_re, const double* noise_im,
                         std::size_t noise_dim, double denom_floor,
                         std::size_t i) {
  double denom = 0.0;
  for (std::size_t e = 0; e < noise_dim; ++e) {
    const double* vr = noise_re + e * antennas;
    const double* vi = noise_im + e * antennas;
    double dot_re = 0.0;
    double dot_im = 0.0;
    for (std::size_t m = 0; m < antennas; ++m) {
      const double p = steer_re[m * points + i];
      const double q = steer_im[m * points + i];
      // conj(v_m) * a_m
      dot_re += vr[m] * p + vi[m] * q;
      dot_im += vr[m] * q - vi[m] * p;
    }
    denom += dot_re * dot_re + dot_im * dot_im;
  }
  return 1.0 / (denom > denom_floor ? denom : denom_floor);
}

inline void GenericMusicScan(const double* steer_re, const double* steer_im,
                             std::size_t points, std::size_t antennas,
                             const double* noise_re, const double* noise_im,
                             std::size_t noise_dim, double denom_floor,
                             double* out) {
  for (std::size_t i = 0; i < points; ++i) {
    out[i] = MusicPoint(steer_re, steer_im, points, antennas, noise_re,
                        noise_im, noise_dim, denom_floor, i);
  }
}

// ---- column statistics ----------------------------------------------------

inline void GenericColumnMoments(const double* plane, std::size_t rows,
                                 std::size_t cols, std::size_t stride,
                                 double* sum, double* sum_sq,
                                 double* sum_sqrt) {
  for (std::size_t c = 0; c < cols; ++c) {
    sum[c] = 0.0;
    sum_sq[c] = 0.0;
    sum_sqrt[c] = 0.0;
  }
  // Row-outer keeps the plane walk sequential; each column still adds its
  // rows in row order.
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = plane + r * stride;
    for (std::size_t c = 0; c < cols; ++c) {
      sum[c] += row[c];
      sum_sq[c] += row[c] * row[c];
      sum_sqrt[c] += std::sqrt(row[c]);
    }
  }
}

// ---- column order statistics ---------------------------------------------
//
// Both backends walk the same sorting networks from the loop nests below
// (no comparator table), one lane per column, with one compare-exchange:
// lo = a < b ? a : b, hi = a < b ? b : a — exactly _mm256_min_pd(a, b) and
// _mm256_max_pd(b, a), so they agree even on NaN. {lo, hi} is always a
// permutation of {a, b}.

inline void CompareExchange(double* a, double* b) {
  const double x = *a;
  const double y = *b;
  // A bitwise select on the comparison mask: branch-free (a sorting
  // network's compare outcomes are data-dependent, so a branch mispredicts
  // constantly), and exact for every input, NaN and signed zeros included.
  const std::uint64_t x_bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t y_bits = std::bit_cast<std::uint64_t>(y);
  const std::uint64_t less = 0 - static_cast<std::uint64_t>(x < y);
  *a = std::bit_cast<double>((x_bits & less) | (y_bits & ~less));
  *b = std::bit_cast<double>((y_bits & less) | (x_bits & ~less));
}

// Batcher's odd–even merge sort over keys 0..n-1: cx(i, j), i < j, for
// every comparator of the network on the next power of two, in network
// order, skipping those that reach past n-1. With the missing keys read as
// +inf those comparators are no-ops, so the pruned network still sorts.
template <typename Cx>
inline void OddEvenMergeSortNetwork(std::size_t n, Cx cx) {
  for (std::size_t p = 1; p < n; p += p) {
    for (std::size_t k = p; k > 0; k /= 2) {
      for (std::size_t j = k % p; j + k < n; j += 2 * k) {
        // The comparators (i, i + k), i in [j, j + k), either all stay
        // inside one 2p-block of this merge level or all straddle a block
        // boundary (then they belong to no merge), so one test per run.
        if ((j ^ (j + k)) >= 2 * p) continue;
        const std::size_t end = j + k < n - k ? j + k : n - k;
        for (std::size_t i = j; i < end; ++i) cx(i, i + k);
      }
    }
  }
}

// Bitonic merge over keys 0..n-1 that are V-shaped (non-increasing, then
// non-decreasing): half-cleaners of the next power of two, pruned like the
// sort above (+inf padding keeps the sequence V-shaped).
template <typename Cx>
inline void BitonicMergeNetwork(std::size_t n, Cx cx) {
  std::size_t half = 1;
  while (2 * half < n) half *= 2;
  for (; half > 0 && n > 1; half /= 2) {
    for (std::size_t block = 0; block + half < n; block += 2 * half) {
      for (std::size_t i = block; i < block + half && i + half < n; ++i) {
        cx(i, i + half);
      }
    }
  }
}

// The middle order statistic of `cols` sorted columns: sorted[mid] for odd
// rows, 0.5 * (sorted[mid-1] + sorted[mid]) for even rows.
inline void GenericColumnMiddle(const double* plane, std::size_t rows,
                                std::size_t cols, std::size_t stride,
                                double* out) {
  const double* hi = plane + (rows / 2) * stride;
  if (rows % 2 == 1) {
    for (std::size_t c = 0; c < cols; ++c) out[c] = hi[c];
    return;
  }
  const double* lo = hi - stride;
  for (std::size_t c = 0; c < cols; ++c) out[c] = 0.5 * (lo[c] + hi[c]);
}

inline void GenericColumnMedians(double* plane, std::size_t rows,
                                 std::size_t cols, std::size_t stride,
                                 double* median, double* mad) {
  const auto cx = [&](std::size_t i, std::size_t j) {
    double* a = plane + i * stride;
    double* b = plane + j * stride;
    for (std::size_t c = 0; c < cols; ++c) CompareExchange(a + c, b + c);
  };
  OddEvenMergeSortNetwork(rows, cx);
  GenericColumnMiddle(plane, rows, cols, stride, median);
  if (mad == nullptr) return;
  // |sorted - median| descends to the median, then ascends: V-shaped.
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = plane + r * stride;
    for (std::size_t c = 0; c < cols; ++c) {
      row[c] = std::abs(row[c] - median[c]);
    }
  }
  BitonicMergeNetwork(rows, cx);
  GenericColumnMiddle(plane, rows, cols, stride, mad);
}

}  // namespace mulink::kernels::detail
