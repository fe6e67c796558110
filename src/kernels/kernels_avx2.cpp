// AVX2 backend. Compiled only when MULINK_SIMD=ON, with
// -mavx2 -mno-fma -ffp-contract=off: FMA contraction would change rounding
// versus the scalar reference, and the bit-identity contract (DESIGN.md §14)
// forbids that. Every vector sequence below evaluates the same operation DAG
// as the matching loop in generic_impl.h — elementwise kernels with
// lane == element, reductions with lane == (t % 4) stripe — and loop tails
// either fall back to the scalar helpers or accumulate into the extracted
// stripe lanes, so outputs match the scalar backend bitwise.
#if defined(MULINK_SIMD_AVX2)

#include <immintrin.h>

#include <cstddef>

#include "common/constants.h"
#include "kernels/generic_impl.h"
#include "kernels/table.h"

namespace mulink::kernels::detail {
namespace {

inline __m256d SignMask() { return _mm256_set1_pd(-0.0); }

inline __m256d Abs(__m256d x) { return _mm256_andnot_pd(SignMask(), x); }

inline __m256d Neg(__m256d x) { return _mm256_xor_pd(x, SignMask()); }

// Horizontal combine in the striped order (l0 + l2) + (l1 + l3).
inline double StripedCombine(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);    // l0, l1
  const __m128d hi = _mm256_extractf128_pd(acc, 1);  // l2, l3
  const __m128d pair = _mm_add_pd(lo, hi);           // l0+l2, l1+l3
  return _mm_cvtsd_f64(pair) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

// Finish a striped reduction: spill the vector stripes, accumulate the
// scalar tail terms into lanes 0..2 exactly like detail::StripedSum, then
// combine. `term(t)` must be the same expression the main vector loop used.
template <typename Term>
inline double StripedFinish(__m256d acc, std::size_t t, std::size_t n,
                            Term term) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  if (t < n) lanes[0] += term(t++);
  if (t < n) lanes[1] += term(t++);
  if (t < n) lanes[2] += term(t);
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

// Load 4 interleaved complex values into split re/im vectors.
inline void LoadComplex4(const Complex* src, __m256d* re, __m256d* im) {
  const double* p = reinterpret_cast<const double*>(src);
  const __m256d z0 = _mm256_loadu_pd(p);      // a0 b0 a1 b1
  const __m256d z1 = _mm256_loadu_pd(p + 4);  // a2 b2 a3 b3
  const __m256d lo = _mm256_unpacklo_pd(z0, z1);  // a0 a2 a1 a3
  const __m256d hi = _mm256_unpackhi_pd(z0, z1);  // b0 b2 b1 b3
  *re = _mm256_permute4x64_pd(lo, 0b11011000);    // a0 a1 a2 a3
  *im = _mm256_permute4x64_pd(hi, 0b11011000);    // b0 b1 b2 b3
}

// ---- trig ---------------------------------------------------------------

inline __m256d Atan2Vec(__m256d y, __m256d x) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d ax = Abs(x);
  const __m256d ay = Abs(y);
  const __m256d swap = _mm256_cmp_pd(ay, ax, _CMP_GT_OQ);
  const __m256d num = _mm256_blendv_pd(ay, ax, swap);
  const __m256d den = _mm256_blendv_pd(ax, ay, swap);
  const __m256d den_pos = _mm256_cmp_pd(den, zero, _CMP_GT_OQ);
  // The div runs speculatively for den == 0 lanes (0/0 -> NaN, discarded by
  // the blend); SSE/AVX arithmetic never traps under the default MXCSR.
  const __m256d ratio = _mm256_div_pd(num, den);
  const __m256d t = _mm256_blendv_pd(zero, ratio, den_pos);
  const __m256d t1 = _mm256_div_pd(
      t, _mm256_add_pd(one, _mm256_sqrt_pd(
                                _mm256_add_pd(one, _mm256_mul_pd(t, t)))));
  const __m256d t2 = _mm256_div_pd(
      t1, _mm256_add_pd(one, _mm256_sqrt_pd(_mm256_add_pd(
                                 one, _mm256_mul_pd(t1, t1)))));
  const __m256d u = _mm256_mul_pd(t2, t2);
  __m256d poly = _mm256_set1_pd(kA9);
  poly = _mm256_add_pd(_mm256_set1_pd(kA8), _mm256_mul_pd(u, poly));
  poly = _mm256_add_pd(_mm256_set1_pd(kA7), _mm256_mul_pd(u, poly));
  poly = _mm256_add_pd(_mm256_set1_pd(kA6), _mm256_mul_pd(u, poly));
  poly = _mm256_add_pd(_mm256_set1_pd(kA5), _mm256_mul_pd(u, poly));
  poly = _mm256_add_pd(_mm256_set1_pd(kA4), _mm256_mul_pd(u, poly));
  poly = _mm256_add_pd(_mm256_set1_pd(kA3), _mm256_mul_pd(u, poly));
  poly = _mm256_add_pd(_mm256_set1_pd(kA2), _mm256_mul_pd(u, poly));
  poly = _mm256_add_pd(_mm256_set1_pd(kA1), _mm256_mul_pd(u, poly));
  __m256d base = _mm256_mul_pd(
      _mm256_set1_pd(4.0),
      _mm256_add_pd(t2, _mm256_mul_pd(_mm256_mul_pd(t2, u), poly)));
  base = _mm256_blendv_pd(base, _mm256_sub_pd(_mm256_set1_pd(kHalfPi), base),
                          swap);
  // blendv keys on the sign bit of x — exactly std::signbit (includes -0).
  base =
      _mm256_blendv_pd(base, _mm256_sub_pd(_mm256_set1_pd(kPi), base), x);
  // copysign(base, y)
  return _mm256_or_pd(_mm256_andnot_pd(SignMask(), base),
                      _mm256_and_pd(SignMask(), y));
}

void Avx2Atan2(const double* y, const double* x, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     Atan2Vec(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) {
    out[i] = Atan2Scalar(y[i], x[i]);
  }
}

inline void SinCosVec(__m256d x, __m256d* sin_out, __m256d* cos_out) {
  const __m256d fn = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kTwoOverPi)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(fn, _mm256_set1_pd(kPiOver2Hi))),
      _mm256_mul_pd(fn, _mm256_set1_pd(kPiOver2Lo)));
  const __m256d t = _mm256_mul_pd(r, r);
  __m256d sp = _mm256_set1_pd(kS6);
  sp = _mm256_add_pd(_mm256_set1_pd(kS5), _mm256_mul_pd(t, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(kS4), _mm256_mul_pd(t, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(kS3), _mm256_mul_pd(t, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(kS2), _mm256_mul_pd(t, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(kS1), _mm256_mul_pd(t, sp));
  const __m256d sin_r =
      _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(r, t), sp));
  __m256d cp = _mm256_set1_pd(kC6);
  cp = _mm256_add_pd(_mm256_set1_pd(kC5), _mm256_mul_pd(t, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(kC4), _mm256_mul_pd(t, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(kC3), _mm256_mul_pd(t, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(kC2), _mm256_mul_pd(t, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(kC1), _mm256_mul_pd(t, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(-0.5), _mm256_mul_pd(t, cp));
  const __m256d cos_r = _mm256_add_pd(_mm256_set1_pd(1.0),
                                      _mm256_mul_pd(t, cp));
  // Quadrant select: fn is integral and small, so the int32 conversion is
  // exact, and &3 on two's complement matches the scalar int64 path.
  const __m128i n32 = _mm256_cvtpd_epi32(fn);
  const __m128i quad = _mm_and_si128(n32, _mm_set1_epi32(3));
  const __m256d m1 = _mm256_castsi256_pd(
      _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(quad, _mm_set1_epi32(1))));
  const __m256d m2 = _mm256_castsi256_pd(
      _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(quad, _mm_set1_epi32(2))));
  const __m256d m3 = _mm256_castsi256_pd(
      _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(quad, _mm_set1_epi32(3))));
  __m256d s = sin_r;
  __m256d c = cos_r;
  s = _mm256_blendv_pd(s, cos_r, m1);
  c = _mm256_blendv_pd(c, Neg(sin_r), m1);
  s = _mm256_blendv_pd(s, Neg(sin_r), m2);
  c = _mm256_blendv_pd(c, Neg(cos_r), m2);
  s = _mm256_blendv_pd(s, Neg(cos_r), m3);
  c = _mm256_blendv_pd(c, sin_r, m3);
  *sin_out = s;
  *cos_out = c;
}

void Avx2SinCos(const double* x, std::size_t n, double* sin_out,
                double* cos_out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d s;
    __m256d c;
    SinCosVec(_mm256_loadu_pd(x + i), &s, &c);
    _mm256_storeu_pd(sin_out + i, s);
    _mm256_storeu_pd(cos_out + i, c);
  }
  for (; i < n; ++i) {
    const SinCosPair sc = SinCosScalar(x[i]);
    sin_out[i] = sc.sin;
    cos_out[i] = sc.cos;
  }
}

// ---- complex layout / rotation -----------------------------------------

void Avx2Deinterleave(const Complex* src, std::size_t n, double* re,
                      double* im) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d r;
    __m256d m;
    LoadComplex4(src + i, &r, &m);
    _mm256_storeu_pd(re + i, r);
    _mm256_storeu_pd(im + i, m);
  }
  for (; i < n; ++i) {
    re[i] = src[i].real();
    im[i] = src[i].imag();
  }
}

void Avx2RotateRows(const Complex* src, std::size_t rows, std::size_t cols,
                    const double* cos_v, const double* sin_v, Complex* dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* src_row = reinterpret_cast<const double*>(src + r * cols);
    double* dst_row = reinterpret_cast<double*>(dst + r * cols);
    std::size_t k = 0;
    for (; k + 2 <= cols; k += 2) {
      const __m256d z = _mm256_loadu_pd(src_row + 2 * k);  // a0 b0 a1 b1
      const __m128d c128 = _mm_loadu_pd(cos_v + k);
      const __m128d s128 = _mm_loadu_pd(sin_v + k);
      const __m256d cc = _mm256_permute4x64_pd(
          _mm256_castpd128_pd256(c128), 0b01010000);  // c0 c0 c1 c1
      const __m256d ss = _mm256_permute4x64_pd(
          _mm256_castpd128_pd256(s128), 0b01010000);  // s0 s0 s1 s1
      const __m256d t1 = _mm256_mul_pd(z, cc);  // a*c  b*c ..
      const __m256d zs = _mm256_permute_pd(z, 0b0101);  // b0 a0 b1 a1
      const __m256d t2 = _mm256_mul_pd(zs, ss);  // b*s  a*s ..
      // even lanes a*c - b*s, odd lanes b*c + a*s — the RotateOne DAG.
      _mm256_storeu_pd(dst_row + 2 * k, _mm256_addsub_pd(t1, t2));
    }
    for (; k < cols; ++k) {
      const Complex* src_c = src + r * cols;
      Complex* dst_c = dst + r * cols;
      dst_c[k] = RotateOne(src_c[k], cos_v[k], sin_v[k]);
    }
  }
}

void Avx2RotateRowsSplit(const Complex* src, std::size_t rows,
                         std::size_t cols, const double* cos_v,
                         const double* sin_v, double* re, double* im) {
  for (std::size_t r = 0; r < rows; ++r) {
    const Complex* src_row = src + r * cols;
    double* re_row = re + r * cols;
    double* im_row = im + r * cols;
    std::size_t k = 0;
    for (; k + 4 <= cols; k += 4) {
      __m256d a;
      __m256d b;
      LoadComplex4(src_row + k, &a, &b);
      const __m256d c = _mm256_loadu_pd(cos_v + k);
      const __m256d s = _mm256_loadu_pd(sin_v + k);
      // The RotateOne DAG: re' = a*c - b*s, im' = a*s + b*c.
      _mm256_storeu_pd(re_row + k, _mm256_sub_pd(_mm256_mul_pd(a, c),
                                                 _mm256_mul_pd(b, s)));
      _mm256_storeu_pd(im_row + k, _mm256_add_pd(_mm256_mul_pd(a, s),
                                                 _mm256_mul_pd(b, c)));
    }
    for (; k < cols; ++k) {
      const Complex z = RotateOne(src_row[k], cos_v[k], sin_v[k]);
      re_row[k] = z.real();
      im_row[k] = z.imag();
    }
  }
}

// ---- multipath / weighting ----------------------------------------------

void Avx2MuAccumulateRow(const Complex* row, const double* los_frac,
                         double dominant, std::size_t n, double* mu_accum) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d dom = _mm256_set1_pd(dominant);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d re;
    __m256d im;
    LoadComplex4(row + k, &re, &im);
    const __m256d power =
        _mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im));
    const __m256d num = _mm256_mul_pd(_mm256_loadu_pd(los_frac + k), dom);
    const __m256d ratio = _mm256_div_pd(num, power);  // blended away if 0/0
    const __m256d pos = _mm256_cmp_pd(power, zero, _CMP_GT_OQ);
    const __m256d mu = _mm256_blendv_pd(zero, ratio, pos);
    _mm256_storeu_pd(mu_accum + k,
                     _mm256_add_pd(_mm256_loadu_pd(mu_accum + k), mu));
  }
  for (; k < n; ++k) {
    mu_accum[k] += MuOne(row[k], los_frac[k], dominant);
  }
}

void Avx2MuAccumulateSplitRow(const double* re, const double* im,
                              const double* los_frac, double dominant,
                              std::size_t n, double* mu_accum) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d dom = _mm256_set1_pd(dominant);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d r = _mm256_loadu_pd(re + k);
    const __m256d m = _mm256_loadu_pd(im + k);
    const __m256d power =
        _mm256_add_pd(_mm256_mul_pd(r, r), _mm256_mul_pd(m, m));
    const __m256d num = _mm256_mul_pd(_mm256_loadu_pd(los_frac + k), dom);
    const __m256d ratio = _mm256_div_pd(num, power);  // blended away if 0/0
    const __m256d pos = _mm256_cmp_pd(power, zero, _CMP_GT_OQ);
    const __m256d mu = _mm256_blendv_pd(zero, ratio, pos);
    _mm256_storeu_pd(mu_accum + k,
                     _mm256_add_pd(_mm256_loadu_pd(mu_accum + k), mu));
  }
  for (; k < n; ++k) {
    mu_accum[k] += MuSplitOne(re[k], im[k], los_frac[k], dominant);
  }
}

void Avx2MeanStabilityAccumulate(const double* mu_row, double median,
                                 std::size_t n, double* mean_mu,
                                 double* stability) {
  const __m256d med = _mm256_set1_pd(median);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d mu = _mm256_loadu_pd(mu_row + k);
    _mm256_storeu_pd(mean_mu + k,
                     _mm256_add_pd(_mm256_loadu_pd(mean_mu + k), mu));
    const __m256d gt = _mm256_cmp_pd(mu, med, _CMP_GT_OQ);
    // false lanes add an exact +0.0
    _mm256_storeu_pd(
        stability + k,
        _mm256_add_pd(_mm256_loadu_pd(stability + k), _mm256_and_pd(gt, one)));
  }
  for (; k < n; ++k) {
    mean_mu[k] += mu_row[k];
    stability[k] += mu_row[k] > median ? 1.0 : 0.0;
  }
}

void Avx2Multiply(const double* a, const double* b, std::size_t n,
                  double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

double Avx2SumSquares(const double* a, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d v = _mm256_loadu_pd(a + t);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  return StripedFinish(acc, t, n, [&](std::size_t i) { return a[i] * a[i]; });
}

double Avx2NormalizedDistanceSq(const double* a, const double* b, double norm,
                                std::size_t n) {
  const __m256d nv = _mm256_set1_pd(norm);
  __m256d acc = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d d = _mm256_div_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a + t), _mm256_loadu_pd(b + t)), nv);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  return StripedFinish(acc, t, n, [&](std::size_t i) {
    const double d = (a[i] - b[i]) / norm;
    return d * d;
  });
}

// ---- covariance ---------------------------------------------------------

double Avx2WeightedDiag(const double* xr, const double* xi, const double* w,
                        std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d r = _mm256_loadu_pd(xr + t);
    const __m256d m = _mm256_loadu_pd(xi + t);
    const __m256d sum =
        _mm256_add_pd(_mm256_mul_pd(r, r), _mm256_mul_pd(m, m));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(w + t), sum));
  }
  return StripedFinish(acc, t, n, [&](std::size_t i) {
    return w[i] * (xr[i] * xr[i] + xi[i] * xi[i]);
  });
}

void Avx2WeightedCross(const double* xr, const double* xi, const double* yr,
                       const double* yi, const double* w, std::size_t n,
                       double* out_re, double* out_im) {
  __m256d acc_re = _mm256_setzero_pd();
  __m256d acc_im = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d ar = _mm256_loadu_pd(xr + t);
    const __m256d ai = _mm256_loadu_pd(xi + t);
    const __m256d br = _mm256_loadu_pd(yr + t);
    const __m256d bi = _mm256_loadu_pd(yi + t);
    const __m256d wv = _mm256_loadu_pd(w + t);
    const __m256d re_sum =
        _mm256_add_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi));
    const __m256d im_sum =
        _mm256_sub_pd(_mm256_mul_pd(ai, br), _mm256_mul_pd(ar, bi));
    acc_re = _mm256_add_pd(acc_re, _mm256_mul_pd(wv, re_sum));
    acc_im = _mm256_add_pd(acc_im, _mm256_mul_pd(wv, im_sum));
  }
  *out_re = StripedFinish(acc_re, t, n, [&](std::size_t i) {
    return w[i] * (xr[i] * yr[i] + xi[i] * yi[i]);
  });
  *out_im = StripedFinish(acc_im, t, n, [&](std::size_t i) {
    return w[i] * (xi[i] * yr[i] - xr[i] * yi[i]);
  });
}

void Avx2WeightedCovariance(const double* re, const double* im,
                            std::size_t antennas, std::size_t n,
                            const double* w_rep, Complex* out) {
  for (std::size_t i = 0; i < antennas; ++i) {
    const double* xr = re + i * n;
    const double* xi = im + i * n;
    out[i * antennas + i] = Complex(Avx2WeightedDiag(xr, xi, w_rep, n), 0.0);
    for (std::size_t j = i + 1; j < antennas; ++j) {
      double c_re = 0.0;
      double c_im = 0.0;
      Avx2WeightedCross(xr, xi, re + j * n, im + j * n, w_rep, n, &c_re,
                        &c_im);
      out[i * antennas + j] = Complex(c_re, c_im);
      out[j * antennas + i] = Complex(c_re, -c_im);
    }
  }
}

// ---- spectral scans -----------------------------------------------------

void Avx2BartlettScan(const double* steer_re, const double* steer_im,
                      std::size_t points, std::size_t antennas,
                      const double* const* packed_covs, std::size_t num_covs,
                      double inv_norm, double* const* outs) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d inv = _mm256_set1_pd(inv_norm);
  const __m256d two = _mm256_set1_pd(2.0);
  std::size_t i = 0;
  for (; i + 4 <= points; i += 4) {
    for (std::size_t c = 0; c < num_covs; ++c) {
      const double* packed = packed_covs[c];
      __m256d acc = zero;
      for (std::size_t m = 0; m < antennas; ++m) {
        const __m256d p = _mm256_loadu_pd(steer_re + m * points + i);
        const __m256d q = _mm256_loadu_pd(steer_im + m * points + i);
        const __m256d a2 =
            _mm256_add_pd(_mm256_mul_pd(p, p), _mm256_mul_pd(q, q));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(packed[m]), a2));
      }
      std::size_t idx = antennas;
      for (std::size_t m = 0; m < antennas; ++m) {
        for (std::size_t j = m + 1; j < antennas; ++j) {
          const __m256d r = _mm256_set1_pd(packed[idx]);
          const __m256d s = _mm256_set1_pd(packed[idx + 1]);
          idx += 2;
          const __m256d p = _mm256_loadu_pd(steer_re + m * points + i);
          const __m256d q = _mm256_loadu_pd(steer_im + m * points + i);
          const __m256d u = _mm256_loadu_pd(steer_re + j * points + i);
          const __m256d v = _mm256_loadu_pd(steer_im + j * points + i);
          const __m256d cross_re =
              _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_mul_pd(q, v));
          const __m256d cross_im =
              _mm256_sub_pd(_mm256_mul_pd(p, v), _mm256_mul_pd(q, u));
          const __m256d term = _mm256_mul_pd(
              two, _mm256_sub_pd(_mm256_mul_pd(r, cross_re),
                                 _mm256_mul_pd(s, cross_im)));
          acc = _mm256_add_pd(acc, term);
        }
      }
      // max(value, +0.0) matches `value > 0 ? value : 0.0` (also for -0).
      _mm256_storeu_pd(outs[c] + i,
                       _mm256_max_pd(_mm256_mul_pd(acc, inv), zero));
    }
  }
  for (; i < points; ++i) {
    for (std::size_t c = 0; c < num_covs; ++c) {
      const double value =
          BartlettPoint(steer_re, steer_im, points, antennas, packed_covs[c],
                        i) *
          inv_norm;
      outs[c][i] = value > 0.0 ? value : 0.0;
    }
  }
}

void Avx2MusicScan(const double* steer_re, const double* steer_im,
                   std::size_t points, std::size_t antennas,
                   const double* noise_re, const double* noise_im,
                   std::size_t noise_dim, double denom_floor, double* out) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d floor_v = _mm256_set1_pd(denom_floor);
  std::size_t i = 0;
  for (; i + 4 <= points; i += 4) {
    __m256d denom = _mm256_setzero_pd();
    for (std::size_t e = 0; e < noise_dim; ++e) {
      __m256d dot_re = _mm256_setzero_pd();
      __m256d dot_im = _mm256_setzero_pd();
      for (std::size_t m = 0; m < antennas; ++m) {
        const __m256d vr = _mm256_set1_pd(noise_re[e * antennas + m]);
        const __m256d vi = _mm256_set1_pd(noise_im[e * antennas + m]);
        const __m256d p = _mm256_loadu_pd(steer_re + m * points + i);
        const __m256d q = _mm256_loadu_pd(steer_im + m * points + i);
        dot_re = _mm256_add_pd(
            dot_re, _mm256_add_pd(_mm256_mul_pd(vr, p), _mm256_mul_pd(vi, q)));
        dot_im = _mm256_add_pd(
            dot_im, _mm256_sub_pd(_mm256_mul_pd(vr, q), _mm256_mul_pd(vi, p)));
      }
      denom = _mm256_add_pd(denom,
                            _mm256_add_pd(_mm256_mul_pd(dot_re, dot_re),
                                          _mm256_mul_pd(dot_im, dot_im)));
    }
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(one, _mm256_max_pd(denom, floor_v)));
  }
  for (; i < points; ++i) {
    out[i] = MusicPoint(steer_re, steer_im, points, antennas, noise_re,
                        noise_im, noise_dim, denom_floor, i);
  }
}

// ---- column statistics ----------------------------------------------------

// GenericColumnMoments with lane == column: the output arrays are the
// accumulators, so every column adds its rows in row order.
void Avx2ColumnMoments(const double* plane, std::size_t rows,
                       std::size_t cols, std::size_t stride, double* sum,
                       double* sum_sq, double* sum_sqrt) {
  for (std::size_t c = 0; c < cols; ++c) {
    sum[c] = 0.0;
    sum_sq[c] = 0.0;
    sum_sqrt[c] = 0.0;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = plane + r * stride;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d x = _mm256_loadu_pd(row + c);
      _mm256_storeu_pd(sum + c, _mm256_add_pd(_mm256_loadu_pd(sum + c), x));
      _mm256_storeu_pd(sum_sq + c, _mm256_add_pd(_mm256_loadu_pd(sum_sq + c),
                                                 _mm256_mul_pd(x, x)));
      _mm256_storeu_pd(sum_sqrt + c,
                       _mm256_add_pd(_mm256_loadu_pd(sum_sqrt + c),
                                     _mm256_sqrt_pd(x)));
    }
    for (; c < cols; ++c) {
      sum[c] += row[c];
      sum_sq[c] += row[c] * row[c];
      sum_sqrt[c] += std::sqrt(row[c]);
    }
  }
}

// ---- column order statistics ----------------------------------------------

// One compare-exchange of two rows across a strip of 4 * V adjacent columns
// (lane == column): min_pd(x, y) is x < y ? x : y and max_pd(y, x) is
// x < y ? y : x — detail::CompareExchange's exact selection, NaN included.
template <std::size_t V>
inline void StripCompareExchange(double* a, double* b) {
  for (std::size_t v = 0; v < V; ++v) {
    const __m256d x = _mm256_loadu_pd(a + 4 * v);
    const __m256d y = _mm256_loadu_pd(b + 4 * v);
    _mm256_storeu_pd(a + 4 * v, _mm256_min_pd(x, y));
    _mm256_storeu_pd(b + 4 * v, _mm256_max_pd(y, x));
  }
}

// GenericColumnMedians over one strip: the same networks, walked once for
// all 4 * V columns.
template <std::size_t V>
void ColumnMedianStrip(double* plane, std::size_t rows, std::size_t stride,
                       double* median, double* mad) {
  const auto cx = [plane, stride](std::size_t i, std::size_t j) {
    StripCompareExchange<V>(plane + i * stride, plane + j * stride);
  };
  OddEvenMergeSortNetwork(rows, cx);
  GenericColumnMiddle(plane, rows, 4 * V, stride, median);
  if (mad == nullptr) return;
  __m256d center[V];
  for (std::size_t v = 0; v < V; ++v) {
    center[v] = _mm256_loadu_pd(median + 4 * v);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = plane + r * stride;
    for (std::size_t v = 0; v < V; ++v) {
      _mm256_storeu_pd(row + 4 * v,
                       Abs(_mm256_sub_pd(_mm256_loadu_pd(row + 4 * v),
                                         center[v])));
    }
  }
  BitonicMergeNetwork(rows, cx);
  GenericColumnMiddle(plane, rows, 4 * V, stride, mad);
}

void Avx2ColumnMedians(double* plane, std::size_t rows, std::size_t cols,
                       std::size_t stride, double* median, double* mad) {
  std::size_t c = 0;
  for (; c + 8 <= cols; c += 8) {
    ColumnMedianStrip<2>(plane + c, rows, stride, median + c,
                         mad != nullptr ? mad + c : nullptr);
  }
  for (; c + 4 <= cols; c += 4) {
    ColumnMedianStrip<1>(plane + c, rows, stride, median + c,
                         mad != nullptr ? mad + c : nullptr);
  }
  if (c < cols) {
    GenericColumnMedians(plane + c, rows, cols - c, stride, median + c,
                         mad != nullptr ? mad + c : nullptr);
  }
}

}  // namespace

const KernelTable& Avx2Table() {
  static const KernelTable table = {
      &Avx2Atan2,
      &Avx2SinCos,
      &Avx2Deinterleave,
      &Avx2RotateRows,
      &Avx2RotateRowsSplit,
      &Avx2MuAccumulateRow,
      &Avx2MuAccumulateSplitRow,
      // A serial per-row sum: no lane layout preserves its order, so both
      // backends share the reference loop.
      &GenericDominantTapPowerSplit,
      &Avx2MeanStabilityAccumulate,
      &Avx2Multiply,
      &Avx2SumSquares,
      &Avx2NormalizedDistanceSq,
      &Avx2WeightedCovariance,
      &Avx2BartlettScan,
      &Avx2MusicScan,
      &Avx2ColumnMoments,
      &Avx2ColumnMedians,
  };
  return table;
}

}  // namespace mulink::kernels::detail

#endif  // MULINK_SIMD_AVX2
