// Parity and accuracy tests for the vectorized kernel layer (DESIGN.md §14).
//
// The layer's contract is that the scalar backend defines the semantics and
// the AVX2 backend reproduces it bit for bit — elementwise kernels with
// lane == element, reductions with the fixed 4-way striping. These tests pin
// that contract over the shapes the detector actually runs (30 subcarriers
// x 1–3 antennas), plus odd lengths and unaligned base pointers so every
// SIMD tail path executes. The trig kernels are additionally checked against
// libm within their documented tolerance, and the engine-level tests require
// the full combined-scheme score to be bit-identical across backends.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "core/multipath_factor.h"
#include "core/sanitize.h"
#include "dsp/delay_domain.h"
#include "dsp/stats.h"
#include "experiments/scenario.h"
#include "kernels/kernels.h"
#include "linalg/cmatrix.h"
#include "linalg/hermitian_eig.h"

namespace mulink::kernels {
namespace {

// Odd lengths around the 4-lane width, the detector's 30-subcarrier shape,
// and one past a full 8x unroll.
constexpr std::size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 29, 30, 31, 33};

::testing::AssertionResult BitIdentical(std::span<const double> a,
                                        std::span<const double> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i] << " (delta "
             << a[i] - b[i] << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitIdenticalC(std::span<const Complex> a,
                                         std::span<const Complex> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(Complex)) != 0) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<double> RandomVector(Rng& rng, std::size_t n, double lo,
                                 double hi) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Uniform(lo, hi);
  return v;
}

std::vector<Complex> RandomComplex(Rng& rng, std::size_t n) {
  std::vector<Complex> v(n);
  for (auto& x : v) x = {rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)};
  return v;
}

class KernelsTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetBackend(); }

  bool HasAvx2() const { return BackendAvailable(Backend::kAvx2); }
};

TEST_F(KernelsTest, BackendIntrospection) {
  EXPECT_TRUE(BackendAvailable(Backend::kScalar));
  EXPECT_STREQ(ToString(Backend::kScalar), "scalar");
  EXPECT_STREQ(ToString(Backend::kAvx2), "avx2");
  if (!SimdCompiledIn()) {
    EXPECT_FALSE(BackendAvailable(Backend::kAvx2));
    EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  }
  SetBackend(Backend::kScalar);
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  ResetBackend();
}

// ---- accuracy vs libm ---------------------------------------------------

TEST_F(KernelsTest, Atan2MatchesLibmWithinTolerance) {
  Rng rng(11);
  const std::size_t n = 513;
  auto y = RandomVector(rng, n, -1000.0, 1000.0);
  auto x = RandomVector(rng, n, -1000.0, 1000.0);
  // Axis cases the sanitize path can produce (zero CSI sums).
  y[0] = 0.0; x[0] = 3.0;
  y[1] = 0.0; x[1] = -3.0;
  y[2] = 5.0; x[2] = 0.0;
  y[3] = -5.0; x[3] = 0.0;
  y[4] = 0.0; x[4] = 0.0;
  std::vector<double> out(n);
  for (Backend b : {Backend::kScalar, Backend::kAvx2}) {
    if (!BackendAvailable(b)) continue;
    SetBackend(b);
    Atan2(y.data(), x.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[i], std::atan2(y[i], x[i]), 1e-12)
          << ToString(b) << " atan2(" << y[i] << ", " << x[i] << ")";
    }
  }
}

TEST_F(KernelsTest, SinCosMatchesLibmWithinTolerance) {
  Rng rng(13);
  const std::size_t n = 513;
  // Sanitize corrections live well inside |x| < 1e6.
  auto x = RandomVector(rng, n, -1e4, 1e4);
  x[0] = 0.0;
  x[1] = kPi;
  x[2] = -kPi / 2.0;
  std::vector<double> s(n), c(n);
  for (Backend b : {Backend::kScalar, Backend::kAvx2}) {
    if (!BackendAvailable(b)) continue;
    SetBackend(b);
    SinCos(x.data(), n, s.data(), c.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(s[i], std::sin(x[i]), 1e-12) << ToString(b) << " sin " << x[i];
      EXPECT_NEAR(c[i], std::cos(x[i]), 1e-12) << ToString(b) << " cos " << x[i];
    }
  }
}

// ---- scalar vs AVX2 bitwise parity --------------------------------------

TEST_F(KernelsTest, ElementwiseParityOddLengthsAndUnalignedTails) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 backend not available";
  Rng rng(17);
  for (std::size_t n : kLengths) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}}) {
      // +1 double offset makes every base pointer 8-mod-16 aligned, so the
      // AVX2 loads exercise their unaligned path and the tail masks.
      auto y = RandomVector(rng, n + off, -50.0, 50.0);
      auto x = RandomVector(rng, n + off, -50.0, 50.0);
      auto w = RandomVector(rng, n + off, 0.0, 4.0);

      std::vector<double> a1(n), a2(n);
      SetBackend(Backend::kScalar);
      Atan2(y.data() + off, x.data() + off, n, a1.data());
      SetBackend(Backend::kAvx2);
      Atan2(y.data() + off, x.data() + off, n, a2.data());
      EXPECT_TRUE(BitIdentical(a1, a2)) << "Atan2 n=" << n << " off=" << off;

      std::vector<double> s1(n), c1(n), s2(n), c2(n);
      SetBackend(Backend::kScalar);
      SinCos(x.data() + off, n, s1.data(), c1.data());
      SetBackend(Backend::kAvx2);
      SinCos(x.data() + off, n, s2.data(), c2.data());
      EXPECT_TRUE(BitIdentical(s1, s2)) << "SinCos sin n=" << n << " off=" << off;
      EXPECT_TRUE(BitIdentical(c1, c2)) << "SinCos cos n=" << n << " off=" << off;

      std::vector<double> m1(n), m2(n);
      SetBackend(Backend::kScalar);
      Multiply(w.data() + off, x.data() + off, n, m1.data());
      SetBackend(Backend::kAvx2);
      Multiply(w.data() + off, x.data() + off, n, m2.data());
      EXPECT_TRUE(BitIdentical(m1, m2)) << "Multiply n=" << n << " off=" << off;
    }
  }
}

TEST_F(KernelsTest, ComplexKernelParityAcrossDetectorShapes) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 backend not available";
  Rng rng(19);
  for (std::size_t antennas : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (std::size_t n : {std::size_t{7}, std::size_t{30}, std::size_t{31}}) {
      auto src = RandomComplex(rng, antennas * n);
      auto cos_v = RandomVector(rng, n, -1.0, 1.0);
      auto sin_v = RandomVector(rng, n, -1.0, 1.0);
      auto los = RandomVector(rng, n, 0.0, 1.0);
      const double dominant = rng.Uniform(0.1, 2.0);

      std::vector<Complex> r1(antennas * n), r2(antennas * n);
      SetBackend(Backend::kScalar);
      RotateRows(src.data(), antennas, n, cos_v.data(), sin_v.data(), r1.data());
      SetBackend(Backend::kAvx2);
      RotateRows(src.data(), antennas, n, cos_v.data(), sin_v.data(), r2.data());
      EXPECT_TRUE(BitIdenticalC(r1, r2))
          << "RotateRows " << antennas << "x" << n;

      std::vector<double> re1(n), im1(n), re2(n), im2(n);
      SetBackend(Backend::kScalar);
      Deinterleave(src.data(), n, re1.data(), im1.data());
      SetBackend(Backend::kAvx2);
      Deinterleave(src.data(), n, re2.data(), im2.data());
      EXPECT_TRUE(BitIdentical(re1, re2)) << "Deinterleave re n=" << n;
      EXPECT_TRUE(BitIdentical(im1, im2)) << "Deinterleave im n=" << n;

      std::vector<double> mu1(n, 0.25), mu2(n, 0.25);
      SetBackend(Backend::kScalar);
      MuAccumulateRow(src.data(), los.data(), dominant, n, mu1.data());
      SetBackend(Backend::kAvx2);
      MuAccumulateRow(src.data(), los.data(), dominant, n, mu2.data());
      EXPECT_TRUE(BitIdentical(mu1, mu2)) << "MuAccumulateRow n=" << n;

      std::vector<double> mean1(n, 0.5), st1(n, 1.0), mean2(n, 0.5), st2(n, 1.0);
      const double median = dsp::Median(los);
      SetBackend(Backend::kScalar);
      MeanStabilityAccumulate(los.data(), median, n, mean1.data(), st1.data());
      SetBackend(Backend::kAvx2);
      MeanStabilityAccumulate(los.data(), median, n, mean2.data(), st2.data());
      EXPECT_TRUE(BitIdentical(mean1, mean2)) << "MeanStability mean n=" << n;
      EXPECT_TRUE(BitIdentical(st1, st2)) << "MeanStability stability n=" << n;
    }
  }
}

TEST_F(KernelsTest, ReductionParityOddLengthsAndUnalignedTails) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 backend not available";
  Rng rng(23);
  for (std::size_t n : kLengths) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}}) {
      auto a = RandomVector(rng, n + off, -10.0, 10.0);
      auto b = RandomVector(rng, n + off, -10.0, 10.0);
      SetBackend(Backend::kScalar);
      const double ss1 = SumSquares(a.data() + off, n);
      const double nd1 =
          NormalizedDistanceSq(a.data() + off, b.data() + off, 3.5, n);
      SetBackend(Backend::kAvx2);
      const double ss2 = SumSquares(a.data() + off, n);
      const double nd2 =
          NormalizedDistanceSq(a.data() + off, b.data() + off, 3.5, n);
      EXPECT_EQ(ss1, ss2) << "SumSquares n=" << n << " off=" << off;
      EXPECT_EQ(nd1, nd2) << "NormalizedDistanceSq n=" << n << " off=" << off;
    }
  }
}

TEST_F(KernelsTest, WeightedCovarianceParityAndHermitianStructure) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 backend not available";
  Rng rng(29);
  for (std::size_t antennas : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (std::size_t n : {std::size_t{29}, std::size_t{30}, std::size_t{750}}) {
      auto re = RandomVector(rng, antennas * n, -2.0, 2.0);
      auto im = RandomVector(rng, antennas * n, -2.0, 2.0);
      auto w = RandomVector(rng, n, 0.0, 1.0);
      std::vector<Complex> c1(antennas * antennas), c2(antennas * antennas);
      SetBackend(Backend::kScalar);
      WeightedCovariance(re.data(), im.data(), antennas, n, w.data(), c1.data());
      SetBackend(Backend::kAvx2);
      WeightedCovariance(re.data(), im.data(), antennas, n, w.data(), c2.data());
      EXPECT_TRUE(BitIdenticalC(c1, c2))
          << "WeightedCovariance " << antennas << "x" << n;
      for (std::size_t i = 0; i < antennas; ++i) {
        EXPECT_EQ(c1[i * antennas + i].imag(), 0.0) << "diagonal must be real";
        for (std::size_t j = i + 1; j < antennas; ++j) {
          EXPECT_EQ(c1[j * antennas + i], std::conj(c1[i * antennas + j]))
              << "exact Hermitian symmetry " << i << "," << j;
        }
      }
    }
  }
}

TEST_F(KernelsTest, WeightedCovarianceMatchesNaiveReference) {
  Rng rng(31);
  const std::size_t antennas = 3;
  const std::size_t n = 30 * 25;  // subcarriers x window packets
  auto re = RandomVector(rng, antennas * n, -2.0, 2.0);
  auto im = RandomVector(rng, antennas * n, -2.0, 2.0);
  auto w = RandomVector(rng, n, 0.0, 1.0);
  std::vector<Complex> out(antennas * antennas);
  WeightedCovariance(re.data(), im.data(), antennas, n, w.data(), out.data());
  for (std::size_t i = 0; i < antennas; ++i) {
    for (std::size_t j = 0; j < antennas; ++j) {
      Complex ref(0.0, 0.0);
      for (std::size_t t = 0; t < n; ++t) {
        const Complex xi(re[i * n + t], im[i * n + t]);
        const Complex xj(re[j * n + t], im[j * n + t]);
        ref += w[t] * xi * std::conj(xj);
      }
      EXPECT_NEAR(out[i * antennas + j].real(), ref.real(), 1e-9)
          << i << "," << j;
      EXPECT_NEAR(out[i * antennas + j].imag(), ref.imag(), 1e-9)
          << i << "," << j;
    }
  }
}

TEST_F(KernelsTest, SpectralScanParity) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 backend not available";
  Rng rng(37);
  const std::size_t points = 181;
  for (std::size_t antennas : {std::size_t{2}, std::size_t{3}}) {
    auto steer_re = RandomVector(rng, antennas * points, -1.0, 1.0);
    auto steer_im = RandomVector(rng, antennas * points, -1.0, 1.0);

    // Two packed Hermitian covariances, batched like the combined scheme's
    // monitor/profile pair.
    linalg::CMatrix cov_a(antennas, antennas), cov_b(antennas, antennas);
    for (std::size_t i = 0; i < antennas; ++i) {
      cov_a.At(i, i) = {rng.Uniform(0.5, 2.0), 0.0};
      cov_b.At(i, i) = {rng.Uniform(0.5, 2.0), 0.0};
      for (std::size_t j = i + 1; j < antennas; ++j) {
        const Complex va(rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0));
        const Complex vb(rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0));
        cov_a.At(i, j) = va;
        cov_a.At(j, i) = std::conj(va);
        cov_b.At(i, j) = vb;
        cov_b.At(j, i) = std::conj(vb);
      }
    }
    std::vector<double> packed_a(PackedHermitianSize(antennas));
    std::vector<double> packed_b(PackedHermitianSize(antennas));
    PackHermitian(cov_a.raw(), antennas, packed_a.data());
    PackHermitian(cov_b.raw(), antennas, packed_b.data());
    const double* covs[2] = {packed_a.data(), packed_b.data()};

    std::vector<double> out_a1(points), out_b1(points), out_a2(points),
        out_b2(points);
    double* outs1[2] = {out_a1.data(), out_b1.data()};
    double* outs2[2] = {out_a2.data(), out_b2.data()};
    const double inv_norm = 1.0 / static_cast<double>(antennas * antennas);
    SetBackend(Backend::kScalar);
    BartlettScan(steer_re.data(), steer_im.data(), points, antennas, covs, 2,
                 inv_norm, outs1);
    SetBackend(Backend::kAvx2);
    BartlettScan(steer_re.data(), steer_im.data(), points, antennas, covs, 2,
                 inv_norm, outs2);
    EXPECT_TRUE(BitIdentical(out_a1, out_a2)) << "Bartlett A=" << antennas;
    EXPECT_TRUE(BitIdentical(out_b1, out_b2)) << "Bartlett B=" << antennas;
    for (double v : out_a1) EXPECT_GE(v, 0.0);

    // MUSIC over one noise eigenvector.
    auto noise_re = RandomVector(rng, antennas, -1.0, 1.0);
    auto noise_im = RandomVector(rng, antennas, -1.0, 1.0);
    std::vector<double> mu1(points), mu2(points);
    SetBackend(Backend::kScalar);
    MusicScan(steer_re.data(), steer_im.data(), points, antennas,
              noise_re.data(), noise_im.data(), 1, 1e-12, mu1.data());
    SetBackend(Backend::kAvx2);
    MusicScan(steer_re.data(), steer_im.data(), points, antennas,
              noise_re.data(), noise_im.data(), 1, 1e-12, mu2.data());
    EXPECT_TRUE(BitIdentical(mu1, mu2)) << "MusicScan A=" << antennas;
  }
}

// ---- column order statistics -------------------------------------------

// Column counts around the 4-lane width and the 8-column strip, plus the
// detector's 3 x 30 cell count.
constexpr std::size_t kColumnCounts[] = {1, 2, 3, 4, 5, 7, 9, 13, 17, 90};

// One adversarial column: `kind` picks ties, all-equal, zeros, denormals,
// +inf (fewer than half the rows, so the median stays finite) or plain
// random powers.
void FillAdversarialColumn(Rng& rng, int kind, std::size_t rows,
                           std::size_t stride, double* column) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double all_equal = rng.Uniform(0.0, 4.0);
  const std::size_t infs = rows >= 4 ? (rows - 1) / 2 - 1 : 0;
  for (std::size_t r = 0; r < rows; ++r) {
    double x = rng.Uniform(0.0, 4.0);
    switch (kind) {
      case 0:  // ties
        x = static_cast<double>(rng.UniformInt(0, 2)) * 0.5;
        break;
      case 1:
        x = all_equal;
        break;
      case 2:  // zeros among powers
        if (rng.UniformInt(0, 1) == 0) x = 0.0;
        break;
      case 3:  // denormals, and the smallest normal
        x = static_cast<double>(rng.UniformInt(0, 6)) * denorm;
        if (rng.UniformInt(0, 4) == 0) x = std::numeric_limits<double>::min();
        break;
      case 4:
        if (r < infs) x = std::numeric_limits<double>::infinity();
        break;
      default:
        break;
    }
    column[r * stride] = x;
  }
  if (kind == 4) {  // scatter the infinities through the column
    for (std::size_t r = rows; r-- > 1;) {
      const auto j = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(r)));
      std::swap(column[r * stride], column[j * stride]);
    }
  }
}

struct ColumnStats {
  std::vector<double> plane, median, mad;
};

ColumnStats RunColumnMedians(Backend backend, std::vector<double> plane,
                             std::size_t offset, std::size_t rows,
                             std::size_t cols, std::size_t stride) {
  SetBackend(backend);
  ColumnStats out;
  out.median.assign(cols, 0.0);
  out.mad.assign(cols, 0.0);
  ColumnMedians(plane.data() + offset, rows, cols, stride, out.median.data(),
                out.mad.data());
  out.plane = std::move(plane);
  return out;
}

// Against dsp::MedianInPlace / dsp::MedianAbsDeviation (std::nth_element)
// on every backend, and bit for bit between backends — rows 1..64, column
// counts off the lane width, an unaligned base and a stride wider than the
// columns, whose padding the kernel must leave alone.
TEST_F(KernelsTest, ColumnMediansMatchNthElementOnAdversarialColumns) {
  Rng rng(41);
  const double sentinel = -7.25;
  for (std::size_t rows = 1; rows <= 64; ++rows) {
    for (std::size_t cols : kColumnCounts) {
      const std::size_t stride = cols + 3;
      const std::size_t offset = 1;  // 8-mod-32: unaligned loads
      std::vector<double> plane(offset + rows * stride, sentinel);
      for (std::size_t c = 0; c < cols; ++c) {
        FillAdversarialColumn(rng, static_cast<int>((rows + c) % 6), rows,
                              stride, plane.data() + offset + c);
      }
      std::vector<double> want_median(cols), want_mad(cols), column(rows);
      for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 0; r < rows; ++r) {
          column[r] = plane[offset + r * stride + c];
        }
        want_mad[c] = dsp::MedianAbsDeviation(column);
        want_median[c] = dsp::MedianInPlace(column);
      }
      std::vector<Backend> backends = {Backend::kScalar};
      if (HasAvx2()) backends.push_back(Backend::kAvx2);
      std::vector<ColumnStats> got;
      for (Backend backend : backends) {
        got.push_back(
            RunColumnMedians(backend, plane, offset, rows, cols, stride));
        const ColumnStats& stats = got.back();
        for (std::size_t c = 0; c < cols; ++c) {
          EXPECT_EQ(stats.median[c], want_median[c])
              << ToString(backend) << " rows=" << rows << " cols=" << cols
              << " c=" << c;
          EXPECT_EQ(stats.mad[c], want_mad[c])
              << ToString(backend) << " rows=" << rows << " cols=" << cols
              << " c=" << c;
        }
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = cols; c < stride; ++c) {
            ASSERT_EQ(stats.plane[offset + r * stride + c], sentinel);
          }
        }
        ASSERT_EQ(stats.plane[0], sentinel);
      }
      if (got.size() == 2) {
        EXPECT_TRUE(BitIdentical(got[0].median, got[1].median))
            << "rows=" << rows << " cols=" << cols;
        EXPECT_TRUE(BitIdentical(got[0].mad, got[1].mad))
            << "rows=" << rows << " cols=" << cols;
        EXPECT_TRUE(BitIdentical(got[0].plane, got[1].plane))
            << "rows=" << rows << " cols=" << cols;
      }
    }
  }
}

// Without a MAD the kernel leaves every column sorted ascending.
TEST_F(KernelsTest, ColumnMediansSortColumnsInPlace) {
  Rng rng(43);
  for (std::size_t rows = 1; rows <= 64; ++rows) {
    const std::size_t cols = 13;
    auto plane = RandomVector(rng, rows * cols, -3.0, 3.0);
    std::vector<double> median(cols);
    ColumnMedians(plane.data(), rows, cols, cols, median.data(), nullptr);
    for (std::size_t c = 0; c < cols; ++c) {
      for (std::size_t r = 1; r < rows; ++r) {
        ASSERT_LE(plane[(r - 1) * cols + c], plane[r * cols + c])
            << "rows=" << rows << " c=" << c;
      }
    }
  }
}

// NaN has no order, so no reference applies — but the compare-exchange is
// min_pd/max_pd's exact selection, so both backends still move every bit
// the same way.
TEST_F(KernelsTest, ColumnMediansNaNParity) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 backend not available";
  Rng rng(47);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t rows = 1; rows <= 64; ++rows) {
    for (std::size_t cols : kColumnCounts) {
      auto plane = RandomVector(rng, rows * cols, 0.0, 4.0);
      for (auto& x : plane) {
        const int pick = rng.UniformInt(0, 7);
        if (pick == 0) x = nan;
        if (pick == 1) x = std::numeric_limits<double>::infinity();
      }
      const auto scalar =
          RunColumnMedians(Backend::kScalar, plane, 0, rows, cols, cols);
      const auto avx2 =
          RunColumnMedians(Backend::kAvx2, plane, 0, rows, cols, cols);
      EXPECT_TRUE(BitIdentical(scalar.median, avx2.median))
          << "rows=" << rows << " cols=" << cols;
      EXPECT_TRUE(BitIdentical(scalar.mad, avx2.mad))
          << "rows=" << rows << " cols=" << cols;
      EXPECT_TRUE(BitIdentical(scalar.plane, avx2.plane))
          << "rows=" << rows << " cols=" << cols;
    }
  }
}

// ---- split-row ingest kernels --------------------------------------------

std::vector<Backend> AvailableBackends() {
  std::vector<Backend> backends = {Backend::kScalar};
  if (BackendAvailable(Backend::kAvx2)) backends.push_back(Backend::kAvx2);
  return backends;
}

// RotateRowsSplit writes the bytes of RotateRows + a per-row Deinterleave,
// and the split mu / dominant-tap kernels reproduce MuAccumulateRow and
// dsp::DominantTapPower on them — on every backend, with row lengths off
// the lane width and unaligned rows, and bit for bit across backends.
TEST_F(KernelsTest, SplitIngestKernelsMatchInterleavedOnes) {
  Rng rng(53);
  for (std::size_t rows : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (std::size_t n : kLengths) {
      const std::size_t off = 1;  // 8-mod-32 base: unaligned loads/stores
      const auto src_buf = RandomComplex(rng, off + rows * n);
      const Complex* src = src_buf.data() + off;
      const auto cos_v = RandomVector(rng, off + n, -1.0, 1.0);
      const auto sin_v = RandomVector(rng, off + n, -1.0, 1.0);
      const auto los = RandomVector(rng, off + n, 0.0, 1.0);
      std::vector<std::vector<double>> split_by_backend, mu_by_backend;
      for (Backend backend : AvailableBackends()) {
        SetBackend(backend);
        std::vector<Complex> rotated(rows * n);
        RotateRows(src, rows, n, cos_v.data() + off, sin_v.data() + off,
                   rotated.data());
        std::vector<double> want(2 * rows * n);
        for (std::size_t r = 0; r < rows; ++r) {
          Deinterleave(rotated.data() + r * n, n, want.data() + r * n,
                       want.data() + (rows + r) * n);
        }
        std::vector<double> split(off + 2 * rows * n, 0.0);
        double* re = split.data() + off;
        double* im = re + rows * n;
        RotateRowsSplit(src, rows, n, cos_v.data() + off, sin_v.data() + off,
                        re, im);
        EXPECT_TRUE(BitIdentical(std::span<const double>(re, 2 * rows * n),
                                 want))
            << ToString(backend) << " RotateRowsSplit " << rows << "x" << n;
        split_by_backend.emplace_back(re, re + 2 * rows * n);

        std::vector<double> mu(n, 0.25), mu_split(off + n, 0.25);
        for (std::size_t r = 0; r < rows; ++r) {
          const Complex* row = rotated.data() + r * n;
          const double dominant =
              dsp::DominantTapPower(std::span<const Complex>(row, n));
          const double dominant_split =
              DominantTapPowerSplit(re + r * n, im + r * n, n);
          EXPECT_EQ(dominant, dominant_split)
              << ToString(backend) << " DominantTapPowerSplit n=" << n;
          MuAccumulateRow(row, los.data() + off, dominant, n, mu.data());
          MuAccumulateSplitRow(re + r * n, im + r * n, los.data() + off,
                               dominant_split, n, mu_split.data() + off);
        }
        EXPECT_TRUE(BitIdentical(
            mu, std::span<const double>(mu_split.data() + off, n)))
            << ToString(backend) << " MuAccumulateSplitRow " << rows << "x"
            << n;
        mu_by_backend.push_back(mu);
      }
      if (split_by_backend.size() == 2) {
        EXPECT_TRUE(BitIdentical(split_by_backend[0], split_by_backend[1]))
            << "RotateRowsSplit backends " << rows << "x" << n;
        EXPECT_TRUE(BitIdentical(mu_by_backend[0], mu_by_backend[1]))
            << "MuAccumulateSplitRow backends " << rows << "x" << n;
      }
    }
  }
}

// ColumnMoments against the per-cell loop it replaces (each column summed
// in row order, std::sqrt per element) on every backend: column counts off
// the lane width, an unaligned strided plane, zeros and denormals.
TEST_F(KernelsTest, ColumnMomentsMatchPerCellLoop) {
  Rng rng(59);
  for (std::size_t rows : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                           std::size_t{25}, std::size_t{50}}) {
    for (std::size_t cols : kColumnCounts) {
      const std::size_t stride = cols + 3;
      const std::size_t offset = 1;
      auto plane = RandomVector(rng, offset + rows * stride, 0.0, 5.0);
      plane[offset] = 0.0;
      plane[offset + rows * stride - 1] =
          std::numeric_limits<double>::denorm_min();
      const double* base = plane.data() + offset;
      std::vector<double> want_p(cols), want_p2(cols), want_a(cols);
      for (std::size_t c = 0; c < cols; ++c) {
        double sum_p = 0.0, sum_p2 = 0.0, sum_a = 0.0;
        for (std::size_t r = 0; r < rows; ++r) {
          const double p = base[r * stride + c];
          sum_p += p;
          sum_p2 += p * p;
          sum_a += std::sqrt(p);
        }
        want_p[c] = sum_p;
        want_p2[c] = sum_p2;
        want_a[c] = sum_a;
      }
      for (Backend backend : AvailableBackends()) {
        SetBackend(backend);
        std::vector<double> sum_p(cols, -1.0), sum_p2(cols, -1.0),
            sum_a(cols, -1.0);
        ColumnMoments(base, rows, cols, stride, sum_p.data(), sum_p2.data(),
                      sum_a.data());
        EXPECT_TRUE(BitIdentical(sum_p, want_p))
            << ToString(backend) << " rows=" << rows << " cols=" << cols;
        EXPECT_TRUE(BitIdentical(sum_p2, want_p2))
            << ToString(backend) << " rows=" << rows << " cols=" << cols;
        EXPECT_TRUE(BitIdentical(sum_a, want_a))
            << ToString(backend) << " rows=" << rows << " cols=" << cols;
      }
    }
  }
}

// ---- closed-form smallest eigenvalue ------------------------------------

TEST(SmallestEigenvalueTest, MatchesFullJacobiDecomposition) {
  Rng rng(41);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{4}}) {
    for (int trial = 0; trial < 25; ++trial) {
      // PSD (B^H B) plus a random real shift — covers the covariance-like
      // inputs and indefinite ones.
      linalg::CMatrix b(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          b.At(i, j) = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
        }
      }
      linalg::CMatrix a = b.Adjoint() * b;
      const double shift = rng.Uniform(-1.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        a.At(i, i) += Complex(shift, 0.0);
      }
      const auto eig = linalg::HermitianEigen(a);
      const double lambda_min = linalg::SmallestHermitianEigenvalue(a);
      double norm = 0.0;
      for (std::size_t i = 0; i < n * n; ++i) norm += std::norm(a.raw()[i]);
      norm = std::sqrt(norm);
      EXPECT_NEAR(lambda_min, eig.values.front(), 1e-9 * (1.0 + norm))
          << "n=" << n << " trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace mulink::kernels

// ---- engine-level parity ------------------------------------------------

namespace mulink::core {
namespace {

class EngineParityTest : public ::testing::Test {
 protected:
  EngineParityTest()
      : link_(experiments::MakeClassroomLink()),
        simulator_(experiments::MakeSimulator(link_)),
        rng_(123) {}

  void TearDown() override { kernels::ResetBackend(); }

  Detector MakeDetector(DetectionScheme scheme) {
    DetectorConfig config;
    config.scheme = scheme;
    const auto calibration = simulator_.CaptureSession(200, std::nullopt, rng_);
    return Detector::Calibrate(calibration, simulator_.band(),
                               simulator_.array(), config);
  }

  std::vector<wifi::CsiPacket> Window(bool human) {
    if (!human) return simulator_.CaptureSession(25, std::nullopt, rng_);
    propagation::HumanBody body;
    body.position = (link_.tx + link_.rx) * 0.5;
    return simulator_.CaptureSession(25, body, rng_);
  }

  experiments::LinkCase link_;
  nic::ChannelSimulator simulator_;
  Rng rng_;
};

TEST_F(EngineParityTest, ScoresBitIdenticalAcrossBackends) {
  if (!kernels::BackendAvailable(kernels::Backend::kAvx2)) {
    GTEST_SKIP() << "AVX2 backend not available";
  }
  for (auto scheme : {DetectionScheme::kSubcarrierWeighting,
                      DetectionScheme::kSubcarrierAndPathWeighting,
                      DetectionScheme::kVarianceMobile}) {
    auto detector = MakeDetector(scheme);
    const auto empty = Window(false);
    const auto human = Window(true);
    // Fresh scratch per backend so each side derives its own cached profile
    // stack under its own dispatch — those must agree too.
    DetectorScratch scalar_scratch, avx2_scratch;
    kernels::SetBackend(kernels::Backend::kScalar);
    const double empty_scalar = detector.Score(std::span(empty), scalar_scratch);
    const double human_scalar = detector.Score(std::span(human), scalar_scratch);
    kernels::SetBackend(kernels::Backend::kAvx2);
    const double empty_avx2 = detector.Score(std::span(empty), avx2_scratch);
    const double human_avx2 = detector.Score(std::span(human), avx2_scratch);
    kernels::ResetBackend();
    EXPECT_EQ(empty_scalar, empty_avx2) << ToString(scheme);
    EXPECT_EQ(human_scalar, human_avx2) << ToString(scheme);
  }
}

// A caller that keeps its own ring of ingest slots (as SensingEngine does)
// fills them through the public per-packet map, PrepareSlot, in ring order,
// and scores the window-order views with ScorePrepared. That must equal the
// offline recompute of the raw window — Score, or ScoreDegraded under a
// dead chain — for every scheme.
TEST_F(EngineParityTest, PreparedFactorsScoreMatchesRecompute) {
  for (auto scheme : {DetectionScheme::kBaseline,
                      DetectionScheme::kSubcarrierWeighting,
                      DetectionScheme::kSubcarrierAndPathWeighting,
                      DetectionScheme::kVarianceMobile}) {
    auto detector = MakeDetector(scheme);
    detector.SetThreshold(1.0);
    for (bool human : {false, true}) {
      const auto window = Window(human);
      const std::size_t n = window.size();
      DetectorScratch recompute_scratch, prepared_scratch;
      // The ring's write position starts mid-ring, so slot order and window
      // order differ.
      const std::size_t first = n / 3;
      std::vector<double> ring(n * detector.slot_stride());
      std::vector<double> stats(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t slot = (first + i) % n;
        stats[slot] = detector.PrepareSlot(
            window[i], ring.data() + slot * detector.slot_stride(),
            prepared_scratch);
      }
      std::vector<const double*> csi(n), mu(n);
      std::vector<double> window_stats(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t slot = (first + i) % n;
        csi[i] = ring.data() + slot * detector.slot_stride();
        mu[i] = csi[i] + 2 * detector.num_antennas() *
                             detector.num_subcarriers();
        window_stats[i] = stats[slot];
      }
      const Detector::PreparedWindowFactors factors{csi, mu, window_stats};
      const std::string label =
          std::string(ToString(scheme)) + (human ? " human" : " empty");
      EXPECT_EQ(detector.ScorePrepared(factors, prepared_scratch),
                detector.Score(std::span(window), recompute_scratch))
          << label;
      EXPECT_EQ(detector.ScorePrepared(factors, prepared_scratch, 0b101u),
                detector.ScoreDegraded(std::span(window), recompute_scratch,
                                       0b101u))
          << label << " degraded";
    }
  }
}

}  // namespace
}  // namespace mulink::core
