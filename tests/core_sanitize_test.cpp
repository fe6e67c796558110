#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/constants.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/multipath_factor.h"
#include "core/sanitize.h"
#include "dsp/fit.h"
#include "kernels/kernels.h"
#include "propagation/path.h"
#include "wifi/cfr.h"
#include "wifi/noise.h"

namespace mulink::core {
namespace {

wifi::CsiPacket MakePacket(const linalg::CMatrix& csi) {
  wifi::CsiPacket p;
  p.csi = csi;
  return p;
}

TEST(Unwrap, NoJumpsUnchanged) {
  const std::vector<double> phases = {0.0, 0.3, 0.6, 0.9};
  EXPECT_EQ(UnwrapPhase(phases), phases);
}

TEST(Unwrap, RecoversLinearRamp) {
  // A steep linear ramp wrapped into (-pi, pi] unwraps back to a line.
  std::vector<double> wrapped;
  const double slope = 1.9;  // rad per step, below the pi Nyquist limit
  for (int i = 0; i < 40; ++i) {
    double ph = slope * i;
    while (ph > kPi) ph -= 2.0 * kPi;
    wrapped.push_back(ph);
  }
  const auto unwrapped = UnwrapPhase(wrapped);
  for (int i = 0; i < 40; ++i) {
    EXPECT_NEAR(unwrapped[static_cast<std::size_t>(i)], slope * i, 1e-9);
  }
}

TEST(Unwrap, HandlesNegativeRamp) {
  std::vector<double> wrapped;
  for (int i = 0; i < 30; ++i) {
    double ph = -0.9 * i;
    while (ph <= -kPi) ph += 2.0 * kPi;
    wrapped.push_back(ph);
  }
  const auto unwrapped = UnwrapPhase(wrapped);
  for (int i = 1; i < 30; ++i) {
    EXPECT_NEAR(unwrapped[static_cast<std::size_t>(i)] -
                    unwrapped[static_cast<std::size_t>(i - 1)],
                -0.9, 1e-9);
  }
}

TEST(Sanitize, RemovesCommonPhase) {
  const auto band = wifi::BandPlan::Intel5300Channel11();
  linalg::CMatrix csi(1, band.NumSubcarriers());
  const double common = 1.234;
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    csi.At(0, k) = std::polar(1.0, common);
  }
  const auto clean = SanitizePhase(MakePacket(csi), band);
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    EXPECT_NEAR(std::arg(clean.csi.At(0, k)), 0.0, 1e-9);
    EXPECT_NEAR(std::abs(clean.csi.At(0, k)), 1.0, 1e-12);
  }
}

TEST(Sanitize, RemovesStoSlope) {
  const auto band = wifi::BandPlan::Intel5300Channel11();
  linalg::CMatrix csi(1, band.NumSubcarriers());
  const double sto = 60e-9;
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    csi.At(0, k) = std::polar(1.0, -2.0 * kPi * band.OffsetHz(k) * sto);
  }
  const auto clean = SanitizePhase(MakePacket(csi), band);
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    EXPECT_NEAR(std::arg(clean.csi.At(0, k)), 0.0, 1e-6);
  }
}

TEST(Sanitize, PreservesAmplitudes) {
  const auto band = wifi::BandPlan::Intel5300Channel11();
  Rng rng(3);
  linalg::CMatrix csi(2, band.NumSubcarriers());
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
      csi.At(m, k) = std::polar(rng.Uniform(0.1, 2.0), rng.Uniform(-3.0, 3.0));
    }
  }
  const auto packet = MakePacket(csi);
  const auto clean = SanitizePhase(packet, band);
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
      EXPECT_NEAR(std::abs(clean.csi.At(m, k)), std::abs(csi.At(m, k)),
                  1e-12);
    }
  }
}

TEST(Sanitize, PreservesInterAntennaPhase) {
  // The correction must be common-mode so MUSIC's inter-antenna phase
  // relations survive: synthesize a 30-degree plane wave, add common phase
  // + STO, sanitize, and check antenna-pair phase differences are intact.
  const auto band = wifi::BandPlan::Intel5300Channel11();
  const auto array = wifi::UniformLinearArray::HalfWavelength3(0.0);

  propagation::Path p;
  p.vertices = {{0, 0}, {3, 0}};
  p.length_m = 3.0;
  p.gain_at_center = 1.0;
  p.arrival_direction_rad = 2.0;  // arbitrary oblique arrival

  linalg::CMatrix csi = wifi::SynthesizeCfr({p}, band, array);
  std::vector<double> before(band.NumSubcarriers());
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    before[k] = std::arg(csi.At(1, k) * std::conj(csi.At(0, k)));
  }

  wifi::NoiseModel model;
  model.snr_db = 300.0;
  model.random_common_phase = true;
  model.sto_range_s = 40e-9;
  model.gain_drift_db = 0.0;
  Rng rng(11);
  wifi::ApplyNoise(csi, band.AllOffsetsHz(), model, rng);

  const auto clean = SanitizePhase(MakePacket(csi), band);
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    const double after =
        std::arg(clean.csi.At(1, k) * std::conj(clean.csi.At(0, k)));
    EXPECT_NEAR(std::abs(std::polar(1.0, after) - std::polar(1.0, before[k])),
                0.0, 1e-6);
  }
}

TEST(Sanitize, CentersDominantTapNearZeroDelay) {
  // After sanitization the LOS energy lands at (near) zero delay, making
  // DominantTapPower meaningful per packet — the property Eq. 10 relies on.
  const auto band = wifi::BandPlan::Intel5300Channel11();
  propagation::Path p;
  p.vertices = {{0, 0}, {4, 0}};
  p.length_m = 4.0;
  p.gain_at_center = 1.0;
  linalg::CMatrix csi(1, band.NumSubcarriers());
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    csi.At(0, k) = p.CoefficientAt(band.FrequencyHz(k));
  }
  const auto clean = SanitizePhase(MakePacket(csi), band);
  // All phases equal after de-sloping a single path -> the complex mean is
  // fully coherent: |mean of H_k| == mean of |H_k| (amplitudes still carry
  // the physical 1/f tilt, so compare against the amplitude mean).
  Complex mean(0, 0);
  double amp_mean = 0.0;
  for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
    mean += clean.csi.At(0, k);
    amp_mean += std::abs(clean.csi.At(0, k));
  }
  mean /= 30.0;
  amp_mean /= 30.0;
  EXPECT_NEAR(std::abs(mean), amp_mean, 1e-6);
}

TEST(Sanitize, SessionVariantMatchesPerPacket) {
  const auto band = wifi::BandPlan::Intel5300Channel11();
  Rng rng(17);
  std::vector<wifi::CsiPacket> session;
  for (int i = 0; i < 3; ++i) {
    linalg::CMatrix csi(1, band.NumSubcarriers());
    for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
      csi.At(0, k) = std::polar(rng.Uniform(0.5, 1.5), rng.Uniform(-3, 3));
    }
    session.push_back(MakePacket(csi));
  }
  const auto cleaned = SanitizePhase(session, band);
  ASSERT_EQ(cleaned.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto one = SanitizePhase(session[i], band);
    for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
      EXPECT_EQ(cleaned[i].csi.At(0, k), one.csi.At(0, k));
    }
  }
}


// ---- exact closed-form phase fit -----------------------------------------

// The unwrapped antenna-averaged phase FitLinearPhase fits, derived the
// long way: complex antenna sum, kernels::Atan2, UnwrapPhase.
std::vector<double> UnwrappedPhase(const wifi::CsiPacket& packet) {
  const std::size_t num_sc = packet.NumSubcarriers();
  std::vector<double> re(num_sc), im(num_sc), phase(num_sc);
  for (std::size_t k = 0; k < num_sc; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t m = 0; m < packet.NumAntennas(); ++m) {
      acc += packet.csi.At(m, k);
    }
    re[k] = acc.real();
    im[k] = acc.imag();
  }
  kernels::Atan2(im.data(), re.data(), num_sc, phase.data());
  return UnwrapPhase(phase);
}

// Random CSI whose per-subcarrier phase wanders far enough to wrap, on top
// of a common phase and an STO slope.
wifi::CsiPacket RandomPacket(Rng& rng, const wifi::BandPlan& band,
                             std::size_t antennas) {
  linalg::CMatrix csi(antennas, band.NumSubcarriers());
  const double common = rng.Uniform(-kPi, kPi);
  const double sto = rng.Uniform(-200e-9, 200e-9);
  for (std::size_t m = 0; m < antennas; ++m) {
    for (std::size_t k = 0; k < band.NumSubcarriers(); ++k) {
      const double phase = common - 2.0 * kPi * band.OffsetHz(k) * sto +
                           rng.Uniform(-2.5, 2.5);
      csi.At(m, k) = std::polar(rng.Uniform(0.1, 2.0), phase);
    }
  }
  return MakePacket(csi);
}

std::vector<int> Indices(int lo, int hi, int skip_below) {
  std::vector<int> out;
  for (int i = lo; i <= hi; ++i) {
    if (std::abs(i) >= skip_below) out.push_back(i);
  }
  return out;
}

TEST(IngestPlanFit, BitIdenticalToLeastSquaresOnEveryBandShape) {
  struct Case {
    const char* name;
    wifi::BandPlan band;
    bool swapped;     // the Sx row takes the pivot
    bool eliminated;  // factor != 0
  };
  const Case cases[] = {
      {"intel5300", wifi::BandPlan::Intel5300Channel11(), true, true},
      {"symmetric", wifi::BandPlan(2.437e9, {-3, -1, 1, 3}, 312.5e3), false,
       false},
      {"two", wifi::BandPlan(2.437e9, {3, 7}, 312.5e3), true, true},
      {"ht20-56", wifi::BandPlan(5.18e9, Indices(-28, 28, 1), 312.5e3), false,
       false},
      {"ht40-114", wifi::BandPlan(5.19e9, Indices(-58, 58, 2), 312.5e3),
       false, false},
      // |Sx| < n: no swap, but a nonzero elimination factor.
      {"narrow", wifi::BandPlan(1e9, {-2, -1, 0, 1, 3}, 1.0), false, true},
  };
  Rng rng(41);
  for (const Case& c : cases) {
    const IngestPlan plan(c.band);
    EXPECT_EQ(plan.swapped, c.swapped) << c.name;
    EXPECT_EQ(plan.factor != 0.0, c.eliminated) << c.name;
    const std::vector<double> offsets = c.band.AllOffsetsHz();
    SanitizeScratch scratch;
    std::size_t wrapped = 0;
    for (int trial = 0; trial < 64; ++trial) {
      const auto packet = RandomPacket(rng, c.band, 1 + trial % 3);
      const auto unwrapped = UnwrappedPhase(packet);
      for (const double y : unwrapped) wrapped += std::abs(y) > kPi ? 1 : 0;
      const auto reference = dsp::FitLinear(offsets, unwrapped);
      const PhaseFit fit = FitLinearPhase(packet, plan, scratch);
      EXPECT_EQ(fit.offset_rad, reference.intercept) << c.name;
      EXPECT_EQ(fit.slope_rad_per_hz, reference.slope) << c.name;
    }
    EXPECT_GT(wrapped, 0u) << c.name << ": no phase ever unwrapped";
  }
}

TEST(IngestPlanFit, SingularBandThrowsWhenThePlanIsBuilt) {
  // Two subcarriers at one offset: the normal matrix has rank 1 (the
  // elimination cancels exactly), as it does for the least-squares solver.
  const wifi::BandPlan duplicate(1e9, {2, 2}, 1.0);
  EXPECT_THROW(IngestPlan{duplicate}, NumericalError);
  EXPECT_THROW(dsp::FitLinear({2.0, 2.0}, {0.1, 0.2}), NumericalError);
  EXPECT_THROW(IngestPlan{wifi::BandPlan(1e9, {4}, 1.0)}, PreconditionError);
}

// The engine's one-pass ingest writes the same bytes as the offline
// interleaved sanitize followed by a per-row split, and measures the same
// mu from them.
TEST(IngestPlanFit, SplitSanitizeAndMuMatchInterleavedPath) {
  const auto band = wifi::BandPlan::Intel5300Channel11();
  const IngestPlan plan(band);
  const std::size_t num_sc = band.NumSubcarriers();
  Rng rng(43);
  SanitizeScratch scratch;
  for (std::size_t antennas : {std::size_t{1}, std::size_t{3}}) {
    for (int trial = 0; trial < 16; ++trial) {
      const auto packet = RandomPacket(rng, band, antennas);
      wifi::CsiPacket clean;
      SanitizePhaseInto(packet, plan, clean, scratch);
      std::vector<double> want(2 * antennas * num_sc);
      for (std::size_t m = 0; m < antennas; ++m) {
        kernels::Deinterleave(clean.csi.raw() + m * num_sc, num_sc,
                              want.data() + m * num_sc,
                              want.data() + (antennas + m) * num_sc);
      }
      std::vector<double> got(2 * antennas * num_sc);
      SanitizePhaseSplitInto(packet, plan, got.data(),
                             got.data() + antennas * num_sc, scratch);
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               got.size() * sizeof(double)));

      std::vector<double> mu(num_sc), mu_split(num_sc);
      MeasureMultipathFactorsInto(clean, plan.los_frac, mu);
      MeasureMultipathFactorsSplitInto(got.data(),
                                       got.data() + antennas * num_sc,
                                       antennas, plan.los_frac, mu_split);
      EXPECT_EQ(0, std::memcmp(mu.data(), mu_split.data(),
                               num_sc * sizeof(double)));
    }
  }
}

}  // namespace
}  // namespace mulink::core
