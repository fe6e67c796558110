// Independent reference for the amplitude schemes' window statistics.
//
// The offline Detector::Score and the engine both read the subcarrier-
// weighting and variance-mobile window statistics off one power plane
// through kernels::ColumnMedians, so engine-vs-offline parity
// (score_oracle.h) no longer pins the statistic itself. The scorers below
// are the detector's earlier per-cell ones: gather each (antenna,
// subcarrier) cell's window powers from the packets and take dsp::Median /
// dsp::MedianAbsDeviation (std::nth_element), or dsp::Mean /
// dsp::Variance. Every path the detector offers — the raw window, degraded
// masks (the combined scheme's subcarrier-only fallback included) and the
// engine's slab-prepared window — must score bit for bit like them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/detector.h"
#include "core/multipath_factor.h"
#include "core/sanitize.h"
#include "core/subcarrier_weighting.h"
#include "dsp/stats.h"
#include "experiments/scenario.h"
#include "kernels/kernels.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

// The per-cell statistic of one scheme: subcarrier weighting's window-power
// change (also the combined scheme's degraded fallback), or variance-mobile's
// excess spread.
enum class Statistic { kPowerChange, kExcessSpread };

double ReferenceScore(const core::Detector& detector, Statistic statistic,
                      std::span<const wifi::CsiPacket> sanitized,
                      std::uint32_t live_mask) {
  const core::DetectorConfig& config = detector.config();
  const std::size_t antennas = detector.num_antennas();
  const std::size_t subcarriers = detector.num_subcarriers();

  std::vector<std::vector<double>> mu;
  core::MeasureMultipathFactorsInto(sanitized, detector.ingest_plan().los_frac,
                                    mu);
  core::SubcarrierWeights weights;
  std::vector<double> median_scratch;
  core::ComputeSubcarrierWeightsInto(
      std::span<const std::vector<double>>(mu).first(sanitized.size()),
      config.weighting_mode, weights, median_scratch);

  const auto& profile_power = detector.profile_power();
  const auto& profile_variance = detector.profile_variance();
  double power_sum = 0.0;
  for (std::size_t m = 0; m < antennas; ++m) {
    for (std::size_t k = 0; k < subcarriers; ++k) {
      power_sum += profile_power[m * subcarriers + k];
    }
  }
  const double scale = power_sum / static_cast<double>(antennas * subcarriers);
  const double uniform = 1.0 / static_cast<double>(subcarriers);
  const std::uint32_t full = (1u << antennas) - 1u;
  const auto live =
      static_cast<std::size_t>(std::popcount(live_mask & full));

  std::vector<double> powers(sanitized.size());
  double score = 0.0;
  for (std::size_t m = 0; m < antennas; ++m) {
    if (((live_mask >> m) & 1u) == 0) continue;
    double sum_sq = 0.0;
    for (std::size_t k = 0; k < subcarriers; ++k) {
      for (std::size_t i = 0; i < sanitized.size(); ++i) {
        powers[i] = sanitized[i].SubcarrierPower(m, k);
      }
      double cell;
      if (statistic == Statistic::kPowerChange) {
        const double window_power =
            config.robust_window_aggregate
                ? dsp::Median(powers, median_scratch)
                : dsp::Mean(powers);
        cell = (window_power - profile_power[m * subcarriers + k]) / scale;
      } else {
        double window_variance;
        if (config.robust_window_aggregate) {
          const double robust_sigma =
              1.4826 * dsp::MedianAbsDeviation(powers, median_scratch);
          window_variance = robust_sigma * robust_sigma;
        } else {
          window_variance = dsp::Variance(powers);
        }
        cell = std::sqrt(std::max(0.0,
                                  window_variance -
                                      profile_variance[m * subcarriers + k])) /
               scale;
      }
      const double weighted = (weights.weights[k] / uniform) * cell;
      sum_sq += weighted * weighted;
    }
    score += std::sqrt(sum_sq);
  }
  return score / static_cast<double>(live);
}

// The engine's ingest products for a sanitized window: split-complex slabs,
// one mu row and its median per packet.
struct PreparedWindow {
  std::vector<std::vector<double>> slabs, mu;
  std::vector<const double*> slab_ptrs, mu_ptrs;
  std::vector<double> medians;

  PreparedWindow(const core::Detector& detector,
                 std::span<const wifi::CsiPacket> sanitized) {
    const std::size_t antennas = detector.num_antennas();
    const std::size_t subcarriers = detector.num_subcarriers();
    std::vector<double> median_scratch;
    for (const auto& packet : sanitized) {
      auto& slab = slabs.emplace_back(2 * antennas * subcarriers);
      for (std::size_t m = 0; m < antennas; ++m) {
        kernels::Deinterleave(packet.csi.raw() + m * subcarriers, subcarriers,
                              slab.data() + m * subcarriers,
                              slab.data() + (antennas + m) * subcarriers);
      }
      auto& row = mu.emplace_back(subcarriers);
      core::MeasureMultipathFactorsInto(packet,
                                        detector.ingest_plan().los_frac, row);
      medians.push_back(dsp::Median(row, median_scratch));
    }
    for (std::size_t i = 0; i < sanitized.size(); ++i) {
      slab_ptrs.push_back(slabs[i].data());
      mu_ptrs.push_back(mu[i].data());
    }
  }

  core::Detector::PreparedWindowFactors Factors() const {
    core::Detector::PreparedWindowFactors factors;
    factors.csi_slabs = slab_ptrs;
    factors.mu_rows = mu_ptrs;
    factors.stats = medians;
    return factors;
  }
};

struct Fixture {
  Fixture() {
    const auto link = ex::MakeClassroomLink();
    sim.emplace(ex::MakeSimulator(link));
    Rng rng(2015);
    calibration = sim->CaptureSession(200, std::nullopt, rng);
    // Vacant and occupied stretches, so windows mix both regimes.
    session = sim->CaptureSession(40, std::nullopt, rng);
    propagation::HumanBody body;
    body.position = (link.tx + link.rx) * 0.5;
    const auto occupied = sim->CaptureSession(56, body, rng);
    session.insert(session.end(), occupied.begin(), occupied.end());
  }

  core::Detector Calibrated(core::DetectionScheme scheme, bool robust) const {
    core::DetectorConfig config;
    config.scheme = scheme;
    config.robust_window_aggregate = robust;
    return core::Detector::Calibrate(calibration, sim->band(), sim->array(),
                                     config);
  }

  std::optional<nic::ChannelSimulator> sim;
  std::vector<wifi::CsiPacket> calibration;
  std::vector<wifi::CsiPacket> session;
};

const Fixture& SharedFixture() {
  static const Fixture fixture;
  return fixture;
}

struct Case {
  core::DetectionScheme scheme;
  Statistic statistic;
};

void ExpectSchemesMatchReference(const Fixture& f, const char* backend) {
  const Case cases[] = {
      {core::DetectionScheme::kSubcarrierWeighting, Statistic::kPowerChange},
      {core::DetectionScheme::kVarianceMobile, Statistic::kExcessSpread},
  };
  const std::uint32_t degraded_masks[] = {0b101u, 0b011u, 0b010u};
  for (const Case& c : cases) {
    for (const bool robust : {true, false}) {
      const auto detector = f.Calibrated(c.scheme, robust);
      core::DetectorScratch scratch;
      for (std::size_t n = 2; n <= 64; ++n) {
        const std::size_t start = (7 * n) % (f.session.size() - n + 1);
        const std::span<const wifi::CsiPacket> window(
            f.session.data() + start, n);
        const auto sanitized = core::SanitizePhase(
            std::vector<wifi::CsiPacket>(window.begin(), window.end()),
            detector.band());
        const std::string label = std::string(backend) + " " +
                                  core::ToString(c.scheme) +
                                  (robust ? " robust" : " mean") +
                                  " n=" + std::to_string(n);

        const double want = ReferenceScore(detector, c.statistic, sanitized,
                                           detector.FullAntennaMask());
        EXPECT_EQ(detector.Score(window, scratch), want) << label;

        // The engine's slab path: no window packets at all.
        const PreparedWindow prepared(detector, sanitized);
        EXPECT_EQ(detector.ScorePrepared(prepared.Factors(), scratch),
                  want)
            << label << " slabs";

        for (const std::uint32_t mask : degraded_masks) {
          const double degraded =
              ReferenceScore(detector, c.statistic, sanitized, mask);
          EXPECT_EQ(detector.ScoreDegraded(window, scratch, mask), degraded)
              << label << " mask=" << mask;
          EXPECT_EQ(
              detector.ScorePrepared(prepared.Factors(), scratch, mask),
              degraded)
              << label << " slabs mask=" << mask;
        }
      }
    }
  }
}

TEST(AmplitudeReference, ScoresMatchPerCellMedianScorers) {
  const Fixture& f = SharedFixture();
  for (const auto backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    if (!kernels::BackendAvailable(backend)) continue;
    kernels::SetBackend(backend);
    ExpectSchemesMatchReference(f, kernels::ToString(backend));
  }
  kernels::ResetBackend();
}

// With a dead chain the combined scheme falls back to subcarrier-only
// weighting over the live rows — the same per-cell window-power statistic.
TEST(AmplitudeReference, CombinedFallbackMatchesPerCellMedianScorer) {
  const Fixture& f = SharedFixture();
  for (const bool robust : {true, false}) {
    const auto detector = f.Calibrated(
        core::DetectionScheme::kSubcarrierAndPathWeighting, robust);
    core::DetectorScratch scratch;
    for (const std::size_t n : {2u, 3u, 24u, 25u, 49u, 50u, 64u}) {
      const std::span<const wifi::CsiPacket> window(f.session.data(), n);
      const auto sanitized = core::SanitizePhase(
          std::vector<wifi::CsiPacket>(window.begin(), window.end()),
          detector.band());
      const PreparedWindow prepared(detector, sanitized);
      for (const std::uint32_t mask : {0b111u, 0b101u, 0b001u}) {
        const double want = ReferenceScore(detector, Statistic::kPowerChange,
                                           sanitized, mask);
        EXPECT_EQ(detector.ScoreDegraded(window, scratch, mask), want)
            << (robust ? "robust" : "mean") << " n=" << n
            << " mask=" << mask;
        // The engine's slab path takes the fallback for a short mask only;
        // at full mask it scores the angular statistic.
        if (mask == detector.FullAntennaMask()) continue;
        EXPECT_EQ(
            detector.ScorePrepared(prepared.Factors(), scratch, mask),
            want)
            << (robust ? "robust" : "mean") << " n=" << n
            << " slabs mask=" << mask;
      }
    }
  }
}

// The prepared path checks the slabs it reads: a slab count that disagrees
// with the mu rows and stats is a precondition error, not an out-of-bounds
// read.
TEST(AmplitudeReference, PreparedPathRejectsSlabCountMismatch) {
  const Fixture& f = SharedFixture();
  const auto detector =
      f.Calibrated(core::DetectionScheme::kVarianceMobile, true);
  const auto sanitized = core::SanitizePhase(
      std::vector<wifi::CsiPacket>(f.session.begin(), f.session.begin() + 25),
      detector.band());
  const PreparedWindow prepared(detector, sanitized);
  auto factors = prepared.Factors();
  factors.csi_slabs = factors.csi_slabs.first(24);
  core::DetectorScratch scratch;
  EXPECT_THROW((void)detector.ScorePrepared(factors, scratch),
               PreconditionError);
}

}  // namespace
