// Independent reference for the combined scheme's window statistic.
//
// The detector scores every window from split-complex ingest slabs, so the
// packet-form pieces of the paper's pipeline no longer meet inside the
// library. The reference below assembles the statistic from those public
// pieces on the packets of a raw window: phase sanitization, the Eq. 9–11
// multipath factors, the Eq. 13–15 subcarrier weights, the weighted sample
// covariance of the window, the calibration profile's covariance stack
// re-combined with the same weights, the noise-floor subtraction, the
// Bartlett spectra of both sides and the Eq. 17 path weights. Detector::Score
// must match it bit for bit on vacant and occupied windows, on every kernel
// backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "core/multipath_factor.h"
#include "core/music.h"
#include "core/path_weighting.h"
#include "core/sanitize.h"
#include "core/subcarrier_weighting.h"
#include "experiments/scenario.h"
#include "kernels/kernels.h"
#include "linalg/hermitian_eig.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

double ReferenceScore(const core::Detector& detector,
                      const wifi::UniformLinearArray& array,
                      std::span<const wifi::CsiPacket> window) {
  const core::DetectorConfig& config = detector.config();
  const auto sanitized = core::SanitizePhase(
      std::vector<wifi::CsiPacket>(window.begin(), window.end()),
      detector.band());

  std::vector<std::vector<double>> mu;
  core::MeasureMultipathFactorsInto(std::span<const wifi::CsiPacket>(sanitized),
                                    detector.ingest_plan().los_frac, mu);
  core::SubcarrierWeights weights;
  std::vector<double> median_scratch;
  core::ComputeSubcarrierWeightsInto(
      std::span<const std::vector<double>>(mu).first(sanitized.size()),
      config.weighting_mode, weights, median_scratch);

  linalg::CMatrix monitor_cov = core::SampleCovariance(sanitized, weights.weights);
  linalg::CMatrix profile_cov;
  core::CombineSubcarrierCovariances(detector.profile_stack(), weights.weights,
                                     profile_cov);
  if (config.noise_floor_subtraction) {
    for (auto* cov : {&monitor_cov, &profile_cov}) {
      const double floor =
          std::max(linalg::SmallestHermitianEigenvalue(*cov), 0.0);
      for (std::size_t i = 0; i < cov->rows(); ++i) {
        cov->At(i, i) -= Complex(floor, 0.0);
      }
    }
  }
  const auto monitor = core::ApplyPathWeights(
      detector.path_weights(),
      core::ComputeBartlettSpectrum(monitor_cov, array, detector.band(),
                                    config.music));
  const auto profile = core::ApplyPathWeights(
      detector.path_weights(),
      core::ComputeBartlettSpectrum(profile_cov, array, detector.band(),
                                    config.music));
  const double norm_profile =
      std::sqrt(kernels::SumSquares(profile.data(), profile.size()));
  return std::sqrt(kernels::NormalizedDistanceSq(
      monitor.data(), profile.data(), norm_profile, monitor.size()));
}

struct Fixture {
  Fixture() {
    link = ex::MakeClassroomLink();
    sim.emplace(ex::MakeSimulator(link));
    Rng rng(2015);
    calibration = sim->CaptureSession(200, std::nullopt, rng);
    session = sim->CaptureSession(40, std::nullopt, rng);
    propagation::HumanBody body;
    body.position = (link.tx + link.rx) * 0.5;
    const auto occupied = sim->CaptureSession(56, body, rng);
    session.insert(session.end(), occupied.begin(), occupied.end());
  }

  core::Detector Calibrated(bool noise_floor) const {
    core::DetectorConfig config;
    config.scheme = core::DetectionScheme::kSubcarrierAndPathWeighting;
    config.noise_floor_subtraction = noise_floor;
    return core::Detector::Calibrate(calibration, sim->band(), sim->array(),
                                     config);
  }

  ex::LinkCase link;
  std::optional<nic::ChannelSimulator> sim;
  std::vector<wifi::CsiPacket> calibration;
  std::vector<wifi::CsiPacket> session;
};

TEST(CombinedReference, ScoreMatchesPacketFormPieces) {
  const Fixture f;
  for (const auto backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    if (!kernels::BackendAvailable(backend)) continue;
    kernels::SetBackend(backend);
    for (const bool noise_floor : {true, false}) {
      const auto detector = f.Calibrated(noise_floor);
      core::DetectorScratch scratch;
      // Vacant windows, windows straddling the person's arrival, and
      // occupied windows, at the lengths the engine and benches use.
      for (const std::size_t n : {2u, 3u, 25u, 50u}) {
        for (const std::size_t start : {0u, 30u, 46u}) {
          if (start + n > f.session.size()) continue;
          const std::span<const wifi::CsiPacket> window(
              f.session.data() + start, n);
          const std::string label =
              std::string(kernels::ToString(backend)) +
              (noise_floor ? " floor" : " no-floor") +
              " n=" + std::to_string(n) + " start=" + std::to_string(start);
          EXPECT_EQ(detector.Score(window, scratch),
                    ReferenceScore(detector, f.sim->array(), window))
              << label;
        }
      }
    }
  }
  kernels::ResetBackend();
}

}  // namespace
