#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/detector.h"
#include "experiments/scenario.h"

namespace mulink::core {
namespace {

class DetectorTest : public ::testing::Test {
 protected:
  DetectorTest()
      : link_(experiments::MakeClassroomLink()),
        simulator_(experiments::MakeSimulator(link_)),
        rng_(123) {}

  Detector MakeDetector(DetectionScheme scheme,
                        std::size_t calibration_packets = 200) {
    DetectorConfig config;
    config.scheme = scheme;
    const auto calibration =
        simulator_.CaptureSession(calibration_packets, std::nullopt, rng_);
    return Detector::Calibrate(calibration, simulator_.band(),
                               simulator_.array(), config);
  }

  std::vector<wifi::CsiPacket> EmptyWindow(std::size_t n = 25) {
    return simulator_.CaptureSession(n, std::nullopt, rng_);
  }

  std::vector<wifi::CsiPacket> HumanWindow(geometry::Vec2 pos,
                                           std::size_t n = 25) {
    propagation::HumanBody body;
    body.position = pos;
    return simulator_.CaptureSession(n, body, rng_);
  }

  experiments::LinkCase link_;
  nic::ChannelSimulator simulator_;
  Rng rng_;
};

TEST_F(DetectorTest, AllSchemesSeparateOnLosHumanFromEmpty) {
  const geometry::Vec2 mid = (link_.tx + link_.rx) * 0.5;
  for (auto scheme : {DetectionScheme::kBaseline,
                      DetectionScheme::kSubcarrierWeighting,
                      DetectionScheme::kSubcarrierAndPathWeighting}) {
    auto detector = MakeDetector(scheme);
    double empty_max = 0.0;
    for (int i = 0; i < 5; ++i) {
      empty_max = std::max(empty_max, detector.Score(EmptyWindow()));
    }
    double human_min = 1e18;
    for (int i = 0; i < 5; ++i) {
      human_min = std::min(human_min, detector.Score(HumanWindow(mid)));
    }
    EXPECT_GT(human_min, empty_max) << ToString(scheme);
  }
}

TEST_F(DetectorTest, ScoresAreNonNegative) {
  auto detector = MakeDetector(DetectionScheme::kSubcarrierWeighting);
  EXPECT_GE(detector.Score(EmptyWindow()), 0.0);
  EXPECT_GE(detector.Score(HumanWindow({3.0, 4.5})), 0.0);
}

TEST_F(DetectorTest, DetectRequiresThreshold) {
  auto detector = MakeDetector(DetectionScheme::kBaseline);
  EXPECT_THROW(detector.Detect(EmptyWindow()), PreconditionError);
  detector.SetThreshold(0.5);
  EXPECT_NO_THROW(detector.Detect(EmptyWindow()));
}

TEST_F(DetectorTest, CalibrateThresholdSuppressesEmptyWindows) {
  auto detector = MakeDetector(DetectionScheme::kSubcarrierAndPathWeighting);
  std::vector<std::vector<wifi::CsiPacket>> empty_windows;
  for (int i = 0; i < 10; ++i) empty_windows.push_back(EmptyWindow());
  detector.CalibrateThreshold(empty_windows);
  EXPECT_GT(detector.threshold(), 0.0);
  // Fresh empty windows overwhelmingly stay quiet.
  int alarms = 0;
  for (int i = 0; i < 10; ++i) {
    if (detector.Detect(EmptyWindow())) ++alarms;
  }
  EXPECT_LE(alarms, 2);
  // A person on the LOS trips it.
  EXPECT_TRUE(detector.Detect(HumanWindow((link_.tx + link_.rx) * 0.5)));
}

// A profile ApplyProfile refuses must leave the detector untouched: the
// check runs before anything is written, so a caught throw cannot leave a
// half-installed profile behind.
TEST_F(DetectorTest, RefusedApplyProfileWritesNothing) {
  // The baseline's score reads the amplitude profile and its scale.
  auto detector = MakeDetector(DetectionScheme::kBaseline);
  const auto window = EmptyWindow();
  const double score = detector.Score(window);
  const auto power = detector.profile_power();
  const auto variance = detector.profile_variance();
  const std::uint64_t epoch = detector.profile_epoch();
  const std::size_t cells =
      detector.num_antennas() * detector.num_subcarriers();
  const std::vector<double> zeros(cells, 0.0);
  const std::vector<double> ones(cells, 1.0);
  EXPECT_THROW(detector.ApplyProfile(zeros, ones, ones), PreconditionError);
  EXPECT_EQ(detector.profile_power(), power);
  EXPECT_EQ(detector.profile_variance(), variance);
  EXPECT_EQ(detector.profile_epoch(), epoch);
  EXPECT_EQ(detector.Score(window), score);
}

TEST_F(DetectorTest, CalibrationValidatesDimensions) {
  DetectorConfig config;
  const auto calibration = simulator_.CaptureSession(10, std::nullopt, rng_);
  // Wrong antenna count in the array.
  const wifi::UniformLinearArray wrong_array(2, kWavelength / 2.0, 0.0);
  EXPECT_THROW(Detector::Calibrate(calibration, simulator_.band(), wrong_array,
                                   config),
               PreconditionError);
  // Too few packets.
  const std::vector<wifi::CsiPacket> one(calibration.begin(),
                                         calibration.begin() + 1);
  EXPECT_THROW(Detector::Calibrate(one, simulator_.band(), simulator_.array(),
                                   config),
               PreconditionError);
  // A packet of another shape inside the session (one more antenna than the
  // rest) is refused, not read past its calibrated rows.
  auto sim4 = experiments::MakeSimulator(link_, experiments::DefaultSimConfig(),
                                         4);
  Rng rng(7);
  auto mixed = calibration;
  mixed.push_back(sim4.CaptureSession(1, std::nullopt, rng)[0]);
  EXPECT_THROW(Detector::Calibrate(mixed, simulator_.band(),
                                   simulator_.array(), config),
               PreconditionError);
}

TEST_F(DetectorTest, CombinedSchemeRequiresTwoAntennas) {
  // Build a single-antenna simulator and try the combined scheme.
  auto sim1 = experiments::MakeSimulator(link_, experiments::DefaultSimConfig(),
                                         1);
  Rng rng(5);
  const auto calibration = sim1.CaptureSession(20, std::nullopt, rng);
  DetectorConfig config;
  config.scheme = DetectionScheme::kSubcarrierAndPathWeighting;
  EXPECT_THROW(Detector::Calibrate(calibration, sim1.band(), sim1.array(),
                                   config),
               PreconditionError);
  // Baseline works fine with one antenna.
  config.scheme = DetectionScheme::kBaseline;
  EXPECT_NO_THROW(Detector::Calibrate(calibration, sim1.band(), sim1.array(),
                                      config));
}

TEST_F(DetectorTest, StaticSpectrumSeesLineOfSight) {
  auto detector = MakeDetector(DetectionScheme::kSubcarrierAndPathWeighting);
  const auto peaks = detector.static_spectrum().PeakAngles(1);
  ASSERT_FALSE(peaks.empty());
  // The array is built so the LOS arrives at broadside.
  EXPECT_NEAR(peaks[0], 0.0, 5.0);
}

TEST_F(DetectorTest, PathWeightsZeroOutsideWindow) {
  auto detector = MakeDetector(DetectionScheme::kSubcarrierAndPathWeighting);
  const auto& w = detector.path_weights();
  ASSERT_FALSE(w.weights.empty());
  for (std::size_t i = 0; i < w.theta_deg.size(); ++i) {
    if (w.theta_deg[i] < -60.0 || w.theta_deg[i] > 60.0) {
      EXPECT_EQ(w.weights[i], 0.0);
    }
  }
}

TEST_F(DetectorTest, WindowDimensionMismatchThrows) {
  auto detector = MakeDetector(DetectionScheme::kBaseline);
  auto sim1 = experiments::MakeSimulator(link_, experiments::DefaultSimConfig(),
                                         1);
  Rng rng(9);
  const auto window = sim1.CaptureSession(5, std::nullopt, rng);
  EXPECT_THROW(detector.Score(window), PreconditionError);
}

TEST_F(DetectorTest, SchemeNamesAreStable) {
  EXPECT_STREQ(ToString(DetectionScheme::kBaseline), "baseline");
  EXPECT_STREQ(ToString(DetectionScheme::kSubcarrierWeighting),
               "subcarrier-weighting");
  EXPECT_STREQ(ToString(DetectionScheme::kSubcarrierAndPathWeighting),
               "subcarrier+path-weighting");
}

TEST_F(DetectorTest, OffLinkHumanScoresLowerThanOnLos) {
  // Averaged over windows, a person far from the link must move the
  // baseline statistic less than a person on the LOS.
  auto detector = MakeDetector(DetectionScheme::kBaseline);
  const geometry::Vec2 on_los = (link_.tx + link_.rx) * 0.5;
  const geometry::Vec2 far_off = {3.0, 7.2};
  double on = 0.0, off = 0.0;
  for (int i = 0; i < 6; ++i) {
    on += detector.Score(HumanWindow(on_los));
    off += detector.Score(HumanWindow(far_off));
  }
  EXPECT_GT(on, off);
}

}  // namespace
}  // namespace mulink::core
