// Streaming presence detection through SensingEngine (packet-at-a-time
// cadence, HMM smoothing, reset, config validation) + multi-link fusion
// tests.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/fusion.h"
#include "experiments/scenario.h"
#include "score_oracle.h"

namespace mulink::core {
namespace {

namespace ex = mulink::experiments;

struct Rig {
  Rig()
      : link(ex::MakeClassroomLink()),
        sim(ex::MakeSimulator(link)),
        rng(1234) {
    DetectorConfig config;
    config.scheme = DetectionScheme::kSubcarrierAndPathWeighting;
    detector.emplace(Detector::Calibrate(
        sim.CaptureSession(300, std::nullopt, rng), sim.band(), sim.array(),
        config));
    for (int i = 0; i < 12; ++i) {
      empty_windows.push_back(sim.CaptureSession(25, std::nullopt, rng));
    }
    detector->CalibrateThreshold(empty_windows);
    for (const auto& w : empty_windows) {
      empty_scores.push_back(detector->Score(w));
    }
  }

  ex::LinkCase link;
  nic::ChannelSimulator sim;
  Rng rng;
  std::optional<Detector> detector;
  std::vector<std::vector<wifi::CsiPacket>> empty_windows;
  std::vector<double> empty_scores;
};

// One-link engine over the rig's detector: the packet-at-a-time serving
// path every deployment goes through.
SensingEngine OneLink(const Rig& rig, const std::vector<double>& empty_scores,
                      const StreamingConfig& config) {
  SensingEngine engine;
  engine.AddLink(*rig.detector, empty_scores, config);
  return engine;
}

TEST(Streaming, DecisionCadenceFollowsHop) {
  Rig rig;
  StreamingConfig config;
  config.window_packets = 25;
  config.hop_packets = 25;
  SensingEngine engine = OneLink(rig, rig.empty_scores, config);
  test_support::ScoreOracle oracle(config, *rig.detector);

  int decisions = 0;
  for (int i = 0; i < 100; ++i) {
    const auto packet = rig.sim.CapturePacket(std::nullopt, rig.rng);
    if (test_support::CheckedPush(oracle, engine, 0, packet).has_value()) {
      ++decisions;
    }
  }
  EXPECT_EQ(decisions, 4);  // 100 packets / hop 25
}

TEST(Streaming, OverlappingHopProducesMoreDecisions) {
  Rig rig;
  StreamingConfig config;
  config.window_packets = 25;
  config.hop_packets = 5;
  SensingEngine engine = OneLink(rig, rig.empty_scores, config);
  test_support::ScoreOracle oracle(config, *rig.detector);
  int decisions = 0;
  for (int i = 0; i < 100; ++i) {
    const auto packet = rig.sim.CapturePacket(std::nullopt, rig.rng);
    if (test_support::CheckedPush(oracle, engine, 0, packet).has_value()) {
      ++decisions;
    }
  }
  // First decision after 25 packets, then every 5: 1 + (100-25)/5 = 16.
  EXPECT_EQ(decisions, 16);
}

TEST(Streaming, DetectsPersonAndRecovers) {
  Rig rig;
  SensingEngine engine = OneLink(rig, rig.empty_scores, {});

  // Empty room: stays idle.
  for (int i = 0; i < 75; ++i) {
    engine.ProcessPacket(0, rig.sim.CapturePacket(std::nullopt, rig.rng));
  }
  EXPECT_FALSE(engine.occupied(0));

  // Person on the LOS: flips occupied within a few windows.
  propagation::HumanBody body;
  body.position = (rig.link.tx + rig.link.rx) * 0.5;
  for (int i = 0; i < 100; ++i) {
    engine.ProcessPacket(0, rig.sim.CapturePacket(body, rig.rng));
  }
  EXPECT_TRUE(engine.occupied(0));
  EXPECT_GT(engine.posterior(0), 0.8);

  // Person leaves: posterior decays back.
  for (int i = 0; i < 200; ++i) {
    engine.ProcessPacket(0, rig.sim.CapturePacket(std::nullopt, rig.rng));
  }
  EXPECT_FALSE(engine.occupied(0));
}

TEST(Streaming, ResetClearsState) {
  Rig rig;
  SensingEngine engine = OneLink(rig, rig.empty_scores, {});
  propagation::HumanBody body;
  body.position = (rig.link.tx + rig.link.rx) * 0.5;
  for (int i = 0; i < 100; ++i) {
    engine.ProcessPacket(0, rig.sim.CapturePacket(body, rig.rng));
  }
  EXPECT_TRUE(engine.occupied(0));
  engine.Reset(0);
  EXPECT_FALSE(engine.occupied(0));
  EXPECT_EQ(engine.posterior(0), 0.0);
  // Needs a full window again before the next decision.
  const auto decision =
      engine.ProcessPacket(0, rig.sim.CapturePacket(std::nullopt, rig.rng));
  EXPECT_FALSE(decision.has_value());
}

TEST(Streaming, RawThresholdModeWorksWithoutHmm) {
  Rig rig;
  StreamingConfig config;
  config.use_hmm = false;
  SensingEngine engine = OneLink(rig, {}, config);
  propagation::HumanBody body;
  body.position = (rig.link.tx + rig.link.rx) * 0.5;
  std::optional<PresenceDecision> last;
  for (int i = 0; i < 50; ++i) {
    auto d = engine.ProcessPacket(0, rig.sim.CapturePacket(body, rig.rng));
    if (d.has_value()) last = d;
  }
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->occupied);
  EXPECT_EQ(last->posterior, 1.0);
}

TEST(Streaming, ValidatesConfig) {
  Rig rig;
  SensingEngine engine;
  StreamingConfig bad;
  bad.hop_packets = 30;  // > window
  EXPECT_THROW(engine.AddLink(*rig.detector, rig.empty_scores, bad),
               PreconditionError);
  StreamingConfig one;
  one.window_packets = 1;
  EXPECT_THROW(engine.AddLink(*rig.detector, rig.empty_scores, one),
               PreconditionError);
  EXPECT_EQ(engine.NumActiveLinks(), 0u);
}

TEST(Fusion, RuleNames) {
  EXPECT_STREQ(ToString(FusionRule::kAny), "any");
  EXPECT_STREQ(ToString(FusionRule::kMajority), "majority");
  EXPECT_STREQ(ToString(FusionRule::kMeanScore), "mean-score");
  EXPECT_STREQ(ToString(FusionRule::kMaxScore), "max-score");
}

class FusionTest : public ::testing::Test {
 protected:
  FusionTest() : rng_(77) {
    // Two links across the classroom sharing a room but crossing paths.
    auto lc1 = ex::MakeClassroomLink();
    auto lc2 = lc1;
    lc2.tx = {3.0, 1.0};
    lc2.rx = {3.0, 7.0};
    for (auto* lc : {&lc1, &lc2}) {
      sims_.emplace_back(ex::MakeSimulator(*lc));
      DetectorConfig config;
      config.scheme = DetectionScheme::kSubcarrierWeighting;
      auto det = Detector::Calibrate(
          sims_.back().CaptureSession(200, std::nullopt, rng_),
          sims_.back().band(), sims_.back().array(), config);
      std::vector<std::vector<wifi::CsiPacket>> empties;
      for (int i = 0; i < 8; ++i) {
        empties.push_back(sims_.back().CaptureSession(25, std::nullopt, rng_));
      }
      det.CalibrateThreshold(empties);
      detectors_.push_back(std::move(det));
    }
  }

  std::vector<std::vector<wifi::CsiPacket>> Windows(
      const std::optional<propagation::HumanBody>& human) {
    std::vector<std::vector<wifi::CsiPacket>> windows;
    for (auto& sim : sims_) {
      windows.push_back(sim.CaptureSession(25, human, rng_));
    }
    return windows;
  }

  Rng rng_;
  std::vector<nic::ChannelSimulator> sims_;
  std::vector<Detector> detectors_;
};

TEST_F(FusionTest, AnyRuleDetectsWhenOneLinkSees) {
  MultiLinkDetector fused(FusionRule::kAny);
  fused.AddLink(detectors_[0]);
  fused.AddLink(detectors_[1]);
  ASSERT_EQ(fused.NumLinks(), 2u);

  // A person on link 1's LOS but far from link 2.
  propagation::HumanBody body;
  body.position = {4.5, 4.0};
  EXPECT_TRUE(fused.Detect(Windows(body)));
  // Empty room: quiet.
  EXPECT_FALSE(fused.Detect(Windows(std::nullopt)));
}

TEST_F(FusionTest, NormalizedScoresUseLinkThresholds) {
  MultiLinkDetector fused(FusionRule::kMeanScore);
  fused.AddLink(detectors_[0]);
  fused.AddLink(detectors_[1]);
  const auto scores = fused.NormalizedScores(Windows(std::nullopt));
  ASSERT_EQ(scores.size(), 2u);
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LT(s, 1.5);  // empty windows sit near/below each link's threshold
  }
}

TEST_F(FusionTest, MaxScoreRuleMatchesStrongestLink) {
  MultiLinkDetector fused(FusionRule::kMaxScore);
  fused.AddLink(detectors_[0]);
  fused.AddLink(detectors_[1]);
  const auto windows = Windows(std::nullopt);
  const auto scores = fused.NormalizedScores(windows);
  EXPECT_NEAR(fused.FusedScore(windows),
              std::max(scores[0], scores[1]), 1e-12);
}

TEST_F(FusionTest, RequiresThresholdedLinks) {
  MultiLinkDetector fused(FusionRule::kAny);
  DetectorConfig config;
  auto raw = Detector::Calibrate(
      sims_[0].CaptureSession(50, std::nullopt, rng_), sims_[0].band(),
      sims_[0].array(), config);
  EXPECT_THROW(fused.AddLink(raw), PreconditionError);
}

TEST_F(FusionTest, WindowCountMustMatchLinks) {
  MultiLinkDetector fused(FusionRule::kAny);
  fused.AddLink(detectors_[0]);
  fused.AddLink(detectors_[1]);
  std::vector<std::vector<wifi::CsiPacket>> one;
  one.push_back(sims_[0].CaptureSession(25, std::nullopt, rng_));
  EXPECT_THROW(fused.Detect(one), PreconditionError);
}

}  // namespace
}  // namespace mulink::core
