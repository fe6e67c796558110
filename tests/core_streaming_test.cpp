// Streaming presence detection through SensingEngine (packet-at-a-time
// cadence, HMM smoothing, reset, config validation).
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/engine.h"
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

}  // namespace
}  // namespace mulink::core
