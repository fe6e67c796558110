// Adaptive-calibration tests: the QuietScorePosterior / ProfilePosterior
// sufficient statistics, the recalibration ladder's state machine
// (drift confirmation, AGC fast re-baseline, blackout escape, starvation
// fallback, timeout/backoff/freeze, swap-spacing de-escalation) and its
// Configure range checks, the ladder as the one owner of
// LinkHealth::profile_drift (reset, dead-chain stretches and revive, no
// drift flag without the ladder), and, with the ladder active under
// long-horizon drift faults, every engine decision's score bit-identical
// to the offline score of its raw window.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/calibration/calibration.h"
#include "core/detector.h"
#include "core/engine.h"
#include "experiments/scenario.h"
#include "kernels/kernels.h"
#include "nic/fault_injection.h"
#include "nic/frame_guard.h"
#include "score_oracle.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

constexpr std::size_t kWindow = 25;

struct CalibrationFixture {
  ex::LinkCase link = ex::MakeClassroomLink();
  nic::ChannelSimulator sim = ex::MakeSimulator(link);
  Rng rng{4242};
  std::vector<wifi::CsiPacket> calibration =
      sim.CaptureSession(400, std::nullopt, rng);
  std::vector<wifi::CsiPacket> empty_session =
      sim.CaptureSession(600, std::nullopt, rng);

  core::Detector Calibrated(core::DetectionScheme scheme) const {
    core::DetectorConfig config;
    config.scheme = scheme;
    auto detector =
        core::Detector::Calibrate(calibration, sim.band(), sim.array(), config);
    std::vector<std::vector<wifi::CsiPacket>> windows;
    for (std::size_t s = 0; s + kWindow <= calibration.size(); s += kWindow) {
      windows.emplace_back(
          calibration.begin() + static_cast<std::ptrdiff_t>(s),
          calibration.begin() + static_cast<std::ptrdiff_t>(s + kWindow));
    }
    detector.CalibrateThreshold(windows);
    return detector;
  }

  // empty_session's CSI as ingest slabs (antenna-major re rows, then im
  // rows, per packet), one pointer per packet.
  std::vector<double> empty_rows;
  std::vector<const double*> empty_slabs;

  CalibrationFixture() {
    const std::size_t cells =
        empty_session[0].NumAntennas() * empty_session[0].NumSubcarriers();
    empty_rows.resize(empty_session.size() * 2 * cells);
    for (std::size_t i = 0; i < empty_session.size(); ++i) {
      double* const re = empty_rows.data() + i * 2 * cells;
      kernels::Deinterleave(empty_session[i].csi.raw(), cells, re, re + cells);
      empty_slabs.push_back(re);
    }
  }

  std::vector<double> EmptyScores(const core::Detector& detector) const {
    std::vector<double> scores;
    for (std::size_t s = 0; s + kWindow <= empty_session.size(); s += kWindow) {
      const std::vector<wifi::CsiPacket> window(
          empty_session.begin() + static_cast<std::ptrdiff_t>(s),
          empty_session.begin() + static_cast<std::ptrdiff_t>(s + kWindow));
      scores.push_back(detector.Score(window));
    }
    return scores;
  }
};

CalibrationFixture& Fixture() {
  static CalibrationFixture f;
  return f;
}

// ------------------------------------------------- QuietScorePosterior --

TEST(QuietScorePosterior, SeedMatchesSampleMoments) {
  core::QuietScorePosterior posterior;
  const double scores[] = {1.0, 2.0, 3.0, 4.0};
  posterior.Seed(scores);
  EXPECT_DOUBLE_EQ(posterior.EffectiveWindows(), 4.0);
  EXPECT_DOUBLE_EQ(posterior.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(posterior.Variance(), 1.25);  // population variance
  EXPECT_DOUBLE_EQ(posterior.SeedMean(), 2.5);
  EXPECT_DOUBLE_EQ(posterior.Threshold(2.0), 2.5 + 2.0 * std::sqrt(1.25));
  const double expected_log =
      (std::log(1.0) + std::log(2.0) + std::log(3.0) + std::log(4.0)) / 4.0;
  EXPECT_NEAR(posterior.LogMean(), expected_log, 1e-12);
}

TEST(QuietScorePosterior, ObserveWithoutForgettingMatchesBatchSeed) {
  const double scores[] = {0.8, 1.3, 0.6, 1.1, 0.9};
  core::QuietScorePosterior batch;
  batch.Seed(scores);
  core::QuietScorePosterior online;
  online.Seed(std::span<const double>{});
  for (const double s : scores) online.Observe(s, /*forgetting=*/1.0);
  EXPECT_NEAR(online.Mean(), batch.Mean(), 1e-12);
  EXPECT_NEAR(online.Variance(), batch.Variance(), 1e-12);
  EXPECT_NEAR(online.LogMean(), batch.LogMean(), 1e-12);
  EXPECT_NEAR(online.LogSigma(), batch.LogSigma(), 1e-12);
}

TEST(QuietScorePosterior, ForgettingTracksALevelShift) {
  core::QuietScorePosterior posterior;
  const double seed[] = {1.0, 1.02, 0.98, 1.01, 0.99};
  posterior.Seed(seed);
  for (int i = 0; i < 60; ++i) posterior.Observe(2.0, 0.8);
  // Effective memory saturates at 1/(1-forgetting) and the mean converges
  // on the new level.
  EXPECT_NEAR(posterior.EffectiveWindows(), 5.0, 0.1);
  EXPECT_NEAR(posterior.Mean(), 2.0, 0.01);
}

TEST(QuietScorePosterior, DeweightCapsEvidenceKeepsEstimate) {
  core::QuietScorePosterior posterior;
  std::vector<double> scores;
  for (int i = 0; i < 100; ++i) {
    scores.push_back(1.0 + 0.1 * static_cast<double>(i % 7));
  }
  posterior.Seed(scores);
  const double mean = posterior.Mean();
  const double std_dev = posterior.StdDev();
  posterior.Deweight(1.0);
  EXPECT_DOUBLE_EQ(posterior.EffectiveWindows(), 1.0);
  EXPECT_DOUBLE_EQ(posterior.Mean(), mean);
  // M2 scales with the weight, so the per-window spread is preserved.
  EXPECT_NEAR(posterior.StdDev(), std_dev, 1e-12);
}

TEST(QuietScorePosterior, ResetRestoresTheSeededPrior) {
  core::QuietScorePosterior posterior;
  const double seed[] = {0.9, 1.0, 1.1};
  posterior.Seed(seed);
  const double mean = posterior.Mean();
  const double variance = posterior.Variance();
  const double log_mean = posterior.LogMean();
  for (int i = 0; i < 20; ++i) posterior.Observe(7.0, 0.9);
  EXPECT_NE(posterior.Mean(), mean);
  posterior.Reset();
  EXPECT_DOUBLE_EQ(posterior.Mean(), mean);
  EXPECT_DOUBLE_EQ(posterior.Variance(), variance);
  EXPECT_DOUBLE_EQ(posterior.LogMean(), log_mean);
}

TEST(QuietScorePosterior, ReseedScaledMovesLocationKeepsShape) {
  core::QuietScorePosterior posterior;
  const double seed[] = {0.8, 1.0, 1.2, 0.9, 1.1};
  posterior.Seed(seed);
  const double seed_std = posterior.StdDev();
  const double seed_log_mean = posterior.LogMean();
  const double seed_log_sigma = posterior.LogSigma();
  for (int i = 0; i < 10; ++i) posterior.Observe(3.0, 0.8);
  posterior.ReseedScaled(2.0);
  EXPECT_DOUBLE_EQ(posterior.Mean(), 2.0);
  EXPECT_NEAR(posterior.StdDev(), 2.0 * seed_std, 1e-12);
  EXPECT_NEAR(posterior.LogMean(), seed_log_mean + std::log(2.0), 1e-12);
  EXPECT_NEAR(posterior.LogSigma(), seed_log_sigma, 1e-12);
}

TEST(QuietScorePosterior, LogSigmaIsFlooredLikeTheHmmFit) {
  core::QuietScorePosterior posterior;
  const double seed[] = {1.0, 1.0, 1.0, 1.0};
  posterior.Seed(seed);
  EXPECT_DOUBLE_EQ(posterior.StdDev(), 0.0);
  EXPECT_DOUBLE_EQ(posterior.LogSigma(), 0.05);  // PresenceHmm's floor
}

// ---------------------------------------------------- ProfilePosterior --

TEST(ProfilePosterior, SeedFromAnchorsAtTheActiveProfile) {
  auto& f = Fixture();
  const auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  core::ProfilePosterior posterior;
  posterior.Configure(detector.num_antennas(), detector.num_subcarriers());
  posterior.SeedFrom(detector);
  EXPECT_DOUBLE_EQ(posterior.EffectiveWindows(), 1.0);
  const auto& power = detector.profile_power();
  const std::size_t subcarriers = detector.num_subcarriers();
  for (std::size_t m = 0; m < detector.num_antennas(); ++m) {
    for (std::size_t k = 0; k < subcarriers; ++k) {
      EXPECT_DOUBLE_EQ(posterior.MeanPower(m, k), power[m * subcarriers + k]);
      EXPECT_DOUBLE_EQ(posterior.MeanAmplitude(m, k),
                       std::sqrt(power[m * subcarriers + k]));
      EXPECT_DOUBLE_EQ(posterior.MeanVariance(m, k), 0.0);
    }
  }
}

TEST(ProfilePosterior, ObserveConvergesOnWindowStatsAndResetRestores) {
  auto& f = Fixture();
  const auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  core::ProfilePosterior posterior;
  posterior.Configure(detector.num_antennas(), detector.num_subcarriers());
  posterior.SeedFrom(detector);
  const std::span<const wifi::CsiPacket> window(f.empty_session.data(),
                                                kWindow);
  // Fold the same window in with fast forgetting: the posterior mean must
  // converge on the window's own per-cell mean power.
  std::vector<double> plane;
  const auto window_plane = core::FillPowerPlane(
      std::span<const double* const>(f.empty_slabs).first(kWindow),
      detector.num_antennas(), detector.num_subcarriers(), plane);
  for (int i = 0; i < 40; ++i) posterior.Observe(window_plane, 0.5);
  double expected = 0.0;
  for (const auto& packet : window) expected += packet.SubcarrierPower(1, 7);
  expected /= static_cast<double>(window.size());
  EXPECT_NEAR(posterior.MeanPower(1, 7), expected,
              1e-9 * std::max(1.0, std::abs(expected)));
  // Temporal variance picks up a nonzero floor from the fading channel.
  EXPECT_GT(posterior.MeanVariance(1, 7), 0.0);

  posterior.Reset();
  EXPECT_DOUBLE_EQ(posterior.EffectiveWindows(), 1.0);
  EXPECT_DOUBLE_EQ(
      posterior.MeanPower(1, 7),
      detector.profile_power()[1 * detector.num_subcarriers() + 7]);
  EXPECT_DOUBLE_EQ(posterior.MeanVariance(1, 7), 0.0);
}

// ------------------------------------------------------------- ladder --

// Harness that drives LinkCalibrator::ObserveDecision directly with
// synthetic scores/posteriors and real empty-room windows, so every ladder
// transition is pinned deterministically.
struct LadderHarness {
  core::Detector detector;
  std::vector<double> empty_scores;
  core::LinkCalibrator calibrator;
  core::DetectorScratch scratch;
  std::size_t next_window = 0;
  double threshold = 0.0;
  double quiet_level = 0.0;

  explicit LadderHarness(const core::CalibrationConfig& config)
      : detector(Fixture().Calibrated(
            core::DetectionScheme::kSubcarrierWeighting)),
        empty_scores(Fixture().EmptyScores(detector)) {
    calibrator.Configure(detector, empty_scores, config);
    threshold = detector.threshold();
    quiet_level = calibrator.score_posterior().Mean();
  }

  std::span<const double* const> NextWindow() {
    const auto& slabs = Fixture().empty_slabs;
    const std::size_t windows = slabs.size() / kWindow;
    const auto window = std::span<const double* const>(slabs).subspan(
        (next_window % windows) * kWindow, kWindow);
    ++next_window;
    return window;
  }

  bool Feed(double score, double posterior,
            core::CalibrationWindowContext context = {}) {
    return calibrator.ObserveDecision(score, posterior, NextWindow(),
                                      detector, scratch, context);
  }

  bool Quiet(double score) { return Feed(score, 0.0); }
  bool Loud(double score) { return Feed(score, 1.0); }
  bool Tainted(double score) {
    core::CalibrationWindowContext context;
    context.repaired_frames = 1;
    return Feed(score, 1.0, context);
  }

  core::LadderState state() const { return calibrator.state(); }
};

core::CalibrationConfig FastLadderConfig() {
  core::CalibrationConfig config;
  config.enabled = true;
  config.quiet_posterior_max = 0.2;
  // Instant EWMAs make each fed score the drift/ambient level directly.
  config.drift_ewma_alpha = 1.0;
  config.drift_confirm_windows = 2;
  config.recalibration_quiet_windows = 3;
  config.heal_windows = 4;
  return config;
}

using Ladder = core::LinkCalibrator;

TEST(RecalibrationLadder, DriftConfirmationWalksToASwapAndBack) {
  LadderHarness h(FastLadderConfig());
  ASSERT_EQ(h.state(), core::LadderState::kHealthy);
  EXPECT_FALSE(h.calibrator.drift_flagged());

  // Quiet windows persistently just under the threshold: suspect, confirm,
  // recalibrate.
  const double drifting = 0.97 * h.threshold;
  h.Quiet(drifting);
  h.Quiet(drifting);
  EXPECT_EQ(h.state(), core::LadderState::kDriftSuspected);
  EXPECT_TRUE(h.calibrator.drift_flagged());
  h.Quiet(drifting);
  h.Quiet(drifting);
  EXPECT_EQ(h.state(), core::LadderState::kRecalibrating);

  // recalibration_quiet_windows of evidence apply the swap in place.
  EXPECT_FALSE(h.Quiet(drifting));
  EXPECT_FALSE(h.Quiet(drifting));
  EXPECT_TRUE(h.Quiet(drifting));
  EXPECT_EQ(h.state(), core::LadderState::kHealthy);
  EXPECT_FALSE(h.calibrator.drift_flagged());
  EXPECT_EQ(h.calibrator.profile_swaps(), 1u);
  EXPECT_GT(h.calibrator.quiet_windows(), 0u);
  // The swap re-applied the calibrated margin on the rebased quiet level,
  // clamped to [1, 1.5]x the calibration-time operating point.
  EXPECT_GT(h.calibrator.adaptive_threshold(), 0.0);
  EXPECT_DOUBLE_EQ(h.calibrator.adaptive_threshold(), h.detector.threshold());
  EXPECT_GE(h.detector.threshold(), 0.999 * h.threshold);
  EXPECT_LE(h.detector.threshold(), 1.501 * h.threshold);
}

TEST(RecalibrationLadder, CalmWindowsWalkBackFromDriftSuspected) {
  LadderHarness h(FastLadderConfig());
  const double drifting = 0.97 * h.threshold;
  h.Quiet(drifting);
  h.Quiet(drifting);
  ASSERT_EQ(h.state(), core::LadderState::kDriftSuspected);
  h.Quiet(h.quiet_level);
  h.Quiet(h.quiet_level);
  EXPECT_EQ(h.state(), core::LadderState::kHealthy);
  EXPECT_EQ(h.calibrator.profile_swaps(), 0u);
  EXPECT_FALSE(h.calibrator.drift_flagged());
}

TEST(RecalibrationLadder, AgcBurstFastRebaselines) {
  LadderHarness h(FastLadderConfig());
  core::CalibrationWindowContext agc;
  agc.repaired_frames = Ladder::kAgcFramesMin;
  agc.agc_frames = Ladder::kAgcFramesMin;
  h.Feed(h.quiet_level, 0.0, agc);
  EXPECT_EQ(h.state(), core::LadderState::kRecalibrating);
  EXPECT_EQ(h.calibrator.agc_rebaselines(), 1u);
  // The fast path only fires from Healthy/DriftSuspected: a second burst
  // while already Recalibrating does not count again.
  h.Feed(h.quiet_level, 0.0, agc);
  EXPECT_EQ(h.calibrator.agc_rebaselines(), 1u);
  h.Quiet(h.quiet_level);
  h.Quiet(h.quiet_level);
  h.Quiet(h.quiet_level);
  EXPECT_EQ(h.calibrator.profile_swaps(), 1u);
  EXPECT_EQ(h.state(), core::LadderState::kHealthy);
}

TEST(RecalibrationLadder, TaintedWindowsNeverFeedThePosteriors) {
  LadderHarness h(FastLadderConfig());
  const double before_mean = h.calibrator.score_posterior().Mean();
  core::CalibrationWindowContext repaired;
  repaired.repaired_frames = 2;
  core::CalibrationWindowContext degraded;
  degraded.degraded = true;
  for (int i = 0; i < 10; ++i) {
    h.Feed(0.97 * h.threshold, 0.0, repaired);
    h.Feed(0.97 * h.threshold, 0.0, degraded);
  }
  EXPECT_EQ(h.calibrator.quiet_windows(), 0u);
  EXPECT_EQ(h.state(), core::LadderState::kHealthy);
  EXPECT_DOUBLE_EQ(h.calibrator.score_posterior().Mean(), before_mean);
}

TEST(RecalibrationLadder, OccupiedWindowsNeverFeedThePosteriors) {
  LadderHarness h(FastLadderConfig());
  const double before_mean = h.calibrator.score_posterior().Mean();
  // Clean windows below the threshold but with a confident-occupied
  // posterior: drift sensing may track them, the posteriors must not.
  for (int i = 0; i < 10; ++i) h.Feed(h.quiet_level, 0.9);
  EXPECT_EQ(h.calibrator.quiet_windows(), 0u);
  EXPECT_DOUBLE_EQ(h.calibrator.score_posterior().Mean(), before_mean);
}

TEST(RecalibrationLadder, BlackoutEscapeRebaselinesAfterAStepChange) {
  LadderHarness h(FastLadderConfig());
  // A step change: every untainted window lands far above every gate the
  // ladder owns, with the filter saturated occupied.
  const double loud = 3.0 * h.threshold;
  for (std::size_t i = 0; i < Ladder::kBlackoutWindows; ++i) {
    ASSERT_EQ(h.state(), core::LadderState::kHealthy) << "window " << i;
    h.Loud(loud);
  }
  // kBlackoutWindows of that and the ladder concludes the room moved past
  // its gates; the starvation clock enters Recalibrating pre-expired, so
  // the ambient-EWMA fallback band admits the loud-but-vacant windows
  // immediately.
  EXPECT_EQ(h.state(), core::LadderState::kRecalibrating);
  h.Loud(loud);
  h.Loud(loud);
  h.Loud(loud);
  EXPECT_EQ(h.calibrator.profile_swaps(), 1u);
  EXPECT_EQ(h.state(), core::LadderState::kHealthy);
}

TEST(RecalibrationLadder, TimeoutDegradesThenFreezesAndResetRearms) {
  // Only tainted windows run the clocks below, and tainted windows never
  // advance the blackout streak: the timeout/backoff path runs alone.
  LadderHarness h(FastLadderConfig());

  const double drifting = 0.97 * h.threshold;
  auto drive_to_recalibrating = [&] {
    while (h.state() != core::LadderState::kRecalibrating &&
           h.state() != core::LadderState::kFrozen) {
      h.Quiet(drifting);
    }
  };

  auto run_tainted = [&](std::size_t windows) {
    for (std::size_t i = 0; i < windows; ++i) h.Tainted(5.0 * h.threshold);
  };

  drive_to_recalibrating();
  // Tainted windows advance the clocks but never count as evidence: the
  // collection times out and the ladder degrades.
  run_tainted(Ladder::kRecalibrationTimeoutWindows - 1);
  ASSERT_EQ(h.state(), core::LadderState::kRecalibrating);
  run_tainted(1);
  EXPECT_EQ(h.state(), core::LadderState::kDegraded);
  EXPECT_TRUE(h.calibrator.drift_flagged());

  // Each backoff expires into a retry; the retry starts with the
  // starvation clock expired, starves the same way, and the
  // kMaxDegradedEntries-th degradation freezes the ladder.
  for (std::size_t entry = 2; entry <= Ladder::kMaxDegradedEntries; ++entry) {
    run_tainted(Ladder::kDegradedBackoffWindows - 1);
    ASSERT_EQ(h.state(), core::LadderState::kDegraded) << entry;
    run_tainted(1);
    ASSERT_EQ(h.state(), core::LadderState::kRecalibrating) << entry;
    run_tainted(Ladder::kRecalibrationTimeoutWindows -
                Ladder::kStarvationWindows);
    EXPECT_EQ(h.state(), entry < Ladder::kMaxDegradedEntries
                             ? core::LadderState::kDegraded
                             : core::LadderState::kFrozen)
        << entry;
  }
  EXPECT_EQ(h.state(), core::LadderState::kFrozen);

  // Frozen is inert: even perfect quiet evidence is ignored.
  const auto frozen_quiet = h.calibrator.quiet_windows();
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(h.Quiet(h.quiet_level));
  EXPECT_EQ(h.state(), core::LadderState::kFrozen);
  EXPECT_EQ(h.calibrator.quiet_windows(), frozen_quiet);

  // Only an explicit Reset re-arms it, with the full escalation budget.
  h.calibrator.Reset(h.detector);
  EXPECT_EQ(h.state(), core::LadderState::kHealthy);
  EXPECT_EQ(h.calibrator.quiet_windows(), 0u);
  drive_to_recalibrating();
  EXPECT_EQ(h.state(), core::LadderState::kRecalibrating);
}

TEST(RecalibrationLadder, BlackoutEscapeCutsTheDegradedBackoffShort) {
  LadderHarness h(FastLadderConfig());
  const double drifting = 0.97 * h.threshold;
  while (h.state() != core::LadderState::kRecalibrating) h.Quiet(drifting);
  for (std::size_t i = 0; i < Ladder::kRecalibrationTimeoutWindows; ++i) {
    h.Tainted(5.0 * h.threshold);
  }
  ASSERT_EQ(h.state(), core::LadderState::kDegraded);
  // A step change lands during the backoff: untainted windows above every
  // gate escape to Recalibrating after kBlackoutWindows, before the
  // kDegradedBackoffWindows backoff would have expired.
  for (std::size_t i = 0; i < Ladder::kBlackoutWindows; ++i) {
    ASSERT_EQ(h.state(), core::LadderState::kDegraded) << "window " << i;
    h.Loud(3.0 * h.threshold);
  }
  EXPECT_EQ(h.state(), core::LadderState::kRecalibrating);
}

// Swap-chasing is measured by swap-to-swap spacing: back-to-back swaps
// escalate toward Degraded, while the same number of swaps spaced at least
// 2 x heal_windows apart are independent re-anchors and never escalate.
TEST(RecalibrationLadder, SwapSpacingControlsEscalation) {
  const auto config = FastLadderConfig();
  core::CalibrationWindowContext agc;
  agc.repaired_frames = Ladder::kAgcFramesMin;
  agc.agc_frames = Ladder::kAgcFramesMin;

  auto swap_via_agc = [&](LadderHarness& h) {
    h.Feed(h.quiet_level, 0.0, agc);
    h.Quiet(h.quiet_level);
    h.Quiet(h.quiet_level);
    h.Quiet(h.quiet_level);
  };

  {  // Chasing: the swap after kMaxConsecutiveSwaps back-to-back ones
    // escalates.
    LadderHarness h(config);
    for (std::size_t swap = 1; swap <= Ladder::kMaxConsecutiveSwaps; ++swap) {
      swap_via_agc(h);
      ASSERT_EQ(h.calibrator.profile_swaps(), swap);
      ASSERT_EQ(h.state(), core::LadderState::kHealthy) << swap;
    }
    swap_via_agc(h);
    EXPECT_EQ(h.calibrator.profile_swaps(), Ladder::kMaxConsecutiveSwaps + 1);
    EXPECT_EQ(h.state(), core::LadderState::kDegraded);
  }
  {  // Pacing: identical swaps separated by 2 x heal_windows of decisions
    // (tainted spacers, so no other heal bookkeeping can mask the rule).
    LadderHarness h(config);
    swap_via_agc(h);
    ASSERT_EQ(h.state(), core::LadderState::kHealthy);
    for (std::size_t swap = 2; swap <= Ladder::kMaxConsecutiveSwaps + 1;
         ++swap) {
      for (std::size_t i = 0; i < 2 * config.heal_windows; ++i) {
        h.Tainted(h.quiet_level);
      }
      swap_via_agc(h);
      EXPECT_EQ(h.calibrator.profile_swaps(), swap);
      EXPECT_EQ(h.state(), core::LadderState::kHealthy) << swap;
    }
  }
}

TEST(RecalibrationLadder, FillHealthExportsTheLadder) {
  LadderHarness h(FastLadderConfig());
  const double drifting = 0.97 * h.threshold;
  h.Quiet(drifting);
  h.Quiet(drifting);
  ASSERT_EQ(h.state(), core::LadderState::kDriftSuspected);
  nic::LinkHealth health;
  h.calibrator.FillHealth(health);
  EXPECT_EQ(health.calibration_state, nic::CalibrationLadder::kDriftSuspected);
  EXPECT_TRUE(health.profile_drift);  // the ladder owns the flag
  EXPECT_EQ(health.quiet_windows, h.calibrator.quiet_windows());
  EXPECT_EQ(health.profile_swaps, 0u);
  EXPECT_DOUBLE_EQ(health.empty_score_ewma, h.calibrator.quiet_score_ewma());
  EXPECT_EQ(nic::Status(health), nic::LinkStatus::kDegraded);

  // A disabled calibrator must leave the snapshot alone.
  core::LinkCalibrator inert;
  nic::LinkHealth untouched;
  untouched.profile_drift = true;
  inert.FillHealth(untouched);
  EXPECT_TRUE(untouched.profile_drift);
  EXPECT_EQ(untouched.calibration_state, nic::CalibrationLadder::kHealthy);
}

// Configure validates each tunable field that stays in the config, at
// both sides of every bound; a disabled config is never validated and the
// calibrator it leaves stays inert.
TEST(RecalibrationLadder, ConfigureRejectsOutOfRangeFields) {
  using Config = core::CalibrationConfig;
  auto& f = Fixture();
  const auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  const auto empty_scores = f.EmptyScores(detector);
  auto accepts = [&](auto set) {
    Config config = FastLadderConfig();
    set(config);
    core::LinkCalibrator calibrator;
    try {
      calibrator.Configure(detector, empty_scores, config);
    } catch (const PreconditionError&) {
      return false;
    }
    return true;
  };
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double above_one = std::nextafter(1.0, 2.0);

  // quiet_posterior_max in [0, 1].
  EXPECT_TRUE(accepts([](Config& c) { c.quiet_posterior_max = 0.0; }));
  EXPECT_FALSE(accepts([&](Config& c) { c.quiet_posterior_max = -tiny; }));
  EXPECT_TRUE(accepts([](Config& c) { c.quiet_posterior_max = 1.0; }));
  EXPECT_FALSE(accepts([&](Config& c) { c.quiet_posterior_max = above_one; }));
  // drift_ewma_alpha in (0, 1].
  EXPECT_FALSE(accepts([](Config& c) { c.drift_ewma_alpha = 0.0; }));
  EXPECT_TRUE(accepts([&](Config& c) { c.drift_ewma_alpha = tiny; }));
  EXPECT_TRUE(accepts([](Config& c) { c.drift_ewma_alpha = 1.0; }));
  EXPECT_FALSE(accepts([&](Config& c) { c.drift_ewma_alpha = above_one; }));
  // drift_confirm_windows and recalibration_quiet_windows >= 1.
  EXPECT_FALSE(accepts([](Config& c) { c.drift_confirm_windows = 0; }));
  EXPECT_TRUE(accepts([](Config& c) { c.drift_confirm_windows = 1; }));
  EXPECT_FALSE(accepts([](Config& c) { c.recalibration_quiet_windows = 0; }));
  EXPECT_TRUE(accepts([](Config& c) { c.recalibration_quiet_windows = 1; }));

  // Every field out of range, but disabled: accepted, and inert.
  Config disabled;
  disabled.enabled = false;
  disabled.quiet_posterior_max = above_one;
  disabled.drift_ewma_alpha = 0.0;
  disabled.drift_confirm_windows = 0;
  disabled.recalibration_quiet_windows = 0;
  ASSERT_TRUE(accepts([&](Config& c) { c = disabled; }));
  LadderHarness h(disabled);
  EXPECT_FALSE(h.calibrator.enabled());
  for (std::size_t i = 0; i < Ladder::kBlackoutWindows; ++i) {
    EXPECT_FALSE(h.Quiet(0.97 * h.threshold));
    EXPECT_FALSE(h.Loud(3.0 * h.threshold));
  }
  EXPECT_EQ(h.state(), core::LadderState::kHealthy);
  EXPECT_FALSE(h.calibrator.drift_flagged());
  EXPECT_EQ(h.calibrator.quiet_windows(), 0u);
  EXPECT_EQ(h.calibrator.profile_swaps(), 0u);
  EXPECT_DOUBLE_EQ(h.detector.threshold(), h.threshold);
  nic::LinkHealth untouched;
  untouched.profile_drift = true;
  h.calibrator.FillHealth(untouched);
  EXPECT_TRUE(untouched.profile_drift);
  EXPECT_EQ(untouched.calibration_state, nic::CalibrationLadder::kHealthy);
}

// ------------------------------------- one owner for profile_drift --

// The calibration ladder is the link's only drift detector:
// LinkHealth::profile_drift mirrors LinkCalibrator::drift_flagged() at
// every decision, and a link without the ladder never reports drift.

// A guarded ladder link whose drift reference sits far below the quiet
// level, so plain empty traffic confirms drift within a few windows — the
// tests below pin WHEN the flag may move, not the detection margin itself.
core::StreamingConfig HairTriggerLadderConfig() {
  core::StreamingConfig config;
  config.use_hmm = false;
  config.guard_enabled = true;
  config.calibration.enabled = true;
  config.calibration.drift_score_fraction = 1e-3;
  config.calibration.drift_confirm_windows = 2;
  return config;
}

double MeanOf(const std::vector<double>& values) {
  double mean = 0.0;
  for (const double v : values) mean += v;
  return mean / static_cast<double>(values.size());
}

// Feeds `packet` and, when it completes a window, checks that the health
// snapshot's drift flag is the ladder's. Returns the flag after a decision.
std::optional<bool> PushAndCheckFlag(core::SensingEngine& engine,
                                     const wifi::CsiPacket& packet) {
  if (!engine.ProcessPacket(0, packet).has_value()) return std::nullopt;
  const bool flagged = engine.Health(0).profile_drift;
  EXPECT_EQ(flagged, engine.Calibrator(0).drift_flagged());
  return flagged;
}

TEST(ProfileDriftOwner, ResetClearsTheFlagAndReseedsTheEwma) {
  auto& f = Fixture();
  auto detector = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  const auto empty_scores = f.EmptyScores(detector);
  const double seed = MeanOf(empty_scores);

  core::SensingEngine engine;
  engine.AddLink(std::move(detector), empty_scores, HairTriggerLadderConfig());
  // Before any window the EWMA sits at the calibration mean, not 0.
  EXPECT_DOUBLE_EQ(engine.Health(0).empty_score_ewma, seed);
  EXPECT_FALSE(engine.Health(0).profile_drift);

  // Feed the empty session until the ladder flags drift; returns whether
  // it did.
  auto run_until_flagged = [&] {
    for (const auto& packet : f.empty_session) {
      if (PushAndCheckFlag(engine, packet).value_or(false)) return true;
    }
    return false;
  };
  ASSERT_TRUE(run_until_flagged());

  engine.Reset(0);
  EXPECT_FALSE(engine.Health(0).profile_drift);
  EXPECT_EQ(engine.Calibrator(0).state(), core::LadderState::kHealthy);
  // The EWMA is re-seeded at the calibration mean: the first windows after
  // a reset blend into a warm EWMA instead of jumping from 0.
  EXPECT_DOUBLE_EQ(engine.Health(0).empty_score_ewma, seed);

  // And the same stream flags drift again — reset does not blind it.
  EXPECT_TRUE(run_until_flagged());
}

TEST(ProfileDriftOwner, DeadChainStretchNeverRaisesTheFlag) {
  auto& f = Fixture();
  auto detector = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  const auto empty_scores = f.EmptyScores(detector);
  core::SensingEngine engine;
  engine.AddLink(std::move(detector), empty_scores, HairTriggerLadderConfig());

  // First half of the stream arrives with RX chain 2 silenced: the guard
  // confirms the dead chain and every decision is degraded. Degraded
  // decisions score a different statistic on a different scale and are
  // never quiet evidence, so the flag must not move however long the
  // outage runs.
  const std::size_t half = f.empty_session.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    wifi::CsiPacket killed = f.empty_session[i];
    for (std::size_t k = 0; k < killed.NumSubcarriers(); ++k) {
      killed.csi.At(2, k) = Complex(0.0, 0.0);
    }
    if (const auto flagged = PushAndCheckFlag(engine, killed)) {
      EXPECT_FALSE(*flagged);
    }
  }
  {
    const auto health = engine.Health(0);
    EXPECT_EQ(health.dead_antenna_mask, 1u << 2);
    EXPECT_GT(health.degraded_decisions, 0u);
    EXPECT_FALSE(health.profile_drift);
    EXPECT_EQ(engine.Calibrator(0).quiet_windows(), 0u);
  }

  // The chain revives: clean decisions feed the ladder again and the
  // (deliberately hair-triggered) flag rises.
  bool flagged_after_revive = false;
  for (std::size_t i = half; i < f.empty_session.size(); ++i) {
    flagged_after_revive |=
        PushAndCheckFlag(engine, f.empty_session[i]).value_or(false);
  }
  EXPECT_EQ(engine.Health(0).dead_antenna_mask, 0u);
  EXPECT_TRUE(flagged_after_revive);
}

// A slow front-end gain ramp under the variance scheme's HMM: a guarded
// link at default settings without the ladder reports no drift (the
// removed flag-only watchdog tripped on this stream at its defaults), and
// the same link with the ladder flags it.
TEST(ProfileDriftOwner, OnlyTheLadderFlagsAGainRamp) {
  auto& f = Fixture();
  nic::FaultInjectionConfig faults;
  faults.enabled = true;
  faults.seed = 77;
  faults.drift_ramp_db_per_1k = 0.3;
  auto sim_config = ex::DefaultSimConfig();
  sim_config.faults = faults;
  auto drifting = ex::MakeSimulator(f.link, sim_config);
  Rng rng(909);
  const auto session = drifting.CaptureSession(4000, std::nullopt, rng);

  auto detector = f.Calibrated(core::DetectionScheme::kVarianceMobile);
  const auto empty_scores = f.EmptyScores(detector);
  core::StreamingConfig stream;
  stream.guard_enabled = true;

  core::SensingEngine plain;
  plain.AddLink(detector, empty_scores, stream);
  stream.calibration.enabled = true;
  core::SensingEngine adaptive;
  adaptive.AddLink(std::move(detector), empty_scores, stream);

  std::size_t decisions = 0;
  bool ladder_flagged = false;
  for (const auto& packet : session) {
    if (plain.ProcessPacket(0, packet).has_value()) {
      ++decisions;
      const auto health = plain.Health(0);
      EXPECT_FALSE(health.profile_drift);
      EXPECT_EQ(health.empty_score_ewma, 0.0);
    }
    ladder_flagged |= PushAndCheckFlag(adaptive, packet).value_or(false);
  }
  ASSERT_GT(decisions, 0u);
  EXPECT_EQ(nic::Status(plain.Health(0)), nic::LinkStatus::kHealthy);
  EXPECT_TRUE(ladder_flagged);
}

// ------------------------------------------ raw-window score oracle --

// With the ladder active under long-horizon drift faults (gain ramp,
// furniture step, scheduled AGC jumps), every engine decision scores its
// window exactly like the offline Detector::Score of the raw packets,
// against the profile the ladder has installed by then — the ingest caches
// (sanitized slabs, mu rows) survive every swap bit for bit.
TEST(AdaptiveCalibration, StreamingAndBatchAgreeUnderDriftFaults) {
  auto& f = Fixture();
  nic::FaultInjectionConfig faults;
  faults.enabled = true;
  faults.seed = 77;
  faults.drift_ramp_db_per_1k = 2.0;
  faults.furniture_step_packets = 900;
  faults.furniture_step_sigma_db = 1.0;
  faults.agc_schedule_every_packets = 700;  // multiple of the window length
  auto sim_config = ex::DefaultSimConfig();
  sim_config.faults = faults;
  auto drifting = ex::MakeSimulator(f.link, sim_config);
  Rng rng(909);
  const auto session = drifting.CaptureSession(2100, std::nullopt, rng);

  auto detector = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  const auto empty_scores = f.EmptyScores(detector);
  core::StreamingConfig stream;
  stream.guard_enabled = true;
  stream.calibration = FastLadderConfig();
  stream.calibration.drift_ewma_alpha = 0.3;

  test_support::ScoreOracle oracle(stream, detector);
  core::SensingEngine engine;
  engine.AddLink(std::move(detector), empty_scores, stream);

  std::size_t decisions = 0;
  for (const auto& packet : session) {
    if (test_support::CheckedPush(oracle, engine, 0, packet).has_value()) {
      ++decisions;
    }
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
  ASSERT_GT(decisions, 0u);

  // The ladder actually moved under these faults: quiet evidence was
  // collected and the window-aligned scheduled AGC bursts drove the fast
  // re-baseline path through the robust RSSI guard.
  const auto& calibrator = engine.Calibrator(0);
  EXPECT_GT(calibrator.quiet_windows(), 0u);
  EXPECT_GE(calibrator.agc_rebaselines(), 1u);

  const auto health = engine.Health(0);
  EXPECT_EQ(health.calibration_state, calibrator.state());
  EXPECT_EQ(health.quiet_windows, calibrator.quiet_windows());
  EXPECT_EQ(health.profile_swaps, calibrator.profile_swaps());
}

}  // namespace
