// Per-link heap footprint of fleet mode, measured deterministically: the
// bytes operator new is asked for (the counting replacement linked into
// this binary) while one more shared-profile combined-scheme link joins a
// warm shared-scratch engine and fills its first window. At fleet scale
// this is what every link costs, so a per-link copy of the window packets
// coming back fails here rather than only in a benchmark's RSS figure.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "core/engine.h"
#include "counting_new.h"
#include "experiments/scenario.h"
#include "nic/fault_injection.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

// The 3x30 window-25 link keeps its window as split-complex slabs plus one
// multipath factor row per slot, (2 x 3 + 1) x 30 doubles = 1680 B per
// slot and 41 KiB per window; the rest is the link's HMM, guard,
// calibrator and metrics state. A per-slot AoS packet ring adds another
// ~37 KiB.
constexpr std::uint64_t kMaxBytesPerLink = 48 * 1024;

TEST(EngineFootprint, SharedProfileCombinedLinkFitsItsSlabRing) {
  const auto link = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(link);
  Rng rng(17);
  const auto calibration = sim.CaptureSession(300, std::nullopt, rng);
  const auto stream = sim.CaptureSession(100, std::nullopt, rng);
  auto detector =
      core::Detector::Calibrate(calibration, sim.band(), sim.array(), {});
  std::vector<double> empty_scores;
  for (std::size_t start = 0; start + 25 <= 100; start += 25) {
    empty_scores.push_back(detector.Score(std::vector<wifi::CsiPacket>(
        stream.begin() + static_cast<std::ptrdiff_t>(start),
        stream.begin() + static_cast<std::ptrdiff_t>(start + 25))));
  }
  detector.SetThreshold(1.0);
  const auto shared =
      std::make_shared<const core::Detector>(std::move(detector));
  core::StreamingConfig config;
  config.window_packets = 25;
  config.guard_enabled = true;
  const std::span<const wifi::CsiPacket> window(stream.data(), 25);

  // The first link warms the engine's shared scratch.
  core::SensingEngine engine;
  engine.UseSharedScratch();
  const std::size_t first = engine.AddLink(shared, empty_scores, config);
  (void)engine.ProcessBatch(first, window);

  const std::uint64_t before = counting_new::BytesRequested();
  const std::size_t second = engine.AddLink(shared, empty_scores, config);
  std::size_t decisions = 0;
  for (const auto& packet : window) {
    decisions += engine.ProcessPacket(second, packet).has_value() ? 1 : 0;
  }
  const std::uint64_t bytes = counting_new::BytesRequested() - before;

  EXPECT_EQ(decisions, 1u);
  EXPECT_LT(bytes, kMaxBytesPerLink) << "bytes per link: " << bytes;
  RecordProperty("bytes_per_link", static_cast<int>(bytes));
}

// Steady-state decisions allocate nothing, whether the observability
// registry records or not. Each link scores on its own scratch (no
// UseSharedScratch): one link per scheme, window 25 / hop 10 with the HMM
// off, fed a 200-packet stream pass after pass. After one warm-up pass,
// three more passes (20 decisions per link each) make no heap allocation.
TEST(EngineFootprint, SteadyStateDecisionsAllocateNothingWithMetricsOnAndOff) {
  const auto link = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(link);
  Rng rng(77);
  const auto calibration = sim.CaptureSession(400, std::nullopt, rng);
  const auto stream = sim.CaptureSession(200, std::nullopt, rng);
  const core::DetectionScheme schemes[] = {
      core::DetectionScheme::kBaseline,
      core::DetectionScheme::kSubcarrierWeighting,
      core::DetectionScheme::kSubcarrierAndPathWeighting,
      core::DetectionScheme::kVarianceMobile,
  };
  core::StreamingConfig config;
  config.window_packets = 25;
  config.hop_packets = 10;
  config.use_hmm = false;
  constexpr std::size_t kPasses = 3;

  for (const bool metrics : {true, false}) {
    core::SensingEngine engine;
    engine.SetMetricsEnabled(metrics);
    for (const auto scheme : schemes) {
      core::DetectorConfig detector_config;
      detector_config.scheme = scheme;
      auto detector = core::Detector::Calibrate(calibration, sim.band(),
                                                sim.array(), detector_config);
      detector.SetThreshold(1.0);
      engine.AddLink(std::move(detector), {}, config);
    }
    for (std::size_t l = 0; l < std::size(schemes); ++l) {
      (void)engine.ProcessBatch(l, stream);  // warm-up
    }
    std::size_t decisions = 0;
    const std::uint64_t before = counting_new::Allocations();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      for (std::size_t l = 0; l < std::size(schemes); ++l) {
        decisions += engine.ProcessBatch(l, stream).decisions.size();
      }
    }
    const std::uint64_t allocations = counting_new::Allocations() - before;

    EXPECT_EQ(decisions, kPasses * std::size(schemes) * stream.size() / 10)
        << "metrics=" << metrics;
    EXPECT_EQ(allocations, 0u) << "metrics=" << metrics;
  }
}

// A per-link-calibrated link owns its detector, so every such link copies
// one. The retained calibration set is one flat block of split rows, so the
// copy's heap blocks are the detector's fixed set of buffers: a copy of a
// calibrated combined detector (3x30) allocates as often with 16 retained
// rows as with the full 128, where one heap packet per retained row would
// add 112.
TEST(EngineFootprint, DetectorCopyAllocationsDoNotGrowWithRetainedSet) {
  const auto link = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(link);
  Rng rng(23);
  const auto calibration = sim.CaptureSession(300, std::nullopt, rng);
  core::DetectorConfig detector_config;
  detector_config.scheme = core::DetectionScheme::kSubcarrierAndPathWeighting;
  const auto full = core::Detector::Calibrate(calibration, sim.band(),
                                              sim.array(), detector_config);
  const auto short_session = core::Detector::Calibrate(
      std::vector<wifi::CsiPacket>(calibration.begin(),
                                   calibration.begin() + 16),
      sim.band(), sim.array(), detector_config);
  ASSERT_EQ(full.retained_count(),
            core::Detector::kRetainedCalibrationPackets);
  ASSERT_EQ(short_session.retained_count(), 16u);

  const auto copy_allocations = [](const core::Detector& detector) {
    const std::uint64_t before = counting_new::Allocations();
    {
      const core::Detector copy(detector);
      EXPECT_EQ(copy.retained_rows(), detector.retained_rows());
    }
    return counting_new::Allocations() - before;
  };
  const std::uint64_t full_copy = copy_allocations(full);
  EXPECT_EQ(full_copy, copy_allocations(short_session));
  RecordProperty("allocations_per_copy", static_cast<int>(full_copy));
}

// Under serving churn links join an engine that is already running, and
// everything a link's first frames and first decision touch on the worker's
// path — the guard's streak counters, the ingest lanes, the mu-median copy,
// the window's power plane and the combined scheme's covariance planes —
// must already exist: the guard sizes its state at construction, AddLink
// pre-sizes the shared scratch. A guarded combined, subcarrier-weighting and
// variance-mobile link each join an engine that has only served a baseline
// link, and none allocates from its first frame through its first decision.
TEST(EngineFootprint, JoiningGuardedLinkAllocatesNothingThroughFirstDecision) {
  const auto link = ex::MakeClassroomLink();
  auto sim = ex::MakeSimulator(link);
  Rng rng(31);
  const auto calibration = sim.CaptureSession(300, std::nullopt, rng);
  const auto stream = sim.CaptureSession(100, std::nullopt, rng);
  const std::span<const wifi::CsiPacket> window(stream.data(), 25);

  auto shared_detector = [&](core::DetectionScheme scheme) {
    core::DetectorConfig detector_config;
    detector_config.scheme = scheme;
    auto detector = core::Detector::Calibrate(calibration, sim.band(),
                                              sim.array(), detector_config);
    detector.SetThreshold(1.0);
    return std::make_shared<const core::Detector>(std::move(detector));
  };
  core::StreamingConfig config;
  config.window_packets = 25;
  config.guard_enabled = true;
  const std::vector<double> empty_scores = {0.1, 0.2, 0.15, 0.12};

  for (auto scheme : {core::DetectionScheme::kSubcarrierAndPathWeighting,
                      core::DetectionScheme::kSubcarrierWeighting,
                      core::DetectionScheme::kVarianceMobile}) {
    core::SensingEngine engine;
    engine.UseSharedScratch();
    const std::size_t warm =
        engine.AddLink(shared_detector(core::DetectionScheme::kBaseline),
                       empty_scores, config);
    ASSERT_EQ(engine.ProcessBatch(warm, window).decisions.size(), 1u);
    const std::size_t joined =
        engine.AddLink(shared_detector(scheme), empty_scores, config);
    const std::uint64_t before = counting_new::Allocations();
    std::size_t decisions = 0;
    for (const auto& packet : window) {
      decisions += engine.ProcessPacket(joined, packet).has_value() ? 1 : 0;
    }
    const std::uint64_t allocations = counting_new::Allocations() - before;
    EXPECT_EQ(decisions, 1u) << core::ToString(scheme);
    EXPECT_EQ(allocations, 0u) << core::ToString(scheme);
  }
}

// The amplitude schemes score every window off slabs, the ladder learns
// from them, and packets are rebuilt into the shared scratch only for
// degraded windows and quiet-packet staging — all on buffers AddLink
// pre-sized. Calibrated subcarrier-weighting, variance-mobile and combined
// links (windows 50, 25 and 25) on one shared scratch run through gain
// drift, AGC retrains and a dead chain: from the first frame on the stream
// allocates nothing, ladder swaps included. perfbench leaves
// adaptive-faulty's allocation count ungated, so this is the gate.
TEST(EngineFootprint, CalibratedAmplitudeLinksAllocateNothingAfterWarmUp) {
  const auto link = ex::MakeClassroomLink();
  nic::FaultInjectionConfig faults;
  faults.enabled = true;
  faults.seed = 29;
  faults.drift_ramp_db_per_1k = 3.0;
  faults.agc_schedule_every_packets = 500;
  faults.dead_antenna = 1;
  faults.dead_from_packet = 1500;
  auto drifting_config = ex::DefaultSimConfig();
  drifting_config.faults = faults;

  struct Spec {
    core::DetectionScheme scheme;
    std::size_t window;
  };
  const Spec specs[] = {
      {core::DetectionScheme::kSubcarrierWeighting, 50},
      {core::DetectionScheme::kVarianceMobile, 25},
      {core::DetectionScheme::kSubcarrierAndPathWeighting, 25},
  };
  core::SensingEngine engine;
  engine.UseSharedScratch();
  std::vector<std::vector<wifi::CsiPacket>> streams;
  for (const Spec& spec : specs) {
    auto sim = ex::MakeSimulator(link);
    Rng rng(400);
    const auto calibration = sim.CaptureSession(300, std::nullopt, rng);
    const auto empty = sim.CaptureSession(200, std::nullopt, rng);
    core::DetectorConfig detector_config;
    detector_config.scheme = spec.scheme;
    auto detector = core::Detector::Calibrate(calibration, sim.band(),
                                              sim.array(), detector_config);
    std::vector<std::vector<wifi::CsiPacket>> empty_windows;
    std::vector<double> empty_scores;
    for (std::size_t start = 0; start + spec.window <= empty.size();
         start += spec.window / 2) {
      empty_windows.emplace_back(
          empty.begin() + static_cast<std::ptrdiff_t>(start),
          empty.begin() + static_cast<std::ptrdiff_t>(start + spec.window));
      empty_scores.push_back(detector.Score(empty_windows.back()));
    }
    detector.CalibrateThreshold(empty_windows);

    core::StreamingConfig config;
    config.window_packets = spec.window;
    config.hop_packets = 5;
    config.guard_enabled = true;
    config.calibration.enabled = true;
    config.calibration.quiet_posterior_max = 0.2;
    config.calibration.drift_ewma_alpha = 0.5;
    config.calibration.drift_confirm_windows = 2;
    config.calibration.recalibration_quiet_windows = 3;
    auto drifting = ex::MakeSimulator(link, drifting_config);
    Rng stream_rng(77);
    streams.push_back(drifting.CaptureSession(2000, std::nullopt, stream_rng));
    engine.AddLink(std::move(detector), empty_scores, config);
  }

  // AddLink pre-sized the shared scratch, so counting starts at the first
  // frame.
  std::size_t decisions = 0;
  const std::uint64_t before = counting_new::Allocations();
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    for (std::size_t l = 0; l < streams.size(); ++l) {
      decisions += engine.ProcessPacket(l, streams[l][i]).has_value() ? 1 : 0;
    }
  }
  const std::uint64_t allocations = counting_new::Allocations() - before;

  EXPECT_GT(decisions, 0u);
  for (std::size_t l = 0; l < streams.size(); ++l) {
    EXPECT_GT(engine.Calibrator(l).profile_swaps(), 0u)
        << core::ToString(specs[l].scheme);
    EXPECT_GT(engine.Health(l).degraded_decisions, 0u)
        << core::ToString(specs[l].scheme);
  }
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
