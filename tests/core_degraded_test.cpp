// Degraded-mode sensing tests: guarded ingest equivalence on clean streams,
// graceful fallback under injected NIC faults, and the CI fault-matrix hook
// (MULINK_FAULT_PRESET).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "core/engine.h"
#include "experiments/scenario.h"
#include "nic/frame_guard.h"
#include "score_oracle.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

const core::DetectionScheme kAllSchemes[] = {
    core::DetectionScheme::kBaseline,
    core::DetectionScheme::kSubcarrierWeighting,
    core::DetectionScheme::kSubcarrierAndPathWeighting,
    core::DetectionScheme::kVarianceMobile,
};

struct DegradedFixture {
  ex::LinkCase link = ex::MakeClassroomLink();
  nic::ChannelSimulator sim = ex::MakeSimulator(link);
  Rng rng{321};
  std::vector<wifi::CsiPacket> calibration =
      sim.CaptureSession(300, std::nullopt, rng);
  std::vector<wifi::CsiPacket> empty_session =
      sim.CaptureSession(200, std::nullopt, rng);
  std::vector<wifi::CsiPacket> occupied_session;

  DegradedFixture() {
    propagation::HumanBody body;
    body.position = {3.0, 4.2};
    occupied_session = sim.CaptureSession(200, body, rng);
  }

  core::Detector Calibrated(core::DetectionScheme scheme) const {
    core::DetectorConfig config;
    config.scheme = scheme;
    auto detector = core::Detector::Calibrate(calibration, sim.band(),
                                              sim.array(), config);
    std::vector<std::vector<wifi::CsiPacket>> windows;
    for (std::size_t s = 0; s + 25 <= calibration.size(); s += 25) {
      windows.emplace_back(
          calibration.begin() + static_cast<std::ptrdiff_t>(s),
          calibration.begin() + static_cast<std::ptrdiff_t>(s + 25));
    }
    detector.CalibrateThreshold(windows);
    return detector;
  }
};

DegradedFixture& Fixture() {
  static DegradedFixture f;
  return f;
}

// For every scheme except the combined one (which always falls back to the
// subcarrier-only statistic), a full live mask must reproduce Score bit for
// bit — the mask plumbing adds no FP operations.
TEST(DegradedScoring, FullMaskBitIdenticalToScore) {
  auto& f = Fixture();
  for (auto scheme : kAllSchemes) {
    if (scheme == core::DetectionScheme::kSubcarrierAndPathWeighting) continue;
    const auto detector = f.Calibrated(scheme);
    const std::uint32_t full = (1u << detector.num_antennas()) - 1u;
    core::DetectorScratch scratch;
    const std::span<const wifi::CsiPacket> span(f.occupied_session);
    for (std::size_t start = 0; start + 25 <= span.size(); start += 25) {
      const auto window = span.subspan(start, 25);
      EXPECT_EQ(detector.Score(window, scratch),
                detector.ScoreDegraded(window, scratch, full))
          << core::ToString(scheme) << " window at " << start;
    }
  }
}

// The combined scheme's fallback lives on its own scale: CalibrateThreshold
// must derive a distinct fallback threshold; single-statistic schemes share
// the primary one.
TEST(DegradedScoring, FallbackThresholdCalibration) {
  auto& f = Fixture();
  const auto combined =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  EXPECT_NE(combined.fallback_threshold(), combined.threshold());
  EXPECT_GT(combined.fallback_threshold(), 0.0);
  const auto subcarrier =
      f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  EXPECT_EQ(subcarrier.fallback_threshold(), subcarrier.threshold());
}

// Masked scoring with a genuinely dead row must stay finite and must not
// see the dead row at all: zeroing a masked-out antenna changes nothing.
TEST(DegradedScoring, MaskedScoreIgnoresDeadRow) {
  auto& f = Fixture();
  for (auto scheme : kAllSchemes) {
    const auto detector = f.Calibrated(scheme);
    core::DetectorScratch scratch;
    const std::span<const wifi::CsiPacket> span(f.occupied_session);
    std::vector<wifi::CsiPacket> killed(span.begin(), span.begin() + 25);
    for (auto& packet : killed) {
      for (std::size_t k = 0; k < packet.NumSubcarriers(); ++k) {
        packet.csi.At(2, k) = Complex(0.0, 0.0);
      }
    }
    const std::uint32_t live = 0b011;
    const double with_zeros = detector.ScoreDegraded(
        std::span<const wifi::CsiPacket>(killed), scratch, live);
    EXPECT_TRUE(std::isfinite(with_zeros)) << core::ToString(scheme);
    const double from_clean =
        detector.ScoreDegraded(span.subspan(0, 25), scratch, live);
    // The phase-sanitize fit averages over antennas (dead row included), so
    // sanitizing schemes see a slightly different rotation; amplitude-only
    // baseline must match exactly.
    if (scheme == core::DetectionScheme::kBaseline) {
      EXPECT_EQ(with_zeros, from_clean);
    } else {
      EXPECT_TRUE(std::isfinite(from_clean)) << core::ToString(scheme);
    }
  }
}

// A guarded engine fed a clean stream must reproduce the unguarded engine's
// decisions bit for bit — the guard is free when nothing is wrong (the
// PR 1 equivalence contract with injection disabled).
TEST(GuardedLink, CleanStreamBitIdenticalToUnguarded) {
  auto& f = Fixture();
  for (auto scheme : {core::DetectionScheme::kSubcarrierWeighting,
                      core::DetectionScheme::kSubcarrierAndPathWeighting}) {
    core::StreamingConfig plain;
    plain.use_hmm = false;
    core::StreamingConfig guarded = plain;
    guarded.guard_enabled = true;

    core::SensingEngine engine;
    engine.AddLink(f.Calibrated(scheme), {}, plain);
    engine.AddLink(f.Calibrated(scheme), {}, guarded);

    for (const auto* session : {&f.empty_session, &f.occupied_session}) {
      const std::span<const wifi::CsiPacket> span(*session);
      const auto& a = engine.ProcessBatch(0, span);
      std::vector<core::PresenceDecision> reference(a.decisions);
      const auto& b = engine.ProcessBatch(1, span);
      ASSERT_EQ(reference.size(), b.decisions.size())
          << core::ToString(scheme);
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i].score, b.decisions[i].score);
        EXPECT_EQ(reference[i].posterior, b.decisions[i].posterior);
        EXPECT_EQ(reference[i].occupied, b.decisions[i].occupied);
        EXPECT_FALSE(b.decisions[i].degraded);
      }
    }
  }
}

// Under drops, corruption and a dead RX chain, the guarded engine decides
// exactly when a guarded replay of the raw stream completes a window, and
// scores each window like the offline Score (ScoreDegraded over the live
// chains once the dead one is confirmed) of its raw packets — for every
// scheme, so the sanitized schemes' degraded windows read from the slabs
// and the baseline's from its rebuilt window agree with the raw packets.
TEST(GuardedLink, StreamingAndBatchAgreeUnderFaults) {
  auto& f = Fixture();
  nic::FaultInjectionConfig faults;
  faults.enabled = true;
  faults.seed = 13;
  faults.drop_prob = 0.05;
  faults.corrupt_prob = 0.01;
  faults.dead_antenna = 2;
  faults.dead_from_packet = 100;
  auto config = ex::DefaultSimConfig();
  config.faults = faults;
  auto faulty = ex::MakeSimulator(f.link, config);
  Rng rng(808);
  propagation::HumanBody body;
  body.position = {3.0, 4.2};
  const auto session = faulty.CaptureSession(400, body, rng);

  core::StreamingConfig stream;
  stream.use_hmm = false;
  stream.guard_enabled = true;

  for (const auto scheme : kAllSchemes) {
    SCOPED_TRACE(core::ToString(scheme));
    // No HMM and no ladder: the detector never changes, so the whole
    // session's expectations can be taken before one ProcessBatch call.
    auto detector = f.Calibrated(scheme);
    test_support::ScoreOracle oracle(stream, detector);
    std::vector<test_support::ExpectedDecision> expected;
    for (const auto& packet : session) {
      if (auto e = oracle.Expect(packet, detector)) expected.push_back(*e);
    }
    core::SensingEngine engine;
    engine.AddLink(detector, {}, stream);
    const auto& batch =
        engine.ProcessBatch(std::span<const wifi::CsiPacket>(session));
    ASSERT_EQ(expected.size(), batch.decisions.size());
    ASSERT_FALSE(expected.empty());
    bool any_degraded = false;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const auto& d = batch.decisions[i];
      EXPECT_EQ(expected[i].timestamp_s, d.timestamp_s);
      EXPECT_EQ(expected[i].score, d.score);
      EXPECT_EQ(expected[i].degraded, d.degraded);
      EXPECT_EQ(d.occupied,
                d.score >= (d.degraded ? detector.fallback_threshold()
                                       : detector.threshold()));
      any_degraded |= d.degraded;
    }
    EXPECT_TRUE(any_degraded);
    const auto health = engine.Health(0);
    EXPECT_EQ(health.dead_antenna_mask, 1u << 2);
    EXPECT_GT(health.degraded_decisions, 0u);
  }
}

// The fig07-style acceptance scenario: under 5% drop, 1% corruption and one
// dead RX chain, the guarded engine must emit only finite scores, fall back
// to the subcarrier-only statistic, and stay within the documented accuracy
// margin of the clean run (the fallback is the paper's subcarrier-weighting
// scheme, which gives up roughly 6 points of TP rate vs the combined one on
// fig07 — the 25-point margin below covers that plus small-sample noise).
TEST(GuardedLink, AccuracyUnderFaultsWithinMarginOfCleanRun) {
  auto& f = Fixture();

  // Paired captures: same channel RNG seed, so the faulty stream rides the
  // identical channel realization (the injector has its own RNG stream).
  const auto capture = [&](bool with_faults) {
    auto config = ex::DefaultSimConfig();
    if (with_faults) {
      config.faults.enabled = true;
      config.faults.seed = 21;
      config.faults.drop_prob = 0.05;
      config.faults.corrupt_prob = 0.01;
      config.faults.dead_antenna = 2;
      config.faults.dead_from_packet = 100;
    }
    auto sim = ex::MakeSimulator(f.link, config);
    Rng rng(555);
    propagation::HumanBody body;
    body.position = {3.0, 4.2};
    std::pair<std::vector<wifi::CsiPacket>, std::vector<wifi::CsiPacket>> out;
    out.first = sim.CaptureSession(400, std::nullopt, rng);
    out.second = sim.CaptureSession(400, body, rng);
    return out;
  };
  const auto [clean_empty, clean_occupied] = capture(false);
  const auto [faulty_empty, faulty_occupied] = capture(true);

  core::StreamingConfig stream;
  stream.use_hmm = false;
  stream.guard_enabled = true;
  core::SensingEngine engine;
  engine.AddLink(
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting), {},
      stream);

  struct Rates {
    double positive_rate = 0.0;
    std::size_t decisions = 0;
    std::size_t degraded = 0;
  };
  const auto run = [&](const std::vector<wifi::CsiPacket>& session) {
    engine.Reset(0);
    const auto& batch =
        engine.ProcessBatch(std::span<const wifi::CsiPacket>(session));
    Rates rates;
    rates.decisions = batch.decisions.size();
    for (const auto& d : batch.decisions) {
      EXPECT_TRUE(std::isfinite(d.score));
      EXPECT_TRUE(std::isfinite(d.posterior));
      if (d.occupied) rates.positive_rate += 1.0;
      if (d.degraded) ++rates.degraded;
    }
    if (rates.decisions > 0) {
      rates.positive_rate /= static_cast<double>(rates.decisions);
    }
    return rates;
  };

  const Rates clean_fp = run(clean_empty);
  const Rates clean_tp = run(clean_occupied);
  const Rates faulty_fp = run(faulty_empty);
  const Rates faulty_tp = run(faulty_occupied);

  ASSERT_GT(faulty_tp.decisions, 0u);
  ASSERT_GT(faulty_fp.decisions, 0u);
  // The dead chain (from packet 100 of the faulty empty capture) must have
  // pushed the engine into fallback scoring.
  EXPECT_GT(faulty_fp.degraded + faulty_tp.degraded, 0u);
  // Documented margin: 25 points of TP rate, 30 points of FP rate. The FP
  // side is wider because the fallback threshold is calibrated on full-array
  // windows but applied to two-antenna scores, which sit slightly closer to
  // it on empty traffic.
  EXPECT_GE(faulty_tp.positive_rate, clean_tp.positive_rate - 0.25);
  EXPECT_LE(faulty_fp.positive_rate, clean_fp.positive_rate + 0.30);
  // The clean run itself must be sane, or the margins mean nothing.
  EXPECT_GT(clean_tp.positive_rate, 0.8);
  EXPECT_LT(clean_fp.positive_rate, 0.2);
}

// CI fault-matrix hook: MULINK_FAULT_PRESET=drop|reorder|corrupt cranks one
// fault axis well past its default rate; whatever the preset, the guarded
// engine must keep every decision finite and the health ledger consistent.
TEST(FaultMatrix, PresetStreamKeepsDecisionsFiniteAndLedgerConsistent) {
  auto& f = Fixture();
  nic::FaultInjectionConfig faults;
  faults.enabled = true;
  faults.seed = 31;
  faults.drop_prob = 0.02;
  faults.reorder_prob = 0.01;
  faults.corrupt_prob = 0.005;
  if (const char* preset = std::getenv("MULINK_FAULT_PRESET")) {
    const std::string p(preset);
    if (p == "drop") faults.drop_prob = 0.15;
    if (p == "reorder") faults.reorder_prob = 0.15;
    if (p == "corrupt") faults.corrupt_prob = 0.08;
  }
  auto config = ex::DefaultSimConfig();
  config.faults = faults;
  auto sim = ex::MakeSimulator(f.link, config);
  Rng rng(606);
  propagation::HumanBody body;
  body.position = {3.0, 4.2};
  const auto empty = sim.CaptureSession(300, std::nullopt, rng);
  const auto occupied = sim.CaptureSession(300, body, rng);

  core::StreamingConfig stream;
  stream.guard_enabled = true;
  core::SensingEngine engine;
  engine.AddLink(
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting),
      {0.01, 0.02, 0.015, 0.02}, stream);

  std::size_t decisions = 0;
  for (const auto* session : {&empty, &occupied}) {
    const auto& batch =
        engine.ProcessBatch(std::span<const wifi::CsiPacket>(*session));
    decisions += batch.decisions.size();
    for (const auto& d : batch.decisions) {
      EXPECT_TRUE(std::isfinite(d.score));
      EXPECT_TRUE(std::isfinite(d.posterior));
    }
  }
  EXPECT_GT(decisions, 0u);

  // Drops shrink the capture itself, so "received" is whatever the NIC
  // delivered; every delivered frame must be accounted for in the ledger.
  const auto health = engine.Health(0);
  EXPECT_EQ(health.received, empty.size() + occupied.size());
  EXPECT_GT(health.received, 0u);
  EXPECT_EQ(health.received,
            health.accepted + health.repaired + health.quarantined);
}

}  // namespace
