// Equivalence suite for the workspace-based sensing engine: the scratch
// Score path, ProcessBatch and ProcessPacket must all produce BIT-IDENTICAL
// results to the legacy allocating APIs — every engine decision scores its
// window exactly like the offline Detector::Score of the raw packets (the
// raw-window oracle in score_oracle.h), whatever the ingest caches do.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <complex>
#include <optional>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/calibration/calibration.h"
#include "core/detector.h"
#include "core/engine.h"
#include "core/music.h"
#include "core/sanitize.h"
#include "experiments/scenario.h"
#include "kernels/kernels.h"
#include "nic/frame_guard.h"
#include "obs/metrics.h"
#include "score_oracle.h"

using namespace mulink;
namespace ex = mulink::experiments;

namespace {

struct EngineFixture {
  ex::LinkCase link = ex::MakeClassroomLink();
  nic::ChannelSimulator sim = ex::MakeSimulator(link);
  Rng rng{321};
  std::vector<wifi::CsiPacket> calibration =
      sim.CaptureSession(300, std::nullopt, rng);
  std::vector<wifi::CsiPacket> empty_session =
      sim.CaptureSession(200, std::nullopt, rng);
  std::vector<wifi::CsiPacket> occupied_session;

  EngineFixture() {
    propagation::HumanBody body;
    body.position = {3.0, 4.2};
    occupied_session = sim.CaptureSession(200, body, rng);
  }

  core::Detector Calibrated(core::DetectionScheme scheme) const {
    core::DetectorConfig config;
    config.scheme = scheme;
    return core::Detector::Calibrate(calibration, sim.band(), sim.array(),
                                     config);
  }
};

EngineFixture& Fixture() {
  static EngineFixture f;
  return f;
}

const core::DetectionScheme kAllSchemes[] = {
    core::DetectionScheme::kBaseline,
    core::DetectionScheme::kSubcarrierWeighting,
    core::DetectionScheme::kSubcarrierAndPathWeighting,
    core::DetectionScheme::kVarianceMobile,
};

// The scratch Score must be bit-identical to the legacy allocating Score
// for every scheme, on empty and occupied windows alike.
TEST(EngineEquivalence, ScratchScoreBitIdenticalAllSchemes) {
  auto& f = Fixture();
  for (auto scheme : kAllSchemes) {
    const auto detector = f.Calibrated(scheme);
    core::DetectorScratch scratch;
    for (const auto* session : {&f.empty_session, &f.occupied_session}) {
      const std::span<const wifi::CsiPacket> span(*session);
      for (std::size_t start = 0; start + 25 <= session->size(); start += 25) {
        const std::vector<wifi::CsiPacket> window(
            session->begin() + static_cast<std::ptrdiff_t>(start),
            session->begin() + static_cast<std::ptrdiff_t>(start + 25));
        const double legacy = detector.Score(window);
        const double scratch_score =
            detector.Score(span.subspan(start, 25), scratch);
        EXPECT_EQ(legacy, scratch_score)
            << core::ToString(scheme) << " window at " << start;
      }
    }
  }
}

// Reusing one scratch across windows of different content must not leak
// state between calls: A, then B, then A again must reproduce A's score
// exactly.
TEST(EngineEquivalence, ScratchReuseIsStateless) {
  auto& f = Fixture();
  for (auto scheme : kAllSchemes) {
    const auto detector = f.Calibrated(scheme);
    core::DetectorScratch scratch;
    const std::span<const wifi::CsiPacket> empty(f.empty_session);
    const std::span<const wifi::CsiPacket> occupied(f.occupied_session);
    const double a1 = detector.Score(empty.subspan(0, 25), scratch);
    const double b = detector.Score(occupied.subspan(50, 25), scratch);
    const double a2 = detector.Score(empty.subspan(0, 25), scratch);
    EXPECT_EQ(a1, a2) << core::ToString(scheme);
    EXPECT_NE(a1, b) << core::ToString(scheme)
                     << ": occupied window scored like an empty one";
  }
}

std::vector<double> EmptyScores(const EngineFixture& f,
                                const core::Detector& detector) {
  std::vector<double> scores;
  for (std::size_t start = 0; start + 25 <= f.empty_session.size();
       start += 25) {
    const std::vector<wifi::CsiPacket> window(
        f.empty_session.begin() + static_cast<std::ptrdiff_t>(start),
        f.empty_session.begin() + static_cast<std::ptrdiff_t>(start + 25));
    scores.push_back(detector.Score(window));
  }
  return scores;
}

// The packets' CSI as consecutive split rows (antenna-major re rows, then
// im rows, per packet): the block form the ladder stages and
// RefreshAngularProfile / PrepareSlabs take.
std::vector<double> SplitRows(std::span<const wifi::CsiPacket> packets) {
  std::vector<double> rows;
  for (const auto& packet : packets) {
    const std::size_t cells = packet.csi.rows() * packet.csi.cols();
    const std::size_t at = rows.size();
    rows.resize(at + 2 * cells);
    kernels::Deinterleave(packet.csi.raw(), cells, rows.data() + at,
                          rows.data() + at + cells);
  }
  return rows;
}

// One pointer per split row of `rows` (rows of 2 * antennas * subcarriers
// doubles), the slab views SampleCovarianceSlabsInto and
// BuildSubcarrierCovarianceStack take.
std::vector<const double*> SlabViews(std::span<const double> rows,
                                     std::size_t antennas,
                                     std::size_t subcarriers) {
  const std::size_t row = 2 * antennas * subcarriers;
  std::vector<const double*> slabs;
  for (std::size_t at = 0; at < rows.size(); at += row) {
    slabs.push_back(rows.data() + at);
  }
  return slabs;
}

// A quiet profile of sanitized packets in ApplyProfile's flattened
// [antenna][subcarrier] layout: per-cell mean power, mean amplitude and
// power variance.
struct FlatProfile {
  std::vector<double> power, amplitude, variance;
};

FlatProfile MeanProfile(std::span<const wifi::CsiPacket> sanitized) {
  const std::size_t antennas = sanitized[0].NumAntennas();
  const std::size_t subcarriers = sanitized[0].NumSubcarriers();
  const double n = static_cast<double>(sanitized.size());
  FlatProfile profile;
  for (std::size_t m = 0; m < antennas; ++m) {
    for (std::size_t k = 0; k < subcarriers; ++k) {
      double power = 0.0, amplitude = 0.0, square = 0.0;
      for (const auto& packet : sanitized) {
        const double p = packet.SubcarrierPower(m, k);
        power += p;
        amplitude += std::sqrt(p);
        square += p * p;
      }
      profile.power.push_back(power / n);
      profile.amplitude.push_back(amplitude / n);
      profile.variance.push_back(square / n - (power / n) * (power / n));
    }
  }
  return profile;
}

// One drift-compensation rewrite through the ladder's entry points: install
// the quiet profile of `window` and rotate its packets into the angular
// profile, as a swap does.
void RewriteProfile(core::Detector& detector,
                    std::span<const wifi::CsiPacket> window,
                    core::DetectorScratch& scratch) {
  const auto sanitized = core::SanitizePhase(
      std::vector<wifi::CsiPacket>(window.begin(), window.end()),
      detector.band());
  const FlatProfile profile = MeanProfile(sanitized);
  detector.ApplyProfile(profile.power, profile.amplitude, profile.variance);
  detector.RefreshAngularProfile(SplitRows(sanitized), scratch);
}

// ProcessBatch must decide exactly where a packet-at-a-time replay of the
// stream completes a window, scoring each window like the offline Score of
// its raw packets, regardless of how the stream is chopped into batches.
TEST(EngineEquivalence, ProcessBatchMatchesStreamingPush) {
  auto& f = Fixture();
  for (bool use_hmm : {false, true}) {
    auto detector =
        f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
    const auto empty_scores = EmptyScores(f, detector);
    detector.SetThreshold(1.0);

    core::StreamingConfig config;
    config.window_packets = 25;
    config.hop_packets = 10;
    config.use_hmm = use_hmm;

    test_support::ScoreOracle oracle(config, detector);
    core::SensingEngine engine;
    engine.AddLink(std::move(detector), empty_scores, config);

    // Chop the stream into uneven batches; the detector is fixed (no
    // ladder), so each batch's expectations are taken before it is fed.
    std::vector<test_support::ExpectedDecision> expected;
    std::vector<core::PresenceDecision> batch_decisions;
    const std::span<const wifi::CsiPacket> session(f.occupied_session);
    const std::size_t cuts[] = {7, 40, 1, 25, 60, 3};
    std::size_t pos = 0, cut = 0;
    while (pos < session.size()) {
      const std::size_t n = std::min(cuts[cut % 6], session.size() - pos);
      for (const auto& packet : session.subspan(pos, n)) {
        if (auto e = oracle.Expect(packet, engine.detector(0))) {
          expected.push_back(*e);
        }
      }
      const auto& result = engine.ProcessBatch(session.subspan(pos, n));
      batch_decisions.insert(batch_decisions.end(), result.decisions.begin(),
                             result.decisions.end());
      pos += n;
      ++cut;
    }

    ASSERT_EQ(expected.size(), batch_decisions.size())
        << "use_hmm=" << use_hmm;
    ASSERT_FALSE(expected.empty());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].timestamp_s, batch_decisions[i].timestamp_s);
      EXPECT_EQ(expected[i].score, batch_decisions[i].score);
      EXPECT_FALSE(batch_decisions[i].degraded);
      if (!use_hmm) {
        EXPECT_EQ(batch_decisions[i].occupied,
                  batch_decisions[i].score >= 1.0);
      }
    }
    EXPECT_EQ(engine.occupied(0), batch_decisions.back().occupied);
    EXPECT_EQ(engine.posterior(0), batch_decisions.back().posterior);
  }
}

// Repeated ProcessBatch on the same link must keep producing identical
// decisions after Reset — the reused result/ring/scratch buffers must not
// accumulate state.
TEST(EngineEquivalence, RepeatedBatchesAfterResetAreIdentical) {
  auto& f = Fixture();
  auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  const auto empty_scores = EmptyScores(f, detector);
  detector.SetThreshold(1.0);

  core::SensingEngine engine;
  engine.AddLink(std::move(detector), empty_scores, {});
  const std::span<const wifi::CsiPacket> session(f.occupied_session);

  const auto& first = engine.ProcessBatch(session);
  std::vector<core::PresenceDecision> reference(first.decisions);
  ASSERT_FALSE(reference.empty());

  for (int round = 0; round < 3; ++round) {
    engine.Reset(0);
    const auto& again = engine.ProcessBatch(session);
    ASSERT_EQ(again.decisions.size(), reference.size()) << "round " << round;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(again.decisions[i].score, reference[i].score);
      EXPECT_EQ(again.decisions[i].posterior, reference[i].posterior);
      EXPECT_EQ(again.decisions[i].occupied, reference[i].occupied);
    }
  }
}

// The profile covariance stack lives on the detector and a profile rewrite
// (ApplyProfile + RefreshAngularProfile, the ladder's swap) rebuilds it: a
// scratch warmed before the rewrite must score exactly like a fresh one
// afterwards.
TEST(EngineEquivalence, ProfileCacheInvalidatedByProfileRewrite) {
  auto& f = Fixture();
  auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  core::DetectorScratch warm;
  const std::span<const wifi::CsiPacket> occupied(f.occupied_session);
  (void)detector.Score(occupied.subspan(0, 25), warm);  // warms the cache

  const auto stack_before = detector.profile_stack().data;
  RewriteProfile(detector,
                 std::span<const wifi::CsiPacket>(f.empty_session).first(25),
                 warm);
  EXPECT_FALSE(detector.profile_stack().data == stack_before);

  const double with_warm = detector.Score(occupied.subspan(25, 25), warm);
  core::DetectorScratch fresh;
  const double with_fresh = detector.Score(occupied.subspan(25, 25), fresh);
  EXPECT_EQ(with_warm, with_fresh);
}

// One scratch shared across two detectors with different profiles scores
// each exactly like a fresh scratch: the scratch holds no profile state.
TEST(EngineEquivalence, ScratchSharedAcrossDetectorsIsSafe) {
  auto& f = Fixture();
  const auto d0 =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  core::DetectorConfig config;
  config.scheme = core::DetectionScheme::kSubcarrierAndPathWeighting;
  // A different calibration slice: a different profile and retained set.
  const auto d1 = core::Detector::Calibrate(
      std::vector<wifi::CsiPacket>(f.calibration.begin() + 100,
                                   f.calibration.end()),
      f.sim.band(), f.sim.array(), config);

  core::DetectorScratch shared;
  const std::span<const wifi::CsiPacket> occupied(f.occupied_session);
  (void)d0.Score(occupied.subspan(0, 25), shared);  // warm with d0's profile
  const double shared_score = d1.Score(occupied.subspan(0, 25), shared);
  core::DetectorScratch fresh;
  EXPECT_EQ(shared_score, d1.Score(occupied.subspan(0, 25), fresh));
}

// The cached per-subcarrier stack recombination computes the same weighted
// sample covariance as the direct per-packet scan, up to summation order.
TEST(SubcarrierCovarianceStack, MatchesDirectSampleCovariance) {
  auto& f = Fixture();
  const std::vector<wifi::CsiPacket> packets(
      f.calibration.begin(), f.calibration.begin() + 64);
  std::vector<double> weights(packets[0].NumSubcarriers());
  for (std::size_t k = 0; k < weights.size(); ++k) {
    weights[k] = (k % 7 == 0) ? 0.0 : 1.0 / static_cast<double>(k + 1);
  }

  const auto direct = core::SampleCovariance(packets, weights);
  const auto rows = SplitRows(packets);
  core::SubcarrierCovarianceStack stack;
  core::BuildSubcarrierCovarianceStack(
      SlabViews(rows, packets[0].NumAntennas(), packets[0].NumSubcarriers()),
      packets[0].NumAntennas(), packets[0].NumSubcarriers(), stack);
  linalg::CMatrix combined;
  core::CombineSubcarrierCovariances(stack, weights, combined);

  ASSERT_EQ(combined.rows(), direct.rows());
  ASSERT_EQ(combined.cols(), direct.cols());
  for (std::size_t i = 0; i < direct.rows(); ++i) {
    for (std::size_t j = 0; j < direct.cols(); ++j) {
      EXPECT_NEAR(std::abs(combined.At(i, j) - direct.At(i, j)), 0.0,
                  1e-12 * std::abs(direct.At(i, j)) + 1e-15)
          << "entry (" << i << "," << j << ")";
    }
  }
}

// Multi-link bookkeeping: links are independent and indexed stably.
TEST(SensingEngine, LinksAreIndependent) {
  auto& f = Fixture();
  auto d0 = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  auto d1 = f.Calibrated(core::DetectionScheme::kBaseline);
  d0.SetThreshold(1.0);
  d1.SetThreshold(1.0);

  core::StreamingConfig config;
  config.use_hmm = false;
  core::SensingEngine engine;
  const auto i0 = engine.AddLink(std::move(d0), {}, config);
  const auto i1 = engine.AddLink(std::move(d1), {}, config);
  ASSERT_EQ(engine.NumLinks(), 2u);

  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  const auto& r0 = engine.ProcessBatch(i0, session.subspan(0, 50));
  ASSERT_EQ(r0.decisions.size(), 2u);
  // Link 1 saw nothing yet.
  EXPECT_EQ(engine.posterior(i1), 0.0);
  EXPECT_FALSE(engine.occupied(i1));

  const auto& r1 = engine.ProcessBatch(i1, session.subspan(0, 50));
  ASSERT_EQ(r1.decisions.size(), 2u);
  // Different schemes -> different scores on the same packets.
  EXPECT_NE(r0.decisions[0].score, r1.decisions[0].score);
}

// Reset mid-stream must restore a link to its just-constructed state:
// decisions on the tail after Reset are bit-identical to a fresh engine fed
// the same tail, for both a mid-window cut and a mid-hop cut.
TEST(SensingEngine, ResetMidStreamMatchesFreshEngine) {
  auto& f = Fixture();
  for (std::size_t cut : {13u, 30u}) {
    for (bool guard : {false, true}) {
      core::StreamingConfig config;
      config.use_hmm = false;
      config.guard_enabled = guard;

      auto detector =
          f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
      detector.SetThreshold(1.0);
      const std::span<const wifi::CsiPacket> session(f.occupied_session);

      core::SensingEngine resumed;
      resumed.AddLink(detector, {}, config);
      resumed.ProcessBatch(0, session.subspan(0, cut));
      resumed.Reset(0);
      const auto& after_reset =
          resumed.ProcessBatch(0, session.subspan(cut));

      core::SensingEngine fresh;
      fresh.AddLink(std::move(detector), {}, config);
      const auto& from_fresh = fresh.ProcessBatch(0, session.subspan(cut));

      ASSERT_EQ(after_reset.decisions.size(), from_fresh.decisions.size())
          << "cut=" << cut << " guard=" << guard;
      for (std::size_t i = 0; i < from_fresh.decisions.size(); ++i) {
        EXPECT_EQ(after_reset.decisions[i].timestamp_s,
                  from_fresh.decisions[i].timestamp_s);
        EXPECT_EQ(after_reset.decisions[i].score,
                  from_fresh.decisions[i].score);
        EXPECT_EQ(after_reset.decisions[i].posterior,
                  from_fresh.decisions[i].posterior);
        EXPECT_EQ(after_reset.decisions[i].occupied,
                  from_fresh.decisions[i].occupied);
      }
    }
  }
}

// ResetAll is Reset over every link: both links of a two-link engine must
// match their fresh counterparts on the tail.
TEST(SensingEngine, ResetAllMatchesFreshEngines) {
  auto& f = Fixture();
  core::StreamingConfig config;
  config.use_hmm = false;
  config.guard_enabled = true;

  auto d0 = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  auto d1 = f.Calibrated(core::DetectionScheme::kBaseline);
  d0.SetThreshold(1.0);
  d1.SetThreshold(1.0);
  const std::span<const wifi::CsiPacket> session(f.occupied_session);

  core::SensingEngine resumed;
  resumed.AddLink(d0, {}, config);
  resumed.AddLink(d1, {}, config);
  resumed.ProcessBatch(0, session.subspan(0, 40));
  resumed.ProcessBatch(1, session.subspan(0, 17));
  resumed.ResetAll();

  core::SensingEngine fresh;
  fresh.AddLink(std::move(d0), {}, config);
  fresh.AddLink(std::move(d1), {}, config);

  for (std::size_t link = 0; link < 2; ++link) {
    const auto& a = resumed.ProcessBatch(link, session.subspan(40));
    std::vector<core::PresenceDecision> reference(a.decisions);
    const auto& b = fresh.ProcessBatch(link, session.subspan(40));
    ASSERT_EQ(reference.size(), b.decisions.size()) << "link " << link;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].score, b.decisions[i].score);
      EXPECT_EQ(reference[i].occupied, b.decisions[i].occupied);
    }
  }
}

// A guarded link takes its frame shape from the detector, not from the first
// frame: a wrong-shaped first frame is quarantined as kShapeMismatch (no
// throw), and the well-formed stream after it decides exactly like a fresh
// guarded link's.
TEST(SensingEngine, GuardQuarantinesMisShapedFirstFrame) {
  auto& f = Fixture();
  auto detector = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  detector.SetThreshold(1.0);
  core::StreamingConfig config;
  config.use_hmm = false;
  config.guard_enabled = true;

  core::SensingEngine engine;
  engine.AddLink(detector, {}, config);
  wifi::CsiPacket bad = f.occupied_session.front();
  bad.csi.Resize(detector.num_antennas() - 1, detector.num_subcarriers());
  std::optional<core::PresenceDecision> decision;
  EXPECT_NO_THROW(decision = engine.ProcessPacket(0, bad));
  EXPECT_FALSE(decision.has_value());
  const nic::LinkHealth health = engine.Health(0);
  EXPECT_EQ(health.quarantined, 1u);
  EXPECT_EQ(health.FaultCount(nic::FrameFault::kShapeMismatch), 1u);

  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  const std::vector<core::PresenceDecision> after(
      engine.ProcessBatch(0, session).decisions);
  core::SensingEngine fresh;
  fresh.AddLink(std::move(detector), {}, config);
  const auto& reference = fresh.ProcessBatch(0, session);
  ASSERT_FALSE(after.empty());
  ASSERT_EQ(after.size(), reference.decisions.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].score, reference.decisions[i].score);
    EXPECT_EQ(after[i].occupied, reference.decisions[i].occupied);
  }
  EXPECT_EQ(engine.Health(0).quarantined, 1u);
}

// An unguarded link refuses a frame holding a non-finite value (CSI or the
// metadata the pipeline reads) before it reaches the window ring, counts it,
// and decides afterwards exactly as if the frame had never arrived — on the
// baseline scheme, whose window statistic would otherwise turn the NaN into
// a finite quiet-looking score, and on the combined scheme alike.
TEST(SensingEngine, UnguardedLinkRefusesNonFiniteFrames) {
  auto& f = Fixture();
  constexpr std::size_t kNanFrame = 40;  // the ring is full by then
  constexpr std::size_t kInfFrame = 97;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto poisoned = f.occupied_session;
  poisoned[kNanFrame].csi.At(1, 7) = Complex(0.5, nan);
  poisoned[kInfFrame].rssi_db = inf;
  std::vector<wifi::CsiPacket> removed;
  for (std::size_t i = 0; i < poisoned.size(); ++i) {
    if (i != kNanFrame && i != kInfFrame) removed.push_back(poisoned[i]);
  }
  core::StreamingConfig config;
  config.hop_packets = 5;

  for (const auto scheme :
       {core::DetectionScheme::kBaseline,
        core::DetectionScheme::kSubcarrierAndPathWeighting}) {
    SCOPED_TRACE(core::ToString(scheme));
    auto detector = f.Calibrated(scheme);
    const auto empty_scores = EmptyScores(f, detector);
    detector.SetThreshold(1.0);
    core::SensingEngine engine;
    engine.AddLink(detector, empty_scores, config);
    const std::vector<core::PresenceDecision> got(
        engine.ProcessBatch(0, std::span<const wifi::CsiPacket>(poisoned))
            .decisions);
    core::SensingEngine reference_engine;
    reference_engine.AddLink(std::move(detector), empty_scores, config);
    const auto& reference = reference_engine.ProcessBatch(
        0, std::span<const wifi::CsiPacket>(removed));

    if constexpr (obs::kEnabled) {
      const obs::Registry& metrics = engine.Metrics(0);
      EXPECT_EQ(metrics.Get(obs::Counter::kPacketsRefusedNonFinite), 2u);
      EXPECT_EQ(metrics.Get(obs::Counter::kPacketsIngested), poisoned.size());
      EXPECT_EQ(metrics.Get(obs::Counter::kPacketsAccepted), removed.size());
    }
    ASSERT_FALSE(got.empty());
    ASSERT_EQ(got.size(), reference.decisions.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].timestamp_s, reference.decisions[i].timestamp_s);
      EXPECT_EQ(got[i].score, reference.decisions[i].score) << "decision " << i;
      EXPECT_EQ(got[i].posterior, reference.decisions[i].posterior);
      EXPECT_EQ(got[i].occupied, reference.decisions[i].occupied);
    }
  }
}

// The single-link convenience overload refuses multi-link engines.
TEST(SensingEngine, SingleLinkOverloadRequiresOneLink) {
  auto& f = Fixture();
  core::SensingEngine engine;
  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  EXPECT_THROW(engine.ProcessBatch(session.subspan(0, 25)),
               PreconditionError);
}

// Recording metrics must never change decisions: the same stream scored with
// metrics on and off produces bit-identical scores, posteriors and verdicts.
TEST(SensingEngine, MetricsOnOffDecisionsBitIdentical) {
  auto& f = Fixture();
  for (bool guard : {false, true}) {
    core::StreamingConfig config;
    config.guard_enabled = guard;

    auto detector =
        f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
    const auto empty_scores = EmptyScores(f, detector);
    detector.SetThreshold(1.0);
    const std::span<const wifi::CsiPacket> session(f.occupied_session);

    core::SensingEngine with_metrics;
    with_metrics.AddLink(detector, empty_scores, config);
    with_metrics.SetMetricsEnabled(true);
    const auto& on = with_metrics.ProcessBatch(0, session);
    std::vector<core::PresenceDecision> reference(on.decisions);

    core::SensingEngine without_metrics;
    without_metrics.AddLink(std::move(detector), empty_scores, config);
    without_metrics.SetMetricsEnabled(false);
    const auto& off = without_metrics.ProcessBatch(0, session);

    ASSERT_EQ(reference.size(), off.decisions.size()) << "guard=" << guard;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].score, off.decisions[i].score);
      EXPECT_EQ(reference[i].posterior, off.decisions[i].posterior);
      EXPECT_EQ(reference[i].occupied, off.decisions[i].occupied);
    }
    // The disabled engine must have recorded nothing at all.
    EXPECT_TRUE(without_metrics.Metrics(0).Empty());
  }
}

// The per-link registry mirrors what the engine actually did: exact packet
// and decision counts, windows scored, and the profile stack counters
// (every combined window reads the detector's stack; scoring never
// rebuilds it).
TEST(SensingEngine, MetricsCountersMatchBatchActivity) {
  auto& f = Fixture();
  auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  const auto empty_scores = EmptyScores(f, detector);
  detector.SetThreshold(1.0);

  core::StreamingConfig config;
  config.window_packets = 25;
  config.hop_packets = 25;
  core::SensingEngine engine;
  engine.AddLink(std::move(detector), empty_scores, config);

  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  const auto& result = engine.ProcessBatch(0, session);
  const auto& m = engine.Metrics(0);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(m.Get(obs::Counter::kPacketsIngested), session.size());
    EXPECT_EQ(m.Get(obs::Counter::kBatches), 1u);
    EXPECT_EQ(m.Get(obs::Counter::kDecisions), result.decisions.size());
    EXPECT_EQ(m.Get(obs::Counter::kWindowsScored), result.decisions.size());
    EXPECT_EQ(m.Get(obs::Counter::kHmmUpdates), result.decisions.size());
    ASSERT_GT(result.decisions.size(), 1u);
    EXPECT_EQ(m.Get(obs::Counter::kProfileStackRebuilds), 0u);
    EXPECT_EQ(m.Get(obs::Counter::kProfileStackHits),
              result.decisions.size());
    EXPECT_EQ(m.StageLatency(obs::Stage::kScore).count,
              result.decisions.size());
    EXPECT_TRUE(m.GaugeSet(obs::Gauge::kLastScore));
    EXPECT_DOUBLE_EQ(m.Get(obs::Gauge::kLastScore),
                     result.decisions.back().score);
    // AggregateMetrics over one link is that link's registry.
    const obs::Registry totals = engine.AggregateMetrics();
    EXPECT_EQ(totals.counters(), m.counters());
    // Reset clears the shard with the rest of the link state.
    engine.Reset(0);
    EXPECT_TRUE(engine.Metrics(0).Empty());
  } else {
    EXPECT_TRUE(m.Empty());
  }
}

// Per-frame stages share one deterministic sampling tick per frame: a
// guarded link fed N clean frames times both the guard inspection and the
// fused ingest sanitize on N / kIngestSampleEvery of them.
TEST(SensingEngine, GuardedIngestSamplesEveryPerFrameStageOncePerTick) {
  auto& f = Fixture();
  for (auto scheme : {core::DetectionScheme::kSubcarrierAndPathWeighting,
                      core::DetectionScheme::kSubcarrierWeighting}) {
    auto detector = f.Calibrated(scheme);
    const auto empty_scores = EmptyScores(f, detector);
    detector.SetThreshold(1.0);
    core::StreamingConfig config;
    config.guard_enabled = true;
    core::SensingEngine engine;
    engine.AddLink(std::move(detector), empty_scores, config);

    const auto session = std::span<const wifi::CsiPacket>(f.empty_session)
                             .first(12 * obs::kIngestSampleEvery);
    (void)engine.ProcessBatch(0, session);
    const auto& m = engine.Metrics(0);
    if constexpr (obs::kEnabled) {
      ASSERT_EQ(m.Get(obs::Counter::kPacketsAccepted), session.size());
      const std::uint64_t expected = session.size() / obs::kIngestSampleEvery;
      EXPECT_EQ(m.StageLatency(obs::Stage::kGuardClassify).count, expected)
          << core::ToString(scheme);
      EXPECT_EQ(m.StageLatency(obs::Stage::kIngestSanitize).count, expected)
          << core::ToString(scheme);
    } else {
      EXPECT_TRUE(m.Empty());
    }
  }
}

// Packet-at-a-time ingest (the serving-tier entry point) must be
// decision-for-decision identical to batch ingest of the same stream.
TEST(EngineEquivalence, ProcessPacketMatchesProcessBatch) {
  auto& f = Fixture();
  for (const auto scheme : kAllSchemes) {
    auto detector = f.Calibrated(scheme);
    const auto empty_scores = EmptyScores(f, detector);
    detector.SetThreshold(1.0);

    core::StreamingConfig config;
    config.window_packets = 25;
    config.hop_packets = 10;
    config.use_hmm = false;

    core::SensingEngine batch_engine;
    batch_engine.AddLink(detector, empty_scores, config);
    core::SensingEngine packet_engine;
    packet_engine.AddLink(std::move(detector), empty_scores, config);

    const std::span<const wifi::CsiPacket> session(f.occupied_session);
    const auto& batch = batch_engine.ProcessBatch(0, session);
    std::vector<core::PresenceDecision> packet_decisions;
    for (const auto& packet : f.occupied_session) {
      if (auto d = packet_engine.ProcessPacket(0, packet)) {
        packet_decisions.push_back(*d);
      }
    }

    ASSERT_EQ(packet_decisions.size(), batch.decisions.size());
    ASSERT_FALSE(packet_decisions.empty());
    for (std::size_t i = 0; i < packet_decisions.size(); ++i) {
      EXPECT_EQ(packet_decisions[i].timestamp_s,
                batch.decisions[i].timestamp_s);
      EXPECT_EQ(packet_decisions[i].score, batch.decisions[i].score);
      EXPECT_EQ(packet_decisions[i].posterior, batch.decisions[i].posterior);
      EXPECT_EQ(packet_decisions[i].occupied, batch.decisions[i].occupied);
    }
    EXPECT_EQ(packet_engine.occupied(0), batch_engine.occupied(0));
    EXPECT_EQ(packet_engine.posterior(0), batch_engine.posterior(0));
  }
}

// Fleet-mode registration — many links on one immutable shared detector,
// scoring through the engine-owned shared scratch — must be bit-identical
// to per-link owned copies with private scratch.
TEST(EngineEquivalence, SharedDetectorSharedScratchMatchesOwned) {
  auto& f = Fixture();
  auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  const auto empty_scores = EmptyScores(f, detector);
  detector.SetThreshold(1.0);
  const auto shared =
      std::make_shared<const core::Detector>(std::move(detector));

  core::StreamingConfig config;
  config.window_packets = 25;
  config.hop_packets = 5;

  core::SensingEngine owned_engine;
  core::SensingEngine fleet_engine;
  fleet_engine.UseSharedScratch();
  constexpr std::size_t kLinks = 3;
  for (std::size_t l = 0; l < kLinks; ++l) {
    owned_engine.AddLink(core::Detector(*shared), empty_scores, config);
    fleet_engine.AddLink(shared, empty_scores, config);
  }

  // Interleave the links so the shared scratch is handed between them
  // mid-stream.
  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  for (std::size_t pos = 0; pos + 10 <= session.size(); pos += 10) {
    for (std::size_t l = 0; l < kLinks; ++l) {
      const auto& a = owned_engine.ProcessBatch(l, session.subspan(pos, 10));
      // Copy: the fleet engine's ProcessBatch reuses the same result slot
      // pattern per link, so compare before the next call.
      const std::vector<core::PresenceDecision> owned(a.decisions);
      const auto& b = fleet_engine.ProcessBatch(l, session.subspan(pos, 10));
      ASSERT_EQ(owned.size(), b.decisions.size());
      for (std::size_t i = 0; i < owned.size(); ++i) {
        EXPECT_EQ(owned[i].score, b.decisions[i].score);
        EXPECT_EQ(owned[i].posterior, b.decisions[i].posterior);
        EXPECT_EQ(owned[i].occupied, b.decisions[i].occupied);
      }
    }
  }
}

// One fleet engine on one shared scratch, serving links of three different
// shared combined-scheme profiles interleaved packet by packet, decides
// exactly like a lone engine per profile — and records no profile stack
// rebuild while scoring (a per-decision rebuild would show up here).
TEST(SensingEngine, SharedScratchServesInterleavedProfilesWithoutRebuilds) {
  auto& f = Fixture();
  core::StreamingConfig config;
  config.window_packets = 25;
  config.hop_packets = 5;

  core::SensingEngine fleet;
  fleet.UseSharedScratch();
  std::vector<core::SensingEngine> lone(3);
  for (std::size_t p = 0; p < lone.size(); ++p) {
    core::DetectorConfig detector_config;
    detector_config.scheme = core::DetectionScheme::kSubcarrierAndPathWeighting;
    const std::vector<wifi::CsiPacket> session(
        f.calibration.begin() + static_cast<std::ptrdiff_t>(50 * p),
        f.calibration.begin() + static_cast<std::ptrdiff_t>(50 * p + 200));
    auto detector = core::Detector::Calibrate(session, f.sim.band(),
                                              f.sim.array(), detector_config);
    const auto empty_scores = EmptyScores(f, detector);
    detector.SetThreshold(1.0);
    const auto shared =
        std::make_shared<const core::Detector>(std::move(detector));
    fleet.AddLink(shared, empty_scores, config);
    lone[p].AddLink(shared, empty_scores, config);
  }

  std::size_t decisions = 0;
  for (const auto& packet : f.occupied_session) {
    for (std::size_t p = 0; p < lone.size(); ++p) {
      const auto expected = lone[p].ProcessPacket(0, packet);
      const auto got = fleet.ProcessPacket(p, packet);
      ASSERT_EQ(expected.has_value(), got.has_value());
      if (!got.has_value()) continue;
      ++decisions;
      EXPECT_EQ(expected->score, got->score);
      EXPECT_EQ(expected->posterior, got->posterior);
      EXPECT_EQ(expected->occupied, got->occupied);
    }
  }
  ASSERT_GT(decisions, 0u);
  if constexpr (obs::kEnabled) {
    const obs::Registry totals = fleet.AggregateMetrics();
    EXPECT_EQ(totals.Get(obs::Counter::kProfileStackRebuilds), 0u);
    EXPECT_EQ(totals.Get(obs::Counter::kProfileStackHits), decisions);
  }
}

// Every rewrite of the retained calibration set — ApplyProfile with
// RefreshAngularProfile, and the ladder's ApplySwap — rebuilds the
// detector's profile stack from the rewritten set, and a scratch warmed
// before it scores exactly like a fresh one after. A copied detector owns
// its stack: mutating the original leaves the copy's scores unchanged.
TEST(EngineEquivalence, ProfileStackFollowsEveryProfileRewrite) {
  auto& f = Fixture();
  auto detector =
      f.Calibrated(core::DetectionScheme::kSubcarrierAndPathWeighting);
  const auto empty_scores = EmptyScores(f, detector);
  detector.SetThreshold(1.0);
  const std::span<const wifi::CsiPacket> occupied(f.occupied_session);
  const auto probe = occupied.subspan(25, 25);
  core::DetectorScratch warm;
  (void)detector.Score(occupied.subspan(0, 25), warm);

  const auto expect_consistent = [&](const core::Detector& d,
                                     const char* when) {
    core::SubcarrierCovarianceStack expected;
    core::BuildSubcarrierCovarianceStack(
        SlabViews(d.retained_rows(), d.num_antennas(), d.num_subcarriers()),
        d.num_antennas(), d.num_subcarriers(), expected);
    EXPECT_EQ(d.profile_stack().num_packets, expected.num_packets) << when;
    EXPECT_TRUE(d.profile_stack().data == expected.data) << when;
    core::DetectorScratch fresh;
    EXPECT_EQ(d.Score(probe, warm), d.Score(probe, fresh)) << when;
  };
  expect_consistent(detector, "after Calibrate");

  const core::Detector copy(detector);
  const double copy_score = copy.Score(probe, warm);

  RewriteProfile(detector,
                 std::span<const wifi::CsiPacket>(f.empty_session).first(25),
                 warm);
  expect_consistent(detector, "after ApplyProfile + RefreshAngularProfile");

  const auto staged = core::SanitizePhase(
      std::vector<wifi::CsiPacket>(f.empty_session.begin() + 25,
                                   f.empty_session.begin() + 41),
      f.sim.band());
  detector.RefreshAngularProfile(SplitRows(staged), warm);
  expect_consistent(detector, "after RefreshAngularProfile");

  // Ladder swap: an AGC burst enters Recalibrating, quiet windows stage
  // packets, and ApplySwap refreshes the angular profile on the borrowed
  // scoring scratch without counting a scored window.
  core::CalibrationConfig calibration;
  calibration.enabled = true;
  calibration.recalibration_quiet_windows = 3;
  core::LinkCalibrator calibrator;
  calibrator.Configure(detector, empty_scores, calibration);
  obs::Registry registry;
  calibrator.metrics = &registry;
  warm.metrics = &registry;
  const auto quiet = SplitRows(core::SanitizePhase(
      std::vector<wifi::CsiPacket>(f.empty_session.begin() + 50,
                                   f.empty_session.begin() + 150),
      f.sim.band()));
  const std::size_t slab_doubles =
      2 * detector.num_antennas() * detector.num_subcarriers();
  std::vector<const double*> slabs;
  for (std::size_t i = 0; i < 100; ++i) {
    slabs.push_back(quiet.data() + i * slab_doubles);
  }
  const double quiet_score = calibrator.score_posterior().Mean();
  for (std::size_t w = 0; w < 4 && calibrator.profile_swaps() == 0; ++w) {
    core::CalibrationWindowContext context;
    if (w == 0) context.agc_frames = core::LinkCalibrator::kAgcFramesMin;
    (void)calibrator.ObserveDecision(
        quiet_score, 0.0,
        std::span<const double* const>(slabs).subspan(25 * w, 25), detector,
        warm, context);
  }
  ASSERT_EQ(calibrator.profile_swaps(), 1u);
  EXPECT_EQ(warm.metrics, &registry);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.Get(obs::Counter::kProfileStackRebuilds), 1u);
    EXPECT_EQ(registry.Get(obs::Counter::kWindowsScored), 0u);
  }
  warm.metrics = nullptr;
  expect_consistent(detector, "after ApplySwap");

  expect_consistent(copy, "copy after the original was mutated");
  EXPECT_EQ(copy.Score(probe, warm), copy_score);
}

// The baseline ingest cache must stay coherent under the recalibration
// ladder: when a profile swap bumps the detector's profile epoch
// mid-stream, stale cached packet scores must not leak into decisions —
// pinned by bit-identity against the raw-window oracle (which never
// caches) scoring with the detector as the ladder left it.
TEST(EngineEquivalence, BaselineIngestCacheSurvivesRecalibration) {
  auto& f = Fixture();
  auto detector = f.Calibrated(core::DetectionScheme::kBaseline);
  const auto empty_scores = EmptyScores(f, detector);
  detector.SetThreshold(1.0);

  core::StreamingConfig config;
  config.window_packets = 25;
  config.hop_packets = 5;
  config.calibration.enabled = true;
  config.calibration.quiet_posterior_max = 0.2;
  config.calibration.drift_ewma_alpha = 1.0;
  config.calibration.drift_confirm_windows = 2;
  config.calibration.recalibration_quiet_windows = 3;

  test_support::ScoreOracle oracle(config, detector);
  core::SensingEngine engine;
  engine.AddLink(std::move(detector), empty_scores, config);

  // Empty-room stream: quiet windows feed the ladder, which recalibrates
  // (ApplyProfile bumps the epoch) while the cache holds pre-swap scores.
  std::size_t decisions = 0;
  for (const auto& packet : f.empty_session) {
    if (test_support::CheckedPush(oracle, engine, 0, packet).has_value()) {
      ++decisions;
    }
  }
  EXPECT_GT(decisions, 0u);
  EXPECT_GT(engine.Calibrator(0).profile_swaps(), 0u);
}

// One fleet engine on one shared scratch serves every kind of link its
// rebuilt-window buffer is handed between — windows of 25 and 50 packets,
// the three sanitized schemes plus a baseline link, a 2-antenna link beside
// 3-antenna ones — interleaved packet by packet. The stream drifts (so the
// ladders recalibrate and swap profiles, learning from windows rebuilt out
// of the slab ring) and then loses an RX chain (so degraded windows are
// rebuilt too). Every decision scores like the raw-window oracle, which
// keeps its own packet window, and the fleet's ladders and HMM posteriors
// track a lone engine per link that owns its scratch.
TEST(EngineEquivalence, SlabRebuiltWindowsMatchStreamingAcrossShapes) {
  auto& f = Fixture();
  nic::FaultInjectionConfig faults;
  faults.enabled = true;
  faults.seed = 29;
  faults.drift_ramp_db_per_1k = 3.0;
  faults.agc_schedule_every_packets = 500;
  faults.dead_antenna = 1;
  faults.dead_from_packet = 1500;
  auto sim_config = ex::DefaultSimConfig();
  sim_config.faults = faults;

  struct Spec {
    core::DetectionScheme scheme;
    std::size_t antennas;
    std::size_t window;
  };
  const Spec specs[] = {
      {core::DetectionScheme::kSubcarrierAndPathWeighting, 3, 25},
      {core::DetectionScheme::kSubcarrierWeighting, 3, 50},
      {core::DetectionScheme::kVarianceMobile, 3, 25},
      {core::DetectionScheme::kBaseline, 3, 50},
      {core::DetectionScheme::kSubcarrierAndPathWeighting, 2, 50},
  };
  std::vector<std::vector<wifi::CsiPacket>> streams;
  std::vector<test_support::ScoreOracle> oracles;
  std::vector<core::SensingEngine> lone(std::size(specs));
  core::SensingEngine fleet;
  fleet.UseSharedScratch();
  for (std::size_t l = 0; l < std::size(specs); ++l) {
    const Spec& spec = specs[l];
    auto sim = ex::MakeSimulator(f.link, ex::DefaultSimConfig(), spec.antennas);
    Rng rng(400 + spec.antennas);
    const auto calibration = sim.CaptureSession(300, std::nullopt, rng);
    const auto empty = sim.CaptureSession(200, std::nullopt, rng);
    core::DetectorConfig detector_config;
    detector_config.scheme = spec.scheme;
    detector_config.music.num_sources = spec.antennas - 1;
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

    auto drifting = ex::MakeSimulator(f.link, sim_config, spec.antennas);
    Rng stream_rng(77);
    streams.push_back(drifting.CaptureSession(2000, std::nullopt, stream_rng));
    oracles.emplace_back(config, detector);
    lone[l].AddLink(detector, empty_scores, config);
    fleet.AddLink(std::move(detector), empty_scores, config);
  }

  std::vector<std::size_t> decisions(lone.size(), 0);
  std::vector<std::size_t> degraded(lone.size(), 0);
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    for (std::size_t l = 0; l < lone.size(); ++l) {
      const auto alone = lone[l].ProcessPacket(0, streams[l][i]);
      const auto got =
          test_support::CheckedPush(oracles[l], fleet, l, streams[l][i]);
      ASSERT_FALSE(::testing::Test::HasFailure()) << l << " @" << i;
      ASSERT_EQ(alone.has_value(), got.has_value()) << l << " @" << i;
      if (!got.has_value()) continue;
      ++decisions[l];
      degraded[l] += got->degraded ? 1 : 0;
      ASSERT_EQ(alone->score, got->score) << l << " @" << i;
      ASSERT_EQ(alone->posterior, got->posterior) << l << " @" << i;
      ASSERT_EQ(alone->occupied, got->occupied) << l << " @" << i;
    }
  }
  for (std::size_t l = 0; l < lone.size(); ++l) {
    const auto& want = lone[l].Calibrator(0);
    const auto& have = fleet.Calibrator(l);
    EXPECT_GT(decisions[l], 0u) << l;
    EXPECT_GT(degraded[l], 0u) << l;
    EXPECT_GT(want.profile_swaps(), 0u) << l;
    EXPECT_EQ(want.profile_swaps(), have.profile_swaps()) << l;
    EXPECT_EQ(want.adaptive_threshold(), have.adaptive_threshold()) << l;
    EXPECT_EQ(want.quiet_log_mean(), have.quiet_log_mean()) << l;
  }
}

// Serving-tier eviction: RemoveLink frees the slot for the next AddLink,
// leaves every other link untouched, and the recycled slot behaves like a
// brand-new link.
TEST(SensingEngine, RemoveLinkRecyclesSlot) {
  auto& f = Fixture();
  auto d0 = f.Calibrated(core::DetectionScheme::kSubcarrierWeighting);
  const auto empty_scores = EmptyScores(f, d0);
  d0.SetThreshold(1.0);
  auto d1 = d0;
  auto d2 = d0;

  core::SensingEngine engine;
  const std::size_t a = engine.AddLink(std::move(d0), empty_scores, {});
  const std::size_t b = engine.AddLink(std::move(d1), empty_scores, {});
  EXPECT_EQ(engine.NumActiveLinks(), 2u);

  const std::span<const wifi::CsiPacket> session(f.occupied_session);
  (void)engine.ProcessBatch(a, session.subspan(0, 30));
  const std::vector<core::PresenceDecision> b_before(
      engine.ProcessBatch(b, session.subspan(0, 60)).decisions);
  ASSERT_FALSE(b_before.empty());

  engine.RemoveLink(a);
  EXPECT_FALSE(engine.LinkActive(a));
  EXPECT_TRUE(engine.LinkActive(b));
  EXPECT_EQ(engine.NumActiveLinks(), 1u);

  // The freed slot is reused before any new one is appended.
  const std::size_t c = engine.AddLink(std::move(d2), empty_scores, {});
  EXPECT_EQ(c, a);
  EXPECT_EQ(engine.NumLinks(), 2u);
  EXPECT_EQ(engine.NumActiveLinks(), 2u);

  // The recycled slot starts from a clean ring: feeding it the same stream
  // reproduces a fresh link's decisions, and link b is unaffected.
  const auto& c_result = engine.ProcessBatch(c, session.subspan(0, 60));
  const std::vector<core::PresenceDecision> c_decisions(c_result.decisions);
  const auto& b_again = engine.ProcessBatch(b, session.subspan(60, 60));
  ASSERT_FALSE(b_again.decisions.empty());
  ASSERT_EQ(c_decisions.size(), b_before.size());
  for (std::size_t i = 0; i < c_decisions.size(); ++i) {
    EXPECT_EQ(c_decisions[i].score, b_before[i].score);
  }
}

}  // namespace
