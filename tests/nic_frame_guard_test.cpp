// Frame-guard taxonomy and fault-injector determinism tests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "experiments/scenario.h"
#include "nic/channel_simulator.h"
#include "nic/fault_injection.h"
#include "nic/frame_guard.h"

namespace mulink::nic {
namespace {

namespace ex = mulink::experiments;

wifi::CsiPacket MakePacket(std::uint64_t seq, double rssi = -40.0) {
  wifi::CsiPacket p;
  p.timestamp_s = static_cast<double>(seq) * 0.02;
  p.rssi_db = rssi;
  p.sequence = seq;
  p.csi = linalg::CMatrix(3, 30);
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t k = 0; k < 30; ++k) {
      p.csi.At(m, k) = Complex(1.0 + 0.1 * static_cast<double>(m), 0.5);
    }
  }
  return p;
}

TEST(FrameGuard, AcceptsCleanStream) {
  FrameGuard guard;
  for (std::uint64_t s = 0; s < 50; ++s) {
    const auto report = guard.Inspect(MakePacket(s));
    EXPECT_EQ(report.verdict, FrameVerdict::kAccept);
    EXPECT_EQ(report.faults, 0u);
  }
  EXPECT_EQ(guard.health().received, 50u);
  EXPECT_EQ(guard.health().accepted, 50u);
  EXPECT_EQ(guard.health().quarantined, 0u);
  EXPECT_EQ(Status(guard.health()), LinkStatus::kHealthy);
}

TEST(FrameGuard, QuarantinesNonFiniteCsi) {
  FrameGuard guard;
  (void)guard.Inspect(MakePacket(0));
  auto bad = MakePacket(1);
  bad.csi.At(1, 7) = Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);
  const auto report = guard.Inspect(bad);
  EXPECT_EQ(report.verdict, FrameVerdict::kQuarantine);
  EXPECT_TRUE(report.Has(FrameFault::kNonFinite));

  auto inf_meta = MakePacket(1);
  inf_meta.rssi_db = std::numeric_limits<double>::infinity();
  EXPECT_EQ(guard.Inspect(inf_meta).verdict, FrameVerdict::kQuarantine);
  EXPECT_EQ(guard.health().FaultCount(FrameFault::kNonFinite), 2u);
}

TEST(FrameGuard, QuarantinesZeroEnergyAndShapeMismatch) {
  FrameGuard guard;
  (void)guard.Inspect(MakePacket(0));

  auto silent = MakePacket(1);
  silent.csi *= Complex(0.0, 0.0);
  const auto zero = guard.Inspect(silent);
  EXPECT_EQ(zero.verdict, FrameVerdict::kQuarantine);
  EXPECT_TRUE(zero.Has(FrameFault::kZeroEnergy));

  auto wrong = MakePacket(2);
  wrong.csi = linalg::CMatrix(2, 30);
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t k = 0; k < 30; ++k) wrong.csi.At(m, k) = Complex(1, 0);
  }
  const auto shape = guard.Inspect(wrong);
  EXPECT_EQ(shape.verdict, FrameVerdict::kQuarantine);
  EXPECT_TRUE(shape.Has(FrameFault::kShapeMismatch));
}

TEST(FrameGuard, SequenceDiscipline) {
  FrameGuard guard;
  (void)guard.Inspect(MakePacket(10));

  // Duplicate and reordered frames are quarantined.
  EXPECT_TRUE(guard.Inspect(MakePacket(10))
                  .Has(FrameFault::kDuplicateSequence));
  EXPECT_TRUE(guard.Inspect(MakePacket(9))
                  .Has(FrameFault::kReorderedSequence));

  // A gap is counted but the frame is usable.
  const auto gap = guard.Inspect(MakePacket(14));
  EXPECT_EQ(gap.verdict, FrameVerdict::kAccept);
  EXPECT_TRUE(gap.Has(FrameFault::kSequenceGap));
  EXPECT_EQ(gap.gap, 3u);
  EXPECT_FALSE(gap.resync);
  EXPECT_EQ(guard.health().missing, 3u);

  // A gap beyond kMaxGapPackets demands a ring flush.
  const auto outage =
      guard.Inspect(MakePacket(14 + FrameGuard::kMaxGapPackets + 2));
  EXPECT_TRUE(outage.resync);
}

TEST(FrameGuard, QuarantinedFrameSurfacesAsGapOnNextGoodFrame) {
  FrameGuard guard;
  (void)guard.Inspect(MakePacket(0));
  auto bad = MakePacket(1);
  bad.csi.At(0, 0) = Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);
  (void)guard.Inspect(bad);  // quarantined: must NOT advance the sequence
  const auto next = guard.Inspect(MakePacket(2));
  EXPECT_EQ(next.verdict, FrameVerdict::kAccept);
  EXPECT_TRUE(next.Has(FrameFault::kSequenceGap));
  EXPECT_EQ(next.gap, 1u);
}

TEST(FrameGuard, DeadAntennaConfirmationAndRevival) {
  constexpr std::size_t kStreak = FrameGuard::kDeadAntennaPackets;
  FrameGuard guard;

  auto kill = [](wifi::CsiPacket p) {
    for (std::size_t k = 0; k < p.NumSubcarriers(); ++k) {
      p.csi.At(2, k) = Complex(0.0, 0.0);
    }
    return p;
  };

  std::uint64_t seq = 0;
  (void)guard.Inspect(MakePacket(seq++));
  // kStreak - 1 silent frames: streak not yet confirmed.
  for (std::size_t i = 0; i + 1 < kStreak; ++i) {
    const auto r = guard.Inspect(kill(MakePacket(seq++)));
    EXPECT_EQ(r.verdict, FrameVerdict::kAccept) << i;
    EXPECT_EQ(r.antenna_died, -1) << i;
  }
  // The kStreak-th confirms: repair verdict, mask set, death reported once.
  const auto died = guard.Inspect(kill(MakePacket(seq++)));
  EXPECT_EQ(died.verdict, FrameVerdict::kRepair);
  EXPECT_TRUE(died.Has(FrameFault::kDeadAntenna));
  EXPECT_EQ(died.antenna_died, 2);
  EXPECT_EQ(guard.dead_antenna_mask(), 1u << 2);
  EXPECT_EQ(guard.Inspect(kill(MakePacket(seq++))).antenna_died, -1);
  EXPECT_EQ(Status(guard.health()), LinkStatus::kDegraded);

  // The same streak of live frames revives the chain.
  for (std::size_t i = 0; i + 1 < kStreak; ++i) {
    (void)guard.Inspect(MakePacket(seq++));
  }
  EXPECT_EQ(guard.dead_antenna_mask(), 1u << 2);
  (void)guard.Inspect(MakePacket(seq++));
  EXPECT_EQ(guard.dead_antenna_mask(), 0u);
}

TEST(FrameGuard, RssiOutlierAfterWarmup) {
  FrameGuard guard;
  Rng rng(5);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < FrameGuard::kRssiWarmupPackets + 20; ++i) {
    const auto r =
        guard.Inspect(MakePacket(seq++, -40.0 + rng.Gaussian(0.0, 0.5)));
    ASSERT_FALSE(r.Has(FrameFault::kRssiOutlier)) << i;
  }
  // A 20 dB AGC jump is far beyond 6 sigma of the ~0.5 dB jitter.
  const auto jump = guard.Inspect(MakePacket(seq++, -20.0));
  EXPECT_EQ(jump.verdict, FrameVerdict::kRepair);
  EXPECT_TRUE(jump.Has(FrameFault::kRssiOutlier));
}

TEST(FrameGuard, ResetMatchesFreshGuard) {
  FrameGuard used;
  for (std::uint64_t s = 0; s < 40; ++s) (void)used.Inspect(MakePacket(s));
  used.Reset();
  FrameGuard fresh;
  for (std::uint64_t s = 100; s < 140; ++s) {
    const auto a = used.Inspect(MakePacket(s));
    const auto b = fresh.Inspect(MakePacket(s));
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.gap, b.gap);
  }
  EXPECT_EQ(used.health().received, fresh.health().received);
  EXPECT_EQ(used.health().accepted, fresh.health().accepted);
}

// ---- Fault injector -------------------------------------------------------

std::vector<wifi::CsiPacket> Capture(const FaultInjectionConfig& faults,
                                     std::size_t n, std::uint64_t seed) {
  auto config = ex::DefaultSimConfig();
  config.faults = faults;
  auto sim = ex::MakeSimulator(ex::MakeClassroomLink(), config);
  Rng rng(seed);
  return sim.CaptureSession(n, std::nullopt, rng);
}

bool PacketsIdentical(const wifi::CsiPacket& a, const wifi::CsiPacket& b) {
  if (a.sequence != b.sequence || a.timestamp_s != b.timestamp_s) return false;
  if (a.rssi_db != b.rssi_db) return false;
  if (a.NumAntennas() != b.NumAntennas() ||
      a.NumSubcarriers() != b.NumSubcarriers()) {
    return false;
  }
  for (std::size_t m = 0; m < a.NumAntennas(); ++m) {
    for (std::size_t k = 0; k < a.NumSubcarriers(); ++k) {
      const Complex x = a.csi.At(m, k);
      const Complex y = b.csi.At(m, k);
      // NaN-tolerant bitwise-style equality for corrupted cells.
      const bool re_eq = x.real() == y.real() ||
                         (std::isnan(x.real()) && std::isnan(y.real()));
      const bool im_eq = x.imag() == y.imag() ||
                         (std::isnan(x.imag()) && std::isnan(y.imag()));
      if (!re_eq || !im_eq) return false;
    }
  }
  return true;
}

// The injector's private RNG must not perturb the channel: an armed
// injector with every fault process at zero produces the exact clean
// capture.
TEST(FaultInjector, ArmedButIdleInjectorIsIdentity) {
  FaultInjectionConfig off;  // enabled = false
  FaultInjectionConfig idle;
  idle.enabled = true;
  idle.seed = 999;  // seed must not matter when no process fires
  const auto clean = Capture(off, 60, 4242);
  const auto guarded = Capture(idle, 60, 4242);
  ASSERT_EQ(clean.size(), guarded.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_TRUE(PacketsIdentical(clean[i], guarded[i])) << "packet " << i;
  }
}

// Same seeds -> bit-identical faulty sessions, run after run.
TEST(FaultInjector, FaultySessionsAreDeterministic) {
  FaultInjectionConfig faults;
  faults.enabled = true;
  faults.seed = 77;
  faults.drop_prob = 0.05;
  faults.duplicate_prob = 0.02;
  faults.reorder_prob = 0.03;
  faults.corrupt_prob = 0.02;
  faults.agc_jump_prob = 0.01;
  const auto a = Capture(faults, 120, 4242);
  const auto b = Capture(faults, 120, 4242);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(PacketsIdentical(a[i], b[i])) << "packet " << i;
  }
}

// A dead chain reports exact zeros from dead_from_packet onward while the
// surviving rows stay finite and powered.
TEST(FaultInjector, DeadChainReportsExactZeros) {
  FaultInjectionConfig faults;
  faults.enabled = true;
  faults.dead_antenna = 1;
  faults.dead_from_packet = 10;
  const auto session = Capture(faults, 30, 4242);
  ASSERT_EQ(session.size(), 30u);
  for (std::size_t i = 0; i < session.size(); ++i) {
    double dead_row = 0.0;
    double live_row = 0.0;
    for (std::size_t k = 0; k < session[i].NumSubcarriers(); ++k) {
      dead_row += std::norm(session[i].csi.At(1, k));
      live_row += std::norm(session[i].csi.At(0, k));
    }
    EXPECT_GT(live_row, 0.0) << "packet " << i;
    if (i < 10) {
      EXPECT_GT(dead_row, 0.0) << "packet " << i;
    } else {
      EXPECT_EQ(dead_row, 0.0) << "packet " << i;
    }
  }
}

// Dropping frames leaves sequence gaps the guard can count.
TEST(FaultInjector, DropsLeaveSequenceGaps) {
  FaultInjectionConfig faults;
  faults.enabled = true;
  faults.seed = 3;
  faults.drop_prob = 0.1;
  const auto session = Capture(faults, 200, 4242);
  ASSERT_LT(session.size(), 200u);

  FrameGuard guard;
  for (const auto& packet : session) (void)guard.Inspect(packet);
  // Every interior drop surfaces as a gap (drops after the last delivered
  // frame are invisible, so `missing` can fall short of the drop count).
  EXPECT_GT(guard.health().missing, 0u);
  EXPECT_LE(guard.health().missing, 200u - session.size());
  EXPECT_GT(guard.health().FaultCount(FrameFault::kSequenceGap), 0u);
}

}  // namespace
}  // namespace mulink::nic
