#include "nic/frame_guard.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/assert.h"

namespace mulink::nic {

namespace {

std::size_t FaultIndex(FrameFault fault) {
  std::size_t index = 0;
  std::uint32_t bit = FaultBit(fault);
  while (bit > 1u) {
    bit >>= 1u;
    ++index;
  }
  return index;
}

// 1 when x is Inf or NaN (all exponent bits set), else 0: scans OR these
// instead of branching on every element.
std::uint64_t NonFiniteBit(double x) {
  constexpr std::uint64_t kExponent = 0x7ff0000000000000ULL;
  return (std::bit_cast<std::uint64_t>(x) & kExponent) == kExponent ? 1u : 0u;
}

std::uint64_t NonFiniteMeta(const wifi::CsiPacket& packet) {
  return NonFiniteBit(packet.timestamp_s) | NonFiniteBit(packet.rssi_db);
}

}  // namespace

bool IsFinite(const wifi::CsiPacket& packet) {
  const Complex* csi = packet.csi.raw();
  const std::size_t cells = packet.csi.rows() * packet.csi.cols();
  std::uint64_t non_finite = NonFiniteMeta(packet);
  for (std::size_t i = 0; i < cells; ++i) {
    non_finite |= NonFiniteBit(csi[i].real()) | NonFiniteBit(csi[i].imag());
  }
  return non_finite == 0;
}

const char* ToString(FrameFault fault) {
  switch (fault) {
    case FrameFault::kNone:
      return "none";
    case FrameFault::kNonFinite:
      return "non-finite";
    case FrameFault::kZeroEnergy:
      return "zero-energy";
    case FrameFault::kDeadAntenna:
      return "dead-antenna";
    case FrameFault::kDuplicateSequence:
      return "duplicate-sequence";
    case FrameFault::kReorderedSequence:
      return "reordered-sequence";
    case FrameFault::kSequenceGap:
      return "sequence-gap";
    case FrameFault::kRssiOutlier:
      return "rssi-outlier";
    case FrameFault::kShapeMismatch:
      return "shape-mismatch";
  }
  return "unknown";
}

const char* ToString(FrameVerdict verdict) {
  switch (verdict) {
    case FrameVerdict::kAccept:
      return "accept";
    case FrameVerdict::kRepair:
      return "repair";
    case FrameVerdict::kQuarantine:
      return "quarantine";
  }
  return "unknown";
}

const char* ToString(LinkStatus status) {
  switch (status) {
    case LinkStatus::kHealthy:
      return "healthy";
    case LinkStatus::kDegraded:
      return "degraded";
    case LinkStatus::kCritical:
      return "critical";
  }
  return "unknown";
}

const char* ToString(CalibrationLadder state) {
  switch (state) {
    case CalibrationLadder::kHealthy:
      return "healthy";
    case CalibrationLadder::kDriftSuspected:
      return "drift-suspected";
    case CalibrationLadder::kRecalibrating:
      return "recalibrating";
    case CalibrationLadder::kDegraded:
      return "degraded";
    case CalibrationLadder::kFrozen:
      return "frozen";
  }
  return "unknown";
}

std::uint64_t LinkHealth::FaultCount(FrameFault fault) const {
  if (fault == FrameFault::kNone) return 0;
  return fault_counts[FaultIndex(fault)];
}

LinkStatus Status(const LinkHealth& health) {
  if (health.received > 0 && health.quarantined * 2 > health.received) {
    return LinkStatus::kCritical;
  }
  if (health.dead_antenna_mask != 0 || health.profile_drift ||
      health.degraded ||
      health.calibration_state >= CalibrationLadder::kDegraded) {
    return LinkStatus::kDegraded;
  }
  return LinkStatus::kHealthy;
}

FrameGuard::FrameGuard(FrameGuardConfig config) : config_(config) {
  locked_antennas_ = config_.expected_antennas;
  locked_subcarriers_ = config_.expected_subcarriers;
  // With the shape configured, size the streak counters now so the first
  // frame allocates nothing (a shape-locking guard sizes them on it).
  // mulink-lint: allow(alloc): ctor, setup path
  streaks_.assign(locked_antennas_, AntennaStreak{});
}

void FrameGuard::Reset() {
  health_ = LinkHealth{};
  have_sequence_ = false;
  last_sequence_ = 0;
  rssi_mean_ = 0.0;
  rssi_var_ = 0.0;
  rssi_seen_ = 0;
  streaks_.assign(streaks_.size(), AntennaStreak{});
}

FrameReport FrameGuard::Inspect(const wifi::CsiPacket& packet) {
  FrameReport report;
  ++health_.received;

  auto flag = [&](FrameFault fault) {
    report.faults |= FaultBit(fault);
    ++health_.fault_counts[FaultIndex(fault)];
  };
  auto quarantine = [&](FrameFault fault) {
    flag(fault);
    report.verdict = FrameVerdict::kQuarantine;
    ++health_.quarantined;
    return report;
  };

  // Shape: lock onto the first frame (or the configured shape) and reject
  // anything else — the ring's packet slots and the detector's profile are
  // shaped for exactly one (antennas, subcarriers) pair.
  const std::size_t ants = packet.NumAntennas();
  const std::size_t scs = packet.NumSubcarriers();
  if (locked_antennas_ == 0) locked_antennas_ = ants;
  if (locked_subcarriers_ == 0) locked_subcarriers_ = scs;
  if (ants != locked_antennas_ || scs != locked_subcarriers_ || ants == 0 ||
      scs == 0) {
    return quarantine(FrameFault::kShapeMismatch);
  }
  if (streaks_.size() != ants) {
    streaks_.assign(ants, AntennaStreak{});
  }

  // One branch-free pass over the CSI: the non-finite scan (with the
  // metadata the pipeline consumes) and each antenna's energy, summed along
  // its row in subcarrier order (reused for the zero-energy and dead-chain
  // checks; a non-finite frame discards them).
  std::array<double, 64> row_power_buf{};
  MULINK_ASSERT_MSG(ants <= row_power_buf.size(),
                    "FrameGuard: more antennas than supported");
  const Complex* csi = packet.csi.raw();
  std::uint64_t non_finite = NonFiniteMeta(packet);
  for (std::size_t m = 0; m < ants; ++m) {
    double row = 0.0;
    const Complex* p = csi + m * scs;
    for (std::size_t k = 0; k < scs; ++k) {
      row += std::norm(p[k]);
      non_finite |= NonFiniteBit(p[k].real()) | NonFiniteBit(p[k].imag());
    }
    row_power_buf[m] = row;
  }
  if (non_finite != 0) {
    return quarantine(FrameFault::kNonFinite);
  }
  double max_row_power = 0.0;
  double total_power = 0.0;
  for (std::size_t m = 0; m < ants; ++m) {
    const double row = row_power_buf[m];
    total_power += row;
    if (row > max_row_power) max_row_power = row;
  }
  if (total_power <= 0.0) {
    return quarantine(FrameFault::kZeroEnergy);
  }

  // Sequence discipline. Only usable frames advance the reference, so a
  // quarantined frame surfaces as a gap on the next good one — from the
  // ring's point of view it *is* missing.
  if (have_sequence_) {
    if (packet.sequence == last_sequence_) {
      return quarantine(FrameFault::kDuplicateSequence);
    }
    if (packet.sequence < last_sequence_) {
      return quarantine(FrameFault::kReorderedSequence);
    }
    if (packet.sequence > last_sequence_ + 1) {
      report.gap =
          static_cast<std::size_t>(packet.sequence - last_sequence_ - 1);
      health_.missing += report.gap;
      flag(FrameFault::kSequenceGap);
      report.resync = report.gap > kMaxGapPackets;
    }
  }
  have_sequence_ = true;
  last_sequence_ = packet.sequence;

  // Dead RX chain: a row below kDeadAntennaRelPower x the strongest
  // chain's energy for N consecutive frames is declared dead; the same
  // streak of live frames revives it.
  constexpr double kDeadAntennaRelPower = 1e-6;
  for (std::size_t m = 0; m < ants; ++m) {
    const bool silent =
        row_power_buf[m] < kDeadAntennaRelPower * max_row_power;
    const std::uint32_t bit = 1u << m;
    AntennaStreak& streak = streaks_[m];
    if (silent) {
      streak.live = 0;
      if (streak.dead < kDeadAntennaPackets) ++streak.dead;
      if (streak.dead >= kDeadAntennaPackets &&
          (health_.dead_antenna_mask & bit) == 0) {
        health_.dead_antenna_mask |= bit;
        report.antenna_died = static_cast<int>(m);
      }
    } else {
      streak.dead = 0;
      if (streak.live < kDeadAntennaPackets) ++streak.live;
      if (streak.live >= kDeadAntennaPackets) {
        health_.dead_antenna_mask &= ~bit;
      }
    }
  }
  if (health_.dead_antenna_mask != 0) {
    flag(FrameFault::kDeadAntenna);
    report.verdict = FrameVerdict::kRepair;
  }

  // RSSI outlier (AGC jump): |rssi - EWMA mean| > kRssiOutlierSigma x the
  // EWMA standard deviation, evaluated after kRssiWarmupPackets frames.
  // The absolute floor under the sigma gate: deviations below
  // kRssiOutlierMinDb never flag, whatever the EWMA sigma says. Fading
  // RSSI is heavy-tailed and temporally correlated — a deep-fade excursion
  // of a few dB can run for several frames and would read as a burst of
  // outliers against a tight sigma estimate — while genuine AGC steps come
  // in half-dozen-dB quanta. The floor keeps the flag on gain steps and
  // off channel dynamics.
  constexpr double kRssiOutlierSigma = 6.0;
  constexpr double kRssiOutlierMinDb = 6.0;
  // The EWMA statistics (weight kRssiEwmaAlpha) update on every usable
  // frame, but a flagged outlier contributes a residual clamped to
  // kRssiOutlierClampSigma x sigma (a Huber-style robust update): folded
  // in at full weight, one 12 dB excursion inflates the variance so much
  // that the rest of an AGC burst sails under the sigma gate — the guard
  // would flag exactly one frame per burst, too few for the calibration
  // ladder's AGC fast re-baseline. With the clamp every frame of a short
  // burst is flagged, while a persistent gain step still converges: each
  // clamped update walks the mean toward the new level and widens sigma
  // (~alpha x clamp^2) until the step is in-family within a few tens of
  // frames, after which flagging stops.
  constexpr double kRssiOutlierClampSigma = 1.0;
  constexpr double kRssiEwmaAlpha = 0.05;
  bool rssi_outlier = false;
  double rssi_clamp = 0.0;
  if (rssi_seen_ >= kRssiWarmupPackets) {
    const double sigma = std::sqrt(std::max(rssi_var_, 1e-12));
    rssi_clamp = kRssiOutlierClampSigma * sigma;
    if (std::abs(packet.rssi_db - rssi_mean_) >
        std::max(kRssiOutlierSigma * sigma, kRssiOutlierMinDb)) {
      rssi_outlier = true;
      flag(FrameFault::kRssiOutlier);
      report.verdict = FrameVerdict::kRepair;
    }
  }
  if (rssi_seen_ == 0) {
    rssi_mean_ = packet.rssi_db;
    rssi_var_ = 0.0;
  } else {
    const double alpha = kRssiEwmaAlpha;
    double delta = packet.rssi_db - rssi_mean_;
    if (rssi_outlier) delta = std::clamp(delta, -rssi_clamp, rssi_clamp);
    rssi_mean_ += alpha * delta;
    rssi_var_ = (1.0 - alpha) * (rssi_var_ + alpha * delta * delta);
  }
  ++rssi_seen_;

  if (report.verdict == FrameVerdict::kRepair) {
    ++health_.repaired;
  } else {
    ++health_.accepted;
  }
  return report;
}

}  // namespace mulink::nic
