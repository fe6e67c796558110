// Fault-tolerant CSI ingest: per-link frame validation with a typed fault
// taxonomy.
//
// Real commodity-NIC traces are riddled with firmware glitches — dropped,
// reordered and duplicated frames, garbage subcarriers (NaN/Inf after the
// driver's fixed-point unpacking), silently dead RX chains, and AGC-induced
// RSSI jumps. The detection pipeline downstream (Detector, SensingEngine)
// assumes clean input: one NaN subcarrier poisons the window score, the
// Eq. 15 weights, and the MUSIC pseudospectrum at once.
//
// A FrameGuard sits between the NIC and the ring buffer. Every CsiPacket is
// classified into one of three verdicts:
//   * accept     — clean frame, enters the window ring untouched.
//   * repair     — usable but flagged (dead RX chain, RSSI outlier): the
//                  frame enters the ring and downstream consumers degrade
//                  (e.g. fall back to subcarrier-only weighting, which does
//                  not need the full ULA).
//   * quarantine — unusable (non-finite CSI, zero energy, duplicate or
//                  late sequence, wrong shape): the frame must not enter
//                  the ring. Sequence gaps created this way are tracked.
// Per-link fault counters are exposed through LinkHealth, which the engine
// augments with its degradation state and surfaces through the CLI and
// examples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "wifi/csi.h"

namespace mulink::nic {

// Fault taxonomy (bitmask: one frame can carry several faults at once).
enum class FrameFault : std::uint32_t {
  kNone = 0,
  kNonFinite = 1u << 0,      // NaN/Inf in the CSI matrix or metadata
  kZeroEnergy = 1u << 1,     // whole frame carries no power
  kDeadAntenna = 1u << 2,    // one RX chain silent while the others are live
  kDuplicateSequence = 1u << 3,
  kReorderedSequence = 1u << 4,  // arrived after a newer frame
  kSequenceGap = 1u << 5,        // one or more frames lost before this one
  kRssiOutlier = 1u << 6,        // AGC jump: RSSI far off its running mean
  kShapeMismatch = 1u << 7,      // antenna/subcarrier count changed mid-link
};

inline constexpr std::size_t kNumFrameFaults = 8;

constexpr std::uint32_t FaultBit(FrameFault fault) {
  return static_cast<std::uint32_t>(fault);
}

const char* ToString(FrameFault fault);

enum class FrameVerdict { kAccept, kRepair, kQuarantine };

const char* ToString(FrameVerdict verdict);

struct FrameGuardConfig {
  // Frame shape every packet must match; 0 locks onto the first frame seen.
  std::size_t expected_antennas = 0;
  std::size_t expected_subcarriers = 0;
};

// Classification of one frame.
struct FrameReport {
  FrameVerdict verdict = FrameVerdict::kAccept;
  std::uint32_t faults = 0;  // FrameFault bitmask
  // Frames lost between the previous accepted frame and this one.
  std::size_t gap = 0;
  // The gap exceeded FrameGuard::kMaxGapPackets: buffered windows are stale.
  bool resync = false;
  // RX chain newly confirmed dead by this frame (-1 otherwise).
  int antenna_died = -1;

  bool Has(FrameFault fault) const { return (faults & FaultBit(fault)) != 0; }
};

// Adaptive-calibration ladder state. The state machine itself lives in
// core/calibration (which depends on this layer, not the reverse); the enum
// is declared here so LinkHealth snapshots and the obs exporters can carry
// and name the state without a core dependency.
enum class CalibrationLadder : std::uint8_t {
  kHealthy = 0,         // profile matches quiet air; posterior learns slowly
  kDriftSuspected = 1,  // quiet-score EWMA persistently near the threshold
  kRecalibrating = 2,   // collecting quiet evidence for an in-place swap
  kDegraded = 3,        // repeated recalibrations failed; retrying on backoff
  kFrozen = 4,          // gave up; only an explicit Reset re-arms the ladder
};

const char* ToString(CalibrationLadder state);

// Per-link ingest health. The guard fills the counters; SensingEngine fills
// the degradation fields before handing the report to callers.
struct LinkHealth {
  std::uint64_t received = 0;
  std::uint64_t accepted = 0;
  std::uint64_t repaired = 0;
  std::uint64_t quarantined = 0;
  // Frames lost to sequence gaps (never seen at all).
  std::uint64_t missing = 0;
  // Per-fault occurrence counts, indexed by the bit position of FrameFault.
  std::uint64_t fault_counts[kNumFrameFaults] = {};
  // Currently-dead RX chains (bit m = antenna m).
  std::uint32_t dead_antenna_mask = 0;

  // Filled by the sensing layer:
  bool degraded = false;         // last decision used the fallback statistic
  std::uint64_t degraded_decisions = 0;

  // Filled by the adaptive-calibration ladder (core/calibration), the one
  // profile-drift detector; all at their zero values when adaptive
  // calibration is off.
  bool profile_drift = false;    // s(0) no longer matches empty air
  double empty_score_ewma = 0.0; // the ladder's quiet-score drift EWMA
  CalibrationLadder calibration_state = CalibrationLadder::kHealthy;
  std::uint64_t quiet_windows = 0;   // windows accepted as quiet evidence
  std::uint64_t profile_swaps = 0;   // in-place recalibrations applied
  double adaptive_threshold = 0.0;   // active threshold (0 before any swap)

  std::uint64_t FaultCount(FrameFault fault) const;
};

enum class LinkStatus { kHealthy, kDegraded, kCritical };

const char* ToString(LinkStatus status);

// Summary verdict over a LinkHealth snapshot: critical when most frames are
// unusable or every chain is dead, degraded when a chain died, the profile
// drifted, or fallback scoring is active.
LinkStatus Status(const LinkHealth& health);

// True when the frame's timestamp, RSSI and every CSI component are finite
// (the guard's non-finite test, for links that run without a guard). One
// branch-free pass.
bool IsFinite(const wifi::CsiPacket& packet);

class FrameGuard {
 public:
  // An antenna whose per-frame energy stays far below the strongest
  // chain's for kDeadAntennaPackets consecutive frames is declared dead;
  // the same count of live frames revives it.
  static constexpr std::size_t kDeadAntennaPackets = 10;
  // RSSI outlier (AGC jump) detection against an EWMA of the link's RSSI
  // starts after kRssiWarmupPackets frames (see Inspect).
  static constexpr std::size_t kRssiWarmupPackets = 20;
  // A sequence gap larger than this asks downstream consumers to flush
  // their window ring: the buffered context predates the outage.
  static constexpr std::size_t kMaxGapPackets = 50;

  // Consecutive silent (dead) and live frames of one RX chain.
  struct AntennaStreak {
    std::uint32_t dead = 0;
    std::uint32_t live = 0;
  };

  explicit FrameGuard(FrameGuardConfig config = {});

  // Classify one frame and update the health counters. Does not modify the
  // frame; callers act on the verdict (quarantined frames must not reach
  // the window ring).
  FrameReport Inspect(const wifi::CsiPacket& packet);

  const LinkHealth& health() const { return health_; }
  std::uint32_t dead_antenna_mask() const { return health_.dead_antenna_mask; }
  const FrameGuardConfig& config() const { return config_; }
  // Per-antenna streaks, updated by every usable frame (a serving loop
  // prefetches them ahead of the frame).
  std::span<const AntennaStreak> streaks() const { return streaks_; }

  // Forget sequence/RSSI/dead-chain state and zero the counters (matches a
  // link Reset; the locked frame shape is kept).
  void Reset();

 private:
  FrameGuardConfig config_;
  LinkHealth health_;

  std::size_t locked_antennas_ = 0;
  std::size_t locked_subcarriers_ = 0;

  bool have_sequence_ = false;
  std::uint64_t last_sequence_ = 0;

  double rssi_mean_ = 0.0;
  double rssi_var_ = 0.0;
  std::uint64_t rssi_seen_ = 0;

  std::vector<AntennaStreak> streaks_;
};

}  // namespace mulink::nic
