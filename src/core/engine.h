// Batch-oriented sensing engine: the workspace-owning composition root of
// the ingest-to-decision hot path.
//
// One SensingEngine owns one LinkState per monitored link; it is the only
// per-link pipeline. A LinkState keeps everything the link needs between
// batches — the calibrated Detector (static profile, Eq. 15/17 weights,
// threshold), the frame guard, the window ring of ingest slots, the HMM
// state, the degraded-mode state, the calibration ladder (the one owner of
// profile-drift detection) and every scratch buffer of the scoring
// pipeline — so, once warm, ProcessBatch turns CSI packets into decisions
// without heap allocations.
//
// One window form: each packet goes through the detector's per-packet
// ingest map (Detector::PrepareSlot) once, straight into its ring slot, and
// every decision — clean or degraded, any scheme — scores the ring's slots
// through Detector::ScorePrepared. The calibration ladder learns from and
// stages those slots too; no packet is rebuilt on the decision path.
//
// Fleet mode (src/serve): links that share a channel configuration can be
// registered against one immutable shared Detector (AddLink shared_ptr
// overload) and score through one engine-owned shared scratch
// (UseSharedScratch), so per-link memory shrinks to the slab ring (~46 KB
// at 3x30, window 25) and every link of a profile reads that detector's one
// covariance stack. Shared-detector links cannot run adaptive calibration
// (the ladder mutates the detector in place); register an owned copy.
//
// A link's decisions do not depend on how its stream is chopped into
// ProcessBatch/ProcessPacket calls, and every decision's score is bit-
// identical to the offline Detector::Score (ScoreDegraded while a chain is
// dead) of the raw window the link buffered (see core_engine_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "core/calibration/calibration.h"
#include "core/detector.h"
#include "core/hmm.h"
#include "nic/frame_guard.h"
#include "obs/metrics.h"

namespace mulink::core {

// Per-link parameters of the engine's ingest-to-decision pipeline.
struct StreamingConfig {
  // Window length scored per decision and the hop between decisions
  // (hop == window -> non-overlapping decisions, the paper's cadence).
  std::size_t window_packets = 25;
  std::size_t hop_packets = 25;

  // Smooth scores with the two-state presence HMM (Sec. V-B1's suggestion);
  // when off, decisions fall back to the detector's raw threshold.
  bool use_hmm = true;
  HmmConfig hmm;
  // Posterior above which the room is declared occupied (HMM mode).
  double decision_probability = 0.5;

  // Frame validation (nic::FrameGuard) in front of the ring. Quarantined
  // frames never reach a window; repairable frames are ingested with their
  // faults counted; a sequence gap wider than the guard's resync limit
  // flushes the ring (the buffered packets and the new one no longer form a
  // contiguous window). A frame shape left at 0 in `guard` is taken from
  // the link's detector, so a mis-shaped frame is quarantined as
  // kShapeMismatch instead of locking the guard onto its shape. Off by
  // default — guarded ingest of a clean stream is bit-identical to
  // unguarded ingest. While the guard holds an RX chain dead, the link
  // keeps deciding on the surviving antennas (see PresenceDecision::
  // degraded); only an all-dead array pauses decisions.
  bool guard_enabled = false;
  nic::FrameGuardConfig guard;

  // Online Bayesian calibration (core/calibration): per-link posteriors
  // over the quiet profile and threshold plus the recalibration ladder
  // Healthy -> DriftSuspected -> Recalibrating -> Degraded -> Frozen. The
  // ladder is the only profile-drift detector: it owns
  // LinkHealth::profile_drift and empty_score_ewma (and can clear the flag
  // by recalibrating in place). Off by default, and with it off both stay
  // false / 0.
  CalibrationConfig calibration;
};

struct PresenceDecision {
  double timestamp_s = 0.0;   // timestamp of the newest packet in the window
  double score = 0.0;         // raw detector statistic
  double posterior = 0.0;     // P(occupied); equals score>threshold when !use_hmm
  bool occupied = false;
  // Decided on the degraded (dead-chain fallback) statistic against the
  // fallback threshold; posterior is the hard 0/1 of that comparison.
  // Detector::ScoreDegraded scores the surviving antennas (the combined
  // scheme falls back to subcarrier-only weighting; MUSIC needs the full
  // array). Degraded decisions bypass the HMM — its emission model was
  // fitted to the primary statistic — and the filter resumes, state intact,
  // when the chain revives.
  bool degraded = false;
};

// Decisions produced by one ProcessBatch call. The vector is a reused
// member buffer — its contents are valid until the next ProcessBatch/Reset
// on the same link.
struct BatchResult {
  std::vector<PresenceDecision> decisions;
  // Belief after the batch (unchanged if no window completed).
  bool occupied = false;
  double posterior = 0.0;
};

class SensingEngine {
 public:
  SensingEngine();
  ~SensingEngine();

  // Engines are move-only: LinkStates hold scratch and HMM filter state
  // that must not be duplicated silently. (Defined out of line — LinkState
  // is incomplete here.)
  SensingEngine(SensingEngine&&) noexcept;
  SensingEngine& operator=(SensingEngine&&) noexcept;

  // Register a calibrated link. `detector` must have its threshold set;
  // `empty_scores` fit the HMM emission model when config.use_hmm is on.
  // Returns the link index used by the per-link calls below (freed slots
  // from RemoveLink are reused before new ones are appended).
  std::size_t AddLink(Detector detector,
                      const std::vector<double>& empty_scores,
                      StreamingConfig config = {});

  // Fleet-mode registration: many links share one immutable calibrated
  // detector (one channel config group). Requires
  // !config.calibration.enabled — the recalibration ladder mutates the
  // detector in place, which a shared profile must never see.
  std::size_t AddLink(std::shared_ptr<const Detector> detector,
                      const std::vector<double>& empty_scores,
                      StreamingConfig config = {});

  // Drop one link entirely (serving-tier eviction). Its slot index is
  // recycled by the next AddLink; every other link keeps its index. The
  // slot is invalid until then — per-link calls on it are precondition
  // errors.
  void RemoveLink(std::size_t link);
  bool LinkActive(std::size_t link) const;

  // Total slots ever created (including freed ones awaiting reuse) and the
  // number currently active.
  std::size_t NumLinks() const { return links_.size(); }
  std::size_t NumActiveLinks() const { return active_links_; }

  // Route every link's scoring through one engine-owned scratch workspace
  // instead of per-link scratch. Serving shards use this: resident links
  // share one warm workspace whatever profiles they score against (the
  // scratch holds no profile state; each detector carries its own profile
  // covariance stack), which AddLink warms for the largest shape, window
  // and ladder swap registered so far. Must precede the first AddLink.
  void UseSharedScratch();

  // Ingest a batch of packets for one link. Every completed window (aligned
  // to the configured hop) contributes one decision. The returned reference
  // stays valid until the next ProcessBatch/Reset on this link.
  const BatchResult& ProcessBatch(std::size_t link,
                                  std::span<const wifi::CsiPacket> packets);

  // Single-link convenience (requires exactly one registered link).
  const BatchResult& ProcessBatch(std::span<const wifi::CsiPacket> packets);

  // Packet-at-a-time ingest for serving loops: identical semantics to
  // ProcessBatch over a one-packet span, without touching the BatchResult
  // buffer. Returns a decision when this packet completed a window.
  MULINK_HOT std::optional<PresenceDecision> ProcessPacket(
      std::size_t link, const wifi::CsiPacket& packet);

  // Cache hint for serving loops that know which links their next frames
  // belong to. kState starts loading the link's hot state (the fields,
  // guard and metrics counters an ingest-only frame touches); kSlot, issued
  // once those have arrived, the ring slot and metadata the next frame will
  // be written to and the guard's streak counters. Never changes a value;
  // a removed or out-of-range slot is ignored.
  enum class PrefetchStage : std::uint8_t { kState, kSlot };
  MULINK_HOT void PrefetchLink(std::size_t link, PrefetchStage stage) const;

  // Current belief per link (unoccupied before the first window).
  bool occupied(std::size_t link) const;
  double posterior(std::size_t link) const;

  // Link health snapshot: frame-guard fault counters, dead-antenna mask,
  // degraded-mode and calibration-ladder state (the ladder's drift flag
  // and quiet-score EWMA included). All-zero when the link's guard and
  // adaptive calibration are disabled.
  nic::LinkHealth Health(std::size_t link) const;

  // Adaptive-calibration state for one link (inert when the link's
  // config.calibration.enabled is false).
  const LinkCalibrator& Calibrator(std::size_t link) const;

  // Observability. Each link records into its own Registry shard (ingest
  // and decision counters, per-stage latency histograms, profile-stack
  // hits and swap-time rebuilds); AggregateMetrics merges the shards in link order, so the
  // totals are deterministic for a fixed ingest sequence. Enabled by
  // default; disabling detaches every link's shard (runtime no-op sink)
  // without clearing what was recorded. Decisions are bit-identical with
  // metrics on, off, or compiled out (-DMULINK_OBS=OFF).
  void SetMetricsEnabled(bool enabled) { metrics_enabled_ = enabled; }
  bool metrics_enabled() const { return metrics_enabled_; }
  const obs::Registry& Metrics(std::size_t link) const;
  obs::Registry AggregateMetrics() const;

  const Detector& detector(std::size_t link) const;
  const StreamingConfig& config(std::size_t link) const;

  // Drop buffered packets and temporal state; keeps all warm buffers.
  void Reset(std::size_t link);
  void ResetAll();

 private:
  // All per-link persistent state. Held behind unique_ptr because the HMM
  // filter stores a reference to its PresenceHmm — LinkState addresses must
  // survive links_ growth.
  struct LinkState;

  std::size_t InstallLink(std::unique_ptr<LinkState> state);
  void WarmSharedScratch(const LinkState& link);

  LinkState& Link(std::size_t link);
  const LinkState& Link(std::size_t link) const;

  std::vector<std::unique_ptr<LinkState>> links_;
  std::vector<std::size_t> free_slots_;
  std::size_t active_links_ = 0;
  // Engine-owned workspace shared by every link when UseSharedScratch() was
  // called (null otherwise; links then own their scratch).
  std::unique_ptr<DetectorScratch> shared_scratch_;
  // Whether a ladder swap was rehearsed on the shared scratch (AddLink), and
  // the schemes (bit = DetectionScheme) whose first decision was, since the
  // scratch last grew.
  bool swap_warmed_ = false;
  std::uint32_t rehearsed_schemes_ = 0;
  bool metrics_enabled_ = true;
};

}  // namespace mulink::core
