// Online Bayesian calibration with a drift-adaptive recalibration ladder.
//
// The paper's 92%/4.5% operating point assumes a fresh static profile s(0),
// but deployments drift for weeks: thermal gain ramps, furniture moves, AGC
// retrains. This subsystem is the engine's one profile-drift detector, and
// it acts on what it detects. Following the empirical-fading Bayesian
// calibration of Schmidhammer et al. (arXiv:2205.05331) with link-level fade
// statistics in the spirit of Yiğitler et al. (arXiv:1405.7237), each link
// maintains
//
//  * a posterior over the quiet-period window score — exponentially
//    forgotten Gaussian sufficient statistics (weight, mean, M2) in both the
//    linear and the log domain, seeded from the calibration empty scores.
//    Its predictive mean + sigma * std is the adaptive detection threshold,
//    and the log-domain statistics re-fit the HMM's empty emission on swap;
//  * a posterior over the quiet-period profile — per-(antenna, subcarrier)
//    forgetting-weighted mean power / amplitude / temporal variance, seeded
//    from the detector's active profile. Its means are the staged (shadow)
//    profile a swap installs.
//
// Both posteriors are updated online, ONLY from windows the HMM/detector
// classifies as confidently vacant (posterior at or below a bound) that the
// frame guard left untainted (no repaired frames in the hop, no degraded or
// dead-chain scoring, no resync straddling the window). Drift sensing and
// Recalibrating evidence additionally accept "plausibly vacant" clean
// windows whose score still sits at or below the active threshold: under
// real drift the stale HMM emission panics before the linear threshold is
// reached, and its panic is part of the drift signal, not a reason to
// starve the ladder.
//
// The LinkCalibrator drives the recalibration ladder
//
//   Healthy -> DriftSuspected -> Recalibrating -> Degraded -> Frozen
//
// and owns LinkHealth::profile_drift: a persistent quiet-score EWMA excursion
// toward the threshold suspects drift, confirmation switches the posteriors
// to a fast forgetting factor and collects quiet evidence, and the swap
// installs the staged profile, threshold and HMM emission in place — double
// buffered between windows, the stream never drops a packet and the hot
// path never allocates (the posterior buffers are preallocated; the swap
// itself is the cold path). A confirmed AGC step re-baselines through the
// same Recalibrating state without waiting out drift confirmation. Repeated
// failed recalibrations degrade and finally freeze the ladder; only Reset
// re-arms a frozen link. State is surfaced through nic::LinkHealth, the
// MULINK_OBS_* counters/gauges, and the CLI / intrusion monitor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "core/detector.h"
#include "nic/frame_guard.h"
#include "obs/metrics.h"

namespace mulink::core {

// Ladder states live in nic (next to LinkHealth) so health snapshots can
// carry and name them without a core dependency; the machine lives here.
using LadderState = nic::CalibrationLadder;

// The ladder's tunable knobs; its fixed clocks and budgets are the
// LinkCalibrator constants.
struct CalibrationConfig {
  // Master switch. Off: the LinkCalibrator is inert and the link reports no
  // profile drift (LinkHealth::profile_drift stays false).
  bool enabled = false;

  // Quiet-evidence gate: a clean decision with posterior at or below this
  // bound counts as a confidently vacant window.
  double quiet_posterior_max = 0.1;

  // Drift detection: a fast EWMA of quiet-window scores (seeded at the
  // posterior mean) persistently above the drift reference for
  // drift_confirm_windows consecutive quiet windows moves Healthy ->
  // DriftSuspected; the same persistence again confirms and moves
  // DriftSuspected -> Recalibrating. The same count of calm quiet windows
  // walks DriftSuspected back to Healthy. The reference is the MORE
  // sensitive of two levels: drift_score_fraction x the active threshold,
  // and the quiet level anchored at the last (re)calibration shifted by a
  // fixed number of LOG-sigmas (see ObserveDecision).
  double drift_ewma_alpha = 0.1;
  double drift_score_fraction = 0.9;
  std::size_t drift_confirm_windows = 4;

  // Quiet windows of fast-forgetting evidence collected in Recalibrating
  // before the staged profile/threshold swap is applied.
  std::size_t recalibration_quiet_windows = 8;
  // Quiet windows without a drift signal after a swap that count as healed
  // (resets the consecutive-swap and degraded-entry budgets). The same
  // span doubles as the post-swap PROBATION period: the swap re-anchored
  // the posterior (and the HMM emission re-fit from it) on a staged
  // estimate that is biased in-sample, so for heal_windows decisions the
  // posteriors keep learning from plausibly vacant windows under the
  // Recalibrating-style gate instead of HMM-confident ones — if the
  // estimate landed off, the filter's own saturated posterior could never
  // clear the strict gate to correct it. The drift trigger stands down for
  // the same span and re-anchors on the converged posterior when probation
  // ends, so residual rebase error does not read as fresh drift.
  std::size_t heal_windows = 16;
};

// Exponentially forgotten Gaussian sufficient statistics (weight, mean, M2)
// over quiet-window scores, in the linear and the log domain. The linear
// predictive mean/std set the adaptive threshold; the log statistics re-fit
// the HMM empty emission. Seed() snapshots the prior so Reset() restores
// the just-calibrated state.
class QuietScorePosterior {
 public:
  // Fit the prior from calibration empty-window scores (may be empty: the
  // posterior then starts uninformative and the first observations set it).
  void Seed(std::span<const double> empty_scores);

  // Fold one quiet-window score in with the given forgetting factor.
  void Observe(double score, double forgetting);

  // Effective number of windows behind the current estimate.
  double EffectiveWindows() const { return weight_; }
  double Mean() const { return mean_; }
  double Variance() const { return weight_ > 0.0 ? m2_ / weight_ : 0.0; }
  double StdDev() const;
  // Adaptive detection threshold: mean + sigma * predictive std.
  double Threshold(double sigma) const { return mean_ + sigma * StdDev(); }

  double LogMean() const { return log_mean_; }
  // Predictive log-std with the same floor PresenceHmm's fit applies.
  double LogSigma() const;
  // Quiet-score mean of the seeded prior (the calibration-time level).
  double SeedMean() const { return seed_mean_; }

  // Cap the effective evidence behind the current estimate (the estimate
  // itself is unchanged; the spread per window is preserved). Called at a
  // detected change point so fresh evidence dominates the stale history.
  void Deweight(double max_weight);

  // Back to the seeded prior.
  void Reset();

  // Re-anchor to the seeded prior's SHAPE at a new quiet level: a profile
  // swap changes the scale every past score was measured on, so the linear
  // statistics are restored scaled by new_mean/seed_mean (mean, std and the
  // log-domain location all move together; the log spread is scale-free and
  // keeps the seed's value). No-op unless both means are positive.
  void ReseedScaled(double new_mean);

 private:
  double weight_ = 0.0, mean_ = 0.0, m2_ = 0.0;
  double log_weight_ = 0.0, log_mean_ = 0.0, log_m2_ = 0.0;
  // Snapshot taken by Seed() for Reset().
  double seed_weight_ = 0.0, seed_mean_ = 0.0, seed_m2_ = 0.0;
  double seed_log_weight_ = 0.0, seed_log_mean_ = 0.0, seed_log_m2_ = 0.0;
};

// Per-(antenna, subcarrier) forgetting-weighted mean power, mean amplitude
// and mean within-window temporal variance over quiet windows — the staged
// profile a recalibration swap installs. Diagonal (per-cell) covariance:
// the cross terms the combined scheme needs live in the retained rows it
// re-derives its pseudospectrum from, not here. All buffers are sized once
// by Configure; Observe is allocation-free.
class ProfilePosterior {
 public:
  // Allocate the flattened [antenna][subcarrier] buffers.
  void Configure(std::size_t num_antennas, std::size_t num_subcarriers);

  // Take the detector's active profile as the prior (with unit weight), so
  // the first swaps blend rather than replace. Also the posterior's reset:
  // whatever was observed since is discarded.
  void SeedFrom(const Detector& detector);

  // Fold one quiet window in, given as its window-order power plane
  // (FillPowerPlane of slabs in the detector's input state: sanitized for
  // every scheme but the baseline). Each cell accumulates its column in
  // window order. Allocation-free.
  void Observe(std::span<const double> power_plane, double forgetting);

  double EffectiveWindows() const { return weight_; }
  double MeanPower(std::size_t m, std::size_t k) const {
    return mean_power_[m * num_subcarriers_ + k];
  }
  double MeanAmplitude(std::size_t m, std::size_t k) const {
    return mean_amplitude_[m * num_subcarriers_ + k];
  }
  double MeanVariance(std::size_t m, std::size_t k) const {
    return mean_variance_[m * num_subcarriers_ + k];
  }
  std::span<const double> power() const { return mean_power_; }
  std::span<const double> amplitude() const { return mean_amplitude_; }
  std::span<const double> variance() const { return mean_variance_; }

  // Cap the effective evidence behind the current means (see
  // QuietScorePosterior::Deweight): at a change point the stale profile
  // history must not outweigh the windows collected while Recalibrating.
  void Deweight(double max_weight);

 private:
  std::size_t num_antennas_ = 0;
  std::size_t num_subcarriers_ = 0;
  double weight_ = 0.0;
  std::vector<double> mean_power_;
  std::vector<double> mean_amplitude_;
  std::vector<double> mean_variance_;
};

// One decision's worth of context the ladder needs from the ingest path.
struct CalibrationWindowContext {
  // Decision used the degraded (dead-chain fallback) statistic.
  bool degraded = false;
  // Repaired (flagged-but-usable) frames entered the ring this hop — the
  // window is tainted and must not feed the posteriors.
  std::size_t repaired_frames = 0;
  // Repaired frames carrying the RSSI-outlier (AGC) fault this hop.
  std::size_t agc_frames = 0;
};

// Per-link calibration state: both posteriors, the staged quiet-packet ring
// for the angular refresh, and the recalibration ladder. Owned by
// SensingEngine's LinkState and driven once per decision with the window
// the decision scored.
class LinkCalibrator {
 public:
  // Quiet packets (their CSI in the detector's input state, copied from the
  // window's slabs) staged while Recalibrating. A swap scores them against
  // the FRESHLY installed profile to re-anchor the posterior and threshold
  // on the new operating point (the pre-swap scores were measured against
  // the old profile and carry its scale), and — combined scheme only —
  // feeds them to the angular-profile refresh. Cold-path cost.
  static constexpr std::size_t kStagedQuietPackets = 32;

  // Forgetting factor per quiet window for both posteriors in steady state
  // (effective memory ~ 1/(1 - kForgetting) windows); Recalibrating uses a
  // fixed fast factor instead (see ObserveDecision).
  static constexpr double kForgetting = 0.98;
  // Decisions (quiet or not) Recalibrating may spend before giving up —
  // a room that never looks vacant cannot be recalibrated from.
  static constexpr std::size_t kRecalibrationTimeoutWindows = 240;
  // Evidence-starvation fallback: when Recalibrating has run this many
  // decisions with NOTHING collected, the evidence gate falls back to a
  // band above the classification-free ambient EWMA. A large step change
  // can move the vacant room past every threshold-derived gate, and the
  // staged gate can only expand through windows it admits — without the
  // fallback such a room deadlocks the ladder into Degraded/Frozen. Once
  // open, the band stays open for the rest of the attempt: the staged gate
  // is capped at twice the stale threshold, so past that cap the first
  // admitted window would otherwise also be the last.
  static constexpr std::size_t kStarvationWindows = 16;
  // Blackout escape: consecutive untainted windows ABOVE the plausible-
  // vacancy gate before the ladder concludes the room has moved beyond
  // every gate it owns and jumps to Recalibrating (whose starvation
  // fallback can bootstrap from the ambient EWMA). It fires from Healthy
  // and DriftSuspected — every other path to Recalibrating consumes
  // plausibly vacant windows, so a step change past twice the stale
  // threshold would otherwise leave the ladder idling while the filter
  // flags the whole stream — and from Degraded, where it cuts the retry
  // backoff short: a step change that lands during the backoff would
  // otherwise charge false positives for the full kDegradedBackoffWindows
  // span. Must comfortably exceed a typical occupancy episode — an
  // occupant produces the same signature until they leave. A blackout-
  // triggered (or Degraded-retry) entry into Recalibrating starts with the
  // starvation clock already expired: the streak itself proved that no
  // classification-derived gate admits evidence, so the ambient band opens
  // immediately.
  static constexpr std::size_t kBlackoutWindows = 24;
  // Swap attempts without an intervening healed period before the ladder
  // declares the link Degraded. A Degraded link retries after
  // kDegradedBackoffWindows decisions (or as soon as the blackout escape
  // above fires), entering Recalibrating with the ambient-EWMA starvation
  // fallback armed from the first window: after a step change the vacant
  // room can sit far above every threshold-derived gate, and a retry that
  // re-ran the starvation probe would starve on the very evidence it
  // needs — the ladder would freeze on a room that is merely louder now.
  // Once Degraded has been entered kMaxDegradedEntries times the ladder
  // freezes; only Reset re-arms it.
  static constexpr std::size_t kMaxConsecutiveSwaps = 3;
  static constexpr std::size_t kDegradedBackoffWindows = 32;
  static constexpr std::size_t kMaxDegradedEntries = 3;
  // AGC fast re-baseline: when at least kAgcFramesMin repaired RSSI-outlier
  // frames land in one hop, jump straight to Recalibrating with the fast
  // forgetting factor instead of waiting out drift confirmation (a
  // confirmed gain step obsoletes the profile at once).
  static constexpr std::size_t kAgcFramesMin = 6;

  // The blackout escape can only cut the Degraded backoff short if it
  // fires first, and the ambient fallback only helps an attempt that has
  // not yet timed out.
  static_assert(kBlackoutWindows < kDegradedBackoffWindows);
  static_assert(kStarvationWindows < kRecalibrationTimeoutWindows);

  LinkCalibrator() = default;

  // Wire the calibrator to a link at AddLink time. Allocates every buffer
  // the steady state needs; inert when config.enabled is false.
  void Configure(const Detector& detector,
                 std::span<const double> empty_scores,
                 const CalibrationConfig& config);

  bool enabled() const { return config_.enabled; }

  // Observe one emitted decision (clean or degraded) and run the ladder.
  // `score`/`posterior` are the decision's statistic and P(occupied). The
  // scored window comes as its slabs (`csi_slabs`, one per packet in
  // Detector::PreparedWindowFactors' layout): the profile posterior folds
  // the window's power plane, and staging copies a few packets' CSI rows.
  // `detector` is mutated in place when a swap fires, and the swap borrows
  // `scratch` — the link's scoring workspace, idle between windows — for
  // the power plane, the angular refresh and rescoring the staged packets
  // (in its slot block, so the slabs must not live there). Returns true
  // when a profile/threshold swap was applied this decision — the caller
  // must then re-fit its HMM empty emission from quiet_log_mean/sigma().
  bool ObserveDecision(double score, double posterior,
                       std::span<const double* const> csi_slabs,
                       Detector& detector, DetectorScratch& scratch,
                       const CalibrationWindowContext& context);

  LadderState state() const { return state_; }
  // The link's profile-drift flag (LinkHealth::profile_drift): set from
  // DriftSuspected on, cleared by a successful swap or a walk-back.
  bool drift_flagged() const {
    return state_ != LadderState::kHealthy;
  }
  std::uint64_t quiet_windows() const { return quiet_windows_; }
  std::uint64_t profile_swaps() const { return profile_swaps_; }
  std::uint64_t agc_rebaselines() const { return agc_rebaselines_; }
  // Active threshold after the last swap (0 before any swap).
  double adaptive_threshold() const { return adaptive_threshold_; }
  double quiet_score_ewma() const { return score_ewma_; }
  double quiet_log_mean() const { return score_posterior_.LogMean(); }
  double quiet_log_sigma() const { return score_posterior_.LogSigma(); }
  const QuietScorePosterior& score_posterior() const {
    return score_posterior_;
  }
  const ProfilePosterior& profile_posterior() const {
    return profile_posterior_;
  }
  const CalibrationConfig& config() const { return config_; }

  // Fill the calibration fields of a health snapshot.
  void FillHealth(nic::LinkHealth& health) const;

  // Back to the just-configured state: the ladder returns to Healthy (the
  // frozen state does NOT survive a Reset, by design — an operator reset is
  // the explicit re-arm), the score posterior returns to its calibration
  // prior, and the profile posterior re-seeds from the detector's CURRENT
  // profile (swaps are not undone; there is no shadow of the original).
  void Reset(const Detector& detector);

  // Observability shard of the owning link (null = no-op sink), re-pointed
  // by the owning link every push.
  obs::Registry* metrics = nullptr;

 private:
  // A confirmed AGC step this decision re-baselines through Recalibrating.
  bool AgcRebaselineDue(const CalibrationWindowContext& context) const;
  void TransitionTo(LadderState next);
  // Back to Healthy with every ladder streak, clock, budget and counter at
  // zero (Configure and Reset).
  void ClearLadder() MULINK_REQUIRES(owner_role_);
  // Restart the drift EWMA at the score posterior's mean and anchor the
  // drift reference on its log statistics.
  void AnchorDrift();
  void EnterRecalibrating() MULINK_REQUIRES(owner_role_);
  // Count one more Degraded entry and restart the backoff: Degraded, or
  // Frozen on the kMaxDegradedEntries-th entry (only Reset re-arms it).
  void Degrade();
  // Install the staged profile, threshold and angular refresh in place.
  void ApplySwap(Detector& detector, DetectorScratch& scratch)
      MULINK_REQUIRES(owner_role_);
  void StageQuietPackets(std::span<const double* const> csi_slabs)
      MULINK_REQUIRES(owner_role_);

  CalibrationConfig config_;
  bool refresh_angular_ = false;  // combined scheme with a usable ULA
  LadderState state_ = LadderState::kHealthy;
  // threshold / quiet-score-mean at Configure time: the calibrated margin a
  // swap re-applies relative to the rebased quiet level.
  double baseline_threshold_ratio_ = 0.0;
  // Single-owner capability for the double-buffered swap state below: a
  // link's calibrator is driven by exactly one thread (the link's streaming
  // detector, an engine worker, or a serving shard). The public entry
  // points (Configure, ObserveDecision, Reset) acquire the role for their
  // scope; the swap internals REQUIRE it, so under Clang -Wthread-safety
  // nothing can reach the staged ring or the in-place swap from outside a
  // driving entry point (DESIGN.md §16).
  ThreadRole owner_role_;

  QuietScorePosterior score_posterior_;
  ProfilePosterior profile_posterior_;

  // Fast drift EWMA over quiet-window scores, seeded at the posterior mean.
  double score_ewma_ = 0.0;
  // EWMA over every untainted window's score, occupied or not — the
  // classification-free ambient level behind the starvation fallback.
  double ambient_ewma_ = 0.0;
  // Quiet-score log statistics installed by the last (re)calibration — the
  // FIXED reference the drift trigger compares the EWMA against. The live
  // posterior cannot serve here: in steady state it keeps learning the very
  // drift the trigger is meant to detect and the reference would chase the
  // EWMA until the HMM panics first.
  double drift_log_anchor_ = 0.0;
  double drift_log_sigma_ = 0.0;
  std::size_t drift_streak_ = 0;  // consecutive drifting quiet windows
  std::size_t calm_streak_ = 0;   // consecutive calm quiet windows
  // Consecutive untainted windows above the plausible gate (blackout).
  std::size_t blackout_streak_ = 0;
  // The current Recalibrating attempt starved and opened the ambient-EWMA
  // band; it stays open for the rest of the attempt (the staged gate is
  // capped at twice the stale threshold, so after a large step change the
  // first fallback-admitted window would otherwise also be the last).
  bool ambient_fallback_ = false;

  // Recalibrating progress.
  std::size_t recal_collected_ = 0;
  std::size_t recal_elapsed_ = 0;

  // Degraded backoff / escalation.
  std::size_t degraded_elapsed_ = 0;
  std::size_t degraded_entries_ = 0;
  std::size_t consecutive_swaps_ = 0;
  std::size_t healed_streak_ = 0;
  // Decisions since the last applied swap (swap-to-swap spacing): swaps far
  // enough apart are independent re-anchors, not chasing (see ApplySwap).
  std::size_t windows_since_swap_ = 0;
  // Post-swap probation countdown (see CalibrationConfig::heal_windows).
  std::size_t probation_left_ = 0;

  // Staged quiet packets for the post-swap re-anchor and angular refresh —
  // the shadow half of the double-buffered swap (the live half is the
  // detector profile ApplySwap overwrites in place). One contiguous block
  // of kStagedQuietPackets split CSI rows (staged_stride_ = 2 * antennas *
  // subcarriers doubles each), sized by Configure; staging copies into it.
  std::vector<double> staged_ MULINK_GUARDED_BY(owner_role_);
  std::size_t staged_stride_ = 0;
  std::size_t staged_write_ MULINK_GUARDED_BY(owner_role_) = 0;
  std::size_t staged_count_ MULINK_GUARDED_BY(owner_role_) = 0;

  std::uint64_t quiet_windows_ = 0;
  std::uint64_t profile_swaps_ = 0;
  std::uint64_t agc_rebaselines_ = 0;
  double adaptive_threshold_ = 0.0;
};

}  // namespace mulink::core
