#include "core/calibration/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "kernels/kernels.h"

namespace mulink::core {

namespace {

// Floors shared with PresenceHmm's log-Gaussian fit, so an emission re-fit
// from the posterior behaves like a fresh fit on the same data.
constexpr double kScoreFloor = 1e-12;
constexpr double kLogSigmaFloor = 0.05;

}  // namespace

// ---------------------------------------------------------------- scores --

void QuietScorePosterior::Seed(std::span<const double> empty_scores) {
  weight_ = mean_ = m2_ = 0.0;
  log_weight_ = log_mean_ = log_m2_ = 0.0;
  for (const double score : empty_scores) {
    weight_ += 1.0;
    const double delta = score - mean_;
    mean_ += delta / weight_;
    m2_ += delta * (score - mean_);

    const double log_score = std::log(std::max(score, kScoreFloor));
    log_weight_ += 1.0;
    const double log_delta = log_score - log_mean_;
    log_mean_ += log_delta / log_weight_;
    log_m2_ += log_delta * (log_score - log_mean_);
  }
  seed_weight_ = weight_;
  seed_mean_ = mean_;
  seed_m2_ = m2_;
  seed_log_weight_ = log_weight_;
  seed_log_mean_ = log_mean_;
  seed_log_m2_ = log_m2_;
}

void QuietScorePosterior::Observe(double score, double forgetting) {
  // Exponentially forgotten Welford update: the sufficient statistics
  // (weight, mean, M2) decay by the forgetting factor before the new window
  // is folded in, so the posterior tracks a slowly moving quiet channel.
  weight_ = forgetting * weight_ + 1.0;
  const double delta = score - mean_;
  mean_ += delta / weight_;
  m2_ = forgetting * m2_ + delta * (score - mean_);

  const double log_score = std::log(std::max(score, kScoreFloor));
  log_weight_ = forgetting * log_weight_ + 1.0;
  const double log_delta = log_score - log_mean_;
  log_mean_ += log_delta / log_weight_;
  log_m2_ = forgetting * log_m2_ + log_delta * (log_score - log_mean_);
}

double QuietScorePosterior::StdDev() const {
  return std::sqrt(std::max(Variance(), 0.0));
}

double QuietScorePosterior::LogSigma() const {
  const double var = log_weight_ > 0.0 ? log_m2_ / log_weight_ : 0.0;
  return std::max(std::sqrt(std::max(var, 0.0)), kLogSigmaFloor);
}

void QuietScorePosterior::ReseedScaled(double new_mean) {
  if (seed_mean_ <= 0.0 || new_mean <= 0.0) return;
  const double scale = new_mean / seed_mean_;
  weight_ = seed_weight_;
  mean_ = new_mean;
  m2_ = seed_m2_ * scale * scale;
  log_weight_ = seed_log_weight_;
  log_mean_ = seed_log_mean_ + std::log(scale);
  log_m2_ = seed_log_m2_;
}

void QuietScorePosterior::Deweight(double max_weight) {
  if (weight_ > max_weight && weight_ > 0.0) {
    // Scale M2 with the weight so the per-window variance is unchanged.
    m2_ *= max_weight / weight_;
    weight_ = max_weight;
  }
  if (log_weight_ > max_weight && log_weight_ > 0.0) {
    log_m2_ *= max_weight / log_weight_;
    log_weight_ = max_weight;
  }
}

void QuietScorePosterior::Reset() {
  weight_ = seed_weight_;
  mean_ = seed_mean_;
  m2_ = seed_m2_;
  log_weight_ = seed_log_weight_;
  log_mean_ = seed_log_mean_;
  log_m2_ = seed_log_m2_;
}

// --------------------------------------------------------------- profile --

void ProfilePosterior::Configure(std::size_t num_antennas,
                                 std::size_t num_subcarriers) {
  num_antennas_ = num_antennas;
  num_subcarriers_ = num_subcarriers;
  const std::size_t cells = num_antennas * num_subcarriers;
  // mulink-lint: allow(alloc): Configure, setup path
  mean_power_.assign(cells, 0.0);
  // mulink-lint: allow(alloc): Configure, setup path
  mean_amplitude_.assign(cells, 0.0);
  // mulink-lint: allow(alloc): Configure, setup path
  mean_variance_.assign(cells, 0.0);
  weight_ = 0.0;
}

void ProfilePosterior::SeedFrom(const Detector& detector) {
  MULINK_REQUIRE(detector.num_antennas() == num_antennas_ &&
                     detector.num_subcarriers() == num_subcarriers_,
                 "ProfilePosterior: detector shape mismatch");
  const auto& power = detector.profile_power();
  for (std::size_t idx = 0; idx < num_antennas_ * num_subcarriers_; ++idx) {
    mean_power_[idx] = power[idx];
    // The prior only anchors the posterior near the active profile, so it
    // is derived from the power plane alone: amplitude ~ sqrt(power), and
    // the variance prior starts at zero, letting the first observed windows
    // set the temporal floor. The detector's variance plane is not this
    // posterior's statistic: it is the calibration session's spread about
    // its mean, drift included, where Observe tracks the mean within-window
    // variance. Its amplitude plane is the same statistic (the mean of
    // sqrt(p)), but it sits below sqrt(power) by Jensen's gap, and seeding
    // from it would move every ladder swap's staged profile, which the
    // adaptive goldens pin.
    mean_amplitude_[idx] = std::sqrt(std::max(power[idx], 0.0));
    mean_variance_[idx] = 0.0;
  }
  weight_ = 1.0;  // one window's worth of prior mass
}

void ProfilePosterior::Observe(std::span<const double> power_plane,
                               double forgetting) {
  const std::size_t cells = num_antennas_ * num_subcarriers_;
  if (power_plane.empty() || cells == 0) return;
  MULINK_REQUIRE(power_plane.size() % cells == 0,
                 "ProfilePosterior: power plane shape mismatch");
  const std::size_t rows = power_plane.size() / cells;
  const double inv_n = 1.0 / static_cast<double>(rows);
  weight_ = forgetting * weight_ + 1.0;
  const double inv_w = 1.0 / weight_;
  // Per-cell sums of p, p^2 and sqrt(p) over the window (each cell adds its
  // column in window order), a strip of cells at a time on the stack.
  constexpr std::size_t kStrip = 64;
  double sum_p[kStrip];
  double sum_p2[kStrip];
  double sum_a[kStrip];
  for (std::size_t c0 = 0; c0 < cells; c0 += kStrip) {
    const std::size_t width = std::min(kStrip, cells - c0);
    kernels::ColumnMoments(power_plane.data() + c0, rows, width, cells, sum_p,
                           sum_p2, sum_a);
    for (std::size_t j = 0; j < width; ++j) {
      const std::size_t c = c0 + j;
      const double mean_p = sum_p[j] * inv_n;
      const double mean_a = sum_a[j] * inv_n;
      const double var = std::max(sum_p2[j] * inv_n - mean_p * mean_p, 0.0);
      mean_power_[c] += (mean_p - mean_power_[c]) * inv_w;
      mean_amplitude_[c] += (mean_a - mean_amplitude_[c]) * inv_w;
      mean_variance_[c] += (var - mean_variance_[c]) * inv_w;
    }
  }
}

void ProfilePosterior::Deweight(double max_weight) {
  weight_ = std::min(weight_, max_weight);
}

// ---------------------------------------------------------------- ladder --

void LinkCalibrator::Configure(const Detector& detector,
                               std::span<const double> empty_scores,
                               const CalibrationConfig& config) {
  // Wiring entry point: this caller is the link's single owner.
  ScopedRole owner(owner_role_);
  config_ = config;
  ClearLadder();
  if (!config_.enabled) return;
  MULINK_REQUIRE(config_.quiet_posterior_max >= 0.0 &&
                     config_.quiet_posterior_max <= 1.0,
                 "LinkCalibrator: quiet_posterior_max must be in [0,1]");
  MULINK_REQUIRE(config_.drift_ewma_alpha > 0.0 &&
                     config_.drift_ewma_alpha <= 1.0,
                 "LinkCalibrator: drift_ewma_alpha must be in (0,1]");
  MULINK_REQUIRE(config_.drift_confirm_windows >= 1,
                 "LinkCalibrator: drift_confirm_windows must be >= 1");
  MULINK_REQUIRE(config_.recalibration_quiet_windows >= 1,
                 "LinkCalibrator: recalibration_quiet_windows must be >= 1");
  score_posterior_.Seed(empty_scores);
  profile_posterior_.Configure(detector.num_antennas(),
                               detector.num_subcarriers());
  profile_posterior_.SeedFrom(detector);
  AnchorDrift();
  ambient_ewma_ = score_posterior_.Mean();
  baseline_threshold_ratio_ =
      detector.has_threshold() && score_posterior_.Mean() > 0.0
          ? detector.threshold() / score_posterior_.Mean()
          : 0.0;
  refresh_angular_ =
      detector.config().scheme ==
          DetectionScheme::kSubcarrierAndPathWeighting &&
      detector.num_antennas() >= 2;
  staged_stride_ = 2 * detector.num_antennas() * detector.num_subcarriers();
  // mulink-lint: allow(alloc): Configure, setup path
  staged_.assign(kStagedQuietPackets * staged_stride_, 0.0);
}

void LinkCalibrator::TransitionTo(LadderState next) {
  if (next == state_) return;
  state_ = next;
  MULINK_OBS_COUNT(metrics, kLadderTransitions);
}

void LinkCalibrator::ClearLadder() {
  state_ = LadderState::kHealthy;
  drift_streak_ = calm_streak_ = 0;
  blackout_streak_ = 0;
  ambient_fallback_ = false;
  recal_collected_ = recal_elapsed_ = 0;
  degraded_elapsed_ = degraded_entries_ = 0;
  consecutive_swaps_ = healed_streak_ = windows_since_swap_ = 0;
  probation_left_ = 0;
  staged_write_ = staged_count_ = 0;
  quiet_windows_ = profile_swaps_ = agc_rebaselines_ = 0;
  adaptive_threshold_ = 0.0;
}

void LinkCalibrator::AnchorDrift() {
  score_ewma_ = score_posterior_.Mean();
  drift_log_anchor_ = score_posterior_.LogMean();
  drift_log_sigma_ = score_posterior_.LogSigma();
}

void LinkCalibrator::EnterRecalibrating() {
  // A confirmed change point: the posterior history describes the OLD
  // channel. Cap the stale evidence at one window's worth of prior mass so
  // the recalibration_quiet_windows collected next dominate the swap —
  // otherwise a steady-state posterior (effective memory ~1/(1-kForgetting)
  // windows) would pull the staged profile halfway back to the stale one.
  score_posterior_.Deweight(1.0);
  profile_posterior_.Deweight(1.0);
  recal_collected_ = 0;
  // A retry out of Degraded, or a blackout escape, has already demonstrated
  // that no classification-derived gate admits evidence — the failed
  // attempt (or the blackout streak itself) IS the starvation probe. Start
  // with the starvation clock expired so the ambient fallback band opens on
  // the first window instead of idling through another probe.
  recal_elapsed_ = (state_ == LadderState::kDegraded ||
                    blackout_streak_ >= kBlackoutWindows)
                       ? kStarvationWindows
                       : 0;
  drift_streak_ = calm_streak_ = 0;
  blackout_streak_ = 0;
  ambient_fallback_ = false;  // re-arms only if this attempt starves too
  staged_write_ = staged_count_ = 0;
  probation_left_ = 0;  // the Recalibrating state supersedes any probation
  // A retry out of Degraded starts a fresh swap budget: the retry's swap
  // gets its Healthy probation instead of freezing the link on arithmetic.
  if (state_ == LadderState::kDegraded) consecutive_swaps_ = 0;
  TransitionTo(LadderState::kRecalibrating);
}

void LinkCalibrator::Degrade() {
  ++degraded_entries_;
  degraded_elapsed_ = 0;
  TransitionTo(degraded_entries_ >= kMaxDegradedEntries
                   ? LadderState::kFrozen
                   : LadderState::kDegraded);
}

bool LinkCalibrator::AgcRebaselineDue(
    const CalibrationWindowContext& context) const {
  return context.agc_frames >= kAgcFramesMin &&
         (state_ == LadderState::kHealthy ||
          state_ == LadderState::kDriftSuspected);
}

void LinkCalibrator::StageQuietPackets(
    std::span<const double* const> csi_slabs) {
  MULINK_REQUIRE(!csi_slabs.empty(),
                 "LinkCalibrator: staging needs the window's slabs");
  // Packets staged per quiet window (evenly spaced inside the window).
  constexpr std::size_t kStagedPacketsPerWindow = 4;
  const std::size_t per = std::min(kStagedPacketsPerWindow, csi_slabs.size());
  for (std::size_t i = 0; i < per; ++i) {
    const std::size_t idx = i * csi_slabs.size() / per;
    std::copy_n(csi_slabs[idx], staged_stride_,
                staged_.data() + staged_write_ * staged_stride_);
    staged_write_ = (staged_write_ + 1) % kStagedQuietPackets;
    if (staged_count_ < kStagedQuietPackets) ++staged_count_;
  }
}

void LinkCalibrator::ApplySwap(Detector& detector, DetectorScratch& scratch) {
  // Runs between windows, a handful of times per deployment-day, on the
  // serving path: the posterior buffers are the staged (shadow) copy; the
  // installs below overwrite the active profile in place, so the stream
  // never drops a packet around a swap, and everything reuses buffers that
  // Configure or the link's scoring scratch already hold. The scratch's
  // metrics sink is muted meanwhile: rescoring staged packets is not a
  // scored window.
  obs::Registry* const scoring_sink = scratch.metrics;
  scratch.metrics = nullptr;
  detector.ApplyProfile(profile_posterior_.power(),
                        profile_posterior_.amplitude(),
                        profile_posterior_.variance());
  const std::span<const double> staged(staged_.data(),
                                       staged_count_ * staged_stride_);
  if (refresh_angular_ && staged_count_ >= 8) {
    detector.RefreshAngularProfile(staged, scratch);
    MULINK_OBS_COUNT(metrics, kProfileStackRebuilds);
  }
  // Re-anchor the operating point against the NEW profile. Every score in
  // the posterior was measured against the profile just replaced — installing
  // its threshold verbatim pins a drifted-scale level onto a detector whose
  // vacant score has collapsed back to baseline (missed detections AND a
  // re-widened false-positive corridor). Instead, score the staged quiet
  // packets under the freshly installed profile to measure the new quiet
  // level, rescale the posterior to the seeded prior's shape at that level,
  // and re-apply the calibrated threshold margin relative to it. The staged
  // slabs get their mu rows and stats back from the ingest map (the
  // baseline's distances under the new profile).
  double rebased = 0.0;
  if (staged_count_ >= 2) {
    rebased = detector.ScorePrepared(detector.PrepareSlabs(staged, scratch),
                                     scratch);
  }
  scratch.metrics = scoring_sink;
  // Clamp the rebased level to [1, 1.5]x the calibration-time quiet mean.
  // The floor: staged packets are in-sample for the profile just fit to
  // them, which biases their score low, and drift compensation only ever
  // needs to move the operating point UP — tightening below the validated
  // calibration would trade the paper's false-positive margin for nothing.
  // The ceiling: a collection contaminated by residual motion (or a link
  // whose profile refresh could not fully absorb the fault) would otherwise
  // install an arbitrarily inflated operating point, and the HMM emission
  // re-fit from it goes blind to weak presence — missed detections that
  // then feed the "quiet" posterior and entrench the overshoot. A swap
  // whose profile refresh worked lands near 1x; one that needs more than
  // 1.5x did not work, and the next trigger (or probation re-anchor)
  // handles the residue instead of papering over it.
  const double seed_mean = score_posterior_.SeedMean();
  rebased = std::clamp(rebased, seed_mean, 1.5 * seed_mean);
  double new_threshold;
  if (rebased > 0.0 && baseline_threshold_ratio_ > 0.0) {
    score_posterior_.ReseedScaled(rebased);
    new_threshold = rebased * baseline_threshold_ratio_;
  } else {
    // No level to rebase on (no calibration prior, or a degenerate
    // collection): fall back to the posterior's own predictive threshold.
    new_threshold =
        score_posterior_.Threshold(detector.config().threshold_sigma);
  }
  if (new_threshold > 0.0) {
    if (detector.has_threshold() && detector.threshold() > 0.0) {
      // Move the fallback threshold by the same relative step so degraded
      // decisions keep their calibrated margin on the new operating point.
      const double ratio = new_threshold / detector.threshold();
      detector.SetFallbackThreshold(detector.fallback_threshold() * ratio);
    }
    detector.SetThreshold(new_threshold);
  }
  adaptive_threshold_ = detector.threshold();
  ++profile_swaps_;
  // Swap-chasing is measured by swap-to-swap SPACING, not by the calm-streak
  // heal alone: under a continuous ramp the ladder legitimately re-anchors
  // every few hours, and ramp noise keeps the calm streak from ever running
  // heal_windows long — the consecutive-swap count would creep up across
  // genuinely independent swaps until the cap tripped at some arbitrary
  // later moment. A drift trigger that held off for a full heal span BEYOND
  // probation is pacing, not chasing; only a re-trigger hot on the heels of
  // the previous swap keeps escalating.
  if (windows_since_swap_ >= 2 * config_.heal_windows) consecutive_swaps_ = 0;
  windows_since_swap_ = 0;
  ++consecutive_swaps_;
  MULINK_OBS_COUNT(metrics, kProfileSwaps);
  MULINK_OBS_GAUGE(metrics, kAdaptiveThreshold, adaptive_threshold_);

  // Fresh drift bookkeeping against the new operating point. The trigger
  // anchor set here is provisional — probation re-anchors it on the
  // converged posterior (see ObserveDecision).
  AnchorDrift();
  drift_streak_ = calm_streak_ = healed_streak_ = 0;
  blackout_streak_ = 0;
  ambient_fallback_ = false;
  recal_collected_ = recal_elapsed_ = 0;
  staged_write_ = staged_count_ = 0;
  probation_left_ = config_.heal_windows;
  if (consecutive_swaps_ > kMaxConsecutiveSwaps) {
    // Swapping is not clearing the drift signal: stop chasing it.
    Degrade();
  } else {
    TransitionTo(LadderState::kHealthy);
  }
}

bool LinkCalibrator::ObserveDecision(double score, double posterior,
                                     std::span<const double* const> csi_slabs,
                                     Detector& detector,
                                     DetectorScratch& scratch,
                                     const CalibrationWindowContext& context) {
  // The one per-decision entry point: the caller (the engine link, driven
  // by one engine or serving-shard thread) is the link's single driving
  // thread, so this call IS the owner role for the double-buffer swap
  // state.
  ScopedRole owner(owner_role_);
  if (!config_.enabled || state_ == LadderState::kFrozen) return false;

  // Every decision — quiet or not — advances the ladder's clocks.
  if (state_ == LadderState::kRecalibrating) ++recal_elapsed_;
  if (state_ == LadderState::kDegraded) ++degraded_elapsed_;
  ++windows_since_swap_;
  if (probation_left_ > 0 && --probation_left_ == 0) {
    // Probation over: the posterior has re-converged on the ACTUAL
    // post-swap quiet level (the staged estimate it was reseeded from is
    // biased in-sample). Re-anchor the drift trigger there rather than at
    // the staged guess, or residual rebase error reads as fresh drift and
    // the ladder thrashes through back-to-back swaps.
    AnchorDrift();
    drift_streak_ = calm_streak_ = 0;
  }

  // AGC fast re-baseline: a confirmed gain step obsoletes the profile at
  // once — no point waiting out drift confirmation on stale statistics.
  if (AgcRebaselineDue(context)) {
    ++agc_rebaselines_;
    MULINK_OBS_COUNT(metrics, kAgcRebaselines);
    EnterRecalibrating();
  }

  // Quiet evidence: a clean decision the HMM/detector is confident is
  // vacant, from a hop the frame guard left untainted. Degraded decisions
  // and hops with repaired (flagged) frames never feed the posteriors.
  // Under active drift the stale HMM emission panics before the linear
  // threshold does, so drift sensing — and evidence collection while
  // Recalibrating — also accept clean windows whose score still sits at or
  // below the active threshold ("plausibly vacant"); steady-state posterior
  // updates stay gated on the HMM's confident vacancy.
  const bool tainted = context.degraded || context.repaired_frames > 0;
  const bool strictly_quiet =
      !tainted && posterior <= config_.quiet_posterior_max;
  // Ambient level: an EWMA over EVERY untainted window's score, occupied
  // or not. With episodic occupancy it sits near the vacant level most of
  // the time, and unlike everything else here it does not depend on any
  // classification — it is the bootstrap estimate the starvation fallback
  // below needs when a step change pushes the vacant room past every
  // classification-derived gate.
  if (!tainted) {
    ambient_ewma_ = ambient_ewma_ <= 0.0
                        ? score
                        : ambient_ewma_ +
                              config_.drift_ewma_alpha * (score - ambient_ewma_);
  }
  // The plausible-vacancy gate is the active threshold in steady state.
  // While Recalibrating (and through post-swap probation) it is the STAGED
  // adaptive threshold (floored at the active one, capped at twice it):
  // under continuing drift the stale threshold falls behind the vacant
  // room before the evidence is in, and the gate must track the very drift
  // it is measuring. That tracking has a bootstrap hole after a large step
  // change: the staged threshold can only expand through admitted windows,
  // and no window is admitted when the whole room moved past the cap. When
  // Recalibrating has run starvation-long with NOTHING collected, fall
  // back to a band above the ambient EWMA — a vacant-but-louder room
  // clusters there, while a genuinely occupied room keeps the collection
  // clock running toward Degraded.
  double plausible_gate =
      detector.has_threshold() ? detector.threshold() : 0.0;
  const bool staged_gate =
      state_ == LadderState::kRecalibrating || probation_left_ > 0;
  if (staged_gate && plausible_gate > 0.0) {
    const double staged_threshold =
        score_posterior_.Threshold(detector.config().threshold_sigma);
    plausible_gate =
        std::clamp(staged_threshold, plausible_gate, 2.0 * plausible_gate);
    // Once an attempt has starved, the band stays open for the REST of the
    // attempt (ambient_fallback_): the staged gate is capped at twice the
    // stale threshold, so after a step change far past that cap the first
    // fallback-admitted window would otherwise be the last — collection
    // stalls at one window, times out, and a room that is merely louder
    // now walks the ladder to Frozen one window per attempt.
    if (state_ == LadderState::kRecalibrating &&
        (recal_collected_ == 0 || ambient_fallback_) &&
        recal_elapsed_ >= kStarvationWindows && ambient_ewma_ > 0.0) {
      plausible_gate = std::max(plausible_gate, 1.5 * ambient_ewma_);
      ambient_fallback_ = true;
    }
  }
  const bool plausibly_quiet =
      strictly_quiet ||
      (!tainted && plausible_gate > 0.0 && score <= plausible_gate);
  if (!tainted) {
    blackout_streak_ = plausibly_quiet ? 0 : blackout_streak_ + 1;
  }

  bool swapped = false;
  if (plausibly_quiet) {
    score_ewma_ += config_.drift_ewma_alpha * (score - score_ewma_);
    MULINK_OBS_GAUGE(metrics, kEmptyScoreEwma, score_ewma_);
    const bool learn = staged_gate || strictly_quiet;
    if (learn) {
      ++quiet_windows_;
      MULINK_OBS_COUNT(metrics, kQuietWindows);
      // While Recalibrating (including the AGC re-baseline path) and
      // through probation a fast factor lets fresh evidence dominate the
      // stale prior.
      constexpr double kRecalibrationForgetting = 0.75;
      const double forgetting =
          staged_gate ? kRecalibrationForgetting : kForgetting;
      score_posterior_.Observe(score, forgetting);
      // The plane lives in the scoring scratch; it is consumed here, before
      // any swap below rescores staged packets through the same scratch.
      profile_posterior_.Observe(
          FillPowerPlane(csi_slabs, detector.num_antennas(),
                         detector.num_subcarriers(), scratch.power_plane),
          forgetting);
    }

    switch (state_) {
      case LadderState::kHealthy:
      case LadderState::kDriftSuspected: {
        // The trigger stands down through post-swap probation: its anchor
        // is the staged estimate until probation re-anchors it on the
        // converged posterior, and judging drift (or health) against a
        // known-stale reference only produces thrash.
        if (probation_left_ > 0) break;
        // The more sensitive of the threshold-fraction and the
        // posterior-sigma levels is the drift reference.
        double reference =
            detector.has_threshold() && detector.threshold() > 0.0
                ? config_.drift_score_fraction * detector.threshold()
                : 0.0;
        // The sigma level is exp(log_anchor + kDriftEwmaSigma * log_sigma),
        // anchored at the quiet statistics the last (re)calibration
        // installed, NOT the live posterior — the posterior keeps absorbing
        // slow drift in steady state, so a reference built on it would rise
        // with the EWMA and never fire. It is computed in LOG-sigma
        // coordinates: the HMM's empty emission is a log-Gaussian fit of
        // the same scores and flips its decisions a fixed number of
        // log-sigmas above the quiet mean (well below the linear
        // threshold), so this trigger tracks each link's own quiet spread
        // and sits at a fixed fraction of the flip point on EVERY link.
        constexpr double kDriftEwmaSigma = 1.5;
        if (drift_log_sigma_ > 0.0) {
          const double sigma_level = std::exp(
              drift_log_anchor_ + kDriftEwmaSigma * drift_log_sigma_);
          reference =
              reference > 0.0 ? std::min(reference, sigma_level) : sigma_level;
        }
        const bool drifting = reference > 0.0 && score_ewma_ > reference;
        if (drifting) {
          ++drift_streak_;
          calm_streak_ = 0;
          healed_streak_ = 0;
        } else {
          ++calm_streak_;
          drift_streak_ = 0;
        }
        if (state_ == LadderState::kHealthy) {
          if (!drifting && ++healed_streak_ >= config_.heal_windows) {
            // Sustained calm after a swap: the recalibration took. Re-arm
            // the full escalation budget.
            consecutive_swaps_ = 0;
            degraded_entries_ = 0;
          }
          if (drift_streak_ >= config_.drift_confirm_windows) {
            drift_streak_ = calm_streak_ = 0;
            TransitionTo(LadderState::kDriftSuspected);
          }
        } else {  // kDriftSuspected
          if (drift_streak_ >= config_.drift_confirm_windows) {
            EnterRecalibrating();
          } else if (calm_streak_ >= config_.drift_confirm_windows) {
            drift_streak_ = calm_streak_ = 0;
            TransitionTo(LadderState::kHealthy);
          }
        }
        break;
      }
      case LadderState::kRecalibrating: {
        StageQuietPackets(csi_slabs);
        if (++recal_collected_ >= config_.recalibration_quiet_windows) {
          ApplySwap(detector, scratch);
          swapped = true;
        }
        break;
      }
      case LadderState::kDegraded:
        // Keep observing slowly while the backoff runs; the retry below
        // re-enters Recalibrating with the accumulated evidence.
        break;
      case LadderState::kFrozen:
        break;  // unreachable (early return above)
    }
  }

  // Blackout escape (see kBlackoutWindows): the room has sat above every
  // gate for far longer than an occupancy episode — jump to Recalibrating
  // so the starvation fallback can re-baseline from ambient. From Degraded
  // this cuts the retry backoff short: a step change landing during the
  // backoff would otherwise charge false positives for the whole span.
  if ((state_ == LadderState::kHealthy ||
       state_ == LadderState::kDriftSuspected ||
       state_ == LadderState::kDegraded) &&
      blackout_streak_ >= kBlackoutWindows) {
    EnterRecalibrating();
  }

  // Timeouts and backoffs run on every decision. A timed-out attempt never
  // saw the room vacant long enough to recalibrate from: degrade (each
  // retry widens the evidence gate, see above).
  if (state_ == LadderState::kRecalibrating && !swapped &&
      recal_elapsed_ >= kRecalibrationTimeoutWindows) {
    recal_collected_ = recal_elapsed_ = 0;
    Degrade();
  }
  if (state_ == LadderState::kDegraded &&
      degraded_elapsed_ >= kDegradedBackoffWindows) {
    EnterRecalibrating();
  }

  MULINK_OBS_GAUGE(metrics, kLadderState,
                   static_cast<double>(static_cast<std::uint8_t>(state_)));
  return swapped;
}

void LinkCalibrator::FillHealth(nic::LinkHealth& health) const {
  if (!config_.enabled) return;
  health.calibration_state = state_;
  health.quiet_windows = quiet_windows_;
  health.profile_swaps = profile_swaps_;
  health.adaptive_threshold = adaptive_threshold_;
  // The ladder is the link's one drift detector: the flag is raised from
  // DriftSuspected on and cleared again by a successful recalibration or a
  // drift walk-back.
  health.profile_drift = drift_flagged();
  health.empty_score_ewma = score_ewma_;
}

void LinkCalibrator::Reset(const Detector& detector) {
  // Operator re-arm: same single-owner contract as ObserveDecision.
  ScopedRole owner(owner_role_);
  if (!config_.enabled) return;
  ClearLadder();
  score_posterior_.Reset();
  // Re-seed the profile posterior from the detector's CURRENT profile: the
  // detector keeps whatever adaptation its swaps installed (there is no
  // shadow copy of the original), so the prior must anchor there too.
  profile_posterior_.SeedFrom(detector);
  AnchorDrift();
  ambient_ewma_ = score_posterior_.Mean();
}

}  // namespace mulink::core
