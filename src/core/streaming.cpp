#include "core/streaming.h"

#include <bit>

#include "common/assert.h"
#include "dsp/stats.h"

namespace mulink::core {

std::optional<nic::FrameReport> GuardedIngest::Admit(
    const wifi::CsiPacket& packet) {
  MULINK_OBS_COUNT(metrics, kPacketsIngested);
  if (!guard.has_value()) {
    MULINK_OBS_COUNT(metrics, kPacketsAccepted);
    return nic::FrameReport{};
  }
  // Per-frame latency is sampled 1-in-kIngestSampleEvery (deterministic
  // tick, so totals merge bit-identically across shards); the verdict
  // counters below stay exact.
  obs::Registry* const timed = MULINK_OBS_SAMPLED(metrics);
  nic::FrameReport report;
  {
    MULINK_OBS_STAGE_TIMER(timer, timed, kGuardClassify);
    report = guard->Inspect(packet);
  }
  if (report.resync) MULINK_OBS_COUNT(metrics, kRingResyncs);
  switch (report.verdict) {
    case nic::FrameVerdict::kQuarantine:
      MULINK_OBS_COUNT(metrics, kPacketsQuarantined);
      break;
    case nic::FrameVerdict::kRepair:
      // Taint bookkeeping for the calibration ladder: a repaired frame in
      // the hop disqualifies its window as quiet evidence, and a burst of
      // RSSI-outlier repairs is the AGC fast re-baseline trigger.
      ++repaired_since_decision;
      if (report.Has(nic::FrameFault::kRssiOutlier)) {
        ++agc_frames_since_decision;
      }
      MULINK_OBS_COUNT(metrics, kPacketsRepaired);
      MULINK_OBS_COUNT(metrics, kPacketsAccepted);
      break;
    default:
      MULINK_OBS_COUNT(metrics, kPacketsAccepted);
      break;
  }
  if (report.verdict == nic::FrameVerdict::kQuarantine) return std::nullopt;
  return report;
}

std::uint32_t GuardedIngest::FullMask(std::size_t num_antennas) {
  return num_antennas >= 32
             ? 0xffffffffu
             : ((1u << static_cast<std::uint32_t>(num_antennas)) - 1u);
}

std::uint32_t GuardedIngest::LiveMask(std::size_t num_antennas) const {
  const std::uint32_t full = FullMask(num_antennas);
  if (!guard.has_value()) return full;
  return full & ~guard->dead_antenna_mask();
}

void GuardedIngest::ObserveDecision(const PresenceDecision& decision,
                                    const Detector& detector,
                                    const StreamingConfig& config) {
  if (!guard.has_value()) return;
  if (decision.posterior > config.watchdog_empty_posterior) return;
  if (empty_windows_seen == 0 && quiet_score_seed <= 0.0) {
    // No calibration scores to seed from: legacy cold start, the first
    // believed-empty window sets the EWMA outright.
    empty_score_ewma = decision.score;
  } else {
    // Seeded (at construction and after Reset the EWMA already sits at the
    // expected quiet score), so early windows blend instead of jumping —
    // a reset cannot spuriously trip profile_drift on its first windows.
    empty_score_ewma +=
        config.watchdog_ewma_alpha * (decision.score - empty_score_ewma);
  }
  ++empty_windows_seen;
  MULINK_OBS_GAUGE(metrics, kEmptyScoreEwma, empty_score_ewma);
  if (detector.has_threshold() &&
      empty_windows_seen >= config.watchdog_min_windows &&
      empty_score_ewma >
          config.watchdog_score_fraction * detector.threshold()) {
    profile_drift = true;
  }
}

nic::LinkHealth GuardedIngest::Health() const {
  nic::LinkHealth health;
  if (guard.has_value()) health = guard->health();
  health.degraded = degraded;
  health.degraded_decisions = degraded_decisions;
  health.profile_drift = profile_drift;
  health.empty_score_ewma = empty_score_ewma;
  return health;
}

void GuardedIngest::Reset() {
  if (guard.has_value()) guard->Reset();
  degraded = false;
  degraded_decisions = 0;
  empty_windows_seen = 0;
  empty_score_ewma = quiet_score_seed;  // cold-start seed survives a reset
  profile_drift = false;
  repaired_since_decision = 0;
  agc_frames_since_decision = 0;
}

StreamingDetector::StreamingDetector(Detector detector,
                                     const std::vector<double>& empty_scores,
                                     StreamingConfig config)
    : detector_(std::move(detector)), config_(config), ingest_(config_) {
  MULINK_REQUIRE(config_.window_packets >= 2,
                 "StreamingDetector: window must hold >= 2 packets");
  MULINK_REQUIRE(config_.hop_packets >= 1 &&
                     config_.hop_packets <= config_.window_packets,
                 "StreamingDetector: hop must be in [1, window]");
  if (config_.use_hmm) {
    hmm_ = PresenceHmm::FitFromEmptyScores(empty_scores, config_.hmm);
    filter_.emplace(*hmm_);  // mulink-lint: allow(alloc): ctor, setup path
  }
  // Seed the drift watchdog's EWMA at the expected quiet score so the first
  // windows after construction or Reset cannot spuriously trip the flag.
  if (!empty_scores.empty()) {
    ingest_.quiet_score_seed = dsp::Mean(empty_scores);
    ingest_.empty_score_ewma = ingest_.quiet_score_seed;
  }
  calibrator_.Configure(detector_, std::span<const double>(empty_scores),
                        config_.calibration);
  // mulink-lint: allow(alloc): ctor, setup path
  ring_.reserve(config_.window_packets);
  // mulink-lint: allow(alloc): ctor, setup path
  window_.reserve(config_.window_packets);
}

void StreamingDetector::SetMetricsEnabled(bool enabled) {
  metrics_enabled_ = enabled;
}

void StreamingDetector::Reset() {
  // Keep ring_ / window_ storage (and each packet's CSI buffer) so the next
  // fill is still allocation-free; stale slots are overwritten before use.
  write_pos_ = 0;
  count_ = 0;
  packets_since_decision_ = 0;
  occupied_ = false;
  posterior_ = 0.0;
  if (filter_.has_value()) filter_->Reset();
  ingest_.Reset();
  calibrator_.Reset(detector_);
  metrics_.Reset();
}

std::optional<PresenceDecision> StreamingDetector::Push(
    const wifi::CsiPacket& packet) {
  // Re-point the shard every packet so a moved detector never records into
  // its old address; two stores, then everything downstream sees one sink.
  obs::Registry* const sink = metrics_enabled_ ? &metrics_ : nullptr;
  ingest_.metrics = sink;
  scratch_.metrics = sink;
  calibrator_.metrics = sink;
  const auto report = ingest_.Admit(packet);
  if (!report.has_value()) return std::nullopt;  // quarantined
  if (report->resync) {
    // Gap too wide to straddle: the buffered packets and this one no longer
    // form a contiguous window. Flush the ring, keep the temporal state.
    write_pos_ = 0;
    count_ = 0;
    packets_since_decision_ = 0;
  }
  if (write_pos_ < ring_.size()) {
    ring_[write_pos_] = packet;  // copy-assign reuses the slot's CSI buffer
  } else {
    // mulink-lint: allow(alloc): initial ring fill only; capacity reserved in ctor
    ring_.push_back(packet);  // initial fill only; capacity is reserved
  }
  write_pos_ = (write_pos_ + 1) % config_.window_packets;
  if (count_ < config_.window_packets) ++count_;
  ++packets_since_decision_;

  if (count_ < config_.window_packets ||
      packets_since_decision_ < config_.hop_packets) {
    return std::nullopt;
  }
  packets_since_decision_ = 0;

  // Assemble the window in arrival order: the oldest packet sits at
  // write_pos_ once the ring is full.
  // mulink-lint: allow(alloc): capacity reserved in ctor; resize never reallocates
  window_.resize(config_.window_packets);
  for (std::size_t i = 0; i < config_.window_packets; ++i) {
    window_[i] = ring_[(write_pos_ + i) % config_.window_packets];
  }
  PresenceDecision decision;
  decision.timestamp_s = window_.back().timestamp_s;
  const std::span<const wifi::CsiPacket> window_span(window_);

  const std::uint32_t live_mask = ingest_.LiveMask(detector_.num_antennas());
  const std::uint32_t full_mask =
      GuardedIngest::FullMask(detector_.num_antennas());
  MULINK_OBS_GAUGE(sink, kLiveAntennas,
                   static_cast<double>(std::popcount(live_mask)));
  if (live_mask == 0 ||
      (live_mask != full_mask && !config_.degraded_fallback)) {
    // Every chain dead, or fallback disabled while one is: pause decisions
    // until the chain revives (the belief holds at its last value).
    MULINK_OBS_COUNT(sink, kDecisionsSuppressed);
    return std::nullopt;
  }
  if (live_mask != full_mask && detector_.has_threshold()) {
    // Degraded mode: score the surviving antennas, compare against the
    // fallback threshold, keep the HMM frozen (its emission model belongs
    // to the primary statistic).
    decision.score = detector_.ScoreDegraded(window_span, scratch_, live_mask);
    decision.occupied = decision.score >= detector_.fallback_threshold();
    decision.posterior = decision.occupied ? 1.0 : 0.0;
    decision.degraded = true;
    ingest_.degraded = true;
    ++ingest_.degraded_decisions;
    MULINK_OBS_COUNT(sink, kDegradedDecisions);
  } else {
    decision.score = detector_.Score(window_span, scratch_);
    if (filter_.has_value()) {
      MULINK_OBS_STAGE_TIMER(hmm_timer, sink, kHmmFilter);
      decision.posterior = filter_->Update(decision.score);
      decision.occupied =
          decision.posterior >= config_.decision_probability ||
          (config_.hmm_threshold_fusion && detector_.has_threshold() &&
           decision.score >= detector_.threshold());
      MULINK_OBS_COUNT(sink, kHmmUpdates);
    } else {
      decision.occupied = decision.score >= detector_.threshold();
      decision.posterior = decision.occupied ? 1.0 : 0.0;
    }
    ingest_.degraded = false;
    ingest_.ObserveDecision(decision, detector_, config_);
  }
  if (calibrator_.enabled()) {
    CalibrationWindowContext context;
    context.degraded = decision.degraded;
    context.repaired_frames = ingest_.repaired_since_decision;
    context.agc_frames = ingest_.agc_frames_since_decision;
    // The posteriors learn from the window in the detector's expected
    // sanitization state: Score left the sanitized copy in the scratch
    // (bit-identical to the engine's ingest-time sanitization); the
    // amplitude-only baseline learns from raw packets.
    const std::span<const wifi::CsiPacket> learn_window =
        detector_.UsesSanitizedInput() && !decision.degraded
            ? std::span<const wifi::CsiPacket>(scratch_.sanitized)
            : window_span;
    calibrator_.ObserveDecision(decision.score, decision.posterior,
                                learn_window, detector_, scratch_, context);
    if (hmm_.has_value()) {
      // Pin the HMM's empty emission to the live quiet posterior every
      // window, not just after a profile swap: the posterior absorbs slow
      // drift online, so the filter's flip point moves with the link and
      // the corridor between drift onset and the next swap stops charging
      // false positives. On quiet windows this is a real update; otherwise
      // the posterior (and hence the refit) is a no-op. The filter's
      // temporal state rides through untouched, and step changes still go
      // through the ladder — the posterior refuses to learn from windows
      // the filter calls occupied, so a jump stalls this refit until the
      // swap re-anchors the posterior.
      hmm_->RefitEmptyEmission(calibrator_.quiet_log_mean(),
                               calibrator_.quiet_log_sigma());
    }
    // The ladder owns the drift flag when enabled — unlike the flag-only
    // watchdog it can clear it again by recalibrating in place.
    ingest_.profile_drift = calibrator_.drift_flagged();
  }
  ingest_.repaired_since_decision = 0;
  ingest_.agc_frames_since_decision = 0;
  occupied_ = decision.occupied;
  posterior_ = decision.posterior;
  MULINK_OBS_COUNT(sink, kDecisions);
  MULINK_OBS_GAUGE(sink, kLastScore, decision.score);
  MULINK_OBS_GAUGE(sink, kPosterior, decision.posterior);
  return decision;
}

}  // namespace mulink::core
