#include "obs/metrics.h"

#include <algorithm>

namespace mulink::obs {

const char* ToString(Stage stage) {
  switch (stage) {
    case Stage::kGuardClassify:
      return "guard_classify";
    case Stage::kIngestSanitize:
      return "ingest_sanitize";
    case Stage::kSubcarrierWeighting:
      return "subcarrier_weighting";
    case Stage::kMusicPathWeighting:
      return "music_path_weighting";
    case Stage::kScore:
      return "score";
    case Stage::kHmmFilter:
      return "hmm_filter";
    case Stage::kCalibrate:
      return "calibrate";
    case Stage::kCapture:
      return "capture";
    case Stage::kCase:
      return "case";
  }
  return "unknown";
}

const char* ToString(Counter counter) {
  switch (counter) {
    case Counter::kPacketsIngested:
      return "packets_ingested";
    case Counter::kPacketsAccepted:
      return "packets_accepted";
    case Counter::kPacketsRepaired:
      return "packets_repaired";
    case Counter::kPacketsQuarantined:
      return "packets_quarantined";
    case Counter::kRingResyncs:
      return "ring_resyncs";
    case Counter::kWindowsScored:
      return "windows_scored";
    case Counter::kDecisions:
      return "decisions";
    case Counter::kDegradedDecisions:
      return "degraded_decisions";
    case Counter::kDecisionsSuppressed:
      return "decisions_suppressed";
    case Counter::kHmmUpdates:
      return "hmm_updates";
    case Counter::kProfileStackRebuilds:
      return "profile_stack_rebuilds";
    case Counter::kProfileStackHits:
      return "profile_stack_hits";
    case Counter::kBatches:
      return "batches";
    case Counter::kCalibrations:
      return "calibrations";
    case Counter::kSessionsCaptured:
      return "sessions_captured";
    case Counter::kCasesRun:
      return "cases_run";
    case Counter::kTraceEventsDropped:
      return "trace_events_dropped";
    case Counter::kQuietWindows:
      return "quiet_windows";
    case Counter::kProfileSwaps:
      return "profile_swaps";
    case Counter::kLadderTransitions:
      return "ladder_transitions";
    case Counter::kAgcRebaselines:
      return "agc_rebaselines";
    case Counter::kFramesRouted:
      return "frames_routed";
    case Counter::kFramesDropped:
      return "frames_dropped";
    case Counter::kFramesRejected:
      return "frames_rejected";
    case Counter::kLinksAdmitted:
      return "links_admitted";
    case Counter::kLinksEvicted:
      return "links_evicted";
    case Counter::kLinksReadmitted:
      return "links_readmitted";
    case Counter::kPacketsRefusedNonFinite:
      return "packets_refused_non_finite";
  }
  return "unknown";
}

const char* ToString(Gauge gauge) {
  switch (gauge) {
    case Gauge::kPosterior:
      return "posterior";
    case Gauge::kLastScore:
      return "last_score";
    case Gauge::kEmptyScoreEwma:
      return "empty_score_ewma";
    case Gauge::kLiveAntennas:
      return "live_antennas";
    case Gauge::kLadderState:
      return "ladder_state";
    case Gauge::kAdaptiveThreshold:
      return "adaptive_threshold";
    case Gauge::kQueueDepth:
      return "queue_depth";
    case Gauge::kResidentLinks:
      return "resident_links";
  }
  return "unknown";
}

double LatencyHistogram::BucketUpperNs(std::size_t i) {
  return kBucketFloorNs * static_cast<double>(std::uint64_t{1} << (i + 1));
}

void LatencyHistogram::Record(double ns) {
  if (ns < 0.0) ns = 0.0;
  std::size_t bucket = kNumBuckets - 1;
  double upper = kBucketFloorNs * 2.0;
  for (std::size_t i = 0; i + 1 < kNumBuckets; ++i, upper *= 2.0) {
    if (ns < upper) {
      bucket = i;
      break;
    }
  }
  ++buckets[bucket];
  if (count == 0) {
    min_ns = ns;
    max_ns = ns;
  } else {
    min_ns = std::min(min_ns, ns);
    max_ns = std::max(max_ns, ns);
  }
  ++count;
  total_ns += ns;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min_ns = other.min_ns;
    max_ns = other.max_ns;
  } else {
    min_ns = std::min(min_ns, other.min_ns);
    max_ns = std::max(max_ns, other.max_ns);
  }
  for (std::size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  total_ns += other.total_ns;
}

void LatencyHistogram::Reset() {
  buckets.fill(0);
  count = 0;
  total_ns = 0.0;
  min_ns = 0.0;
  max_ns = 0.0;
}

double LatencyHistogram::ApproxQuantileNs(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      // Linear interpolation inside the bucket; the overflow bucket reports
      // the observed maximum (no upper edge to interpolate against).
      if (i + 1 >= kNumBuckets) return max_ns;
      const double lower = i == 0 ? 0.0 : BucketUpperNs(i - 1);
      const double upper = BucketUpperNs(i);
      const double frac =
          in_bucket > 0.0 ? (target - seen) / in_bucket : 0.0;
      return std::min(lower + frac * (upper - lower), max_ns);
    }
    seen += in_bucket;
  }
  return max_ns;
}

void Registry::MergeFrom(const Registry& shard) noexcept {
#if MULINK_OBS_ENABLED
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    counters_[i] += shard.counters_[i];
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if ((shard.gauge_set_ >> i) & 1u) {
      gauges_[i] = shard.gauges_[i];
      gauge_set_ |= 1u << i;
    }
  }
  for (std::size_t i = 0; i < kNumStages; ++i) {
    stages_[i].MergeFrom(shard.stages_[i]);
  }
#else
  (void)shard;
#endif
}

void Registry::Reset() noexcept {
  counters_.fill(0);
  gauges_.fill(0.0);
  gauge_set_ = 0;
  ingest_tick_ = 0;
  for (auto& stage : stages_) stage.Reset();
}

bool Registry::Empty() const noexcept {
  for (const auto c : counters_) {
    if (c != 0) return false;
  }
  for (const auto& stage : stages_) {
    if (stage.count != 0) return false;
  }
  return gauge_set_ == 0;
}

}  // namespace mulink::obs
