// Observability spine: named pipeline stages, counters, gauges and
// fixed-bucket latency histograms collected into a Registry.
//
// Design rules (DESIGN.md §11):
//  * Zero steady-state allocations — a Registry is a few std::arrays, a
//    histogram is a fixed bucket vector. Recording never touches the heap.
//  * Zero overhead when off — the compile-time kill switch (configure with
//    -DMULINK_OBS=OFF, which defines MULINK_OBS_DISABLED) turns every
//    recording method into an empty inline; at runtime a null Registry
//    pointer is the no-op sink, costing one predictable branch.
//  * Deterministic aggregation — each thread (or campaign case, or link)
//    records into its own Registry shard; shards are merged with MergeFrom
//    in submission order. Counter totals and histogram *counts* are then
//    bit-identical for any thread count; only the measured nanoseconds vary
//    run to run (they are wall-clock observations, not derived state).
//  * Recording must never change decisions — instrumentation reads clocks
//    and bumps integers; it never feeds back into the pipeline.
//
// Per-packet stages (guard classify, ingest sanitize) are latency-sampled
// 1-in-kIngestSampleEvery on a deterministic per-shard tick so a 50 pkt/s
// link pays ~2 clock reads per window, not per packet; per-window stages are
// always timed. Counters are never sampled.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#if defined(MULINK_OBS_DISABLED)
#define MULINK_OBS_ENABLED 0
#else
#define MULINK_OBS_ENABLED 1
#endif

namespace mulink::obs {

// Compile-time kill switch state, queryable from tests and tools.
inline constexpr bool kEnabled = MULINK_OBS_ENABLED != 0;

// Named stages of the sensing pipeline (plus the campaign-level spans the
// runners record). Display order follows packet flow.
enum class Stage : std::uint8_t {
  kGuardClassify,        // nic::FrameGuard::Inspect on one arriving frame
  kIngestSanitize,       // phase sanitization (ingest-time or window-time)
  kSubcarrierWeighting,  // multipath factors + Eq. 15 weights
  kMusicPathWeighting,   // covariances, spectra, Eq. 17 path weighting
  kScore,                // the remaining distance / statistic computation
  kHmmFilter,            // temporal posterior update
  kCalibrate,            // Detector::Calibrate (campaign / setup)
  kCapture,              // simulator session capture (campaign)
  kCase,                 // one whole campaign case, end to end
};

inline constexpr std::size_t kNumStages = 9;

const char* ToString(Stage stage);

enum class Counter : std::uint8_t {
  kPacketsIngested,      // frames offered to a link (pre-guard)
  kPacketsAccepted,      // clean frames entering the window ring
  kPacketsRepaired,      // flagged-but-usable frames entering the ring
  kPacketsQuarantined,   // frames the guard kept out of the ring
  kRingResyncs,          // sequence gaps that flushed a window ring
  kWindowsScored,        // Detector::Score* invocations
  kDecisions,            // presence decisions emitted
  kDegradedDecisions,    // decisions on the dead-chain fallback statistic
  kDecisionsSuppressed,  // completed windows with no usable antennas
  kHmmUpdates,           // posterior filter updates
  kProfileStackRebuilds, // detector profile stack rebuilt while serving
                         // (a ladder swap's angular-profile refresh)
  kProfileStackHits,     // combined-scheme windows scored off the stack
  kBatches,              // SensingEngine::ProcessBatch calls
  kCalibrations,         // Detector::Calibrate calls observed
  kSessionsCaptured,     // simulator sessions captured (campaign)
  kCasesRun,             // campaign cases completed
  kTraceEventsDropped,   // trace events lost to a full ring
  kQuietWindows,         // windows accepted as quiet calibration evidence
  kProfileSwaps,         // adaptive profile/threshold swaps applied
  kLadderTransitions,    // recalibration-ladder state transitions
  kAgcRebaselines,       // AGC-jump fast re-baseline paths taken
  kFramesRouted,         // frames the serve demux routed to a shard queue
  kFramesDropped,        // frames displaced by drop-oldest back-pressure
  kFramesRejected,       // frames refused: reject-newest or mis-shaped
  kLinksAdmitted,        // links admitted to a serving shard roster
  kLinksEvicted,         // links evicted (capacity or health)
  kLinksReadmitted,      // evicted links re-admitted after cooldown
  kPacketsRefusedNonFinite,  // non-finite frames an unguarded link refused
};

inline constexpr std::size_t kNumCounters = 28;

const char* ToString(Counter counter);

enum class Gauge : std::uint8_t {
  kPosterior,       // last decision's P(occupied)
  kLastScore,       // last decision's raw statistic
  kEmptyScoreEwma,  // calibration ladder's quiet-score drift EWMA
  kLiveAntennas,    // live RX chains at the last decision
  kLadderState,     // recalibration-ladder state (CalibrationLadder value)
  kAdaptiveThreshold,  // threshold installed by the last profile swap
  kQueueDepth,         // shard ingest-queue depth at the last poll
  kResidentLinks,      // links resident on the shard roster
};

inline constexpr std::size_t kNumGauges = 8;

const char* ToString(Gauge gauge);

// Per-packet stages record latency once per this many ticks (counters are
// exact regardless). Power of two; sampling is a deterministic per-shard
// modulo, so histogram counts stay bit-identical across thread counts.
inline constexpr std::uint64_t kIngestSampleEvery = 16;

// Fixed-bucket latency histogram: bucket i holds durations in
// [kBucketFloorNs * 2^i, kBucketFloorNs * 2^(i+1)), the last bucket is the
// overflow. 250 ns .. ~4 ms covers everything from one guard inspection to
// a full combined-scheme window score.
struct LatencyHistogram {
  static constexpr std::size_t kNumBuckets = 15;
  static constexpr double kBucketFloorNs = 250.0;

  std::array<std::uint64_t, kNumBuckets> buckets{};
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;

  // Upper edge of bucket i (the last bucket has no upper edge).
  static double BucketUpperNs(std::size_t i);

  void Record(double ns);
  void MergeFrom(const LatencyHistogram& other);
  void Reset();

  // Bucket-interpolated quantile in ns (0 when empty).
  double ApproxQuantileNs(double q) const;
  double MeanNs() const {
    return count > 0 ? total_ns / static_cast<double>(count) : 0.0;
  }
};

// One shard of metrics: plain arrays, no heap, cheap to merge. Everything
// the pipeline reports flows through a Registry — per-link shards inside
// SensingEngine, per-case shards inside the campaign runners — and shards
// are merged in submission order for deterministic totals.
class Registry {
 public:
  void Add(Counter counter, std::uint64_t n = 1) noexcept {
#if MULINK_OBS_ENABLED
    counters_[static_cast<std::size_t>(counter)] += n;
#else
    (void)counter;
    (void)n;
#endif
  }

  std::uint64_t Get(Counter counter) const noexcept {
    return counters_[static_cast<std::size_t>(counter)];
  }

  void Set(Gauge gauge, double value) noexcept {
#if MULINK_OBS_ENABLED
    gauges_[static_cast<std::size_t>(gauge)] = value;
    gauge_set_ |= 1u << static_cast<std::size_t>(gauge);
#else
    (void)gauge;
    (void)value;
#endif
  }

  double Get(Gauge gauge) const noexcept {
    return gauges_[static_cast<std::size_t>(gauge)];
  }

  bool GaugeSet(Gauge gauge) const noexcept {
    return (gauge_set_ >> static_cast<std::size_t>(gauge)) & 1u;
  }

  void RecordStageNs(Stage stage, double ns) noexcept {
#if MULINK_OBS_ENABLED
    stages_[static_cast<std::size_t>(stage)].Record(ns);
#else
    (void)stage;
    (void)ns;
#endif
  }

  const LatencyHistogram& StageLatency(Stage stage) const noexcept {
    return stages_[static_cast<std::size_t>(stage)];
  }

  // Deterministic per-shard tick for ingest-stage latency sampling.
  bool SampleIngestTick() noexcept {
#if MULINK_OBS_ENABLED
    return (ingest_tick_++ % kIngestSampleEvery) == 0;
#else
    return false;
#endif
  }

  // Fold `shard` into this registry. Counters and histograms accumulate;
  // gauges take the shard's value when the shard wrote one (submission
  // order == last writer wins, deterministically).
  void MergeFrom(const Registry& shard) noexcept;

  void Reset() noexcept;

  // True when nothing has been recorded (all counters and stage counts 0).
  bool Empty() const noexcept;

  const std::array<std::uint64_t, kNumCounters>& counters() const noexcept {
    return counters_;
  }

 private:
  // The sampling tick leads, so it shares a cache line with the first
  // counters — everything a frame that completes no window records.
  std::uint64_t ingest_tick_ = 0;
  std::array<std::uint64_t, kNumCounters> counters_{};
  std::array<double, kNumGauges> gauges_{};
  std::uint32_t gauge_set_ = 0;
  std::array<LatencyHistogram, kNumStages> stages_{};
};

// Recording macros — the only way library code (src/** outside src/obs) may
// record observability data. tools/mulink-analyze enforces this statically
// (rule `obs-discipline`): direct Add/Set/RecordStageNs/ScopedStageTimer
// calls in library TUs fail CI. Routing every recording call through one
// macro family guarantees three things at once: the null-registry no-op
// check is never forgotten, the MULINK_OBS compile-time kill switch reaches
// every call site (the macros expand to the same empty inlines when
// recording is compiled out), and a grep for MULINK_OBS_ finds the complete
// instrumentation surface of the pipeline.
//
// `counter` / `gauge` / `stage` are bare enumerator names (kDecisions, not
// obs::Counter::kDecisions); the macros qualify them.

// Increment a counter by 1 on a nullable registry pointer.
#define MULINK_OBS_COUNT(registry_ptr, counter)                            \
  do {                                                                     \
    if ((registry_ptr) != nullptr) {                                       \
      (registry_ptr)->Add(::mulink::obs::Counter::counter);                \
    }                                                                      \
  } while (false)

// Increment a counter by `n` on a nullable registry pointer.
#define MULINK_OBS_COUNT_N(registry_ptr, counter, n)                       \
  do {                                                                     \
    if ((registry_ptr) != nullptr) {                                       \
      (registry_ptr)->Add(::mulink::obs::Counter::counter, (n));           \
    }                                                                      \
  } while (false)

// Increment a counter by `n` on a registry held by value (collection /
// merge paths that own their registry outright).
#define MULINK_OBS_COUNT_REF(registry_ref, counter, n)                     \
  (registry_ref).Add(::mulink::obs::Counter::counter, (n))

// Set a gauge on a nullable registry pointer.
#define MULINK_OBS_GAUGE(registry_ptr, gauge, value)                       \
  do {                                                                     \
    if ((registry_ptr) != nullptr) {                                       \
      (registry_ptr)->Set(::mulink::obs::Gauge::gauge, (value));           \
    }                                                                      \
  } while (false)

// Declare a named RAII timer recording this scope's duration into `stage`.
#define MULINK_OBS_STAGE_TIMER(name, registry_ptr, stage)                  \
  ::mulink::obs::ScopedStageTimer name((registry_ptr),                     \
                                       ::mulink::obs::Stage::stage)

// Evaluates to `registry_ptr` on 1-in-kIngestSampleEvery deterministic
// ticks and nullptr otherwise — the sampled sink for per-packet stages.
#define MULINK_OBS_SAMPLED(registry_ptr)                                   \
  (((registry_ptr) != nullptr && (registry_ptr)->SampleIngestTick())       \
       ? (registry_ptr)                                                    \
       : nullptr)

// RAII stage timer: records the scope's duration into the registry's stage
// histogram on destruction. A null registry is the runtime no-op sink — no
// clock is read at all.
class ScopedStageTimer {
 public:
  ScopedStageTimer(Registry* registry, Stage stage) noexcept
#if MULINK_OBS_ENABLED
      : registry_(registry), stage_(stage) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
#else
  {
    (void)registry;
    (void)stage;
  }
#endif

  ~ScopedStageTimer() {
#if MULINK_OBS_ENABLED
    if (registry_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      registry_->RecordStageNs(
          stage_,
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
#endif
  }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
#if MULINK_OBS_ENABLED
  Registry* registry_ = nullptr;
  Stage stage_{};
  std::chrono::steady_clock::time_point start_{};
#endif
};

}  // namespace mulink::obs
