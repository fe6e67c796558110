// Bounded ring of structured trace events, exportable as Chrome
// `trace_event` JSON (chrome://tracing, Perfetto, about:tracing).
//
// A TraceEvent is plain data — a stage, an optional scope index (campaign
// case or link), a thread id and a [ts, ts+dur] span relative to the ring's
// epoch. Recording into a warm ring never allocates; when the ring is full
// the newest events win and the owner's registry counts the loss (the ring
// is a flight recorder, not a lossless log).
//
// TraceRing is single-writer by design: every producer (one campaign case,
// one CLI run) owns its own ring, and rings are drained in submission order
// — the same determinism rule the metric registries follow.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace mulink::obs {

struct TraceEvent {
  Stage stage{};
  std::int32_t scope = -1;  // campaign case / link index, -1 when unscoped
  std::uint32_t tid = 0;    // worker index (0 on the serial path)
  double ts_us = 0.0;       // span start, microseconds since the ring epoch
  double dur_us = 0.0;      // span duration, microseconds
};

class TraceRing {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TraceRing(std::size_t capacity = 4096,
                     Clock::time_point epoch = Clock::now(),
                     std::uint32_t tid = 0);

  // Append one event; overwrites the oldest when full and counts the loss.
  void Record(const TraceEvent& event) noexcept;

  // Events in recording order (oldest surviving first).
  std::vector<TraceEvent> Snapshot() const;

  // Drain this ring into `out` in recording order and clear it.
  void DrainInto(std::vector<TraceEvent>& out);

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return events_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  Clock::time_point epoch() const noexcept { return epoch_; }
  std::uint32_t tid() const noexcept { return tid_; }

  void Clear() noexcept;

 private:
  std::vector<TraceEvent> events_;
  std::size_t head_ = 0;  // next write slot
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  Clock::time_point epoch_;
  std::uint32_t tid_ = 0;
};

// RAII span: records [construction, destruction) into the ring as one event
// stamped with the ring's epoch and tid. Null ring = no-op, no clock read.
class TraceSpan {
 public:
  TraceSpan(TraceRing* ring, Stage stage, std::int32_t scope = -1) noexcept
#if MULINK_OBS_ENABLED
      : ring_(ring), stage_(stage), scope_(scope) {
    if (ring_ != nullptr) start_ = TraceRing::Clock::now();
  }
#else
  {
    (void)ring;
    (void)stage;
    (void)scope;
  }
#endif

  ~TraceSpan() {
#if MULINK_OBS_ENABLED
    if (ring_ == nullptr) return;
    const auto end = TraceRing::Clock::now();
    TraceEvent event;
    event.stage = stage_;
    event.scope = scope_;
    event.tid = ring_->tid();
    event.ts_us =
        std::chrono::duration<double, std::micro>(start_ - ring_->epoch())
            .count();
    event.dur_us = std::chrono::duration<double, std::micro>(end - start_)
                       .count();
    ring_->Record(event);
#endif
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
#if MULINK_OBS_ENABLED
  TraceRing* ring_ = nullptr;
  Stage stage_{};
  std::int32_t scope_ = -1;
  TraceRing::Clock::time_point start_{};
#endif
};

}  // namespace mulink::obs

// Declare a named RAII trace span — the checker-enforced counterpart of the
// MULINK_OBS_* recording macros in obs/metrics.h (tools/mulink-analyze
// rule `obs-discipline`). `stage` is a bare enumerator name; a null ring
// is a no-op.
#define MULINK_OBS_TRACE_SPAN(name, ring_ptr, stage, scope)                \
  ::mulink::obs::TraceSpan name((ring_ptr), ::mulink::obs::Stage::stage,   \
                                (scope))
