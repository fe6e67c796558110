// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark around its calls into each layer (set-up phases, ticks and submit
// batches, sampled Submit calls, probes); nothing inside the library is
// instrumented. The buffer is reserved up front, so recording in a timed
// phase does not allocate; spans past the capacity are counted and dropped.
// Everything is written out once, at exit, as Chrome trace_event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";   // "<layer>.<what>", e.g. "serve.submit"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 for roots
  std::int64_t group = -1;   // spans of one tick / pass share this id
};

// Self time per span name: total duration minus the part covered by child
// spans (spans whose parent is one of this name's spans).
struct SelfTimeRow {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  Tracer(bool enabled, std::size_t capacity);

  bool enabled() const { return enabled_; }
  std::int64_t NowNs() const;

  // Open a span now; returns its id (-1 when disabled or full).
  std::int32_t Begin(const char* name, std::int32_t parent = -1,
                     std::int64_t group = -1);
  void End(std::int32_t id);
  // Record a span timed by the caller (times from NowNs()).
  std::int32_t Add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1,
                   std::int64_t group = -1);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  std::vector<SelfTimeRow> SelfTimes() const;
  // Chrome trace_event JSON ("X" complete events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// RAII span (no-op when the tracer is disabled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int32_t parent = -1,
             std::int64_t group = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent, group)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

}  // namespace perfbench
