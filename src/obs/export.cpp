#include "obs/export.h"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace mulink::obs {

namespace {

// JSON-safe number: finite values print as-is, non-finite as 0 (the trace
// and metrics schemas promise plain numbers).
double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

Stage StageAt(std::size_t i) { return static_cast<Stage>(i); }

std::string FmtNs(double ns) {
  std::ostringstream os;
  os << std::fixed;
  if (ns >= 1e6) {
    os << std::setprecision(2) << ns / 1e6 << " ms";
  } else if (ns >= 1e3) {
    os << std::setprecision(1) << ns / 1e3 << " us";
  } else {
    os << std::setprecision(0) << ns << " ns";
  }
  return os.str();
}

}  // namespace

void WriteMetricsTable(std::ostream& out, const Registry& registry) {
  if (!kEnabled) {
    out << "metrics: observability subsystem compiled out (-DMULINK_OBS=OFF)\n";
    return;
  }
  out << "metrics:\n";
  bool any_counter = false;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto counter = static_cast<Counter>(i);
    if (registry.Get(counter) == 0) continue;
    any_counter = true;
    out << "  " << std::left << std::setw(24) << ToString(counter)
        << std::right << std::setw(12) << registry.Get(counter) << "\n";
  }
  if (!any_counter) out << "  (no counters recorded)\n";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    const auto gauge = static_cast<Gauge>(i);
    if (!registry.GaugeSet(gauge)) continue;
    out << "  " << std::left << std::setw(24) << ToString(gauge) << std::right
        << std::setw(12) << std::fixed << std::setprecision(4)
        << registry.Get(gauge) << "\n";
  }
  bool any_stage = false;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto& h = registry.StageLatency(StageAt(i));
    if (h.count == 0) continue;
    if (!any_stage) {
      any_stage = true;
      out << "stages:" << std::left << std::setw(16) << "" << std::right
          << std::setw(10) << "count" << std::setw(12) << "total"
          << std::setw(12) << "mean" << std::setw(12) << "p50"
          << std::setw(12) << "p95" << std::setw(12) << "max" << "\n";
    }
    out << "  " << std::left << std::setw(21) << ToString(StageAt(i))
        << std::right << std::setw(10) << h.count << std::setw(12)
        << FmtNs(h.total_ns) << std::setw(12) << FmtNs(h.MeanNs())
        << std::setw(12) << FmtNs(h.ApproxQuantileNs(0.5)) << std::setw(12)
        << FmtNs(h.ApproxQuantileNs(0.95)) << std::setw(12) << FmtNs(h.max_ns)
        << "\n";
  }
  if (!any_stage) out << "stages: (no stage timings recorded)\n";
}

void WriteMetricsJson(std::ostream& out, const Registry& registry) {
  out << "{\n  \"obs_enabled\": " << (kEnabled ? "true" : "false")
      << ",\n  \"counters\": {";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto counter = static_cast<Counter>(i);
    out << (i == 0 ? "" : ", ") << "\"" << ToString(counter)
        << "\": " << registry.Get(counter);
  }
  out << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    const auto gauge = static_cast<Gauge>(i);
    out << (i == 0 ? "" : ", ") << "\"" << ToString(gauge)
        << "\": " << Finite(registry.Get(gauge));
  }
  out << "},\n  \"stages\": {\n";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto& h = registry.StageLatency(StageAt(i));
    out << "    \"" << ToString(StageAt(i)) << "\": {\"count\": " << h.count
        << ", \"total_ns\": " << Finite(h.total_ns)
        << ", \"mean_ns\": " << Finite(h.MeanNs())
        << ", \"p50_ns\": " << Finite(h.ApproxQuantileNs(0.5))
        << ", \"p95_ns\": " << Finite(h.ApproxQuantileNs(0.95))
        << ", \"min_ns\": " << Finite(h.min_ns)
        << ", \"max_ns\": " << Finite(h.max_ns) << ", \"buckets\": [";
    for (std::size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      out << (b == 0 ? "" : ", ") << h.buckets[b];
    }
    out << "]}" << (i + 1 < kNumStages ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

void WriteLinkHealthJson(std::ostream& out, const nic::LinkHealth& health) {
  out << "{\n  \"status\": \"" << nic::ToString(nic::Status(health))
      << "\",\n  \"received\": " << health.received
      << ",\n  \"accepted\": " << health.accepted
      << ",\n  \"repaired\": " << health.repaired
      << ",\n  \"quarantined\": " << health.quarantined
      << ",\n  \"missing\": " << health.missing << ",\n  \"faults\": {";
  for (std::size_t f = 0; f < nic::kNumFrameFaults; ++f) {
    const auto fault = static_cast<nic::FrameFault>(1u << f);
    out << (f == 0 ? "" : ", ") << "\"" << nic::ToString(fault)
        << "\": " << health.fault_counts[f];
  }
  out << "},\n  \"dead_antenna_mask\": " << health.dead_antenna_mask
      << ",\n  \"degraded\": " << (health.degraded ? "true" : "false")
      << ",\n  \"degraded_decisions\": " << health.degraded_decisions
      << ",\n  \"profile_drift\": " << (health.profile_drift ? "true" : "false")
      << ",\n  \"empty_score_ewma\": " << Finite(health.empty_score_ewma)
      << ",\n  \"calibration_state\": \""
      << nic::ToString(health.calibration_state) << "\""
      << ",\n  \"calibration_state_id\": "
      << static_cast<unsigned>(health.calibration_state)
      << ",\n  \"quiet_windows\": " << health.quiet_windows
      << ",\n  \"profile_swaps\": " << health.profile_swaps
      << ",\n  \"adaptive_threshold\": " << Finite(health.adaptive_threshold)
      << "\n}\n";
}

void WriteChromeTrace(std::ostream& out, std::span<const TraceEvent> events) {
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    out << "  {\"name\": \"" << ToString(e.stage)
        << "\", \"cat\": \"mulink\", \"ph\": \"X\", \"pid\": 0, \"tid\": "
        << e.tid << ", \"ts\": " << Finite(e.ts_us)
        << ", \"dur\": " << Finite(e.dur_us);
    if (e.scope >= 0) out << ", \"args\": {\"case\": " << e.scope << "}";
    out << "}" << (i + 1 < events.size() ? "," : "") << "\n";
  }
  out << "]}\n";
}

std::string OneLineSummary(const Registry& registry) {
  std::ostringstream os;
  if (!kEnabled) {
    os << "obs=off";
    return os.str();
  }
  os << "win=" << registry.Get(Counter::kWindowsScored)
     << " dec=" << registry.Get(Counter::kDecisions)
     << " q=" << registry.Get(Counter::kPacketsQuarantined)
     << " rep=" << registry.Get(Counter::kPacketsRepaired)
     << " degr=" << registry.Get(Counter::kDegradedDecisions);
  if (registry.GaugeSet(Gauge::kLastScore)) {
    os << " score=" << std::fixed << std::setprecision(3)
       << registry.Get(Gauge::kLastScore);
  }
  const auto& score = registry.StageLatency(Stage::kScore);
  if (score.count > 0) {
    os << " p50(score)=" << FmtNs(score.ApproxQuantileNs(0.5));
  }
  return os.str();
}

}  // namespace mulink::obs
