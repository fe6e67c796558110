// Serializers for the observability registry. The CLI, benches and
// examples call them directly on a merged Registry snapshot, and the
// link-health JSON here is the single serialization monitors scrape
// (`--guard-json` and the metrics JSON embed the same shape).
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "nic/frame_guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mulink::obs {

// Human-readable: non-zero counters, set gauges, then one row per recorded
// stage (count, total, mean, p50, p95, max).
void WriteMetricsTable(std::ostream& out, const Registry& registry);

// Machine-readable: {"obs_enabled":…, "counters":{…}, "gauges":{…},
// "stages":{name:{count,total_ns,mean_ns,p50_ns,p95_ns,min_ns,max_ns,
// buckets:[…]}}}. Every counter and stage key is always present so scrapers
// can rely on the schema.
void WriteMetricsJson(std::ostream& out, const Registry& registry);

// Link-health snapshot as JSON (the machine-readable twin of the CLI's
// --guard table).
void WriteLinkHealthJson(std::ostream& out, const nic::LinkHealth& health);

// Chrome trace_event format: {"traceEvents":[{"ph":"X",...}]}. Load the
// file in chrome://tracing, about:tracing or ui.perfetto.dev.
void WriteChromeTrace(std::ostream& out, std::span<const TraceEvent> events);

// Compact single-line summary for live monitors:
// "win=12 dec=12 q=3 rep=1 degr=2 score=0.143 p50(score)=71us".
std::string OneLineSummary(const Registry& registry);

}  // namespace mulink::obs
