#!/usr/bin/env bash
# Schema check for the benchmark JSON artifacts CI uploads.
#
# Dispatches on the artifact's top-level "benchmark" field:
#   * BENCH_engine.json (micro_core) — CI fails here if a refactor silently
#     drops the per-stage breakdown or the counting-allocator columns, the
#     two signals that prove the engine's observability stays cheap
#     (metrics_overhead_pct) and allocation-free
#     (engine*_allocs_per_decision == 0 in steady state).
#   * BENCH_drift.json (fig_drift) — CI fails if the drift campaign loses
#     either arm, the per-day decay curves, the adaptive arm's ladder
#     statistics, or the multi-thread determinism verdict (bit_identical
#     must be true).
#   * BENCH_serve.json (mulink_serve) — CI fails if the serving tier loses
#     its fleet rows, the per-shard queue-depth percentiles, the headline's
#     zero-allocation guarantee, the scaling curve, or the shard-count
#     determinism verdict (bit_identical must be true).
#
# usage: check_bench_schema.sh <path/to/BENCH_*.json>
set -euo pipefail

json="${1:?usage: check_bench_schema.sh <BENCH_*.json>}"

python3 - "$json" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

errors = []

def require(cond, message):
    if not cond:
        errors.append(message)


def check_engine(doc):
    for key in ("benchmark", "window_packets", "hop_packets", "stream_packets",
                "schemes", "obs_enabled", "stages", "roofline"):
        require(key in doc, f"missing top-level key '{key}'")

    scheme_keys = (
        "scheme",
        "legacy_ns_per_decision", "legacy_allocs_per_decision",
        "scratch_ns_per_decision", "scratch_allocs_per_decision",
        "engine_ns_per_decision", "engine_allocs_per_decision",
        "engine_metrics_ns_per_decision", "engine_metrics_allocs_per_decision",
        "metrics_overhead_pct", "speedup",
    )
    rows = doc.get("schemes", [])
    require(len(rows) == 4, f"expected 4 scheme rows, found {len(rows)}")
    for row in rows:
        for key in scheme_keys:
            require(key in row,
                    f"scheme row {row.get('scheme', '?')} lost '{key}'")

    # Steady-state decisions must stay allocation-free, with or without
    # metrics.
    for row in rows:
        for key in ("engine_allocs_per_decision",
                    "engine_metrics_allocs_per_decision"):
            value = row.get(key)
            require(isinstance(value, (int, float)) and value == 0,
                    f"{row.get('scheme', '?')}: {key} = {value}, expected 0")

    # The named pipeline stages must all be present in the breakdown.
    stage_names = (
        "guard_classify", "ingest_sanitize", "subcarrier_weighting",
        "music_path_weighting", "score", "hmm_filter", "calibrate",
        "capture", "case",
    )
    stages = doc.get("stages", {})
    for name in stage_names:
        require(name in stages, f"stages object lost '{name}'")
        for key in ("count", "ns_per_decision", "mean_ns"):
            require(key in stages.get(name, {}),
                    f"stage '{name}' lost '{key}'")

    # With obs compiled in, the hot stages must actually have samples (the
    # HMM stage legitimately stays zero: micro_core runs hmm off).
    if doc.get("obs_enabled"):
        for name in ("score", "ingest_sanitize", "music_path_weighting"):
            require(stages.get(name, {}).get("count", 0) > 0,
                    f"obs enabled but stage '{name}' recorded no samples")

    # Per-stage roofline rows for the combined scheme: analytic traffic and
    # arithmetic per decision alongside the measured time. Losing a row (or
    # the analytic columns going non-positive) means the kernel-layer
    # accounting in WriteEngineJson fell out of sync with the pipeline.
    roofline_stages = ("ingest_sanitize", "subcarrier_weighting",
                      "music_path_weighting", "score")
    roofline = doc.get("roofline", {})
    for name in roofline_stages:
        require(name in roofline, f"roofline object lost '{name}'")
        row = roofline.get(name, {})
        for key in ("bytes_per_decision", "flops_per_decision",
                    "ns_per_decision"):
            require(key in row, f"roofline '{name}' lost '{key}'")
        for key in ("bytes_per_decision", "flops_per_decision"):
            value = row.get(key)
            require(isinstance(value, (int, float)) and value > 0,
                    f"roofline '{name}': {key} = {value}, expected > 0")

    return (f"{len(rows)} schemes, {len(stages)} stages, "
            f"{len(roofline)} roofline rows, "
            f"obs_enabled={doc.get('obs_enabled')}")


def check_drift(doc):
    for key in ("benchmark", "smoke", "days", "links", "window_packets",
                "windows_per_hour", "hours_per_day", "faults", "adaptive",
                "static", "determinism"):
        require(key in doc, f"missing top-level key '{key}'")

    faults = doc.get("faults", {})
    for key in ("drift_ramp_db_per_1k", "drift_ramp_max_db",
                "furniture_step_packets", "agc_schedule_every_packets"):
        require(key in faults, f"faults object lost '{key}'")

    days = doc.get("days", 0)
    for arm in ("adaptive", "static"):
        row = doc.get(arm, {})
        for key in ("detection_pct", "fp_pct", "per_day"):
            require(key in row, f"arm '{arm}' lost '{key}'")
        per_day = row.get("per_day", [])
        require(len(per_day) == days,
                f"arm '{arm}': {len(per_day)} per-day rows, expected {days}")
        for day in per_day:
            for key in ("day", "detection_pct", "fp_pct"):
                require(key in day, f"arm '{arm}' per-day row lost '{key}'")

    # The ladder statistics only exist on the adaptive arm — losing them
    # means the campaign stopped exercising the calibration subsystem.
    for key in ("quiet_windows", "profile_swaps", "agc_rebaselines"):
        require(key in doc.get("adaptive", {}), f"adaptive arm lost '{key}'")

    determinism = doc.get("determinism", {})
    require(len(determinism.get("thread_counts", [])) >= 2,
            "determinism ran fewer than 2 thread counts")
    require(determinism.get("bit_identical") is True,
            "campaign is not bit-identical across thread counts")

    return (f"{days} days x {doc.get('links')} links, "
            f"smoke={doc.get('smoke')}, "
            f"bit_identical={determinism.get('bit_identical')}")


def check_serve(doc):
    for key in ("benchmark", "smoke", "scheme", "window_packets",
                "hop_packets", "queue_capacity", "policy",
                "hardware_concurrency", "rows", "scaling", "headline",
                "determinism"):
        require(key in doc, f"missing top-level key '{key}'")

    row_keys = ("links", "shards", "window_packets", "churn",
                "frames_routed", "decisions", "elapsed_s", "decisions_per_s",
                "allocs_per_decision", "links_admitted", "links_evicted",
                "queue_depth")
    rows = doc.get("rows", [])
    require(len(rows) >= 2, f"expected >= 2 fleet rows, found {len(rows)}")
    for row in rows:
        for key in row_keys:
            require(key in row,
                    f"fleet row links={row.get('links', '?')} lost '{key}'")
        depths = row.get("queue_depth", [])
        require(len(depths) == row.get("shards"),
                f"fleet row links={row.get('links', '?')}: "
                f"{len(depths)} depth rows for {row.get('shards')} shards")
        for depth in depths:
            for key in ("p50", "p90", "p99", "max", "samples"):
                require(key in depth, f"queue_depth row lost '{key}'")
        # Resident (non-churn) fleets must stay allocation-free per
        # decision; churn rows legitimately allocate on the admission path.
        if not row.get("churn"):
            value = row.get("allocs_per_decision")
            require(isinstance(value, (int, float)) and value == 0,
                    f"resident fleet links={row.get('links', '?')}: "
                    f"allocs_per_decision = {value}, expected 0")

    scaling = doc.get("scaling", [])
    require(len(scaling) >= 2,
            f"scaling curve has {len(scaling)} points, expected >= 2")
    for point in scaling:
        for key in ("shards", "links", "decisions_per_s", "oversubscribed"):
            require(key in point, f"scaling point lost '{key}'")

    headline = doc.get("headline", {})
    for key in ("links", "shards", "window_packets", "decisions_per_s",
                "allocs_per_decision"):
        require(key in headline, f"headline lost '{key}'")
    require(headline.get("allocs_per_decision") == 0,
            "headline fleet is not allocation-free per decision")

    determinism = doc.get("determinism", {})
    require(len(determinism.get("shard_counts", [])) >= 2,
            "determinism ran fewer than 2 shard counts")
    require(determinism.get("bit_identical") is True,
            "decision log is not bit-identical across shard counts")

    return (f"{len(rows)} fleet rows, {len(scaling)} scaling points, "
            f"headline {headline.get('decisions_per_s')} decisions/s, "
            f"smoke={doc.get('smoke')}, "
            f"bit_identical={determinism.get('bit_identical')}")


if doc.get("benchmark") == "fig_drift":
    summary = check_drift(doc)
elif doc.get("benchmark") == "mulink_serve":
    summary = check_serve(doc)
else:
    summary = check_engine(doc)

if errors:
    for error in errors:
        print(f"schema check FAILED: {error}", file=sys.stderr)
    sys.exit(1)
print(f"schema check OK: {path} ({summary})")
EOF
