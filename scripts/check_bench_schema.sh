#!/usr/bin/env bash
# Schema check for the drift campaign artifact CI uploads: BENCH_drift.json
# (fig_drift). CI fails if the campaign loses either arm, the per-day decay
# curves, the adaptive arm's ladder statistics, or the multi-thread
# determinism verdict (bit_identical must be true).
#
# The serving path's performance is measured by perfbench
# (`python3 perfbench/run.py`); its zero-allocation and fleet-accounting
# contracts are ctests (core_engine_footprint_test, serve_test).
#
# usage: check_bench_schema.sh <path/to/BENCH_drift.json>
set -euo pipefail

json="${1:?usage: check_bench_schema.sh <BENCH_drift.json>}"

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


require(doc.get("benchmark") == "fig_drift",
        f"benchmark is '{doc.get('benchmark')}', expected 'fig_drift'")
summary = check_drift(doc)

if errors:
    for error in errors:
        print(f"schema check FAILED: {error}", file=sys.stderr)
    sys.exit(1)
print(f"schema check OK: {path} ({summary})")
EOF
