#!/usr/bin/env bash
# Run the clang-tidy zero-warning baseline over every first-party TU.
#
# Usage: scripts/run_clang_tidy.sh [BUILD_DIR] [-- extra clang-tidy args]
#
#   BUILD_DIR  a CMake build directory with compile_commands.json
#              (default: build; the top-level CMakeLists exports the
#              compilation database unconditionally).
#
# Exit codes: 0 clean / 1 findings / 2 usage or environment error.
#
# Gating: clang-tidy is not part of the pinned build container, so when the
# binary is absent this script prints a notice and exits 0 — the baseline is
# enforced by the strict-tidy-lint CI job, which installs clang-tidy. Set
# MULINK_REQUIRE_CLANG_TIDY=1 (CI does) to make a missing binary fatal.
set -u

BUILD_DIR="${1:-build}"
shift || true
[ "${1:-}" = "--" ] && shift

TIDY_BIN="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY_BIN" >/dev/null 2>&1; then
  if [ "${MULINK_REQUIRE_CLANG_TIDY:-0}" = "1" ]; then
    echo "run_clang_tidy: $TIDY_BIN not found and MULINK_REQUIRE_CLANG_TIDY=1" >&2
    exit 2
  fi
  echo "run_clang_tidy: $TIDY_BIN not found; skipping (enforced in CI)" >&2
  exit 0
fi

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "run_clang_tidy: $BUILD_DIR/compile_commands.json missing —" \
       "configure first: cmake -B $BUILD_DIR -S ." >&2
  exit 2
fi

cd "$(dirname "$0")/.."

# Every first-party TU; the compilation database filters out anything that
# is not part of the build (GTest mains etc. come via their own TUs).
mapfile -t FILES < <(find src tools examples bench -name '*.cpp' | sort)

if command -v run-clang-tidy >/dev/null 2>&1; then
  # The parallel driver that ships with clang-tidy.
  run-clang-tidy -clang-tidy-binary "$TIDY_BIN" -p "$BUILD_DIR" -quiet \
    "$@" "${FILES[@]/#/^}" && exit 0
  exit 1
fi

STATUS=0
for f in "${FILES[@]}"; do
  "$TIDY_BIN" -p "$BUILD_DIR" --quiet "$@" "$f" || STATUS=1
done
exit "$STATUS"
