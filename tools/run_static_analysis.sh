#!/usr/bin/env bash
# Static-analysis script for ccsim: runs tools/ccsim_analyze (always: its
# fixture self-test, then the tree) and clang-tidy (when installed) over the
# library sources.
#
# Usage:
#   tools/run_static_analysis.sh [BUILD_DIR] [-- FILE...]
#
#   BUILD_DIR   build tree holding compile_commands.json (default: build;
#               created with a plain configure if missing).
#   FILE...     restrict clang-tidy to these files (e.g. the files changed
#               on a branch); default is every .cc under src/.
#
# Exit status is non-zero if either tool reports findings. clang-tidy being
# absent is a skip, not a failure, so the script is safe in minimal
# containers. CI's static-analysis job runs the same two stages as separate
# steps, with clang-tidy installed.
set -u -o pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
if [[ $# -gt 0 && "$1" != "--" ]]; then
  BUILD_DIR=$1
  shift
fi
if [[ $# -gt 0 && "$1" == "--" ]]; then
  shift
fi

STATUS=0

echo "== ccsim_analyze =="
if ! python3 tools/ccsim_analyze --self-test; then
  STATUS=1
fi
if ! python3 tools/ccsim_analyze; then
  STATUS=1
fi

echo "== clang-tidy =="
if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy not installed; skipping (install it to run this stage)."
  exit $STATUS
fi

if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "No $BUILD_DIR/compile_commands.json; configuring..."
  cmake -B "$BUILD_DIR" -S . >/dev/null || exit 1
fi

if [[ $# -gt 0 ]]; then
  FILES=("$@")
else
  mapfile -t FILES < <(find src -name '*.cc' | sort)
fi

if ! clang-tidy -p "$BUILD_DIR" --quiet "${FILES[@]}"; then
  STATUS=1
fi

exit $STATUS
