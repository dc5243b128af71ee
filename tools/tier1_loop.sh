#!/usr/bin/env bash
# Runs the Tier-1 verify command N times and prints, per ctest entry, in
# how many runs it failed: the clean-run count a flake fix has to show
# (ROADMAP item 1).
#
#   tools/tier1_loop.sh N [BUILD_DIR] [-- CTEST_ARGS...]
#
# Configures and builds BUILD_DIR (default: build) once, then runs
# `ctest --output-on-failure -j<cores>` there N times. CTEST_ARGS are
# passed on, e.g. `-- -R 'txn_test|txn_mvcc_test|containers_test'` to
# loop over some suites only. The log of every failing run is kept as
# BUILD_DIR/tier1-loop/run-<i>.log. Exits 1 if any run failed.
set -euo pipefail

if [[ $# -lt 1 || ! $1 =~ ^[0-9]+$ || $1 -lt 1 ]]; then
  sed -n '2,12p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
RUNS=$1
shift
BUILD=build
if [[ $# -gt 0 && $1 != "--" ]]; then
  BUILD=$1
  shift
fi
[[ $# -gt 0 && $1 == "--" ]] && shift
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j"$(nproc)" >/dev/null
LOGS="$BUILD/tier1-loop"
mkdir -p "$LOGS"

declare -A FAILS
mapfile -t TESTS < <(cd "$BUILD" && ctest -N "$@" |
  sed -n 's/^ *Test *#[0-9]*: *//p')
for T in "${TESTS[@]}"; do FAILS[$T]=0; done

CLEAN=0
for ((I = 1; I <= RUNS; ++I)); do
  LOG="$LOGS/run-$I.log"
  if (cd "$BUILD" && ctest --output-on-failure -j"$(nproc)" "$@") >"$LOG" 2>&1
  then
    CLEAN=$((CLEAN + 1))
    rm -f "$LOG"
    echo "run $I/$RUNS: clean"
    continue
  fi
  FAILED=$(sed -n 's/^[[:space:]]*[0-9]* - \([^ ]*\) (.*)$/\1/p' "$LOG")
  echo "run $I/$RUNS: failed:" $FAILED "(log: $LOG)"
  for T in $FAILED; do FAILS[$T]=$((${FAILS[$T]:-0} + 1)); done
done

echo
echo "clean runs: $CLEAN of $RUNS"
printf '%-36s %s\n' "test" "failed runs"
for T in "${TESTS[@]}"; do
  printf '%-36s %d/%d\n' "$T" "${FAILS[$T]}" "$RUNS"
done
[[ $CLEAN -eq $RUNS ]]
