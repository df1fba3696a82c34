#!/usr/bin/env bash
# Wall-clock snapshot of the simulator's host-side performance:
#
#   1. times fig14_overall (5 policies x 14 workloads = 70 simulations)
#      serially and with one job per core,
#   2. times the same sweep with the host self-profiler on, so the
#      profiler's overhead is measured and recorded,
#   3. times the same sweep with latency attribution on (exact mode),
#      so the attribution overhead is measured and recorded like the
#      profiler's,
#   4. captures a per-subsystem host self-profile (via hdpat_cli
#      --profile and perf_report --extract) and embeds it in the
#      emitted record for perf_report --baseline diffs,
#   5. captures a latency-anatomy digest of the same representative
#      run (via perf_report --extract-latency) and embeds it for
#      perf_report --latency-diff tail-regression gating,
#   6. captures the exported simulation counters of an audited run of
#      the same representative command, embedded for
#      perf_report --counter-check (the engine.events_scheduled gate
#      that catches NoC delivery companions run as events of their own),
#   7. times the same sweep with backpressure accounting on, so the
#      resource-saturation overhead is measured and recorded like the
#      profiler's and latency attribution's,
#   8. records the micro_substrates google-benchmark suite as
#      BENCH_micro.json (next to the fig14 record),
#   9. runs the fig_tenant_churn multi-tenant sweep and captures the
#      exported counters of its heaviest cell (8 tenants, 1000
#      switches/Mtick), so tenancy-path slowdowns and behavioral
#      drift in the shootdown/fault machinery land in the record,
#  10. appends a one-line digest (commit, date, headline wall-clock
#      and ns/call numbers, audited counters, churn-sweep digest) to
#      BENCH_history.jsonl, so the perf trajectory across PRs stays
#      queryable instead of being overwritten in BENCH_fig14.json.
#
# Usage: bench/perf_snapshot.sh [BUILD_DIR] [OPS_PER_GPM] > BENCH_fig14.json
#        MICRO_OUT=path.json overrides the micro-benchmark output path.
#        HISTORY_OUT=path.jsonl overrides the history append target.
set -euo pipefail

BUILD_DIR="${1:-build}"
OPS="${2:-300}"
BIN="$BUILD_DIR/bench/fig14_overall"
CLI="$BUILD_DIR/examples/hdpat_cli"
REPORT="$BUILD_DIR/bench/perf_report"
MICRO="$BUILD_DIR/bench/micro_substrates"
EVENTQ="$BUILD_DIR/bench/bench_event_queue"
CHURN="$BUILD_DIR/bench/fig_tenant_churn"
MICRO_OUT="${MICRO_OUT:-BENCH_micro.json}"
HISTORY_OUT="${HISTORY_OUT:-BENCH_history.jsonl}"
CORES="$(nproc)"

for tool in "$BIN" "$CLI" "$REPORT" "$MICRO" "$EVENTQ" "$CHURN"; do
    if [ ! -x "$tool" ]; then
        echo "error: $tool not found (build first: cmake --build $BUILD_DIR -j)" >&2
        exit 1
    fi
done

# Refuse to snapshot anything but a Release build: committed
# BENCH_*.json records gate CI, and a debug-build baseline would make
# every future Release measurement look like a huge improvement (and
# mask real regressions). Checked before any record is written.
if ! grep -q '^CMAKE_BUILD_TYPE:[^=]*=Release$' "$BUILD_DIR/CMakeCache.txt" \
        2>/dev/null; then
    echo "error: $BUILD_DIR is not a Release build" >&2
    echo "  (configure with -DCMAKE_BUILD_TYPE=Release; found: \
$(grep '^CMAKE_BUILD_TYPE:' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null \
        || echo 'no CMakeCache.txt'))" >&2
    exit 1
fi

run_timed() {
    local jobs="$1" profile="$2" latency="${3:-}" backpressure="${4:-}"
    local start end
    start="$(date +%s.%N)"
    HDPAT_JOBS="$jobs" HDPAT_PROFILE="$profile" \
        HDPAT_LATENCY="$latency" HDPAT_BACKPRESSURE="$backpressure" \
        "$BIN" "$OPS" > /dev/null
    end="$(date +%s.%N)"
    awk -v s="$start" -v e="$end" 'BEGIN { printf "%.3f", e - s }'
}

# Warm-up run so first-touch costs (page cache, allocator) don't skew
# the serial number.
"$BIN" 50 > /dev/null

SERIAL="$(run_timed 1 "")"
PARALLEL="$(run_timed "$CORES" "")"
SPEEDUP="$(awk -v s="$SERIAL" -v p="$PARALLEL" \
    'BEGIN { printf "%.2f", (p > 0 ? s / p : 0) }')"

# The same serial sweep with the self-profiler on: the delta is the
# profiler's own overhead, recorded so regressions in the "zero-cost
# when disabled" promise show up in review.
PROFILED="$(run_timed 1 1)"
OVERHEAD_PCT="$(awk -v s="$SERIAL" -v p="$PROFILED" \
    'BEGIN { printf "%.1f", (s > 0 ? (p / s - 1) * 100 : 0) }')"

# And with latency attribution on (exact mode, every span): the delta
# is the attribution overhead, recorded for the same reason -- the
# "bitwise-identical when off, measured cost when on" promise.
LATENCY_TIMED="$(run_timed 1 "" 1)"
LATENCY_OVERHEAD_PCT="$(awk -v s="$SERIAL" -v l="$LATENCY_TIMED" \
    'BEGIN { printf "%.1f", (s > 0 ? (l / s - 1) * 100 : 0) }')"

# And with backpressure accounting on (every bounded structure reports
# its transitions): same promise, same measurement.
BACKPRESSURE_TIMED="$(run_timed 1 "" "" 1)"
BACKPRESSURE_OVERHEAD_PCT="$(awk -v s="$SERIAL" -v b="$BACKPRESSURE_TIMED" \
    'BEGIN { printf "%.1f", (s > 0 ? (b / s - 1) * 100 : 0) }')"

# Per-subsystem profile of one representative profiled run, embedded
# for perf_report --baseline and the CI --check gate. An unprofiled
# warm-up of the same command first, so first-touch costs don't land
# in the recorded per-call times (CI's perf-smoke step warms up the
# same way before it measures).
PROFILE_TMP="$(mktemp --suffix=.json)"
trap 'rm -f "$PROFILE_TMP"' EXIT
"$CLI" --workload SPMV --policy hdpat --ops "$OPS" > /dev/null
HDPAT_PROFILE=1 HDPAT_METRICS_JSON="$PROFILE_TMP" \
    "$CLI" --workload SPMV --policy hdpat --ops "$OPS" --profile \
    > /dev/null
PROFILE_JSON="$("$REPORT" --extract "$PROFILE_TMP")"

# Latency-anatomy digest of the same representative run (exact mode),
# embedded for perf_report --latency-diff: simulated per-stage ticks
# are deterministic, so CI can hold tail regressions to a tight band.
LATENCY_TMP="$(mktemp --suffix=.json)"
trap 'rm -f "$PROFILE_TMP" "$LATENCY_TMP"' EXIT
HDPAT_LATENCY=1 HDPAT_METRICS_JSON="$LATENCY_TMP" \
    "$CLI" --workload SPMV --policy hdpat --ops "$OPS" --latency \
    > /dev/null
LATENCY_JSON="$("$REPORT" --extract-latency "$LATENCY_TMP")"

# Exported simulation counters of an *audited* run of the same command,
# embedded for perf_report --counter-check. Audited, because only runs
# with an observer attached carry NoC delivery companions:
# engine.events_scheduled from this run is the number that jumps ~20%
# if those companions stop riding inside the arrival events.
COUNTER_TMP="$(mktemp --suffix=.json)"
trap 'rm -f "$PROFILE_TMP" "$LATENCY_TMP" "$COUNTER_TMP"' EXIT
HDPAT_AUDIT=1 HDPAT_METRICS_JSON="$COUNTER_TMP" \
    "$CLI" --workload SPMV --policy hdpat --ops "$OPS" --audit \
    > /dev/null
COUNTERS_JSON="$(jq -c '.counters' "$COUNTER_TMP")"

# Substrate micro-benchmarks (TLB, cuckoo filter, event queue, ...),
# plus the event-queue delta-mix suite, merged into one record (the
# benchmarks arrays concatenate; context comes from the substrate
# run).
SUBSTRATE_TMP="$(mktemp --suffix=.json)"
EVENTQ_TMP="$(mktemp --suffix=.json)"
trap 'rm -f "$PROFILE_TMP" "$LATENCY_TMP" "$COUNTER_TMP" \
    "$SUBSTRATE_TMP" "$EVENTQ_TMP"' EXIT
"$MICRO" --benchmark_format=json --benchmark_out="$SUBSTRATE_TMP" \
    --benchmark_out_format=json > /dev/null
"$EVENTQ" --benchmark_format=json --benchmark_out="$EVENTQ_TMP" \
    --benchmark_out_format=json > /dev/null
# Same Release discipline for the google-benchmark harness itself:
# its JSON context records how the benchmark *library* was built. The
# timing loops live in OUR translation units (covered by the
# CMAKE_BUILD_TYPE assertion above); the library only contributes the
# per-iteration bookkeeping, and the Debian-packaged libbenchmark is
# compiled without NDEBUG so it always reports "debug". Hard-fail only
# if the context is missing entirely (wrong/ancient library); surface
# a non-release library loudly so the record is never mistaken for a
# fully-release harness.
for bench_json in "$SUBSTRATE_TMP" "$EVENTQ_TMP"; do
    build_type="$(jq -r '.context.library_build_type // empty' \
        "$bench_json")"
    if [ -z "$build_type" ]; then
        echo "error: google-benchmark emitted no" \
            "context.library_build_type (unsupported library?)" >&2
        exit 1
    fi
    if [ "$build_type" != "release" ]; then
        echo "warning: google-benchmark library reports build type" \
            "'$build_type' (system-packaged lib without NDEBUG);" \
            "benchmark bodies are still Release-built -- compare" \
            "records only against the same library" >&2
    fi
done
jq -s '.[0] * {benchmarks: (.[0].benchmarks + .[1].benchmarks)}' \
    "$SUBSTRATE_TMP" "$EVENTQ_TMP" > "$MICRO_OUT"
echo "wrote micro-benchmark record to $MICRO_OUT" >&2

# Multi-tenant churn sweep: wall-clock of the whole tenant-count x
# switch-rate grid, plus the exported tenancy counters of the
# heaviest cell. The sweep is deterministic, so the counters gate
# behavioral drift in the shootdown/fault paths the same way
# engine.events_scheduled gates NoC fusion.
CHURN_DIR="$(mktemp -d)"
trap 'rm -f "$PROFILE_TMP" "$LATENCY_TMP" "$COUNTER_TMP" \
    "$SUBSTRATE_TMP" "$EVENTQ_TMP"; rm -rf "$CHURN_DIR"' EXIT
churn_start="$(date +%s.%N)"
HDPAT_TENANT_CHURN_DIR="$CHURN_DIR" "$CHURN" "$OPS" > /dev/null
churn_end="$(date +%s.%N)"
CHURN_SECONDS="$(awk -v s="$churn_start" -v e="$churn_end" \
    'BEGIN { printf "%.3f", e - s }')"
CHURN_JSON="$(jq -c '{
    total_ticks: .run.total_ticks,
    context_switches: .counters["tenancy.context_switches"],
    pages_churned: .counters["tenancy.pages_churned"],
    page_faults: .counters["iommu.page_faults"],
    faults_serviced: .counters["iommu.faults_serviced"],
    stale_installs_blocked: .counters["gpm.stale_installs_blocked"],
    invalidations_received: .counters["gpm.invalidations_received"]
  }' "$CHURN_DIR/fig_tenant_churn.hdpat.t8.s1000.json")"

DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

cat <<EOF
{
  "bench": "fig14_overall",
  "ops_per_gpm": $OPS,
  "cores": $CORES,
  "serial_seconds": $SERIAL,
  "parallel_jobs": $CORES,
  "parallel_seconds": $PARALLEL,
  "speedup": $SPEEDUP,
  "profiled_serial_seconds": $PROFILED,
  "profiler_overhead_pct": $OVERHEAD_PCT,
  "latency_serial_seconds": $LATENCY_TIMED,
  "latency_overhead_pct": $LATENCY_OVERHEAD_PCT,
  "backpressure_serial_seconds": $BACKPRESSURE_TIMED,
  "backpressure_overhead_pct": $BACKPRESSURE_OVERHEAD_PCT,
  "churn_sweep_seconds": $CHURN_SECONDS,
  "churn_heaviest_cell": $CHURN_JSON,
  "profile": $PROFILE_JSON,
  "latency": $LATENCY_JSON,
  "counters": $COUNTERS_JSON,
  "date": "$DATE",
  "host": "$(uname -sm)"
}
EOF

# One-line history record: the headline numbers only (wall-clock per
# mode, the hot sections' ns/call, the audited event/translation
# counters), keyed by commit. Appended, never rewritten -- the
# committed BENCH_fig14.json holds the full current baseline, this
# file holds the trajectory.
COMMIT="$(git -C "$(dirname "$0")/.." rev-parse --short HEAD \
    2>/dev/null || echo unknown)"
jq -cn \
    --arg commit "$COMMIT" \
    --arg date "$DATE" \
    --argjson ops "$OPS" \
    --argjson serial "$SERIAL" \
    --argjson parallel "$PARALLEL" \
    --argjson speedup "$SPEEDUP" \
    --argjson profiler_pct "$OVERHEAD_PCT" \
    --argjson latency_pct "$LATENCY_OVERHEAD_PCT" \
    --argjson backpressure_pct "$BACKPRESSURE_OVERHEAD_PCT" \
    --argjson profile "$PROFILE_JSON" \
    --argjson counters "$COUNTERS_JSON" \
    --argjson churn_seconds "$CHURN_SECONDS" \
    --argjson churn "$CHURN_JSON" \
    '{commit: $commit, date: $date, bench: "fig14_overall",
      ops_per_gpm: $ops, serial_seconds: $serial,
      parallel_seconds: $parallel, speedup: $speedup,
      profiler_overhead_pct: $profiler_pct,
      latency_overhead_pct: $latency_pct,
      backpressure_overhead_pct: $backpressure_pct,
      churn_sweep_seconds: $churn_seconds,
      churn_heaviest_cell: $churn,
      ns_per_call: ($profile.sections
          | with_entries(.value = (if .value.calls > 0
              then (.value.nanos / .value.calls | round) else 0 end))),
      counters: {
          events_scheduled: $counters["engine.events_scheduled"],
          iommu_walks_completed: $counters["iommu.walks_completed"]
      }}' >> "$HISTORY_OUT"
echo "appended history record for $COMMIT to $HISTORY_OUT" >&2
