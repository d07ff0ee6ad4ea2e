#!/usr/bin/env sh
# CI entry point: the tier-1 verify with warnings hardened to errors on
# every treesat target (-Wall -Wextra -Werror via TREESAT_WERROR), then a
# service smoke stage (treesat_serve replays the committed golden trace and
# the responses are byte-compared -- regen via TREESAT_UPDATE_GOLDEN=1 --
# then the trace is split and replayed across a checkpointed restart, which
# must resume byte-identically; an overload smoke then replays a committed
# adversarial stress trace with recorded degrade stamps -- golden- and
# shard-identical -- plus a 1us-deadline leg that must degrade instead of
# erroring). An observability smoke rides in the same stage: the golden
# replay is repeated with --metrics-out/--trace-out, the deterministic
# slice of the Prometheus scrape is diffed against
# tests/golden/service_metrics.prom, and the chrome trace export is
# sanity-checked. A perfbench stage then builds the serving benchmark
# (perfbench/) and runs every workload once for a second, so its
# self-tests and output checks gate CI while its metrics are ignored.
# This is followed by a ThreadSanitizer build of the suites that exercise the batch
# executor and the service (-fsanitize=thread via TREESAT_TSAN), so the
# worker pool is race-checked on every run, a UBSan build
# (-fsanitize=undefined plus float-cast-overflow via TREESAT_UBSAN, recovery
# off) of the Pareto merge-kernel, scheduler, parser and formatter suites,
# and an AddressSanitizer build of every
# suite (-fsanitize=address through the compiler and linker flags, so a
# decoder that allocates from a hostile count or reads past a buffer fails
# the run). Setting TREESAT_COV=1 adds a coverage stage: the test
# suites rebuilt with --coverage and a per-file line-coverage summary over
# src/ (gcovr when installed, plain gcov otherwise), so the serialization /
# simulator / IO / incremental test walls stay measurable. Setting
# TREESAT_BENCH=1 adds a bench smoke stage: reduced-size benches run with
# --json, the BENCH_*.json files are archived under <build-dir>/bench-json,
# and bench_diff gates the pareto-arena speedup ratios against the
# committed baselines in bench/baselines/ (>25% regression fails the run).
#
#   ./ci.sh [build-dir]   # default build dir: build-ci
#                         # (TSan: <build-dir>-tsan, ASan: <build-dir>-asan,
#                         #  perfbench: <build-dir>-perfbench,
#                         #  coverage: <build-dir>-cov)
set -eu

BUILD_DIR="${1:-build-ci}"
TSAN_DIR="${BUILD_DIR}-tsan"
UBSAN_DIR="${BUILD_DIR}-ubsan"
ASAN_DIR="${BUILD_DIR}-asan"

JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S . -DTREESAT_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

# Service smoke stage: replay the committed golden trace through
# treesat_serve and byte-compare the responses -- the serving layer's
# determinism contract, checked end to end through the real binary.
# Regenerate after an intentional protocol change with
# TREESAT_UPDATE_GOLDEN=1 ./ci.sh (the same knob the golden test suites
# use).
SERVICE_TRACE=tests/golden/service_trace.jsonl
SERVICE_GOLDEN=tests/golden/service_responses.jsonl
SERVICE_METRICS_GOLDEN=tests/golden/service_metrics.prom
SERVICE_CONFIG="shards=2,mem_budget=64m"
OVERLOAD_TRACE=tests/golden/overload_trace.jsonl
OVERLOAD_GOLDEN=tests/golden/overload_responses.jsonl
OVERLOAD_CONFIG="shards=2,degrade=greedy,fail_fast=false"
if [ -n "${TREESAT_UPDATE_GOLDEN:-}" ]; then
  "$BUILD_DIR/treesat_serve" --config "$SERVICE_CONFIG" \
    --metrics-out "$BUILD_DIR/service_metrics_full.prom" "$SERVICE_TRACE" \
    > "$SERVICE_GOLDEN"
  # Only the deterministic families (above the wall-clock marker) are
  # golden; request latencies and scheduler counters vary per run.
  sed '/^# --- wall-clock/,$d' "$BUILD_DIR/service_metrics_full.prom" \
    > "$SERVICE_METRICS_GOLDEN"
  "$BUILD_DIR/treesat_serve" --gen-stress 120 --tenants 4 --seed 3051 \
    --p-degrade 0.25 --max-nodes 256 > "$OVERLOAD_TRACE"
  "$BUILD_DIR/treesat_serve" --config "$OVERLOAD_CONFIG" "$OVERLOAD_TRACE" \
    > "$OVERLOAD_GOLDEN"
  echo "service smoke stage: regenerated $SERVICE_GOLDEN and $OVERLOAD_GOLDEN"
else
  "$BUILD_DIR/treesat_serve" --config "$SERVICE_CONFIG" "$SERVICE_TRACE" \
    > "$BUILD_DIR/service_responses.jsonl"
  diff -u "$SERVICE_GOLDEN" "$BUILD_DIR/service_responses.jsonl"
  # The responses must also be shard-count-invariant through the binary.
  "$BUILD_DIR/treesat_serve" --config "shards=8,mem_budget=64m" "$SERVICE_TRACE" \
    > "$BUILD_DIR/service_responses_s8.jsonl"
  cmp "$BUILD_DIR/service_responses.jsonl" "$BUILD_DIR/service_responses_s8.jsonl"
  echo "service smoke stage passed (golden + shard invariance)"

  # Observability smoke: the same replay with tracing + metrics on. The
  # deterministic slice of the scrape (above the wall-clock marker) is
  # golden -- requests, warm hits, merge counters and store gauges must
  # reproduce byte for byte -- and the responses must be unchanged by the
  # instrumentation. The chrome trace just has to be present and loadable
  # (it is wall-clock by construction, so bytes are not compared).
  "$BUILD_DIR/treesat_serve" --config "$SERVICE_CONFIG" \
    --metrics-out "$BUILD_DIR/service_metrics_full.prom" \
    --trace-out "$BUILD_DIR/service_trace_chrome.json" "$SERVICE_TRACE" \
    > "$BUILD_DIR/service_responses_obs.jsonl"
  cmp "$BUILD_DIR/service_responses.jsonl" "$BUILD_DIR/service_responses_obs.jsonl"
  sed '/^# --- wall-clock/,$d' "$BUILD_DIR/service_metrics_full.prom" \
    > "$BUILD_DIR/service_metrics_det.prom"
  diff -u "$SERVICE_METRICS_GOLDEN" "$BUILD_DIR/service_metrics_det.prom"
  grep -q '"traceEvents":\[' "$BUILD_DIR/service_trace_chrome.json"
  grep -q '"name":"req.solve"' "$BUILD_DIR/service_trace_chrome.json"
  echo "observability smoke stage passed (metrics golden + trace export)"

  # Checkpoint-restore smoke: split the trace, serve the head with
  # --checkpoint-dir, serve the tail in a *fresh process* with --restore,
  # and require head+tail responses to equal the single-process replay byte
  # for byte -- the zero-rewarm restart contract, proven through the real
  # binary rather than in-process (tests/service_determinism_test.cpp
  # proves the in-process half).
  CKPT_DIR="$BUILD_DIR/ckpt-smoke"
  rm -rf "$CKPT_DIR"
  TRACE_LINES="$(wc -l < "$SERVICE_TRACE")"
  HEAD_LINES=$((TRACE_LINES / 2))
  head -n "$HEAD_LINES" "$SERVICE_TRACE" > "$BUILD_DIR/service_trace_head.jsonl"
  tail -n +"$((HEAD_LINES + 1))" "$SERVICE_TRACE" > "$BUILD_DIR/service_trace_tail.jsonl"
  "$BUILD_DIR/treesat_serve" --config "$SERVICE_CONFIG" \
    --checkpoint-dir "$CKPT_DIR" "$BUILD_DIR/service_trace_head.jsonl" \
    > "$BUILD_DIR/service_responses_head.jsonl"
  "$BUILD_DIR/treesat_serve" --config "$SERVICE_CONFIG" \
    --restore "$CKPT_DIR" "$BUILD_DIR/service_trace_tail.jsonl" \
    > "$BUILD_DIR/service_responses_tail.jsonl"
  cat "$BUILD_DIR/service_responses_head.jsonl" \
      "$BUILD_DIR/service_responses_tail.jsonl" \
    > "$BUILD_DIR/service_responses_restart.jsonl"
  cmp "$BUILD_DIR/service_responses.jsonl" "$BUILD_DIR/service_responses_restart.jsonl"
  echo "checkpoint-restore smoke stage passed (restart is byte-identical)"

  # Overload smoke: replay the committed adversarial stress trace (closed-
  # loop burst traffic with recorded "degrade":true stamps) through the
  # real binary. Two legs:
  #   1. deterministic -- the recorded degrade decisions must reproduce the
  #      committed golden byte for byte, at 2 and at 8 shards (forced
  #      degradation sits inside the byte-identity contract);
  #   2. wall-clock -- the same trace under a 1us admission budget with
  #      degrade=greedy must answer *everything*: nonzero degradations,
  #      zero protocol errors (which requests trip the deadline is
  #      nondeterministic, so this leg asserts outcomes, not bytes).
  "$BUILD_DIR/treesat_serve" --config "$OVERLOAD_CONFIG" "$OVERLOAD_TRACE" \
    > "$BUILD_DIR/overload_responses.jsonl"
  diff -u "$OVERLOAD_GOLDEN" "$BUILD_DIR/overload_responses.jsonl"
  "$BUILD_DIR/treesat_serve" --config "shards=8,degrade=greedy,fail_fast=false" \
    "$OVERLOAD_TRACE" > "$BUILD_DIR/overload_responses_s8.jsonl"
  cmp "$BUILD_DIR/overload_responses.jsonl" "$BUILD_DIR/overload_responses_s8.jsonl"
  OVERLOAD_DEGRADED="$(grep -c '"degraded":true' "$BUILD_DIR/overload_responses.jsonl" || true)"
  if [ "$OVERLOAD_DEGRADED" -eq 0 ]; then
    echo "overload smoke stage FAILED: the committed trace never degraded" >&2
    exit 1
  fi
  "$BUILD_DIR/treesat_serve" \
    --config "shards=2,degrade=greedy,fail_fast=false,deadline_ms=0.001" \
    "$OVERLOAD_TRACE" > "$BUILD_DIR/overload_responses_deadline.jsonl"
  if grep -q '"ok":false' "$BUILD_DIR/overload_responses_deadline.jsonl"; then
    echo "overload smoke stage FAILED: protocol errors under the deadline" >&2
    exit 1
  fi
  DEADLINE_DEGRADED="$(grep -c '"degraded":true' "$BUILD_DIR/overload_responses_deadline.jsonl" || true)"
  if [ "$DEADLINE_DEGRADED" -eq 0 ]; then
    echo "overload smoke stage FAILED: the 1us deadline never degraded" >&2
    exit 1
  fi
  echo "overload smoke stage passed ($OVERLOAD_DEGRADED recorded + $DEADLINE_DEGRADED deadline degradations, zero errors)"
fi

# Perfbench stage: perfbench/ builds against the library's serving API
# (SessionStore, ServiceTelemetry, session_plan_key, parse_plan) and
# re-implements the request path, so build it and run each workload once.
# run.py runs the self-tests and every output check -- pipeline bytes ==
# service bytes, warm == cold, restart == no restart -- and exits non-zero
# when one fails; that exit code gates the stage, the metrics are ignored.
for WORKLOAD in small_drift large_drift spill_churn; do
  CARGO_TARGET_DIR="$BUILD_DIR-perfbench" python3 perfbench/run.py \
    --workload "$WORKLOAD" --seed 1 --seconds 1 > /dev/null
done
echo "perfbench stage passed (build, self-tests and output checks on every workload)"

# TSan stage: only the threaded suites, benches/examples skipped for speed.
# worklist_test hammers the stealing scheduler directly (exactly-once under
# concurrent deque pops/steals) and batch_executor_test drives it through
# solve_batch; the service suites ride along for the sharded store's
# locking and the trace recorder. ctest -R matches substrings, so
# ^snapshot_test keeps fuzz_snapshot_test (not built here) out.
cmake -B "$TSAN_DIR" -S . -DTREESAT_WERROR=ON -DTREESAT_TSAN=ON \
  -DTREESAT_BUILD_BENCHES=OFF -DTREESAT_BUILD_EXAMPLES=OFF
cmake --build "$TSAN_DIR" -j "$JOBS" \
  --target worklist_test batch_executor_test determinism_test plan_test \
           service_test service_determinism_test service_fault_test snapshot_test \
           telemetry_test obs_trace_test obs_metrics_test
(cd "$TSAN_DIR" && ctest --output-on-failure -j "$JOBS" \
  -R 'worklist_test|batch_executor_test|determinism_test|plan_test|service_test|service_determinism_test|service_fault_test|^snapshot_test|telemetry_test|obs_trace_test|obs_metrics_test')

# UBSan stage: the suites that exercise the Minkowski merge kernels and the
# scheduler's lock-free deques -- pointer-offset arithmetic in the SIMD
# dominance scan (platform/simd.hpp), the arena's span indexing, and the
# overflow-guarded reference reserve are exactly the code where silent UB
# would masquerade as a wrong-but-plausible frontier -- plus the suites that
# feed hostile numbers to the parsers and formatters: request fields cast
# to ids (service_test), plan specs (parse_plan_fuzz_test), tree text,
# snapshots (snapshot_test, and fuzz_snapshot_test's mutants, whose
# unaligned binary reads must all go through memcpy) and the number
# formatter. TREESAT_UBSAN adds
# float-cast-overflow, which GCC's -fsanitize=undefined leaves out.
# Recovery is off (-fno-sanitize-recover), so any report fails the run.
# plan_test stays out: GCC 12 misfires -Wmaybe-uninitialized on it under
# these flags, and this stage builds with -Werror.
cmake -B "$UBSAN_DIR" -S . -DTREESAT_WERROR=ON -DTREESAT_UBSAN=ON \
  -DTREESAT_BUILD_BENCHES=OFF -DTREESAT_BUILD_EXAMPLES=OFF
cmake --build "$UBSAN_DIR" -j "$JOBS" \
  --target pareto_dp_test pareto_merge_reference_test pareto_simd_kernel_test \
           worklist_test incremental_resolve_test service_test \
           serialize_round_trip_test snapshot_test fuzz_snapshot_test parse_plan_fuzz_test \
           format_round_trip_test
(cd "$UBSAN_DIR" && ctest --output-on-failure -j "$JOBS" \
  -R 'pareto_dp_test|pareto_merge_reference_test|pareto_simd_kernel_test|worklist_test|incremental_resolve_test|service_test|serialize_round_trip_test|snapshot_test|fuzz_snapshot_test|parse_plan_fuzz_test|format_round_trip_test')

# ASan stage: every suite under AddressSanitizer (benches/examples skipped
# for speed). The flags go through CMAKE_CXX_FLAGS/CMAKE_EXE_LINKER_FLAGS,
# as the coverage stage's do, so no CMake option exists for it. Warnings
# stay gated by the first build: GCC 12's -Wmaybe-uninitialized misfires on
# ASan-instrumented std::optional/std::variant copies, so -Werror is off
# here. fuzz_snapshot_test runs on its own under an allocation cap: an
# operator new past max_allocation_size_mb is an ASan error report that
# aborts the suite (allocator_may_return_null=1 makes a malloc return null
# instead), so a decoder that sizes storage by a hostile count fails here
# even on a host with the memory to satisfy it.
cmake -B "$ASAN_DIR" -S . -DTREESAT_WERROR=OFF \
  -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address" \
  -DTREESAT_BUILD_BENCHES=OFF -DTREESAT_BUILD_EXAMPLES=OFF
cmake --build "$ASAN_DIR" -j "$JOBS"
(cd "$ASAN_DIR" && ctest --output-on-failure -j "$JOBS" -E fuzz_snapshot_test)
(cd "$ASAN_DIR" && \
  ASAN_OPTIONS=allocator_may_return_null=1:max_allocation_size_mb=64 \
  ctest --output-on-failure -R fuzz_snapshot_test)

# AVX2 leg (opt-in by hardware: only when the CI host advertises avx2).
# -DTREESAT_AVX2=ON compiles the wide dominance kernel and defines
# TREESAT_EXPECT_AVX2, which turns platform_test's active_isa check into a
# hard "must run avx2" assertion -- a build where the flag silently fell
# back to SSE2 fails here instead of publishing mislabeled baselines.
if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  AVX2_DIR="${BUILD_DIR}-avx2"
  cmake -B "$AVX2_DIR" -S . -DTREESAT_WERROR=ON -DTREESAT_AVX2=ON \
    -DTREESAT_BUILD_BENCHES=OFF -DTREESAT_BUILD_EXAMPLES=OFF
  cmake --build "$AVX2_DIR" -j "$JOBS" --target platform_test pareto_simd_kernel_test
  (cd "$AVX2_DIR" && ctest --output-on-failure -j "$JOBS" \
    -R 'platform_test|pareto_simd_kernel_test')
  echo "avx2 leg passed (active_isa=avx2 + kernel equivalence)"
else
  echo "avx2 leg skipped: host cpu does not advertise avx2"
fi

# Bench smoke stage (opt-in: TREESAT_BENCH=1): reduced-size benches with
# machine-readable output, archived for the perf trajectory, then gated by
# bench_diff. Only machine-relative ratios (--keys speedup) are compared --
# absolute wall times vary across hosts and would make the gate flaky.
if [ -n "${TREESAT_BENCH:-}" ]; then
  BENCH_JSON_DIR="$BUILD_DIR/bench-json"
  mkdir -p "$BENCH_JSON_DIR"
  "$BUILD_DIR/bench_pareto_arena" --smoke --json "$BENCH_JSON_DIR/BENCH_pareto_arena.json"
  "$BUILD_DIR/bench_ablations" --json "$BENCH_JSON_DIR/BENCH_ablations.json"
  "$BUILD_DIR/bench_sim_validation" --json "$BENCH_JSON_DIR/BENCH_sim_validation.json"
  "$BUILD_DIR/bench_incremental" --json "$BENCH_JSON_DIR/BENCH_incremental.json"
  "$BUILD_DIR/bench_batch_scaling" --json "$BENCH_JSON_DIR/BENCH_batch_scaling.json"
  "$BUILD_DIR/bench_service_throughput" \
    --json "$BENCH_JSON_DIR/BENCH_service_throughput.json"
  "$BUILD_DIR/bench_snapshot_restore" \
    --json "$BENCH_JSON_DIR/BENCH_snapshot_restore.json"
  "$BUILD_DIR/bench_overload" --json "$BENCH_JSON_DIR/BENCH_overload.json"
  # Gate the arena-vs-reference ratio; the per-row wall times are
  # trajectory data only (absolute times vary across hosts).
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_pareto_arena.smoke.json \
    "$BENCH_JSON_DIR/BENCH_pareto_arena.json" --keys speedup_vs_reference --tolerance 0.25
  # Kernel gate: the simd-over-scalar geomean is a same-machine ratio (the
  # full-mode bench additionally hard-gates >= 1.3x in-binary).
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_pareto_arena.smoke.json \
    "$BENCH_JSON_DIR/BENCH_pareto_arena.json" --keys kernel_speedup_geomean --tolerance 0.25
  # Incremental re-solving: the aggregate warm-vs-cold ratio (per-row
  # sub-millisecond streams are archived but too noisy to gate).
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_incremental.json \
    "$BENCH_JSON_DIR/BENCH_incremental.json" --keys warm_speedup_ratio --tolerance 0.25
  # Batch executor: gate the machine-independent identity ratio; thread
  # speedups stay informational (a small CI host cannot scale honestly).
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_batch_scaling.json \
    "$BENCH_JSON_DIR/BENCH_batch_scaling.json" --keys identity_ratio --tolerance 0.01
  # Service: the warm-hit ratio is deterministic, so the tolerance is tight.
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_service_throughput.json \
    "$BENCH_JSON_DIR/BENCH_service_throughput.json" --keys warm_hit_ratio --tolerance 0.05
  # Snapshot/restart: the restart-identity ratio is exact (1.0 or the bench
  # already failed), the rewarm-vs-cold speedup is a same-machine ratio.
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_snapshot_restore.json \
    "$BENCH_JSON_DIR/BENCH_snapshot_restore.json" --keys identity_ratio --tolerance 0.01
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_snapshot_restore.json \
    "$BENCH_JSON_DIR/BENCH_snapshot_restore.json" --keys rewarm_speedup --tolerance 0.25
  # Overload: every gated scalar is deterministic (goodput under the
  # degrade fallback, the fault-wall objective match, shard identity of the
  # forced-degrade replay, and the recorded degrade share of the trace), so
  # the tolerances are tight. Wall-clock numbers (how many requests the
  # bare deadline rejects) are archived in the rows but not gated.
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_overload.json \
    "$BENCH_JSON_DIR/BENCH_overload.json" --keys goodput_ratio --tolerance 0.01
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_overload.json \
    "$BENCH_JSON_DIR/BENCH_overload.json" --keys match_ratio --tolerance 0.01
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_overload.json \
    "$BENCH_JSON_DIR/BENCH_overload.json" --keys identity_ratio --tolerance 0.01
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_overload.json \
    "$BENCH_JSON_DIR/BENCH_overload.json" --keys degradation_ratio --tolerance 0.01
  # Observability: the enabled-tracing overhead ratio is same-machine and
  # best-of-N (the binary also hard-gates disabled < 1.02x, enabled <
  # 1.15x in absolute terms); bench_diff tracks its trajectory.
  "$BUILD_DIR/bench_obs_overhead" --json "$BENCH_JSON_DIR/BENCH_obs_overhead.json"
  "$BUILD_DIR/bench_diff" bench/baselines/BENCH_obs_overhead.json \
    "$BENCH_JSON_DIR/BENCH_obs_overhead.json" --keys trace_overhead_ratio --tolerance 0.25
  echo "bench smoke stage passed; JSON archived in $BENCH_JSON_DIR"
fi

# Coverage stage (opt-in: TREESAT_COV=1). Debug + --coverage, full ctest,
# then a line-coverage summary restricted to src/ (headers included via the
# per-object gcov reports).
if [ -n "${TREESAT_COV:-}" ]; then
  COV_DIR="${BUILD_DIR}-cov"
  cmake -B "$COV_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage" \
    -DTREESAT_BUILD_BENCHES=OFF -DTREESAT_BUILD_EXAMPLES=OFF
  cmake --build "$COV_DIR" -j "$JOBS"
  (cd "$COV_DIR" && ctest --output-on-failure -j "$JOBS")
  if command -v gcovr >/dev/null 2>&1; then
    gcovr --root . --filter 'src/' "$COV_DIR" --print-summary
  else
    # Plain-gcov fallback: aggregate "Lines executed" over the library's
    # objects (their .gcda accumulate counts across every test binary).
    # Restricted to .cpp files -- a header appears once per including TU in
    # gcov output and would be inclusion-count-weighted; gcovr merges
    # per-line data and is the tool for header-inclusive numbers.
    (cd "$COV_DIR" && find CMakeFiles/treesat.dir -name '*.gcda' \
        -exec gcov -n {} + 2>/dev/null) | \
    awk '/^File /{ gsub("\047", ""); f = $2 }
         /^Lines executed:/ {
           # Only the line directly under a File header counts; gcov also
           # prints a per-invocation footer with no header, which must not
           # be attributed to the last file (or double-counted).
           if (f ~ /src\/.*\.cpp$/) {
             split($0, a, ":"); split(a[2], b, "% of ")
             covered += b[2] * b[1] / 100.0; total += b[2]
             printf "  %7.2f%% %6d  %s\n", b[1], b[2], f
           }
           f = ""
         }
         END {
           if (total) printf "TOTAL line coverage: %.2f%% of %d lines\n",
                             100.0 * covered / total, total
         }'
  fi
fi
