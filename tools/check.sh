#!/usr/bin/env bash
# Build and run the tier-1 test suite in one command.
#
#   tools/check.sh                                  plain build + ctest
#   SPG_SANITIZE=address,undefined tools/check.sh   sanitized build + ctest
#   SPG_SANITIZE=thread tools/check.sh              TSan build + ctest
#
# Sanitized builds use their own tree (build-address-undefined/,
# build-thread/ etc.) so they never pollute the primary build/
# directory. 'thread' must be its own run — CMake rejects combining it
# with 'address' or 'leak'. The TSan tree exists to prove the lock-free
# fork-join protocol data-race-free; at minimum run it over the
# threading suites: `SPG_SANITIZE=thread tools/check.sh -R ThreadPool`.
# Extra arguments are forwarded to ctest, e.g. `tools/check.sh -R sparse`.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=build
cmake_args=()
if [[ -n "${SPG_SANITIZE:-}" ]]; then
    build_dir="build-$(echo "$SPG_SANITIZE" | tr ',' '-')"
    cmake_args+=("-DSPG_SANITIZE=${SPG_SANITIZE}")
fi

cmake -B "$build_dir" -S . "${cmake_args[@]}"
cmake --build "$build_dir" -j "$(nproc)"
cd "$build_dir"
if [[ $# -eq 0 ]]; then
    # Two full passes: one with hardware counters force-disabled
    # (SPG_PERF=off), proving every instrumentation site degrades
    # gracefully, and one auto-detected (counters live where the host
    # grants perf_event / RAPL access, the same fallback otherwise).
    SPG_PERF=off ctest --output-on-failure -j "$(nproc)"
    ctest --output-on-failure -j "$(nproc)"
else
    ctest --output-on-failure -j "$(nproc)" "$@"
fi

# Trace smoke: a 1-epoch traced training run must emit a valid Chrome
# trace + metrics + drift document set. SPG_TRACE exercises the env-var
# enable path (the ctest fixture covers the --trace flag path). Skipped
# when the tracing layer is compiled out (SPG_TRACING=OFF) or when a
# test filter was passed.
if [[ $# -eq 0 ]] && grep -q '^SPG_TRACING:BOOL=ON$' CMakeCache.txt; then
    trace_out="$PWD/trace_smoke_env.json"
    SPG_TRACE="$trace_out" ./tools/spgcnn train --net=mnist \
        --dataset-size=48 --epochs=1 --threads=2
    ./tools/trace_check --trace="$trace_out" \
        --require-cats=train,layer,kernel,pool,tuner \
        --min-lanes=2 --expect-drift
fi

# Bench regression gate: regenerate the fusion bench (reduced reps so
# the gate stays fast) and diff it against the committed baseline.
# Timing tolerance is wide — shared hosts drift — so only structural
# regressions fail: a fusion path losing its speedup outright, or the
# arena planner degrading toward the unplanned sum. Skipped when a test
# filter was passed.
if [[ $# -eq 0 ]]; then
    ./bench/bench_fusion --reps=3 --net-steps=2 \
        --json-file="$PWD/BENCH_fusion_fresh.json" > /dev/null
    ./tools/bench_compare --fresh="$PWD/BENCH_fusion_fresh.json" \
        --baseline=../bench/baselines/BENCH_fusion.json \
        --tol-pct=150 --speedup-tol-pct=60 --bytes-tol-pct=10
fi

# Layout crossover gate: regenerate the NCHWc direct-engine bench and
# diff it against the committed baseline. The direct-vs-best speedups
# are ratios of interleaved (round-robin) measurements so frequency
# drift largely cancels, but the winnable FP cells sit within a few
# percent of the best GEMM engine, so the speedup tolerance stays wide;
# the seconds tolerance is wider still because the µs-scale conversion
# timings at the smallest layer jitter more than the big phase timings.
# Skipped when a test filter was passed.
if [[ $# -eq 0 ]]; then
    ./bench/bench_layout --reps=2 \
        --json-file="$PWD/BENCH_layout_fresh.json" > /dev/null
    ./tools/bench_compare --fresh="$PWD/BENCH_layout_fresh.json" \
        --baseline=../bench/baselines/BENCH_layout.json \
        --tol-pct=250 --speedup-tol-pct=60
fi

# Weight-sparsity crossover gate: regenerate the CSR-weights bench and
# diff it against the committed baseline. The direct-vs-dense speedups
# are ratios of interleaved measurements so drift largely cancels, but
# the dense-engine cells run a different code path from the sparse
# ones, so the seconds tolerance stays wide. The encode_ms cells are
# informational (µs-scale, jittery) and are not gated. Skipped when a
# test filter was passed.
if [[ $# -eq 0 ]]; then
    ./bench/bench_ext_wsparse --reps=2 \
        --json-file="$PWD/BENCH_wsparse_fresh.json" > /dev/null
    ./tools/bench_compare --fresh="$PWD/BENCH_wsparse_fresh.json" \
        --baseline=../bench/baselines/BENCH_wsparse.json \
        --tol-pct=250 --speedup-tol-pct=60
fi

# Serving goodput gate: regenerate the open-loop serving bench
# (reduced request count / window so the gate stays fast) and diff it
# against the committed baseline. Only the dynamic-batching speedup at
# saturation is gated (wide tolerance — it is a ratio of two drain
# timings on a shared host); the qps/goodput/latency series and the
# per-bucket serving plans are informational trajectory. The loadgen
# smoke (fixed seed, low rate, zero drops, bounded p99) runs as a
# ctest fixture above. Skipped when a test filter was passed.
if [[ $# -eq 0 ]]; then
    ./bench/bench_serve --requests=256 --duration=0.2 --tuner-reps=2 \
        --json-file="$PWD/BENCH_serve_fresh.json" > /dev/null
    ./tools/bench_compare --fresh="$PWD/BENCH_serve_fresh.json" \
        --baseline=../bench/baselines/BENCH_serve.json \
        --tol-pct=250 --speedup-tol-pct=60
fi

# Cluster scaling gate: regenerate the data-parallel scaling bench
# (smaller measured run so the gate stays fast) and diff it against
# the committed baseline. The gated metrics are the modeled speedups —
# sparse+overlap vs dense blocking at the gate worker count, and the
# per-point scaling curve. They derive from one measured profile, so
# compute jitter moves every arm together and the ratios are stable;
# the tolerance is still wide because a short run's per-bucket ready
# times wander. The wire-byte/compression/knee columns are
# informational trajectory. Skipped when a test filter was passed.
if [[ $# -eq 0 ]]; then
    ./bench/bench_ext_cluster --dataset-size=32 \
        --json-file="$PWD/BENCH_cluster_fresh.json" > /dev/null
    ./tools/bench_compare --fresh="$PWD/BENCH_cluster_fresh.json" \
        --baseline=../bench/baselines/BENCH_cluster.json \
        --tol-pct=250 --speedup-tol-pct=70
fi

# Layout/direct-engine sanitizer gate: the NCHWc conversion kernels and
# the direct engine's register tiles live and die by tail-block and
# edge-tile indexing, and the pool-parallel converters by their
# fan-out; run the blocked/direct suites under ASan and TSan so stray
# pad-lane reads and conversion races are caught in-tree. The CSR
# weight-sparsity suites ride along: the sparse-direct masked tails and
# the pruning/mask/checkpoint machinery are exactly the sort of
# off-by-one indexing ASan catches, and the PackedWeightCache is shared
# mutable state the TSan run must prove race-free under the
# plane-parallel engines. The ConvEngines suite joins for the same
# cache: every GEMM FP/BP-data call goes through it, from serving
# instances and tuner probes at once, and its bit-for-bit and in-place
# mutation tests walk the packed panels ASan must prove in-bounds.
# The FusedConvLayer and FirstLayer suites join because the post-mask
# live count runs on pool workers in fixed chunks with a ragged tail,
# and the first layer hands BP an input-gradient tensor with no storage.
# The PoolLayer suite joins because each pooling backward task zeroes
# and scatters into its own input-gradient plane on the pool.
# The distrib suites (DataParallel,
# Allreduce, GradCompress, Exchange) join both runs: the exchange
# scheduler's in-place K-way averaging walks raw gradient spans ASan
# must prove in-bounds, and the replica fan-out over the shared pool
# is state TSan must prove race-free. Recursing with a filter reuses the
# per-sanitizer build trees and skips the smoke/bench gates above.
# The serving suites join both runs: the request queue, the
# done-publication handshake and the per-instance pools are exactly
# what TSan must prove race-free, and the ragged-batch arena views are
# what ASan must prove in-bounds. The perfcnt suites (Perf*, Affinity*,
# Rapl*) ride along: the per-worker counter accumulators are lock-free
# shared state for TSan, and the group-read buffer parsing is exactly
# the sort of pointer arithmetic ASan checks. Skipped inside a
# sanitized run (the outer invocation already is one) or when a test
# filter was passed.
if [[ $# -eq 0 && -z "${SPG_SANITIZE:-}" ]]; then
    for san in address thread; do
        SPG_SANITIZE="$san" "$(cd .. && pwd)/tools/check.sh" \
            -R 'Direct|Blocked|Nchwc|SparseWeight|SparseDirect|Pruning|WeightPlanCache|Checkpoint|Serve|Perf|Affinity|Rapl|DataParallel|Allreduce|GradCompress|Exchange|ConvEngines|FusedConvLayer|FirstLayer|PoolLayer'
    done
fi
