#!/usr/bin/env python3
"""Build and run the spg-CNN benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed n] [--seconds s] [--trace 0|1]
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --manifest      # rewrite BENCHMARK.json

Run from the root of a checkout. The first run configures and builds
perfbench/ (the spg-CNN libraries from src/ plus the perfbench program)
into .bench_build/perfbench; later runs only re-check the build. The
program's own output is passed through; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"} whose metric names and
units are checked against the tables below, which are also the source
of BENCHMARK.json. Exit codes: 0 ok, 1 a correctness gate failed,
2 build or usage error, 3 statistics self-test failed, 4 malformed
result, 5 timeout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_SECONDS = 25
RUN_TIMEOUT_S = 170

WORKLOADS = [
    ("train-cifar10",
     "conv-bound Trainer::run of the Table 2 cifar10 net whose error "
     "sparsity passes the retune threshold; paper engines only"),
    ("train-mnist-prune",
     "tiny layers, so per-step overhead (FC, pool, softmax, data, dispatch) "
     "dominates; pruning plus the full 12-engine re-tune after each prune step"),
    ("serve-cifar10",
     "the same conv FP engines forward-only at batches 1-8 behind the "
     "dynamic batcher: capacity, open-loop latency, rate ladder"),
]

# name, unit, better, bound (share of the parent's median).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("rss_mib", "MiB", "lower", 0.15),
    ("img_s", "img/s", "higher", 0.25),
    ("lat_p50_ms", "ms", "lower", 0.25),
]


def per_layer():
    """Per-layer metrics of a --trace 1 run, in the order it prints them."""
    out = [("nn.step_ms", "ms", "lower")]
    for layer in ["conv0", "pool0", "conv1", "pool1", "fc0", "softmax"]:
        phases = ["fwd", "bwd"]
        if layer.startswith(("conv", "fc")):  # layers with parameters
            phases.append("upd")
        out += [("nn.%s.%s_ms" % (layer, p), "ms", "lower") for p in phases]
    out += [("nn.attributed_frac", "1", "higher"),
            ("nn.arena_mib", "MiB", "lower")]
    for conv in ["conv0", "conv1"]:
        for p in ["fp", "bpd", "bpw"]:
            out += [("conv.%s.%s_ms" % (conv, p), "ms", "lower"),
                    ("conv.%s.%s_gflops" % (conv, p), "GFLOP/s", "higher")]
        out += [("conv.%s.bwd_self_ms" % conv, "ms", "lower"),
                ("sparse.%s.eo_sparsity" % conv, "1", "higher")]
        out += [("sparse.%s.%s_ms" % (conv, p), "ms", "lower")
                for p in ["bpd", "bpw", "encode"]]
    out += [("sparse.plan_hit_frac", "1", "higher"),
            ("core.tune_ms", "ms", "lower"),
            ("core.candidates", "count", "lower"),
            ("core.tune_serving_ms", "ms", "lower"),
            ("threading.imbalance", "1", "lower"),
            ("threading.steals", "count", "lower"),
            ("threading.scaling", "1", "higher"),
            ("data.fill_ms", "ms", "lower"),
            ("tensor.blocked_edges", "count", "higher")]
    out += [("serve.fwd_ms.b%d" % b, "ms", "lower") for b in (1, 2, 4, 8)]
    out += [("serve.mean_batch", "count", "higher"),
            ("serve.wait_ms.p50", "ms", "lower"),
            ("serve.wait_ms.p99", "ms", "lower"),
            ("serve.submit_us", "us", "lower"),
            ("serve.gen_lag_ms.p99", "ms", "lower"),
            ("serve.lat_p50_ms.low", "ms", "lower"),
            ("serve.lat_p99_ms.low", "ms", "lower"),
            ("serve.lat_p99_ms.high", "ms", "lower"),
            ("serve.slo_frac_high", "1", "higher"),
            ("serve.slo_rate_qps", "1/s", "higher")]
    return out


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer()],
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree, read directly."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                ref = f.read().strip()
        return ref[:12]
    except OSError:
        return "unknown"


def build():
    """Configure and (re)build; all tool output goes to stderr. Both steps
    are quick no-ops once the build is current."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "3"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def check_result(line, trace):
    """@return an error message, or None when the result line is well formed."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(res)
    want = {n: u for n, u, *_ in (per_layer() if trace else END_TO_END)}
    got = {n: m.get("unit") for n, m in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return "metrics differ: missing %s, extra %s, wrong unit %s" % (
            missing, extra, units)
    return None


def run_one(workload, seed, seconds, trace):
    """Run one workload; pass its output through. @return (code, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--git-sha", git_sha()]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout if isinstance(e.stdout, str) else "")
        sys.stderr.write("run.py: %s timed out after %d s\n"
                         % (workload, RUN_TIMEOUT_S))
        return 5, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        return proc.returncode, None
    error = check_result(lines[-1], trace)
    if error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("run.py: %s: %s\n" % (workload, error))
        return 4, None
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--manifest", action="store_true")
    args = ap.parse_args()

    if args.manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if not build():
        return 2
    if args.selftest:
        return subprocess.run([BINARY, "--selftest"]).returncode
    names = [n for n, _ in WORKLOADS]
    if args.workload not in names + ["all"]:
        ap.error("--workload must be one of %s or all" % names)
    if args.workload != "all":
        code, _ = run_one(args.workload, args.seed, args.seconds,
                          bool(args.trace))
        return code

    # Every workload in turn; the last line folds them into one result.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        code, res = run_one(name, args.seed, args.seconds, bool(args.trace))
        worst = max(worst, code)
        if res is None:
            return code
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            total["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
