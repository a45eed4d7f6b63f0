#!/usr/bin/env python3
"""The qtda benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload cold-features|serve-hot|serve-fresh
        --seed N --seconds S --trace 0|1

Builds qtda and qtda_perfbench (perfbench/workloads.cpp) from the sources of
the checkout into .bench_build/perfbench, runs one workload, checks its
outputs and prints report lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
BENCHMARK.json and perfbench/NOTES.md).  Exits 2 without a result when the
sources are missing or do not build; exits 1 after printing the result when
an output is wrong, and without a result when qtda_perfbench fails (a
signal, a non-zero exit, no result, or the run time limit).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import benchstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qtda_perfbench")
RUN_LIMIT_S = 170.0

# tail: the fixed latency percentile.  ops: the reference op count n.  An
# end-to-end run keeps measuring until it has attempted the ops at stream
# positions below n (--min-ops).  So every one of the GROUPS completion-order
# groups holds at least n / GROUPS ops with (1 - tail) * n / GROUPS >= 10 of
# them beyond the tail, betti_mae covers exactly those positions,
# failed_frac states its bound at that sample size, and peak_rss_mb is read
# when n ops have completed.  n is at most 80% of what a 45 s run attempts
# on a 4-vCPU host.  serve-hot is not in BENCHMARK.json (see NOTES.md) but
# runs by hand.
WORKLOADS = {
    "cold-features": {"tail": 0.90, "ops": 500, "serve": False},
    "serve-hot": {"tail": 0.99, "ops": 20000, "serve": True},
    "serve-fresh": {"tail": 0.95, "ops": 1200, "serve": True},
}
# est_per_s, p50_ms and tail_ms are medians over this many consecutive
# groups of a run's ops, so a host stall over less than two fifths of the
# run does not move them.
GROUPS = 5
# Set-ups per end-to-end run, each in a fresh process; setup_s is their
# median.
SETUPS = 5

# Layer trees of one op.  Nodes are timed by benchmark spans (workloads.cpp),
# by the program's own counters, or derived (serve.transport); a node's
# self time is its total minus its children's.
LIBRARY_TREE = {
    "op": ["topology.rips", "topology.laplacian", "core.compile",
           "core.execute", "topology.exact_betti"],
    "core.compile": ["quantum.compile"],
    "core.execute": ["quantum.evolve"],
    "quantum.evolve": ["quantum.gate", "linalg.oracle", "quantum.sample"],
}
SERVE_TREE = {
    "op": ["serve.connect", "serve.protocol", "serve.transport",
           "serve.request"],
    "serve.request": ["serve.queue_wait", "serve.resolve", "quantum.evolve"],
    "serve.resolve": ["topology.rips", "topology.laplacian", "core.compile"],
    "core.compile": ["quantum.compile"],
    "quantum.evolve": ["quantum.gate", "linalg.oracle", "quantum.sample"],
}
# Program-side sources: histogram sums or counters, all in ns.
COMMON_SOURCES = {
    "quantum.compile": ["span.compile"],
    "quantum.evolve": ["span.evolve"],
    "quantum.sample": ["span.sample"],
    "quantum.gate": ["exec.ns.single_qubit", "exec.ns.block",
                     "exec.ns.diagonal"],
    "linalg.oracle": ["exec.ns.operator"],
}
SERVE_SOURCES = {
    "serve.request": ["serve.request_ns"],
    "serve.queue_wait": ["serve.queue_wait_ns"],
    "serve.resolve": ["span.resolve"],
    "topology.rips": ["span.rips_build"],
    "topology.laplacian": ["span.laplacian_assembly"],
    "core.compile": ["span.compile_estimate"],
}


def fail(message, code=2):
    """Exits without a result: 2 for missing or unbuildable sources, 1 when
    qtda_perfbench itself fails."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and (re)builds qtda_perfbench; compiler output -> stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("qtda sources (CMakeLists.txt, src/) not found in " + ROOT)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "qtda_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_fingerprint():
    """Commit when the checkout is a git work tree, else a hash of sources."""
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "cmake", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return commit or "none", digest.hexdigest()[:16]


def run_binary(args, deadline, *extra):
    """Runs qtda_perfbench on the workload and returns its parsed output."""
    socket = os.path.join(".bench_build", "perfbench",
                          "serve-%d.sock" % os.getpid())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--socket", socket] + list(extra)
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("qtda_perfbench exceeded the run time limit", 1)
    if result.returncode < 0:
        fail("qtda_perfbench died of signal %d" % -result.returncode, 1)
    if result.returncode != 0:
        fail("qtda_perfbench exited with code %d" % result.returncode, 1)
    try:
        return json.loads(result.stdout)
    except ValueError:
        fail("qtda_perfbench printed no result", 1)


def load_ops(phases):
    keys = ("index", "latency_ns", "error", "estimates", "abs_error",
            "end_ns")
    return [dict(zip(keys, op)) for phase in phases for op in phase["ops"]]


def rate(phases):
    ops = load_ops(phases)
    wall = sum(phase["wall_s"] for phase in phases)
    return sum(op["estimates"] for op in ops) / wall if wall else 0.0


def end_to_end(raw, spec, ops, setups):
    phase = raw["phases"][0]
    grouped = benchstats.group_medians(ops, GROUPS, spec["tail"],
                                       phase["wall_s"] * 1e3)
    outcomes = benchstats.count_outcomes(ops)
    mae, mae_n = benchstats.prefix_mae(ops, spec["ops"])
    estimates = sum(op["estimates"] for op in ops)
    n = len(ops)
    pct = "p%g" % (100 * spec["tail"])
    return [
        ("setup_s", statistics.median(setups), "s",
         "median of %d fresh-process set-ups %s"
         % (len(setups), [round(s, 4) for s in setups])),
        ("est_per_s", grouped["est_per_s"], "estimates/s",
         "median of %d group rates; %d estimates in %.3f s"
         % (GROUPS, estimates, phase["wall_s"])),
        ("p50_ms", grouped["p50_ms"], "ms",
         "median of %d group medians, n=%d" % (GROUPS, n)),
        ("tail_ms", grouped["tail_ms"], "ms",
         "%s, median of %d groups, n=%d, at least %d beyond in each"
         % (pct, GROUPS, n, grouped["beyond"])),
        ("failed_frac",
         benchstats.wilson_upper(outcomes["failed"], outcomes["attempted"],
                                 spec["ops"]),
         "ratio", "95%% upper bound of %d/%d failed, stated at n=%d"
         % (outcomes["failed"], outcomes["attempted"], spec["ops"])),
        ("betti_mae", mae, "betti",
         "%d estimates at stream positions < %d" % (mae_n, spec["ops"])),
        ("peak_rss_mb", raw["vm_hwm_kb"] / 1024.0, "MiB",
         "VmHWM after the first %d ops" % spec["ops"]),
    ]


def per_layer(raw, spec):
    traced = [p for p in raw["phases"] if p["traced"]]
    untraced = [p for p in raw["phases"] if not p["traced"]]
    ops = load_ops(traced)
    n = max(1, len(ops))
    estimates = max(1, sum(op["estimates"] for op in ops))
    counters, histograms = raw["counters"], raw["histograms"]

    def registry_ms(names):
        return sum(histograms[name][1] if name in histograms
                   else counters.get(name, 0.0) for name in names) / 1e6 / n

    span_total, span_self = benchstats.span_totals(
        [[tuple(s) for s in log] for p in traced for log in p["spans"]])
    total = {name: t / 1e6 / n for name, t in span_total.items()}
    own = {name: t / 1e6 / n for name, t in span_self.items()}
    tree = SERVE_TREE if spec["serve"] else LIBRARY_TREE
    sources = dict(COMMON_SOURCES, **(SERVE_SOURCES if spec["serve"] else {}))
    for node, names in sources.items():
        total[node] = registry_ms(names)
    if spec["serve"]:
        total["serve.transport"] = total["op"] - sum(
            total.get(node, 0.0)
            for node in ("serve.connect", "serve.protocol", "serve.request"))
    for parent, kids in tree.items():
        for node in [parent] + kids:
            total.setdefault(node, 0.0)
    self_ms = benchstats.tree_self_times(tree, total, own)
    containers = ("op", "serve.request") if spec["serve"] else ("op",)
    unaccounted = sum(self_ms[node] for node in containers)

    def ratio(hits, misses):
        h, m = counters.get(hits, 0.0), counters.get(misses, 0.0)
        return h / (h + m) if h + m else 0.0

    def per_est(field):
        return sum(p[field] for p in traced) / estimates

    batch = histograms.get("serve.batch_size", [0.0, 0.0])
    compilations = raw["run_counters"].get("compiler.compilations", 0.0)
    metrics = [
        ("topology.rips_ms", total["topology.rips"], "ms"),
        ("topology.laplacian_ms", total["topology.laplacian"], "ms"),
        ("topology.exact_betti_ms", total.get("topology.exact_betti", 0.0), "ms"),
        ("topology.simplices", per_est("simplices"), "count"),
        ("core.compile_ms", total["core.compile"], "ms"),
        ("core.prep_ms", self_ms["core.compile"], "ms"),
        ("core.execute_ms", total.get("core.execute", total["quantum.evolve"]),
         "ms"),
        ("core.execute_self_ms", self_ms.get("core.execute", 0.0), "ms"),
        ("quantum.compile_ms", total["quantum.compile"], "ms"),
        ("quantum.evolve_ms", total["quantum.evolve"], "ms"),
        ("quantum.evolve_self_ms", self_ms["quantum.evolve"], "ms"),
        ("quantum.sample_ms", total["quantum.sample"], "ms"),
        ("quantum.gate_ms", total["quantum.gate"], "ms"),
        ("quantum.register_qubits", per_est("register_qubits"), "qubits"),
        ("quantum.gates_after_fusion",
         raw["run_counters"].get("compiler.gates_after", 0.0) / compilations
         if compilations else 0.0, "count"),
        ("linalg.oracle_ms", total["linalg.oracle"], "ms"),
        ("linalg.oracle_calls", counters.get("exec.ops.operator", 0.0) / n,
         "count"),
        ("linalg.oracle_rhs_per_call", per_est("oracle_rhs"), "count"),
        ("linalg.expm_memo_hit_ratio",
         ratio("cache.expm.hits", "cache.expm.misses"), "ratio"),
        ("serve.request_ms", total.get("serve.request", 0.0), "ms"),
        ("serve.queue_wait_ms", total.get("serve.queue_wait", 0.0), "ms"),
        ("serve.resolve_self_ms", self_ms.get("serve.resolve", 0.0), "ms"),
        ("serve.transport_ms", total.get("serve.transport", 0.0), "ms"),
        ("serve.protocol_us", 1e3 * total.get("serve.protocol", 0.0), "us"),
        ("serve.connect_ms", total.get("serve.connect", 0.0), "ms"),
        ("serve.complex_hit_ratio",
         ratio("cache.complex.hits", "cache.complex.misses"), "ratio"),
        ("serve.laplacian_hit_ratio",
         ratio("cache.laplacian.hits", "cache.laplacian.misses"), "ratio"),
        ("serve.plan_hit_ratio",
         ratio("cache.plan.hits", "cache.plan.misses"), "ratio"),
        ("serve.evictions_per_req",
         sum(counters.get("cache.%s.evictions" % level, 0.0)
             for level in ("complex", "laplacian", "plan")) / n
         if spec["serve"] else 0.0, "count"),
        ("serve.batch_size", batch[1] / batch[0] if batch[0] else 0.0,
         "count"),
        ("common.cpu_ms_per_op",
         1e3 * sum(p["cpu_s"] for p in traced) / n, "ms"),
        ("common.vm_size_mb", raw["vm_size_kb"] / 1024.0, "MiB"),
        ("trace.op_ms", total["op"], "ms"),
        ("trace.unaccounted_ms", unaccounted, "ms"),
        ("trace.overhead_ratio",
         rate(traced) / rate(untraced) if rate(untraced) else 0.0, "ratio"),
    ]
    layers = {node: {"total_ms": round(total[node], 6),
                     "self_ms": round(self_ms[node], 6)}
              for node in sorted(total)}
    covered = sum(self_ms.values())
    report = {"ops": len(ops), "layers": layers, "op_ms": total["op"],
              "self_plus_unaccounted_ms": covered}
    return [(name, value, unit, "") for name, value, unit in metrics], report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]

    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    commit, source = source_fingerprint()
    setups = [] if args.trace else [
        run_binary(args, deadline, "--setup-only", "1")["setup_s"]
        for _ in range(SETUPS)]
    raw = run_binary(args, deadline, "--min-ops", str(spec["ops"]))

    ops = load_ops(raw["phases"])
    outcomes = benchstats.count_outcomes(ops)
    wrong = {"wrong_exact_betti", "invalid_estimate", "wrong_response_id"}
    wrong_ops = sum(outcomes["by_code"].get(code, 0) for code in wrong)
    correct = raw["checked_mismatches"] == 0 and wrong_ops == 0

    host = dict(raw["host"], commit=commit, source_sha1=source)
    print("host " + json.dumps(host, sort_keys=True))
    print("ops " + json.dumps(outcomes))
    print("check " + json.dumps({"sample_checked": raw["checked"],
                                 "sample_mismatches": raw["checked_mismatches"],
                                 "wrong_outputs": wrong_ops,
                                 "stream_size": raw["stream_size"]}))
    if args.trace:
        rows, report = per_layer(raw, spec)
        print("layers " + json.dumps(report, sort_keys=True))
    else:
        rows = end_to_end(raw, spec, ops, setups)
    for name, value, unit, note in rows:
        print("metric %-28s %14.6g %-12s %s" % (name, value, unit, note))
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes["attempted"],
        "failed": outcomes["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
