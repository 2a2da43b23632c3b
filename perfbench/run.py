"""The maclab benchmark.

    python3 perfbench/run.py --workload construct|verify|enumerate
                             [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    python3 perfbench/run.py --compare A.jsonl B.jsonl

A run draws the workload's job list from the seed (perfbench/inputs.py)
and executes it in fresh single-threaded interpreters, one client that
issues each job when the previous one returns (a closed loop):

1. a check pass runs every job and every exact oracle on its output;
2. a fixed number of timed passes repeat the same job list, comparing
   each output with the checked one; `--seconds` caps them (no pass
   starts later, and one always runs).  With `--trace 1` every timed
   pass is followed by a pass with the span tracer on, which gives the
   per-layer numbers.

Each end-to-end time is the median over the timed passes of what one
pass measured: the job list's time (the sum of its job latencies), the
median job latency and the tail latency.

It prints every metric with its unit, appends a record to `--out`
(default perfbench/out/results.jsonl) and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  A failed or raising job
makes the exit code 1; a run that cannot start exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402

OUT = os.path.join(HERE, "out")
PASSES = {0: 9, 1: 2}  # timed passes per run, untraced and traced
CHILD_TIMEOUT_S = 150
TAIL_ABOVE = 10  # the tail percentile keeps this many jobs above it


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


class RunError(Exception):
    """The run could not be made (as opposed to a job that failed)."""


def run_pass(jobs_path, mode, tag, spans_path=None):
    """One fresh workload process; returns its result and set-up time."""
    result_path = os.path.join(OUT, f"pass-{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), jobs_path, result_path, mode]
    if spans_path:
        argv.append(spans_path)
    started = time.time()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} pass exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RunError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    with open(result_path) as fh:
        res = json.load(fh)
    os.remove(result_path)
    res["setup_s"] = res["imported"] - started
    return res


def tail(latencies):
    """The highest percentile with TAIL_ABOVE jobs above it, and its value."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_ABOVE  # 1-based rank of the value
    if k < 1:
        return 0.0, xs[0]
    return 100.0 * k / len(xs), xs[k - 1]


def wall(passes):
    """The median over the passes of one pass's job-list time."""
    return statistics.median(sum(p["latencies"]) for p in passes)


def end_to_end(check, timed):
    """The end-to-end metrics from one run's passes (tracing off)."""
    return {
        "setup_s": statistics.median(p["setup_s"] for p in [check] + timed),
        "wall_s": wall(timed),
        "job_p50_ms": 1000.0 * statistics.median(statistics.median(p["latencies"]) for p in timed),
        "job_tail_ms": 1000.0 * statistics.median(tail(p["latencies"])[1] for p in timed),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in timed),
    }


def layers(traced, untraced_wall):
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    first = traced[0]["layers"]
    out = {}
    for key, val in first.items():
        if key.endswith("_s"):
            out[key] = statistics.median(p["layers"][key] for p in traced)
        else:
            out[key] = val
    traced_wall = wall(traced)
    out["ratfunc.gcd_share"] = out["ratfunc.gcd_s"] / traced_wall
    out["trace.overhead"] = traced_wall / untraced_wall
    return out


def measure(workload, seed, seconds, trace):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    job_list = inputs.generate(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-{seed}-{os.getpid()}"
    jobs_path = os.path.join(OUT, f"jobs-{tag}.json")
    spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.tsv")
    timed, traced = [], []
    try:
        with open(jobs_path, "w") as fh:
            json.dump({"jobs": job_list}, fh)
        check = run_pass(jobs_path, "check", tag)
        with open(jobs_path, "w") as fh:
            json.dump({"jobs": job_list, "digests": check["digests"]}, fh)
        start = time.time()
        while len(timed) < PASSES[trace] and (not timed or time.time() - start < seconds):
            timed.append(run_pass(jobs_path, "time", tag))
            if trace:
                traced.append(run_pass(jobs_path, "trace", tag, spans_path))
    finally:
        if os.path.exists(jobs_path):
            os.remove(jobs_path)

    passes = [check] + timed + traced
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [(p_i, k, msg) for p_i, p in enumerate(passes) for k, msgs in p["errors"].items() for msg in msgs]
    failed = sum(len(p["errors"]) for p in passes)
    e2e = end_to_end(check, timed)
    pct, _ = tail(timed[0]["latencies"])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "env": check["env"],
        "jobs": len(job_list),
        "passes": {"check": 1, "timed": len(timed), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "tail_percentile": pct,
        "pass_latencies": [p["latencies"] for p in timed],
        "end_to_end": e2e,
    }
    if trace:
        record["layers"] = layers(traced, e2e["wall_s"])
        record["layers"]["fail_ratio"] = failed / attempted
    return record, failures


def report(record, bench, failures):
    env = record["env"]
    print(
        f"maclab benchmark: workload {record['workload']}, seed {record['seed']}, "
        f"{record['jobs']} jobs per pass, passes {record['passes']}"
    )
    print(
        f"environment: python {env['python']}, sympy {env['sympy']} "
        f"(ground types {env['ground_types']}), nproc {env['nproc']}, cpu {env['cpu']}"
    )
    rows = [(m["name"], record["end_to_end"][m["name"]], m["unit"]) for m in bench["end_to_end"]]
    for name, val, unit in rows:
        note = ""
        if name == "job_tail_ms":
            note = f"  (p{record['tail_percentile']:.1f} of {record['jobs']} jobs per pass)"
        print(f"  {name:28s} {val:14.6f} {unit}{note}")
    print(
        f"  {'fail_ratio':28s} {record['fail_ratio']:14.6f} 1  "
        f"({record['failed']} failed of {record['attempted']} jobs attempted)"
    )
    if "layers" in record:
        print("per layer (traced passes):")
        for m in bench["per_layer"]:
            print(f"  {m['name']:28s} {record['layers'][m['name']]:14.6f} {m['unit']}")
    for p_i, k, msg in failures[:20]:
        print(f"FAIL pass {p_i} job {k}: {msg}", file=sys.stderr)


def compare(path_a, path_b, bench):
    def load(path):
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    a, b = load(path_a), load(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    for wl in inputs.WORKLOADS:
        ra = [r["end_to_end"] for r in a if r["workload"] == wl]
        rb = [r["end_to_end"] for r in b if r["workload"] == wl]
        if not ra or not rb:
            continue
        print(f"{wl}: {len(ra)} runs in A, {len(rb)} runs in B")
        print(f"  {'metric':14s} {'A median':>12s} {'A q1..q3':>23s} {'B median':>12s} {'B q1..q3':>23s}  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            xa, xb = [r[name] for r in ra], [r[name] for r in rb]
            ma, mb = statistics.median(xa), statistics.median(xb)
            qa, qb = quartiles(xa), quartiles(xb)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (mb - ma) / ma  # > 0 is worse
            spread_a = (qa[1] - qa[0]) / ma
            if change > m["bound"]:
                verdict = f"worse by {change:.1%} (bound {m['bound']:.0%})"
            elif max(spread_a, (qb[1] - qb[0]) / mb) > m["bound"]:
                verdict = "unresolved: spread above the bound"
            elif -change > spread_a:
                verdict = f"better by {-change:.1%}"
            else:
                verdict = f"same ({change:+.1%})"
            print(
                f"  {name:14s} {ma:12.5g} {qa[0]:11.5g}..{qa[1]:<11.5g} {mb:12.5g} "
                f"{qb[0]:11.5g}..{qb[1]:<11.5g}  {verdict}"
            )


def main(argv=None):
    bench = spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(OUT, "results.jsonl"))
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    if args.compare:
        compare(*args.compare, bench)
        return 0
    if not args.workload:
        p.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "maclab", "__init__.py")):
        print(f"error: no maclab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        record, failures = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report(record, bench, failures)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    group = "per_layer" if args.trace else "end_to_end"
    values = record["layers"] if args.trace else record["end_to_end"]
    correct = record["failed"] == 0 and record["attempted"] > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[group]},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
