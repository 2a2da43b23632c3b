"""One workload process: import maclab, run the job list once, report.

    python3 perfbench/worker.py JOBS_JSON RESULT_JSON MODE [SPANS_TSV]

MODE is `check` (run every oracle after each job), `time` (compare each
output with the digest the check pass recorded) or `trace` (like `time`,
with the span tracer on during each job).  A job hands its output to
`jobs.Output` item by item; in `time` mode each item is hashed and
dropped, so `ru_maxrss` counts what the program holds, not copies the
harness made.  The oracles and the tracer are imported only in the
modes that use them.  The time between the
process start and `import maclab` being done is the set-up time; the
parent measures it from the wall-clock stamp written here.  Every run
is a fresh interpreter, so no cache of the program carries over.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import maclab  # noqa: E402

IMPORTED = time.time()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as joblib  # noqa: E402


def environment():
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(jobs_path, result_path, mode, spans_path=None):
    if not os.path.abspath(maclab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"maclab imported from {maclab.__file__}, not from {SRC}")
    with open(jobs_path) as fh:
        spec = json.load(fh)
    job_list = spec["jobs"]
    expected = spec.get("digests")
    # jobs whose output a later job consumes
    consumers = {j["of"]: j["id"] for j in job_list if "of" in j}

    oracle = tracer = None
    if mode == "check":
        from oracles import Oracle

        oracle = Oracle()
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    latencies, digests, errors = [], [], {}
    outputs = {}
    bytes_out = 0  # what the CLI printed, in the traced pass
    for job in job_list:
        k = job["id"]
        out = joblib.Output(job["kind"], keep=mode != "time" or k in consumers)
        if tracer is not None:
            tracer.job = k
            tracer.on = True
        t0 = perf_counter()
        try:
            joblib.run(job, outputs, out)
        except Exception as e:
            out = None
            errors[k] = [f"raised {type(e).__name__}: {e}"]
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.on = False
        if out is None:
            latencies.append(dt)
            digests.append(None)
            continue
        latencies.append(dt - out.spent)
        digests.append(out.digest())
        if oracle is not None:
            errs = oracle.check(job, out.items[0] if job["kind"] in joblib.SINGLE else out.items)
            if errs:
                errors[k] = errs
        elif digests[-1] != expected[k]:
            errors[k] = ["output differs from the checked run"]
        if tracer is not None and job["kind"] == "cli":
            bytes_out += len(out.items[0]["stdout"].encode())
        if k in consumers:
            outputs[k] = out.items
        outputs.pop(job.get("of"), None)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "imported": IMPORTED,
        "latencies": latencies,
        "digests": digests,
        "errors": {str(k): v for k, v in errors.items()},
        "rss_mb": rss_mb,
    }
    if mode == "check":
        result["env"] = environment()
    if tracer is not None:
        result["layers"] = dict(tracer.layer_metrics(), **{"cli.bytes_out": bytes_out})
        if spans_path:
            tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
