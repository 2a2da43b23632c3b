"""The benchmark's own tests: a smoke run at tiny sizes, one negative test
per oracle, and the tracer's counts.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import inputs
import jobs
import run
from oracles import Oracle

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")

TINY = {
    "construct": [
        ("E", 3, 1, (3, 3), {"aw": (4, 8)}),
        ("Ez", 3, 1, (2, 2), {}),
        ("f", 3, 1, (2, 3), {}),
        ("F", 3, 1, (2, 2), {}),
        ("P", 3, 1, (3, 3), {"cst": (2, 8)}),
    ],
    "verify": [
        ("eigen", 3, 1, (2, 2), {}),
        ("haction", 3, 1, (2, 2), {}),
        ("kz", 3, 1, (2, 2), {}),
    ],
    "enumerate": [
        ("fillings", 3, 1, (3, 3), {"naf": (4, 100)}),
        ("walks", 3, 1, (2, 2), {}),
        ("tableaux", 3, 1, (2, 3), {}),
        ("weights", 3, 1, (1, 2), {}),
    ],
}


@pytest.fixture
def tiny(monkeypatch):
    for workload, slots in TINY.items():
        monkeypatch.setitem(inputs._SLOTS, workload, slots)


def outputs(workload, seed=5):
    """(job, output) pairs of a tiny job list, run in this process."""
    done = {}
    pairs = []
    for job in json.loads(json.dumps(inputs.generate(workload, seed))):
        out = jobs.Output(job["kind"], keep=True)
        jobs.run(job, done, out)
        done[job["id"]] = out.items
        pairs.append((job, out.items[0] if job["kind"] in jobs.SINGLE else out.items))
    return pairs


def checked(workload, seed=5):
    """An oracle that has passed every job, with the job outputs."""
    oracle = Oracle()
    pairs = outputs(workload, seed)
    for job, out in pairs:
        assert oracle.check(job, out) == [], job
    return oracle, pairs


def first(pairs, **match):
    return next(
        (j, o) for j, o in pairs if all(j.get(k) == v for k, v in match.items())
    )


# -- smoke runs -------------------------------------------------------------------


@pytest.mark.parametrize("workload,trace", [("construct", 0), ("verify", 1), ("enumerate", 0)])
def test_smoke_run(workload, trace, tiny, capsys, tmp_path):
    argv = ["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv + ["--out", str(tmp_path / "r.jsonl")]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    group = "per_layer" if trace else "end_to_end"
    assert list(last["metrics"]) == [m["name"] for m in run.spec()[group]]
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_same_seed_same_inputs():
    assert inputs.generate("enumerate", 7) == inputs.generate("enumerate", 7)
    assert inputs.generate("enumerate", 7) != inputs.generate("enumerate", 8)


def test_output_hashes_without_keeping(tiny):
    """A timed pass keeps no items, and digests as a checked pass does."""
    job = first([(j, None) for j in inputs.generate("enumerate", 5)], kind="walks")[0]
    kept, dropped = jobs.Output("walks", keep=True), jobs.Output("walks", keep=False)
    jobs.run(job, {}, kept)
    jobs.run(job, {}, dropped)
    assert dropped.items is None and len(kept.items) > 1
    assert dropped.digest() == kept.digest()
    short = jobs.Output("walks", keep=False)
    short.extend(kept.items[:-1])
    assert short.digest() != kept.digest()


def test_compare_prints_a_verdict(capsys, tmp_path):
    rec = {"workload": "verify", "end_to_end": {m["name"]: 1.0 for m in run.spec()["end_to_end"]}}
    slow = copy.deepcopy(rec)
    slow["end_to_end"]["wall_s"] = 2.0
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(json.dumps(rec) + "\n")
    b.write_text(json.dumps(slow) + "\n")
    assert run.main(["--compare", str(a), str(b)]) == 0
    line = next(x for x in capsys.readouterr().out.splitlines() if x.strip().startswith("wall_s"))
    assert "worse by 100.0%" in line


# -- each oracle catches a corrupted output ---------------------------------------


def corrupt_json(out, edit):
    doc = json.loads(out["stdout"])
    edit(doc)
    return dict(out, stdout=json.dumps(doc) + "\n")


def bump_coefficient(doc):
    doc["terms"][-1]["coeff"]["num"][0]["c"] = str(int(doc["terms"][-1]["coeff"]["num"][0]["c"]) + 1)


@pytest.mark.parametrize("verb", ["E", "Ez", "f", "F"])
def test_construct_oracle_catches_perturbed_coefficient(verb, tiny):
    oracle, pairs = checked("construct")
    job, out = first(pairs, verb=verb)
    assert oracle.check(job, corrupt_json(out, bump_coefficient))


def test_symmetrization_constant_oracle(tiny):
    """A changed power of t^(1/2) keeps the t = 1 value; c(mu) F_mu = P catches it."""
    oracle, pairs = checked("construct")
    job, out = first(pairs, verb="F")
    assert job.get("check_constant")

    def shift_v(doc):
        for term in doc["terms"]:
            if len(term["coeff"]["num"]) > 1:
                term["coeff"]["num"][0]["v"] += 2
                return
        raise AssertionError("no coefficient with two terms")

    errs = oracle.check(job, corrupt_json(out, shift_v))
    assert errs and all("c(mu) F_mu" in e for e in errs)


def test_p_routes_must_agree(tiny):
    oracle = Oracle()
    pairs = outputs("construct")
    ps = [(j, o) for j, o in pairs if j["verb"] == "P"]
    assert [j["method"] for j, _ in ps] == ["sum-rel", "symmetrize", "cst"]
    for job, out in ps[:2]:
        assert oracle.check(job, out) == []
    job, out = ps[2]

    def drop_v_power(doc):
        for term in doc["terms"]:
            for side in ("num", "den"):
                for t in term["coeff"][side]:
                    if t["v"]:
                        t["v"] += 2
                        return

    errs = oracle.check(job, corrupt_json(out, drop_v_power))
    assert any("differs from P by sum-rel" in e for e in errs)


def test_count_oracle(tiny):
    oracle, pairs = checked("enumerate")
    job, out = first(pairs, verb="count")

    def off_by_one(doc):
        doc["value"] = str(int(doc["value"]) + 1)

    assert oracle.check(job, corrupt_json(out, off_by_one))


def test_verify_oracles(tiny):
    oracle, pairs = checked("verify")
    for kind in ("eigen", "haction", "kz"):
        job, out = first(pairs, kind=kind)
        lines = out["lines"]
        assert oracle.check(job, dict(out, lines=lines[:-1])), kind
        flipped = [type(lines[0])(lines[0].name, False, "broken")] + lines[1:]
        assert oracle.check(job, dict(out, lines=flipped)), kind
    job, out = first(pairs, kind="eigen")
    E = copy.deepcopy(out["E"])
    E[0]["coeff"]["num"][0]["c"] = "2"
    assert oracle.check(job, dict(out, E=E))
    job, out = first(pairs, verb="verify")
    assert oracle.check(job, dict(out, stdout="80/81 checks passed\n"))


def test_fillings_oracle(tiny):
    from maclab.diagrams import Filling

    oracle, pairs = checked("enumerate")
    job, out = first(pairs, kind="fillings", fill="nonattacking")
    assert oracle.check(job, out[:-1])  # a dropped filling
    assert oracle.check(job, out[:-1] + out[:1])  # a repeated one
    T = out[0]
    assert oracle.check(job, [Filling(T.mu, T.z, (1,) * len(T.values), T.kind)] + out[1:])
    job, out = first(pairs, kind="fillings", fill="queue")
    assert oracle.check(job, out[:-1])


def test_pipedream_oracle(tiny):
    from maclab.diagrams import Filling

    oracle, pairs = checked("enumerate")
    job, out = first(pairs, kind="pipedream")
    P, back = out[0]
    changed = Filling(back.mu, back.z, out[1][1].values)  # another filling's values
    assert back.values != changed.values
    assert oracle.check(job, [(P, changed)] + out[1:])
    assert oracle.check(job, out[:-1])


def test_walks_and_tableaux_oracles(tiny):
    oracle, pairs = checked("enumerate")
    for kind in ("walks", "tableaux"):
        job, out = first(pairs, kind=kind)
        assert oracle.check(job, out[:-1]), kind  # a dropped walk or tableau


def test_weights_oracle(tiny):
    oracle, pairs = checked("enumerate")
    job, out = first(pairs, kind="weights")
    bad = copy.deepcopy(out)
    bad["fillings"][0]["coeff"]["num"][0]["c"] = "7"
    assert oracle.check(job, bad)


@pytest.mark.xfail(strict=True, reason="apply_Y_inv(i) reverses the T_j order for i >= 3")
def test_known_defect_Y_inv_top_index():
    """A program defect the verify workload reports: at n = 4 the line
    Y_3^-1 Y_4 E_mu = a_mu E_mu fails, so verify runs that draw i = 3 are
    not correct.  This test fails once the defect is fixed."""
    from maclab import verify_haction

    assert all(line.ok for line in verify_haction((1, 2, 1, 0), 3))


# -- the tracer -------------------------------------------------------------------


def fresh(code):
    """Run code in a fresh interpreter (so no cache of the program is warm)."""
    prelude = f"import sys; sys.path[:0] = [{BENCH!r}, {SRC!r}]\n"
    proc = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_tT_calls_follow_the_box_greedy_word():
    """One apply_tT per s-letter plus n - 1 per pi (g_vee = x_1 T_1 .. T_(n-1))."""
    got, want = fresh(
        "from tracer import Tracer\n"
        "from maclab import compute_E, box_greedy_word\n"
        "tr = Tracer(); tr.install(); tr.on = True\n"
        "compute_E((2, 1, 0)); tr.on = False\n"
        "w = box_greedy_word((2, 1, 0))\n"
        "print(tr.layer_metrics()['hecke.tT_calls'], len(w) - w.count('pi') + (3 - 1) * w.count('pi'))\n"
    )
    assert int(got) == int(want) > 0


def test_gcd_counted_once_at_the_outermost_call():
    """PolyElement.gcd calls cofactors; one normalization is one gcd."""
    calls, trivial = fresh(
        "from tracer import Tracer\n"
        "from maclab import ratfunc\n"
        "from maclab.ratfunc import QGEN, VGEN\n"
        "tr = Tracer(); tr.install(); tr.on = True\n"
        "ratfunc.rf_normalize((QGEN - VGEN) * (QGEN + 1), (QGEN - VGEN) * (VGEN + 2)); tr.on = False\n"
        "m = tr.layer_metrics()\n"
        "print(m['ratfunc.gcd_calls'], m['ratfunc.gcd_trivial_ratio'])\n"
    )
    assert (int(calls), float(trivial)) == (1, 0.0)
