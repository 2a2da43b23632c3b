"""Running one job through maclab's public API.

`run(job, outputs, out)` is the timed call.  It hands each item of the
job's output to `out` (an `Output`) as the program produces it: a
streaming call (`iter_walks`, the pipe-dream round trip) is consumed
item by item, so the harness holds no list the program did not build.
`outputs` holds the items of earlier jobs that a later job reads (a
pipe-dream round trip runs on a fillings job's list).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from time import perf_counter

from maclab import cli, diagrams, macdonald
from maclab.laurent import LaurentPoly


def _lines(out):
    return dict(out, lines=[[c.name, c.ok, c.detail] for c in out["lines"]])


# each item as plain data, for the digest
_PLAIN = {
    "eigen": _lines,
    "haction": _lines,
    "kz": _lines,
    "fillings": lambda T: [T.mu, T.z, T.values, T.kind],
    "pipedream": lambda item: [item[0], item[1].values],
    "walks": lambda item: [item[0].shorthand(), item[1].to_json_obj()],
}


class Output:
    """A job's output, taken item by item.

    Every item is hashed into the SHA-256 `digest()` a repeated run must
    match, and dropped unless `keep` is set (for the oracles, and for a
    job whose items a later job reads).  `spent` is the time taken here,
    which the worker subtracts from the job's latency.
    """

    def __init__(self, kind, keep):
        self.items = [] if keep else None
        self.plain = _PLAIN.get(kind, lambda item: item)
        self.hash = hashlib.sha256()
        self.spent = 0.0

    def _take(self, item):
        if self.items is not None:
            self.items.append(item)
        # the repr of plain data (tuples, lists, dicts built in a fixed
        # order, str, int, bool) is the same in every process
        self.hash.update(repr(self.plain(item)).encode() + b"\n")

    def add(self, item):
        t0 = perf_counter()
        self._take(item)
        self.spent += perf_counter() - t0

    def extend(self, items):
        t0 = perf_counter()
        for item in items:
            self._take(item)
        self.spent += perf_counter() - t0

    def digest(self):
        return self.hash.hexdigest()


def _cli(job, outputs, out):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(job["argv"])
    out.add({"code": code, "stdout": buf.getvalue()})


def _eigen(job, outputs, out):
    lines = macdonald.verify_eigen(job["mu"])
    # the verified polynomial itself, so an empty E cannot pass vacuously
    out.add({"lines": lines, "E": macdonald.compute_E(job["mu"]).poly.to_json_obj()})


def _haction(job, outputs, out):
    out.add({"lines": macdonald.verify_haction(job["mu"], job["i"])})


def _kz(job, outputs, out):
    out.add({"lines": macdonald.verify_kz(job["lam"])})


def _fillings(job, outputs, out):
    out.extend(diagrams.enumerate_fillings(job["mu"], job["z"], job["fill"]))


def _pipedream(job, outputs, out):
    for T in outputs[job["of"]]:
        P = diagrams.pipedream_convert(T)
        out.add((P, diagrams.pipedream_invert(P, job["mu"], job["z"])))


def _walks(job, outputs, out):
    for w in diagrams.iter_walks(job["mu"], job["z"]):
        out.add((w, diagrams.walk_geometry(w)))


def _tableaux(job, outputs, out):
    out.extend(diagrams.column_strict_tableaux(job["lam"], job["n"]))


def _weights(job, outputs, out):
    """The filling formula for one- and two-box columns against the
    operator chain: sum of wt(T) x^T over nonattacking fillings."""
    mu, z = job["mu"], job["z"]
    n = len(mu)
    total = LaurentPoly.zero(n)
    for T in diagrams.enumerate_fillings(mu, z):
        e = [0] * n
        for v in T.values:
            e[v - 1] += 1
        total = total + LaurentPoly.monomial(e, diagrams.filling_weight(T))
    operator = macdonald.compute_E_rel(mu, z).poly
    out.add({"fillings": total.to_json_obj(), "operator": operator.to_json_obj()})


RUNNERS = {
    "cli": _cli,
    "eigen": _eigen,
    "haction": _haction,
    "kz": _kz,
    "fillings": _fillings,
    "pipedream": _pipedream,
    "walks": _walks,
    "tableaux": _tableaux,
    "weights": _weights,
}

# kinds whose output is one item rather than a list of them
SINGLE = {"cli", "eigen", "haction", "kz", "weights"}


def run(job, outputs, out):
    RUNNERS[job["kind"]](job, outputs, out)
