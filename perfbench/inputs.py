"""Seeded job lists for the three workloads.

`generate(workload, seed)` draws every input from `random.Random(seed)`
and returns plain data: the worker hands the program only these inputs.
Each draw is accepted only inside a size window taken from the closed
forms in `maclab.diagrams.count` ('naf', 'aw', 'cst'), together with
bounds on n and |mu|.  So no enumeration starts without its size known,
and the amount of work in a job list stays steady from seed to seed.
"""

from __future__ import annotations

import random

# (kind, n, jobs, boxes lo..hi, {closed form: size lo..hi}); the size of
# a weight mu is count(nu, form) where nu is the weight whose E is built
# (mu itself, or the partition sorted(mu) for f and P).  At fixed n and
# |mu|, log2 of 'aw' (the number of s letters in the word of u_mu) sets
# the cost of E_mu, so most slots fix both and the seed picks among the
# weights of that class; 'cst' counts the monomials of P_lambda.


def _classes(kind, table):
    return [(kind, n, k, (b, b), {"aw": (aw, aw)}) for n, b, aw, k in table]


_CONSTRUCT = (
    _classes("E", [(3, 7, 256, 2), (3, 7, 128, 1), (4, 5, 512, 2), (4, 5, 1024, 1), (5, 5, 512, 2)])
    + _classes("Ez", [(3, 7, 128, 1), (4, 5, 512, 1), (4, 5, 1024, 1), (5, 5, 512, 1)])
    + [
        ("f", 3, 2, (6, 6), {"aw": (16, 32)}),
        ("f", 4, 1, (5, 5), {"aw": (16, 64)}),
        ("f", 5, 1, (4, 4), {"aw": (64, 128)}),
    ]
    + _classes("F", [(3, 5, 128, 1), (4, 4, 256, 1), (5, 4, 128, 1)])
    + [
        ("P", 3, 2, (6, 9), {"naf": (54, 128), "cst": (35, 35)}),
        ("P", 4, 1, (5, 6), {"cst": (60, 64)}),
        ("P", 5, 1, (4, 6), {"naf": (10, 16), "cst": (50, 70)}),
    ]
)

_SMALL_E = [
    (3, 4, 8, 1), (3, 5, 8, 1), (3, 4, 16, 2), (3, 5, 16, 2), (3, 4, 32, 1), (3, 5, 32, 1),
    (4, 3, 8, 2), (4, 4, 8, 2), (4, 3, 16, 2), (4, 4, 16, 2), (4, 3, 32, 1), (4, 4, 32, 1),
]  # (n, |mu|, aw, jobs)

_VERIFY = (
    _classes("eigen", _SMALL_E)
    + _classes("haction", _SMALL_E)
    + [
        ("kz", 3, 2, (3, 4), {"naf": (6, 27)}),
        ("kz", 4, 2, (2, 4), {"naf": (2, 9)}),
    ]
)

# Nonattacking fillings are followed by their pipe-dream round trip and,
# for the first three, by the queue tableaux of the same (mu, z).  Job
# sizes fall in three groups (round trips, walks and tableaux; fillings;
# counts and weights) whose boundaries stay clear of the median and of
# the tenth-from-top job.
_ENUMERATE = [
    ("fillings", 4, 2, (6, 12), {"naf": (6144, 6144)}),
    ("fillings", 5, 2, (5, 10), {"naf": (6400, 6400)}),
    ("walks", 3, 2, (10, 10), {"aw": (1024, 1024)}),
    ("walks", 4, 2, (8, 8), {"aw": (1024, 1024)}),
    ("walks", 5, 1, (6, 6), {"aw": (1024, 1024)}),
    ("tableaux", 6, 2, (9, 9), {"cst": (8900, 9300)}),
    ("tableaux", 7, 2, (8, 8), {"cst": (8800, 9500)}),
    ("weights", 4, 1, (1, 1), {}),
    ("weights", 4, 1, (2, 2), {}),
]

_SLOTS = {"construct": _CONSTRUCT, "verify": _VERIFY, "enumerate": _ENUMERATE}

# draws per weight before giving up; every window above has candidates
_MAX_TRIES = 20000


class _Draw:
    def __init__(self, seed):
        from maclab.diagrams import count

        self.rng = random.Random(seed)
        self.count = count
        self.used = set()  # (kind, weight) pairs already drawn

    def composition(self, n, boxes):
        """A random weight of length n with |mu| in boxes (lo, hi)."""
        total = self.rng.randint(*boxes)
        cuts = sorted(self.rng.randint(0, total) for _ in range(n - 1))
        edges = [0] + cuts + [total]
        return tuple(edges[k + 1] - edges[k] for k in range(n))

    def permutation(self, n, nontrivial=True):
        while True:
            z = list(range(1, n + 1))
            self.rng.shuffle(z)
            if not nontrivial or z != sorted(z):
                return tuple(z)

    def weight(self, n, boxes, windows, partition=False, key=None, accept=None, kind="E"):
        """Rejection-sample a weight whose closed-form sizes lie in windows;
        returns it with its sizes.  No two draws of one kind share nu."""
        for _ in range(_MAX_TRIES):
            mu = self.composition(n, boxes)
            if partition:
                mu = tuple(sorted(mu, reverse=True))
            nu = key(mu) if key else mu
            if (kind, nu) in self.used or (accept and not accept(mu)):
                continue
            sizes = {form: self.count(nu, form) for form in windows}
            if all(lo <= sizes[form] <= hi for form, (lo, hi) in windows.items()):
                self.used.add((kind, nu))
                return mu, sizes
        raise RuntimeError(f"no weight with n={n}, boxes={boxes} and sizes in {windows}")


def _csv(v):
    return ",".join(str(x) for x in v)


def _dominant(mu):
    return tuple(sorted(mu, reverse=True))


def _cli(argv, **meta):
    return {"kind": "cli", "argv": list(argv) + ["--format", "json"], **meta}


def _construct(d, slots):
    jobs = []
    for kind, n, k, boxes, windows in slots:
        for _ in range(k):
            if kind in ("E", "F"):
                mu, size = d.weight(n, boxes, windows)
                jobs.append(_cli([kind, "--n", str(n), "--mu", _csv(mu)], verb=kind, mu=mu, size=size))
            elif kind == "Ez":
                mu, size = d.weight(n, boxes, windows)
                z = d.permutation(n)
                argv = ["E", "--n", str(n), "--mu", _csv(mu), "--z", _csv(z)]
                jobs.append(_cli(argv, verb="Ez", mu=mu, z=z, size=size))
            elif kind == "f":
                mu, size = d.weight(
                    n, boxes, windows, key=_dominant, accept=lambda m: m != _dominant(m)
                )
                jobs.append(_cli(["f", "--n", str(n), "--mu", _csv(mu)], verb="f", mu=mu, size=size))
            elif kind == "P":
                lam, size = d.weight(n, boxes, windows, partition=True)
                for method in ("sum-rel", "symmetrize", "cst"):
                    argv = ["P", "--n", str(n), "--lam", _csv(lam), "--method", method]
                    jobs.append(_cli(argv, verb="P", mu=lam, method=method, size=size))
    # a seeded half of the F jobs also get the c(mu) F_mu = P_lambda (cst) oracle
    fs = [j for j in jobs if j["verb"] == "F"]
    for j in d.rng.sample(fs, (len(fs) + 1) // 2):
        j["check_constant"] = True
    return jobs


def _verify(d, slots):
    jobs = []
    for kind, n, k, boxes, windows in slots:
        for _ in range(k):
            if kind == "eigen":
                mu, size = d.weight(n, boxes, windows, kind=kind)
                jobs.append({"kind": "eigen", "mu": mu, "size": size})
            elif kind == "haction":
                # an index with mu_i != mu_(i+1), where all five relations apply
                mu, size = d.weight(n, boxes, windows, kind=kind, accept=lambda m: len(set(m)) > 1)
                i = d.rng.choice([i for i in range(1, n) if mu[i - 1] != mu[i]])
                jobs.append({"kind": "haction", "mu": mu, "i": i, "size": size})
            elif kind == "kz":
                lam, size = d.weight(n, boxes, windows, partition=True, kind=kind)
                jobs.append({"kind": "kz", "lam": lam, "size": size})
    jobs.append({"kind": "cli", "argv": ["verify", "--suite", "counts", "--n", "3"], "verb": "verify"})
    return jobs


def _enumerate(d, slots):
    jobs = []
    naf_jobs = []
    for kind, n, k, boxes, windows in slots:
        for _ in range(k):
            if kind == "fillings":
                mu, size = d.weight(n, boxes, windows)
                z = d.permutation(n, nontrivial=False)
                naf_jobs.append(len(jobs))
                jobs.append({"kind": "fillings", "mu": mu, "z": z, "fill": "nonattacking", "size": size})
                jobs.append({"kind": "pipedream", "of": len(jobs) - 1, "mu": mu, "z": z, "size": size})
                if len(naf_jobs) <= 2:
                    jobs.append(_cli(["count", "--n", str(n), "--mu", _csv(mu), "--what", "naf"], verb="count", mu=mu, what="naf"))
            elif kind == "walks":
                mu, size = d.weight(n, boxes, windows)
                z = d.permutation(n, nontrivial=False)
                jobs.append({"kind": "walks", "mu": mu, "z": z, "size": size})
                jobs.append(_cli(["count", "--n", str(n), "--mu", _csv(mu), "--what", "aw"], verb="count", mu=mu, what="aw"))
            elif kind == "tableaux":
                lam, size = d.weight(n, boxes, windows, partition=True)
                jobs.append({"kind": "tableaux", "lam": tuple(x for x in lam if x), "n": n, "size": size})
                jobs.append(_cli(["count", "--n", str(n), "--mu", _csv(lam), "--what", "cst"], verb="count", mu=lam, what="cst"))
            elif kind == "weights":
                # one box with any basement, or a two-box column with the identity
                two = boxes[0] == 2
                rows = d.rng.sample(range(n), boxes[0])
                mu = tuple(1 if r in rows else 0 for r in range(n))
                z = tuple(range(1, n + 1)) if two else d.permutation(n, nontrivial=False)
                jobs.append({"kind": "weights", "mu": mu, "z": z, "size": {"naf": d.count(mu, "naf")}})
    # queue tableaux of the first three nonattacking (mu, z), placed after
    # the nonattacking job so its oracle can reuse that verified list
    for at in naf_jobs[:3]:
        j = jobs[at]
        jobs.append({"kind": "fillings", "mu": j["mu"], "z": j["z"], "fill": "queue", "naf_job": at})
    return jobs


_BUILD = {"construct": _construct, "verify": _verify, "enumerate": _enumerate}

# every workload a run can take; BENCHMARK.json lists those the benchmark gates on
WORKLOADS = tuple(_BUILD)


def generate(workload, seed):
    """The job list of one workload for one seed (plain, JSON-ready data)."""
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    d = _Draw(seed)
    jobs = _BUILD[workload](d, _SLOTS[workload])
    for k, job in enumerate(jobs):
        job["id"] = k
    return jobs
