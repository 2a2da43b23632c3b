"""Command-line front end.

Verbs: E, P, f, F, count, word, inv, fillings, walks, verify.
Output is byte-deterministic for a fixed command; JSON documents carry
the schema tag "macdonald-lab/1".  Exit codes: 0 success, 1 verification
failure, 2 malformed input, 3 internal error (a failed invariant or a
stray ValueError, i.e. a bug rather than bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import affine, diagrams, macdonald, verify
from . import permutations as fperm
from .errors import InvariantViolation, MacLabError

SCHEMA = "macdonald-lab/1"


def _parse_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _print_doc(args, verb, mu, terms=None, **fields):
    """Print one JSON document: the common header, then fields in order,
    then `terms`, the JSON text of a polynomial, when given."""
    doc = {"schema": SCHEMA, "command": verb, "n": args.n, "mu": list(mu), **fields}
    text = json.dumps(doc, separators=(",", ":"))
    if terms is None:
        print(text)
    else:  # spliced in as the last field, without parsing it
        print(text[:-1], ',"terms":', terms, "}", sep="")


def _emit_poly(args, verb, mu, poly, **extra):
    if args.format == "json":
        _print_doc(args, verb, mu, **extra, terms=poly.to_json())
    elif args.format == "latex":
        print(poly.to_string(latex=True))
    else:
        print(poly.to_string())
    return 0


def _check_n(args, vec, what):
    if len(vec) != args.n:
        raise MacLabError(f"{what} must have length n = {args.n}")
    return vec


def cmd_E(args):
    mu = _check_n(args, args.mu, "--mu")
    if args.z is not None:
        z = _check_n(args, args.z, "--z")
        res = macdonald.compute_E_rel(mu, z)
        return _emit_poly(args, "E", mu, res.poly, z=list(z))
    return _emit_poly(args, "E", mu, macdonald.compute_E(mu).poly)


def cmd_P(args):
    lam = _check_n(args, args.mu, "--lam")
    res = macdonald.compute_P(lam, args.method)
    return _emit_poly(args, "P", lam, res.poly, method=args.method)


def cmd_f(args):
    mu = _check_n(args, args.mu, "--mu")
    return _emit_poly(args, "f", mu, macdonald.compute_f(mu).poly)


def cmd_F(args):
    mu = _check_n(args, args.mu, "--mu")
    res = macdonald.compute_F(mu)
    if args.format != "json":  # only the JSON document carries c(mu)
        return _emit_poly(args, "F", mu, res.poly)
    c = macdonald.symmetrization_constant(mu)
    return _emit_poly(args, "F", mu, res.poly, symmetrization_constant=c.to_json_obj())


def cmd_count(args):
    mu = _check_n(args, args.mu, "--mu")
    val = diagrams.count(mu, args.what)
    if args.format == "json":
        _print_doc(args, "count", mu, what=args.what, value=str(val))
    else:
        print(val)
    return 0


def cmd_word(args):
    mu = _check_n(args, args.mu, "--mu")
    word = (
        affine.box_greedy_word(mu)
        if args.kind == "box"
        else affine.column_greedy_word(mu)
    )
    el, reduced = affine.word_eval(word, args.n)
    if args.format == "json":
        _print_doc(
            args, "word", mu, kind=args.kind, word=list(word),
            window=list(el.window), reduced=reduced,
        )
    else:
        print(" ".join(word))
    return 0


def cmd_inv(args):
    mu = _check_n(args, args.mu, "--mu")
    u = affine.u_element(mu)
    roots = sorted(u.inversions(), key=lambda r: (r.i, r.j, r.level))
    if args.format == "json":
        _print_doc(
            args, "inv", mu, window=list(u.window), length=u.length(),
            inversions=[{"i": r.i, "j": r.j, "level": r.level} for r in roots],
        )
    else:
        for r in roots:
            print(r)
    return 0


def cmd_fillings(args):
    mu = _check_n(args, args.mu, "--mu")
    z = _check_n(args, args.z, "--z") if args.z else fperm.identity(args.n)
    fills = diagrams.enumerate_fillings(mu, z, args.kind)
    if args.format == "json":
        _print_doc(
            args, "fillings", mu, z=list(z), kind=args.kind, count=len(fills),
            fillings=[T.to_json_obj() for T in fills],
        )
    else:
        for T in fills:
            print(" ".join(str(v) for v in T.values))
    return 0


def cmd_walks(args):
    mu = _check_n(args, args.mu, "--mu")
    z = _check_n(args, args.z, "--z") if args.z else fperm.identity(args.n)
    walks = diagrams.enumerate_walks(mu, z)
    if args.format == "json":
        body = [
            {
                "shorthand": w.shorthand(),
                "folds": [bool(b) for b in w.folds],
                "path": diagrams.walk_geometry(w).to_json_obj(),
            }
            for w in walks
        ]
        _print_doc(args, "walks", mu, z=list(z), count=len(walks), walks=body)
    else:
        for w in walks:
            print(w.shorthand())
    return 0


def cmd_verify(args):
    if args.n < 1:
        raise MacLabError(f"--n must be at least 1, got {args.n}")
    results = verify.run_suite(args.suite, args.n)
    if not results:
        print(f"suite {args.suite!r} has no checks at n = {args.n}", file=sys.stderr)
        return 1
    failed = 0
    for line in results:
        if not line.ok:
            failed += 1
            msg = f"FAIL {line.name}" + (f": {line.detail}" if line.detail else "")
            print(msg, file=sys.stderr)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="maclab",
        description="Type GL_n Macdonald polynomials in exact arithmetic",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, mu_flag="--mu", with_z=False):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument(mu_flag, dest="mu", type=_parse_ints, required=True)
        if with_z:
            sp.add_argument("--z", type=_parse_ints, default=None)
        sp.add_argument(
            "--format", choices=("json", "latex", "plain"), default="plain"
        )

    sp = sub.add_parser("E", help="nonsymmetric E_mu (optionally relative E_mu^z)")
    common(sp, with_z=True)
    sp.set_defaults(func=cmd_E)

    sp = sub.add_parser("P", help="symmetric P_lambda")
    common(sp, mu_flag="--lam")
    sp.add_argument(
        "--method", choices=("sum-rel", "symmetrize", "cst"), default="sum-rel"
    )
    sp.set_defaults(func=cmd_P)

    sp = sub.add_parser("f", help="KZ-family member f_mu")
    common(sp)
    sp.set_defaults(func=cmd_f)

    sp = sub.add_parser("F", help="symmetrization F_mu = 1_0 E_mu")
    common(sp)
    sp.set_defaults(func=cmd_F)

    sp = sub.add_parser("count", help="exact counts (aw, naf, cst, t, c, r)")
    common(sp)
    sp.add_argument(
        "--what", choices=("aw", "naf", "cst", "t", "c", "r"), required=True
    )
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("word", help="reduced word for u_mu")
    common(sp)
    sp.add_argument("--kind", choices=("box", "column"), default="box")
    sp.set_defaults(func=cmd_word)

    sp = sub.add_parser("inv", help="inversions of u_mu")
    common(sp)
    sp.set_defaults(func=cmd_inv)

    sp = sub.add_parser("fillings", help="nonattacking fillings / queue tableaux")
    common(sp, with_z=True)
    sp.add_argument(
        "--kind", choices=("nonattacking", "queue"), default="nonattacking"
    )
    sp.set_defaults(func=cmd_fillings)

    sp = sub.add_parser("walks", help="alcove walks over the box-greedy word")
    common(sp, with_z=True)
    sp.set_defaults(func=cmd_walks)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument(
        "--suite",
        choices=("eigen", "kz", "haction", "counts", "golden", "all"),
        required=True,
    )
    sp.add_argument("--n", type=int, default=3)
    sp.set_defaults(func=cmd_verify)
    return p


# parsing leaves no state on the parser, so one serves every call
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvariantViolation, ValueError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except MacLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
