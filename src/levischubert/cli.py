"""Command-line front end.

Subcommands: analyze, heads, toroidal, bp, sweep, classify.  Permutations
are comma-separated one-line notation ("3,4,1,2"); parabolic and Levi sets
are comma-separated simple-root indices ("1,3,4"); ``--d k`` selects the
Grassmannian quotient omitting only position k.

Exit codes: 0 ok, 1 violation found in a verification sweep, 2 usage
error (a bound that yields no instances included), 3 rank limit exceeded,
4 internal error (any other exception, such as a failed invariant
self-check).  A reader that closes stdout early ends the run quietly with
141, the status of a process killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import bp, classify, grassmann, levi, sweeps, toroidal, weyl


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, integers only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(canonical_json(obj))
        return
    for key in sorted(obj):
        print(f"{key}: {json.dumps(obj[key], sort_keys=True)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levischubert",
        description="Levi actions on type A Schubert varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_flags(p, levi_flag=True):
        p.add_argument("--n", type=int, required=True, help="rank of GL_n")
        p.add_argument("--w", required=True,
                       help="permutation in one-line notation, e.g. 3,4,1,2")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--d", type=int,
                           help="Grassmannian quotient: parabolic omitting d")
        group.add_argument("--parabolic", default="",
                           help="parabolic subset as indices, e.g. 1,3")
        if levi_flag:
            p.add_argument("--levi", default="",
                           help="Levi simple roots as indices, e.g. 1,3,4")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("analyze", help="stability, heads and boundary of one instance")
    instance_flags(p)

    p = sub.add_parser("heads", help="degree-1 heads below one element")
    instance_flags(p)

    p = sub.add_parser("toroidal", help="necessary toroidality conditions in a Grassmannian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--levi", default="")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("bp", help="parabolic decomposition and factorization tests")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--parabolic", default="", help="the finer parabolic J")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int,
                       help="decompose at the maximal parabolic omitting d")
    group.add_argument("--quotient", help="the coarser parabolic K as indices")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("sweep", help="exhaustive verification sweeps")
    p.add_argument("--check", required=True, choices=sorted(sweeps.SWEEPS))
    p.add_argument("--max-n", type=int, default=None,
                   help="rank bound (m bound for classify-codim)")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("classify", help="the rank-one horospherical table")
    p.add_argument("--max-m", type=int, default=1000)
    p.add_argument("--format", choices=("json", "text"), default="json")

    return parser


def _parse_instance(args) -> tuple[int, weyl.Perm, frozenset[int], frozenset[int]]:
    n = args.n
    if n < 1:
        raise ValueError("--n must be positive")
    w = weyl.parse_perm(args.w)
    if len(w) != n:
        raise ValueError(f"--w has {len(w)} entries; expected {n}")
    if getattr(args, "d", None) is not None:
        if not 1 <= args.d < n:
            raise ValueError(f"--d must lie in 1..{n - 1}")
        J = frozenset(range(1, n)) - {args.d}
    else:
        J = weyl.parse_parabolic(getattr(args, "parabolic", ""), n)
    I = weyl.parse_parabolic(getattr(args, "levi", ""), n)
    weyl.require_quotient(w, J)
    return n, w, J, I


def _cmd_analyze(args) -> int:
    n, w, J, I = _parse_instance(args)
    stab = levi.max_levi(w, J)
    report = levi.heads_below(w, J, I)
    out = {
        "command": "analyze",
        "n": n,
        "w": list(w),
        "parabolic": sorted(J),
        "levi": sorted(I),
        "length": weyl.length(w),
        "max_levi": sorted(stab),
        "stable": I <= stab,
        "minimal_head": list(levi.minimal_head(J, I, n)),
        "heads": [list(h) for h in report.heads],
        "maximal_proper_heads": [list(h) for h in report.maximal_proper_heads],
        "boundary": ([list(h) for h in sorted(report.maximal_proper_heads)]
                     if I <= stab else None),
    }
    _emit(out, args.format)
    return 0


def _cmd_heads(args) -> int:
    _, w, J, I = _parse_instance(args)
    _emit(levi.heads_below(w, J, I).to_json(), args.format)
    return 0


def _cmd_toroidal(args) -> int:
    _, w, _, I = _parse_instance(args)
    x = grassmann.GrassmannSchubert(args.d, w)
    report = toroidal.toroidal_necessary(x, I)
    _emit(report.to_json(), args.format)
    return 0


def _cmd_bp(args) -> int:
    n = args.n
    w = weyl.parse_perm(args.w)
    if len(w) != n:
        raise ValueError(f"--w has {len(w)} entries; expected {n}")
    J = weyl.parse_parabolic(args.parabolic, n)
    if args.d is not None:
        if not 1 <= args.d < n:
            raise ValueError(f"--d must lie in 1..{n - 1}")
        if args.d in J:
            raise ValueError("--d must lie outside the finer parabolic")
        K = frozenset(range(1, n)) - {args.d}
    else:
        K = weyl.parse_parabolic(args.quotient, n)
    result = bp.decompose(w, J, K)
    _emit(result.to_json(), args.format)
    return 0


def _cmd_sweep(args) -> int:
    fn, default_bound, is_rank = sweeps.SWEEPS[args.check]
    bound = args.max_n if args.max_n is not None else default_bound
    if is_rank and bound > weyl.RANK_LIMIT:
        raise weyl.RankLimitError(
            f"--max-n {bound} exceeds the enumeration limit {weyl.RANK_LIMIT}")
    instances = 0
    violations = 0
    for record in fn(bound):
        instances += 1
        if not record["ok"]:
            violations += 1
        if args.format == "json":
            print(canonical_json(record))
    if not instances:
        raise ValueError(f"--max-n {bound} yields no {args.check} instances")
    if args.format == "json":
        print(canonical_json({"check": args.check, "instances": instances,
                              "violations": violations}))
    else:
        print(f"{args.check}: {instances} instances, {violations} disagreements")
    return 1 if violations else 0


def _cmd_classify(args) -> int:
    instances = 0
    violations = 0
    for record in sweeps.classify_codim(args.max_m):
        instances += 1
        if not record["ok"]:
            violations += 1
    if not instances:
        raise ValueError(f"--max-m {args.max_m} yields no classify-codim instances")
    out = {
        "families": [f.to_json() for f in classify.case_families()],
        "sweep": {"max_m": args.max_m, "instances": instances,
                  "violations": violations},
    }
    _emit(out, args.format)
    return 1 if violations else 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "heads": _cmd_heads,
    "toroidal": _cmd_toroidal,
    "bp": _cmd_bp,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _COMMANDS[args.command](args)
        # a closed pipe must surface here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; silence the flush at interpreter exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as for a process the signal killed
    except weyl.RankLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
