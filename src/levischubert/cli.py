"""Command-line front end.

Subcommands: analyze, heads, toroidal, bp, sweep, classify.  Permutations
are comma-separated one-line notation ("3,4,1,2"); parabolic and Levi sets
are comma-separated simple-root indices ("1,3,4"); ``--d k`` selects the
Grassmannian quotient omitting only position k.  The command line only
turns this text into integers, reads ``--n`` by ``weyl.require_rank`` and
checks that ``--w`` has ``--n`` entries; the library entries check the rest.

Exit codes: 0 ok, 1 violation found in a verification sweep, 2 usage
error (a bound that yields no instances included), 3 rank limit exceeded,
4 internal error (any other exception, such as a failed invariant
self-check).  A reader that closes stdout early ends the run quietly with
141, the status of a process killed by SIGPIPE; an interrupt (Ctrl-C)
ends it quietly with 130, as SIGINT would.

``main`` reuses one parser per process, so the ``--check`` choices are the
names in ``sweeps.SWEEPS`` when it first runs.
``canonical_json`` encodes through one C encoder built at import, and a
sweep writes each of its JSON lines with a single ``write``.  The encoder
is CPython's ``_json`` accelerator; there is no pure-Python fallback, so an
interpreter without it fails to import this module.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from _json import make_encoder
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from . import bp, classify, grassmann, levi, sweeps, toroidal, weyl


# The C encoder that ``json.dumps(obj, sort_keys=True, separators=(",",
# ":"))`` would build on every call, built once.  Its markers argument is
# None, so it keeps no circular-reference table: a shared one would keep the
# ids a failed encode left in it and refuse a later encode of the same
# objects as circular.
_C_ENCODE = make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None,
    ":", ",", True, False, True)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, integers only."""
    return "".join(_C_ENCODE(obj, 0))


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

    def instance_command(name, summary, run, add_flags):
        """A subcommand on one instance: ``--n`` and ``--w``, the flags
        ``add_flags`` adds, then ``--format``."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--n", type=int, required=True, help="rank of GL_n")
        p.add_argument("--w", required=True,
                       help="permutation in one-line notation, e.g. 3,4,1,2")
        add_flags(p)
        p.add_argument("--format", choices=("json", "text"), default="json")

    def quotient_levi_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--d", type=int,
                           help="Grassmannian quotient: parabolic omitting d")
        group.add_argument("--parabolic", default="",
                           help="parabolic subset as indices, e.g. 1,3")
        p.add_argument("--levi", default="",
                       help="Levi simple roots as indices, e.g. 1,3,4")

    def toroidal_flags(p):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--levi", default="")

    def bp_flags(p):
        p.add_argument("--parabolic", default="", help="the finer parabolic J")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--d", type=int,
                           help="decompose at the maximal parabolic omitting d")
        group.add_argument("--quotient", help="the coarser parabolic K as indices")

    instance_command("analyze", "stability, heads and boundary of one instance",
                     _cmd_analyze, quotient_levi_flags)
    instance_command("heads", "degree-1 heads below one element", _cmd_heads,
                     quotient_levi_flags)
    instance_command("toroidal", "necessary toroidality conditions in a Grassmannian",
                     _cmd_toroidal, toroidal_flags)
    instance_command("bp", "parabolic decomposition and factorization tests",
                     _cmd_bp, bp_flags)

    p = sub.add_parser("sweep", help="exhaustive verification sweeps")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--check", required=True, choices=sorted(sweeps.SWEEPS))
    p.add_argument("--max-n", type=int, default=None,
                   help="rank bound (m bound for classify-codim)")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("classify", help="the rank-one horospherical table")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("--max-m", type=int, default=1000)
    p.add_argument("--format", choices=("json", "text"), default="json")

    return parser


def _ints(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of ``text``, or refused as not ``what``."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(f"{text!r} is not {what}") from None


def _index_set(text: str) -> frozenset[int]:
    return frozenset(_ints(text, "a comma-separated index set") if text else ())


def _parse_w(args) -> tuple[int, weyl.Perm]:
    n = weyl.require_rank(args.n)
    w = _ints(args.w, "comma-separated one-line notation")
    if len(w) != n:
        raise ValueError(f"--w has {len(w)} entries; expected {n}")
    return n, w


def _quotient(d: int | None, text: str, n: int) -> frozenset[int]:
    """``Delta - {d}`` when ``--d`` is given, else the index set ``text``."""
    if d is None:
        return _index_set(text)
    return weyl.require_descent(d, n)[1]


def _parse_instance(args) -> tuple[int, weyl.Perm, frozenset[int], frozenset[int]]:
    n, w = _parse_w(args)
    # the library entries each command calls check w in W^J and the indices
    return n, w, _quotient(args.d, args.parabolic, n), _index_set(args.levi)


def _cmd_analyze(args) -> int:
    n, w, J, I = _parse_instance(args)
    stab = levi.max_levi(w, J)
    report = levi.heads_below(w, J, I)
    out = {
        **report.to_json(),
        "command": "analyze",
        "n": n,
        "w": list(w),
        "parabolic": sorted(J),
        "levi": sorted(I),
        "length": weyl.length(w),
        "max_levi": sorted(stab),
        "stable": I <= stab,
        "minimal_head": list(levi.minimal_head(J, I, n)),  # even with no head
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
    _, w = _parse_w(args)
    I = _index_set(args.levi)
    x = grassmann.GrassmannSchubert(args.d, w)
    _emit(toroidal.toroidal_necessary(x, I).to_json(), args.format)
    return 0


def _cmd_bp(args) -> int:
    n, w = _parse_w(args)
    J = _index_set(args.parabolic)
    K = _quotient(args.d, args.quotient, n)
    _emit(bp.decompose(w, J, K).to_json(), args.format)
    return 0


def _tally(records, bound: str, check: str, echo: bool) -> tuple[int, int]:
    """Count a sweep's records and its violations, writing each record as
    a JSON line when ``echo``.  A sweep that yields no record is a usage
    error: ``bound`` names the flag and value that made it vacuous."""
    instances = 0
    violations = 0
    for record in records:
        instances += 1
        if not record["ok"]:
            violations += 1
        if echo:
            sys.stdout.write(canonical_json(record) + "\n")
    if not instances:
        raise ValueError(f"{bound} yields no {check} instances")
    return instances, violations


def _cmd_sweep(args) -> int:
    fn, default_bound, _ = sweeps.SWEEPS[args.check]
    bound = args.max_n if args.max_n is not None else default_bound
    instances, violations = _tally(fn(bound), f"--max-n {bound}", args.check,
                                   echo=args.format == "json")
    if args.format == "json":
        print(canonical_json({"check": args.check, "instances": instances,
                              "violations": violations}))
    else:
        print(f"{args.check}: {instances} instances, {violations} disagreements")
    return 1 if violations else 0


def _cmd_classify(args) -> int:
    instances, violations = _tally(sweeps.classify_codim(args.max_m),
                                   f"--max-m {args.max_m}", "classify-codim",
                                   echo=False)
    out = {
        "families": [f.to_json() for f in classify.FAMILIES],
        "sweep": {"max_m": args.max_m, "instances": instances,
                  "violations": violations},
    }
    _emit(out, args.format)
    return 1 if violations else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, called once per process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.run(args)
        # a closed pipe must surface here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; silence the flush at interpreter exit too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as for a process the signal killed
    except KeyboardInterrupt:
        return 130  # 128 + SIGINT
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
