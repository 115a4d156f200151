"""Command-line front end.

Subcommands: analyze, heads, toroidal, bp, sweep, classify.  Permutations
are comma-separated one-line notation ("3,4,1,2"); parabolic and Levi sets
are comma-separated simple-root indices ("1,3,4"); ``--d k`` selects the
Grassmannian quotient omitting only position k.  The command line only
turns this text into integers, reads ``--n`` by ``weyl.require_rank`` and
checks that ``--w`` has ``--n`` entries; the library entries check the rest.
``analyze`` reads its minimal head off the ``levi.heads_below`` report,
whose first head is checked against the closed form, and takes the closed
form ``levi._minimal_head`` itself only when there is no head.

Exit codes: 0 ok, 1 violation found in a verification sweep, 2 usage
error (a bound that yields no instances included), 3 rank limit exceeded,
4 internal error (any other exception, such as a failed invariant
self-check).  A reader that closes stdout early ends the run quietly with
141, the status of a process killed by SIGPIPE; an interrupt (Ctrl-C)
ends it quietly with 130, as SIGINT would.

``main`` builds its parsers once per process, so the ``--check`` choices
are the names in ``sweeps.SWEEPS`` when it first runs.  An argv whose first
word names a subcommand is parsed by that subcommand's parser alone, and
the top-level parser refuses what it leaves over as unrecognized
arguments; any other argv (empty, ``-h``, an unknown name, an option
first) goes to the top-level parser.  Either way the result, the messages
and the exit codes are those of ``build_parser().parse_args``, which would
scan every argument twice.  An unknown subcommand or ``--check`` name is
refused in the package's words, not argparse's, which change between
CPython releases (3.13.13 drops the quotes around the choices).
``canonical_json`` and the text format encode through the two C encoders
that :mod:`levischubert.jsonl` builds at import.  Replies hold the
package's own tuples (a permutation, a list of heads, ``levi.blocks``),
which the encoders write as JSON arrays exactly as ``json.dumps`` does.
A sweep yields ``(n, ok, line)`` rows, and :func:`_tally` counts them and
writes each row's line, newline included, with a single ``write``.  A
rank sweep builds its lines itself, from parts encoded once per shared
loop; ``classify-codim`` yields dict records, which :func:`_rows` encodes
one ``canonical_json`` call each.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import Optional, Sequence

from . import bp, classify, grassmann, jsonl, levi, sweeps, toroidal, weyl
from .jsonl import ENCODE


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, integers only."""
    return "".join(ENCODE(obj, 0))


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(canonical_json(obj))
        return
    for key in sorted(obj):
        print(f"{key}: {jsonl.text(obj[key])}")


def _invalid_choice(word: str, names: Sequence[str]) -> str:
    """The refusal of ``word`` outside ``names``, worded as argparse
    worded it up to CPython 3.13.0, whatever the interpreter's argparse
    says."""
    return f"invalid choice: {word!r} (choose from {', '.join(map(repr, names))})"


#: A first word that argparse reads as a positional: one that does not
#: start with "-", the bare "-", a negative number by argparse's own
#: pattern (the top-level parser has no option that looks like one), or a
#: word holding a space that the parser's one option, -h/--help, does not
#: take by its prefix ("-h..." or an abbreviation of "--help=").
_POSITIONAL = re.compile(
    r"(?!-)|-\Z|-\d+$|-\d*\.\d+$|(?!-h|--(?:h|he|hel|help)=)-.* ", re.S)
#: A first word that argparse reads as -h, once or more, then a tail it
#: cannot read as a flag: CPython up to 3.12 refuses it, and 3.13 prints
#: the help and exits 0.
_HELP_TAIL = re.compile(r"-h+([^-=h].*)", re.S)


class _TopParser(argparse.ArgumentParser):
    """The top-level parser, which refuses an unknown subcommand itself
    (a first word that argparse reads as a positional) with the words of
    :func:`_invalid_choice`; argparse would word it by its version.  It
    refuses a first word of ``-h`` and a tail on every version, in the
    words argparse uses up to CPython 3.12."""

    commands: tuple[str, ...] = ()

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        if args and args[0] not in self.commands:
            if _POSITIONAL.match(args[0]):
                self.error(f"argument command: {_invalid_choice(args[0], self.commands)}")
            tail = _HELP_TAIL.fullmatch(args[0])
            if tail:
                self.error(f"argument -h/--help: ignored explicit argument {tail[1]!r}")
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The parser and its ``add_subparsers`` action, whose ``choices`` map
    each subcommand's name to its parser."""
    parser = _TopParser(
        prog="levischubert",
        description="Levi actions on type A Schubert varieties.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)

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
    checks = sorted(sweeps.SWEEPS)

    def check(word):
        if word not in checks:
            raise argparse.ArgumentTypeError(_invalid_choice(word, checks))
        return word

    p.add_argument("--check", required=True, type=check,
                   metavar=f"{{{','.join(checks)}}}")
    p.add_argument("--max-n", type=int, default=None,
                   help="rank bound (m bound for classify-codim)")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("classify", help="the rank-one horospherical table")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("--max-m", type=int, default=1000)
    p.add_argument("--format", choices=("json", "text"), default="json")

    parser.commands = tuple(sub.choices)
    return parser, sub


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
        "w": w,
        "parabolic": sorted(J),
        "levi": sorted(I),
        "length": weyl.length(w),
        "max_levi": sorted(stab),
        "stable": I <= stab,
        # the closed form, checked against the walk's first head if any
        "minimal_head": report.minimal_head or levi._minimal_head(J, I, n),
        "boundary": sorted(report.maximal_proper_heads) if I <= stab else None,
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


def _tally(rows, bound: str, check: str, echo: bool) -> tuple[int, int]:
    """Count a sweep's ``(n, ok, line)`` rows and its violations, writing
    each row's line when ``echo``.  A sweep that yields no row is a usage
    error: ``bound`` names the flag and value that made it vacuous."""
    instances = 0
    violations = 0
    write = sys.stdout.write
    for _, ok, line in rows:
        instances += 1
        if not ok:
            violations += 1
        if echo:
            write(line)
    if not instances:
        raise ValueError(f"{bound} yields no {check} instances")
    return instances, violations


def _rows(check: str, bound: int, echo: bool):
    """The rows of sweep ``check`` at ``bound``.  A rank sweep yields rows,
    its lines built from parts encoded once per shared loop.
    ``classify-codim`` keeps its dict records, each made a row here by its
    own ``canonical_json`` call when ``echo``: the benchmark's tracer test
    pins one such call per record of this sweep."""
    fn = sweeps.SWEEPS[check][0]
    if check != "classify-codim":
        return fn(bound)
    return ((record["m"], record["ok"], canonical_json(record) + "\n" if echo else "")
            for record in fn(bound))


def _cmd_sweep(args) -> int:
    bound = args.max_n if args.max_n is not None else sweeps.SWEEPS[args.check][1]
    echo = args.format == "json"
    instances, violations = _tally(_rows(args.check, bound, echo), f"--max-n {bound}",
                                   args.check, echo)
    if echo:
        print(canonical_json({"check": args.check, "instances": instances,
                              "violations": violations}))
    else:
        print(f"{args.check}: {instances} instances, {violations} disagreements")
    return 1 if violations else 0


def _cmd_classify(args) -> int:
    instances, violations = _tally(_rows("classify-codim", args.max_m, echo=False),
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
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of ``build_parser()`` and each subcommand's parser by
    name, built once per process."""
    parser, sub = _build()
    return parser, sub.choices


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with each argument scanned once
    when ``argv[0]`` names a subcommand: the top-level parser would hand all
    of ``argv[1:]`` to that subcommand's parser after scanning it itself."""
    parser, commands = _parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
