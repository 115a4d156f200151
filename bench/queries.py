"""Seeded per-instance query stream for the ``query-mix`` workload, and the
independent checks its replies must pass.

Inputs are drawn with stdlib ``random`` and filtered with the brute-force
oracles of ``tests/oracles.py`` (lengths, coset representatives, the
subword form of Bruhat order); nothing here calls the program under test.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402  (tests/oracles.py, independent of the package)

KINDS = ("analyze", "heads", "toroidal", "bp", "transport")
VERDICTS = ("fails", "passes-necessary")

#: Largest quotient W^J a query may scan.  With |J| <= 1 at n = 7 (|W^J| of
#: 2520 or 5040) one boundary scan over thousands of heads takes seconds, so
#: a single draw would swing a whole run's wall time.
MAX_QUOTIENT = 1260

#: Candidates drawn per query kept; see :func:`generate`.
OVERSAMPLE = 4

#: Ranks per kind: the Grassmannian toroidal check also runs at n = 8.
FULL_RANKS = {"toroidal": (5, 6, 7, 8), "default": (5, 6, 7)}
SMOKE_RANKS = {"toroidal": (3, 4), "default": (3, 4)}


def _fmt(indices) -> str:
    return ",".join(map(str, sorted(indices)))


def _fmt_perm(w) -> str:
    return ",".join(map(str, w))


class Oracle:
    """Memoized oracle answers; cosets are keyed by their blocks' value sets."""

    def __init__(self):
        self._groups: dict = {}
        self._reps: dict = {}
        self._intervals: dict = {}
        self._minimal: dict = {}

    def blocks(self, J, n):
        return oracles.position_block_lists(J, n)

    def quotient_size(self, J, n) -> int:
        return math.factorial(n) // math.prod(
            math.factorial(len(b)) for b in self.blocks(J, n))

    def coset_min(self, x, J):
        n = len(x)
        key = (n, J, tuple(frozenset(x[p - 1] for p in b) for b in self.blocks(J, n)))
        rep = self._reps.get(key)
        if rep is None:
            group = self._groups.get((J, n))
            if group is None:
                group = self._groups[(J, n)] = oracles.parabolic_group(J, n)
            rep = self._reps[key] = min(
                (oracles.multiply(x, g) for g in group), key=oracles.inv_count)
        return rep

    def stabilizer(self, w, J) -> frozenset[int]:
        """Indices i whose s_i does not lengthen the coset of w."""
        lw = oracles.inv_count(w)
        return frozenset(
            i for i in range(1, len(w))
            if oracles.inv_count(self.coset_min(oracles.swap_values(w, i), J)) <= lw)

    def minimal_head(self, J, I, n):
        key = (J, I, n)
        if key not in self._minimal:
            self._minimal[key] = self.coset_min(oracles.coset_longest(I, n), J)
        return self._minimal[key]

    def below(self, u, w) -> bool:
        w = tuple(w)
        interval = self._intervals.get(w)
        if interval is None:
            self._intervals.clear()
            interval = self._intervals[w] = oracles.subword_interval(w)
        return tuple(u) in interval


def _subset(rng: random.Random, items) -> frozenset[int]:
    return frozenset(i for i in sorted(items) if rng.random() < 0.5)


def _nonempty_subset(rng: random.Random, items) -> frozenset[int]:
    out = frozenset()
    while items and not out:
        out = _subset(rng, items)
    return out


def generate(seed: int, count: int, smoke: bool = False,
             oracle: Oracle | None = None) -> list[dict]:
    """``count`` queries, equal shares per kind and per rank within a kind,
    shuffled.  ``count`` must be a multiple of 5 * 12 (of 5 * 2 in smoke).

    Each (kind, rank) share is a systematic sample: OVERSAMPLE times as many
    candidates are drawn, sorted by the oracle length of ``w`` and by the
    size of the Levi (which together explain about 90% of the variance of a
    heads query's cost), and every OVERSAMPLE-th is kept from a random
    offset.  Every query is still a draw from the same distribution, but
    the run's total cost varies much less from seed to seed."""
    oracle = oracle or Oracle()
    ranks = SMOKE_RANKS if smoke else FULL_RANKS
    rng = random.Random(seed)
    out = []
    for kind in KINDS:
        kind_ranks = ranks.get(kind, ranks["default"])
        per = count // len(KINDS) // len(kind_ranks)
        for n in kind_ranks:
            pool = [_draw(rng, oracle, kind, n) for _ in range(OVERSAMPLE * per)]
            pool.sort(key=lambda q: (oracles.inv_count(q["w"]), -len(q["I"])))
            out += pool[rng.randrange(OVERSAMPLE)::OVERSAMPLE]
    rng.shuffle(out)
    return out


def _draw(rng: random.Random, oracle: Oracle, kind: str, n: int) -> dict:
    delta = frozenset(range(1, n))
    if kind == "toroidal":
        d = rng.randrange(1, n)
        J = delta - {d}
    else:
        d = None
        J = _subset(rng, delta)
        while oracle.quotient_size(J, n) > MAX_QUOTIENT:
            J = _subset(rng, delta)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    w = oracle.coset_min(tuple(perm), J)
    stab = oracle.stabilizer(w, J)
    I = _nonempty_subset(rng, stab)
    if kind in ("analyze", "heads") and rng.random() < 0.25 and delta - stab:
        I |= {rng.choice(sorted(delta - stab))}
    q = {"kind": kind, "n": n, "w": list(w), "J": sorted(J), "I": sorted(I),
         "stable": I <= stab}
    if kind == "toroidal":
        q["d"] = d
    if kind == "bp":
        q["K"] = sorted(J | _subset(rng, delta - J))
    return q


def to_op(q: dict) -> dict:
    """The worker's operation for one query: CLI argv, or the direct
    ``bp.nontoroidal_transport`` call, which has no subcommand."""
    kind, n = q["kind"], q["n"]
    if kind == "transport":
        return {"kind": kind, "w": q["w"], "J": q["J"], "I": q["I"]}
    argv = [kind, "--n", str(n), "--w", _fmt_perm(q["w"])]
    if kind == "toroidal":
        argv += ["--d", str(q["d"]), "--levi", _fmt(q["I"])]
    elif kind == "bp":
        argv += ["--parabolic", _fmt(q["J"]), "--quotient", _fmt(q["K"])]
    else:
        argv += ["--parabolic", _fmt(q["J"]), "--levi", _fmt(q["I"])]
    return {"kind": kind, "argv": argv}


def check(q: dict, text: str, oracle: Oracle) -> list[str]:
    """Problems found in the reply ``text`` to query ``q``; empty if none."""
    try:
        reply = json.loads(text)
    except ValueError:
        return [f"reply is not one JSON object: {text[:200]!r}"]
    n, w = q["n"], tuple(q["w"])
    J, I = frozenset(q["J"]), frozenset(q["I"])
    problems = []
    kind = q["kind"]
    if kind in ("analyze", "heads"):
        heads = [tuple(h) for h in reply["heads"]]
        mh = oracle.minimal_head(J, I, n)
        if any(not oracle.below(h, w) for h in heads):
            problems.append("a head is not below tau in the oracle Bruhat order")
        if bool(heads) != oracle.below(mh, w):
            problems.append("heads are nonempty but the minimal head is not below tau"
                            if heads else "no heads although the minimal head is below tau")
        got_mh = reply["minimal_head"]
        if (heads or kind == "analyze") and tuple(got_mh or ()) != mh:
            problems.append(f"minimal_head {got_mh} != oracle {list(mh)}")
        if kind == "analyze":
            if reply["stable"] != q["stable"]:
                problems.append("stability disagrees with the oracle stabilizer")
            if (reply["boundary"] is None) == q["stable"]:
                problems.append("boundary present iff unstable")
    elif kind == "toroidal":
        if reply["verdict"] not in VERDICTS:
            problems.append(f"verdict {reply['verdict']!r}")
    elif kind == "bp":
        chars = reply["characterizations"]
        if not chars["maximality"] == chars["support"] == chars["poincare"] == reply["bp"]:
            problems.append(f"characterizations disagree: {chars}")
        v, u = tuple(reply["v"]), tuple(reply["u"])
        if oracles.multiply(v, u) != w or v != oracle.coset_min(w, frozenset(q["K"])):
            problems.append("v * u is not the parabolic decomposition of w")
    else:
        steps = reply["steps"]
        if any(s["verdict"] not in VERDICTS for s in steps):
            problems.append("a transport step has an unknown verdict")
        if any(oracles.multiply(tuple(s["v"]), tuple(s["u"])) != w for s in steps):
            problems.append("a transport step does not factor w")
        certified = any(s["bp"] and s["verdict"] == "fails" for s in steps)
        if reply["certified_nontoroidal"] != certified:
            problems.append("certified_nontoroidal disagrees with its steps")
    return problems
