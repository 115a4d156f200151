"""Exhaustive verification sweeps over all instances up to a rank bound.

Each rank sweep yields one ``(n, ok, line)`` row per instance: its rank,
an ``ok`` flag, and its canonical JSON line, newline included.  A False
flag is a genuine counterexample to the theorem the sweep encodes.  The
CLI writes the lines and counts the flags; the acceptance suite asserts
that no row fails.  A value that a sweep's lines share is encoded once per
loop that shares it and filled into a :func:`jsonl.line_format`:

- ``head-oracle`` encodes each Levi once per rank, and each ``x``'s ``d``,
  ``n`` and ``w`` into its line formats once per ``x``;
- ``divisor-stability`` makes its two formats and encodes each Levi once
  per rank, and each ``x``'s ``d``, ``w`` and divisors once per ``x``;
- ``bp-equivalence`` makes one format per ``(n, J, K)`` and encodes each
  ``w`` once per rank;
- ``projection-dichotomy`` makes one format per ``(n, K)``, and lists and
  encodes the divisors of each ``w`` once, for every ``K``.

The other three rank sweeps encode each line whole.  ``classify-codim``
yields dict records; ``cli._rows`` says why.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from . import bp, classify, grassmann, jsonl, levi, toroidal, weyl


def _powerset(items: Iterable[int]) -> Iterator[frozenset[int]]:
    items = sorted(items)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def _subset_pairs(n: int) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """All pairs J <= K of parabolic subsets of {1..n-1}."""
    delta = range(1, n)
    for J in _powerset(delta):
        for extra in _powerset(set(delta) - J):
            yield J, J | extra


def _ranks(max_n: int) -> range:
    """The ranks ``2..max_n`` a rank sweep covers; ``max_n`` is read by
    :func:`weyl.require_int` and refused above the rank cap before any row."""
    return range(2, weyl._check_rank(weyl.require_int(max_n, "max_n")) + 1)


def _all_grassmann(max_n: int) -> Iterator[grassmann.GrassmannSchubert]:
    """Every Grassmann permutation of rank 2..max_n, by rank, descent
    position and column set."""
    for n in _ranks(max_n):
        for d in range(1, n):
            yield from grassmann.all_grassmann(n, d)


#: what a rank sweep yields per instance: its rank, whether it agrees with
#: the theorem, and its canonical JSON line, newline included
Row = tuple[int, bool, str]

#: the JSON text of False and True, indexed by the verdict
_VERDICT = ("false", "true")

#: the JSON text of each kind of projected divisor
_KIND = {kind: jsonl.dumps(kind) for kind in (bp.ONTO, bp.DIVISOR, bp.NEITHER)}


def head_oracle(max_n: int) -> Iterator[Row]:
    """Block criterion vs the closed form of :func:`levi.max_levi`, over
    every Grassmann permutation and every Levi."""
    for n, xs in itertools.groupby(_all_grassmann(max_n), lambda x: x.n):
        levis = [(I, jsonl.dumps(sorted(I))) for I in _powerset(range(1, n))]
        for x in xs:
            stab = levi._max_levi(x.w, x.quotient)
            # x's line for each verdict, with the Levi's text to fill in
            line = [jsonl.line_format("levi", check="head-oracle", n=n, d=x.d,
                                      w=x.w, ok=ok) for ok in (False, True)]
            for I, listed in levis:
                ok = levi.is_degree1_head(x, I) == (I <= stab)
                yield n, ok, line[ok] % listed


def divisor_stability(max_n: int) -> Iterator[Row]:
    """The run-start lemma vs the closed form of :func:`levi.max_levi`,
    over every stable pair: lowering the run start ``a`` keeps the
    divisor ``I``-stable iff ``a - 1`` lies outside ``I``."""
    for n, xs in itertools.groupby(_all_grassmann(max_n), lambda x: x.n):
        levis = {I: jsonl.dumps(sorted(I)) for I in _powerset(range(1, n))}
        # the line for each verdict, with d, divisor, levi and w to fill in
        line = [jsonl.line_format("d", "divisor", "levi", "w", check="divisor-stability",
                                  n=n, ok=ok) for ok in (False, True)]
        for x in xs:
            rds = grassmann.run_divisors(x)
            if not rds:
                continue
            J = x.quotient
            starts = grassmann.run_starts(x)
            d, w = jsonl.dumps(x.d), jsonl.dumps(x.w)
            # per divisor: a - 1, its stabilizer, and its text
            divs = [(starts[idx - 1] - 1, levi._max_levi(div, J), jsonl.dumps(div))
                    for idx, div in rds]
            for I in _powerset(levi._max_levi(x.w, J)):
                listed = levis[I]
                for below, div_stab, div in divs:
                    ok = (below not in I) == (I <= div_stab)
                    yield n, ok, line[ok] % (d, div, listed, w)


def smooth_unique_head(max_n: int) -> Iterator[Row]:
    """Smooth column pattern forces a unique head and an empty boundary
    for the maximal Levi."""
    for x in _all_grassmann(max_n):
        if grassmann.is_smooth(x):
            ok = toroidal.unique_head_check(x)
            yield x.n, ok, jsonl.line({"check": "smooth-unique-head", "n": x.n,
                                       "d": x.d, "w": x.w, "ok": ok})


def singular_no_stable_divisor(max_n: int) -> Iterator[Row]:
    """Singular varieties have no divisor stable under the maximal Levi,
    and every proper head sits in codimension >= 2."""
    for x in _all_grassmann(max_n):
        if not grassmann.is_smooth(x):
            ok = toroidal.no_stable_divisor_check(x)
            yield x.n, ok, jsonl.line({"check": "singular-no-stable-divisor", "n": x.n,
                                       "d": x.d, "w": x.w, "ok": ok})


def bp_equivalence(max_n: int) -> Iterator[Row]:
    """The three factorization tests agree on every decomposition."""
    for n in _ranks(max_n):
        words = {w: jsonl.dumps(w) for w in weyl._quotient_reps(n, frozenset())}
        for J, K in _subset_pairs(n):
            # the line, with bp, ok and w to fill in
            line = jsonl.line_format("bp", "ok", "w", check="bp-equivalence", n=n,
                                     parabolic=sorted(J), quotient=sorted(K))
            for w in weyl.quotient_reps(n, J):
                d = bp._decompose(w, J, K)
                a = bp.is_bp_maximality(d)
                b = bp.is_bp_support(d)
                c = bp.poincare_factorizes(d)
                ok = a == b == c
                yield n, ok, line % (_VERDICT[c], _VERDICT[ok], words[w])


def projection_dichotomy(max_n: int) -> Iterator[Row]:
    """For factoring decompositions of full-flag elements, every divisor
    projects onto the image or onto one of its divisors: none is
    classified ``bp.NEITHER``."""
    for n in _ranks(max_n):
        # per K, the line, with divisor, kind, ok and w to fill in
        lines = [(K, jsonl.line_format("divisor", "kind", "ok", "w",
                                       check="projection-dichotomy", n=n,
                                       quotient=sorted(K)))
                 for K in _powerset(range(1, n))]
        for w in weyl.quotient_reps(n):
            # the divisors of w, which no K changes, and their texts
            covers = weyl._lower_covers(w, frozenset())
            divisors = [jsonl.dumps(tau) for tau in covers]
            word = jsonl.dumps(w)
            for K, line in lines:
                d = bp._decompose(w, frozenset(), K)
                if not bp.is_bp_support(d):
                    continue
                for divisor, (_, _, kind) in zip(divisors, bp._project_divisors(d, covers)):
                    ok = kind != bp.NEITHER
                    yield n, ok, line % (divisor, _KIND[kind], _VERDICT[ok], word)


def smooth_palindromic(max_n: int) -> Iterator[Row]:
    """Smooth column pattern iff the rank generating function is
    palindromic (rational smoothness, which in type A is smoothness)."""
    for x in _all_grassmann(max_n):
        smooth = grassmann.is_smooth(x)
        pal = weyl.is_palindromic(weyl._poincare(x.w, x.quotient))
        ok = smooth == pal
        yield x.n, ok, jsonl.line({"check": "smooth-palindromic", "n": x.n,
                                   "d": x.d, "w": x.w, "ok": ok})


def classify_codim(max_m: int) -> Iterator[dict]:
    """Both closed orbits have codimension >= 2 in every family member."""
    for case in classify.iter_cases(max_m):
        yield {
            "check": "classify-codim", "tag": case.tag,
            "m": case.m, "i": case.i,
            "ok": classify.codim_at_least_two(case),
        }


#: name -> (sweep function, default bound, bound is a rank)
SWEEPS = {
    "head-oracle": (head_oracle, 6, True),
    "divisor-stability": (divisor_stability, 6, True),
    "smooth-unique-head": (smooth_unique_head, 6, True),
    "singular-no-stable-divisor": (singular_no_stable_divisor, 6, True),
    "bp-equivalence": (bp_equivalence, 4, True),
    "projection-dichotomy": (projection_dichotomy, 4, True),
    "smooth-palindromic": (smooth_palindromic, 6, True),
    "classify-codim": (classify_codim, 1000, False),
}
