"""Exhaustive verification sweeps over all instances up to a rank bound.

Each sweep yields one record per instance with an ``ok`` flag; a False
flag is a genuine counterexample to the theorem the sweep encodes.  The
CLI streams the records as JSON lines; the acceptance suite asserts that
no record fails.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from . import bp, classify, grassmann, levi, toroidal, weyl


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
    :func:`weyl.require_int`, so a ``bool``, float or string is refused."""
    return range(2, weyl.require_int(max_n, "max_n") + 1)


def _all_grassmann(max_n: int) -> Iterator[grassmann.GrassmannSchubert]:
    """Every Grassmann permutation of rank 2..max_n, by rank, descent
    position and column set."""
    for n in _ranks(max_n):
        for d in range(1, n):
            yield from grassmann.all_grassmann(n, d)


def head_oracle(max_n: int) -> Iterator[dict]:
    """Block criterion vs the closed form of :func:`levi.max_levi`, over
    every Grassmann permutation and every Levi."""
    for n, xs in itertools.groupby(_all_grassmann(max_n), lambda x: x.n):
        levis = [(I, sorted(I)) for I in _powerset(range(1, n))]
        for x in xs:
            stab = levi._max_levi(x.w, x.quotient)
            for I, listed in levis:
                yield {
                    "check": "head-oracle", "n": n, "d": x.d,
                    "w": list(x.w), "levi": listed[:],
                    "ok": levi.is_degree1_head(x, I) == (I <= stab),
                }


def divisor_stability(max_n: int) -> Iterator[dict]:
    """The run-start lemma vs the closed form of :func:`levi.max_levi`,
    over every stable pair: lowering the run start ``a`` keeps the
    divisor ``I``-stable iff ``a - 1`` lies outside ``I``."""
    for x in _all_grassmann(max_n):
        rds = grassmann.run_divisors(x)
        if not rds:
            continue
        J = x.quotient
        starts = grassmann.run_starts(x)
        stab_w = levi._max_levi(x.w, J)
        div_stab = {idx: levi._max_levi(div, J) for idx, div in rds}
        for I in _powerset(stab_w):
            for idx, div in rds:
                claim = (starts[idx - 1] - 1) not in I
                yield {
                    "check": "divisor-stability", "n": x.n, "d": x.d,
                    "w": list(x.w), "levi": sorted(I),
                    "divisor": list(div),
                    "ok": claim == (I <= div_stab[idx]),
                }


def smooth_unique_head(max_n: int) -> Iterator[dict]:
    """Smooth column pattern forces a unique head and an empty boundary
    for the maximal Levi."""
    for x in _all_grassmann(max_n):
        if grassmann.is_smooth(x):
            yield {
                "check": "smooth-unique-head", "n": x.n, "d": x.d,
                "w": list(x.w), "ok": toroidal.unique_head_check(x),
            }


def singular_no_stable_divisor(max_n: int) -> Iterator[dict]:
    """Singular varieties have no divisor stable under the maximal Levi,
    and every proper head sits in codimension >= 2."""
    for x in _all_grassmann(max_n):
        if not grassmann.is_smooth(x):
            yield {
                "check": "singular-no-stable-divisor", "n": x.n, "d": x.d,
                "w": list(x.w), "ok": toroidal.no_stable_divisor_check(x),
            }


def bp_equivalence(max_n: int) -> Iterator[dict]:
    """The three factorization tests agree on every decomposition."""
    for n in _ranks(max_n):
        for J, K in _subset_pairs(n):
            for w in weyl.quotient_reps(n, J):
                d = bp._decompose(w, J, K)
                a = bp.is_bp_maximality(d)
                b = bp.is_bp_support(d)
                c = bp.poincare_factorizes(d)
                yield {
                    "check": "bp-equivalence", "n": n,
                    "parabolic": sorted(J), "quotient": sorted(K),
                    "w": list(w), "bp": c, "ok": a == b == c,
                }


def projection_dichotomy(max_n: int) -> Iterator[dict]:
    """For factoring decompositions of full-flag elements, every divisor
    projects onto the image or onto one of its divisors: none is
    classified ``bp.NEITHER``."""
    for n in _ranks(max_n):
        for w in weyl.quotient_reps(n):
            for K in _powerset(range(1, n)):
                d = bp._decompose(w, frozenset(), K)
                if not bp.is_bp_support(d):
                    continue
                for tau, _, kind in bp.project_divisors(d):
                    yield {
                        "check": "projection-dichotomy", "n": n,
                        "w": list(w), "divisor": list(tau),
                        "quotient": sorted(K), "kind": kind,
                        "ok": kind != bp.NEITHER,
                    }


def smooth_palindromic(max_n: int) -> Iterator[dict]:
    """Smooth column pattern iff the rank generating function is
    palindromic (rational smoothness, which in type A is smoothness)."""
    for x in _all_grassmann(max_n):
        smooth = grassmann.is_smooth(x)
        pal = weyl.is_palindromic(weyl._poincare(x.w, x.quotient))
        yield {
            "check": "smooth-palindromic", "n": x.n, "d": x.d,
            "w": list(x.w), "ok": smooth == pal,
        }


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
