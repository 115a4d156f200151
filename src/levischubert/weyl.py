"""Symmetric-group machinery: one-line permutations, Bruhat order,
parabolic quotients, and rank generating functions.

Conventions
-----------
* A permutation is a tuple ``w = (w(1), ..., w(n))`` in 1-indexed one-line
  notation, so ``w[i - 1]`` is the image of ``i``.
* ``s_i`` (for ``1 <= i <= n - 1``) swaps ``i`` and ``i + 1``.  Left
  multiplication ``s_i * w`` swaps the *values* ``i`` and ``i + 1`` inside
  ``w``; right multiplication ``w * s_i`` swaps the entries in *positions*
  ``i`` and ``i + 1``.
* A parabolic subset ``J`` is any set of indices inside ``{1, ..., n - 1}``.
  ``W_J`` is the subgroup generated by ``{s_j : j in J}``, and ``W^J`` is
  the set of minimal-length left coset representatives of ``W_J``, realized
  as the permutations with no right descent in ``J``.

All functions are pure and operate on plain tuples, so values can be shared
freely and dropped into sets.  Each input rule is one ``require_*`` check
that returns what it checked as plain ints; a public entry checks its input
by them and passes it to a core (``_lower_covers``, ...) that trusts it.
It holds no Levi code: head enumeration lives in :mod:`levischubert.levi`.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterable, Sequence

Perm = tuple[int, ...]
_INT = frozenset({int})
_ROOTS = {n: frozenset(range(1, n)) for n in range(65)}  # require_indices' fast path

#: Brute-force enumerations refuse to run above this rank.
RANK_LIMIT = 8


class RankLimitError(ValueError):
    """An enumeration would exceed :data:`RANK_LIMIT`."""


def _check_rank(n: int) -> None:
    if n > RANK_LIMIT:
        raise RankLimitError(f"rank {n} exceeds the enumeration limit {RANK_LIMIT}")


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def is_permutation(seq: Sequence[int]) -> bool:
    """True iff ``seq`` lists each of ``1..n`` exactly once."""
    return sorted(seq) == list(range(1, len(seq) + 1))


def length(w: Perm) -> int:
    """Number of inversions, which is the Coxeter length.

    >>> length((1, 2, 3, 4))
    0
    >>> length((3, 4, 1, 2))
    4
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def compose(x: Perm, y: Perm) -> Perm:
    """Product ``x * y`` acting as functions: ``(x*y)(j) = x(y(j))``."""
    if len(x) != len(y):
        raise ValueError("rank mismatch")
    return tuple(x[v - 1] for v in y)


def right_descents(w: Perm) -> frozenset[int]:
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def left_descents(w: Perm) -> frozenset[int]:
    return right_descents(inverse(w))


def support(w: Perm) -> frozenset[int]:
    """Indices ``i`` with ``s_i <= w``: the letters of every reduced word.

    Equivalently the indices ``i`` such that some ``w_k > i`` with
    ``k <= i``.

    >>> sorted(support((3, 4, 1, 2)))
    [1, 2, 3]
    """
    out = []
    top = 0
    for i in range(1, len(w)):
        top = max(top, w[i - 1])
        if top > i:
            out.append(i)
    return frozenset(out)


def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced word ``(a_1, ..., a_l)`` of ``w = s_{a_1} * ... * s_{a_l}``:
    the positions a bubble sort of ``w`` swaps, last swap first.

    >>> reduced_word((3, 4, 1, 2))
    (2, 1, 3, 2)
    """
    out, swaps = list(w), []
    for top in range(len(out) - 1, 0, -1):
        for i in range(1, top + 1):
            if out[i - 1] > out[i]:
                out[i - 1], out[i] = out[i], out[i - 1]
                swaps.append(i)
    return tuple(reversed(swaps))


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Bruhat-Chevalley comparison by the rank criterion (Bjorner-Brenti,
    Thm 2.1.5): ``u <= w`` iff for every prefix length ``k`` and value
    ``j``, at least as many of ``w(1..k)`` as of ``u(1..k)`` are ``>= j``.

    One pass keeps ``diff[j]``, that surplus for the current prefix.
    Extending the prefix by ``u_k`` and ``w_k`` changes ``diff`` only for
    ``j`` between the two, and lowers it only when ``u_k > w_k``, so only
    those entries can turn negative.  The cost is O(n^2) at worst and O(n)
    when the two permutations stay close.

    >>> bruhat_leq((2, 4, 1, 3), (3, 4, 1, 2))
    True
    >>> bruhat_leq((3, 4, 1, 2), (2, 4, 1, 3))
    False
    """
    if len(u) != len(w):
        raise ValueError("rank mismatch")
    diff = [0] * (len(u) + 1)
    for k in range(len(u) - 1):
        a, b = u[k], w[k]
        if a < b:
            for j in range(a + 1, b + 1):
                diff[j] += 1
        elif a > b:
            for j in range(b + 1, a + 1):
                if not diff[j]:
                    return False
                diff[j] -= 1
    return True


# ---------------------------------------------------------------------------
# parabolic subsets
# ---------------------------------------------------------------------------

def require_int(value: int, what: str) -> int:
    """``value`` as a plain ``int`` by ``operator.index``; a ``bool`` is refused."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return operator.index(value)


def require_rank(n: int) -> int:
    """``n`` as a plain ``int``, refused unless it is positive."""
    n = require_int(n, "rank n")
    if n < 1:
        raise ValueError(f"rank n={n} must be positive")
    return n


def require_indices(J: Iterable[int], n: int) -> frozenset[int]:
    """``frozenset(J)`` of plain ints, refused unless it lies in ``1..n-1``.

    Any input but a frozenset is read once into a tuple, so that its types
    are checked before freezing would merge a ``True`` into a ``1``."""
    if type(J) is not frozenset:
        J = tuple(J)
    if not _INT.issuperset(map(type, J)):
        J = [require_int(j, "a simple-root index") for j in J]
    J = frozenset(J)
    if J and not J.issubset(_ROOTS.get(n, ())) and (min(J) < 1 or max(J) >= n):
        raise ValueError(f"simple-root indices must lie in 1..{n - 1}")
    return J


def require_descent(d: int, n: int) -> tuple[int, frozenset[int]]:
    """``(d, Delta - {d})`` with ``d`` a plain ``int``, refused unless ``1 <= d < n``."""
    d = require_int(d, "descent position d")
    if not 1 <= d < n:
        raise ValueError(f"descent position d={d} must satisfy 1 <= d < {n}")
    return d, _omitting(d, n)


def _omitting(d: int, n: int) -> frozenset[int]:
    return frozenset(range(1, n)) - {d}


# bounded, yet every (J, n) with n <= RANK_LIMIT (255 of them) fits
@lru_cache(maxsize=1024)
def _position_blocks(J: frozenset[int], n: int) -> tuple[tuple[int, int], ...]:
    """Maximal position intervals ``[lo, hi]``; ``i, i + 1`` share one iff ``i in J``."""
    blocks = []
    lo = 1
    for i in range(1, n):
        if i not in J:
            blocks.append((lo, i))
            lo = i + 1
    blocks.append((lo, n))
    return tuple(blocks)


def require_quotient(w: Perm, J: Iterable[int]) -> tuple[Perm, frozenset[int]]:
    """``(tuple(w), frozenset(J))``, refused unless ``w`` is a permutation
    in ``W^J`` for a set ``J`` in ``1..n-1``; its entries become plain ints."""
    w = tuple(w)
    if not _INT.issuperset(map(type, w)):
        w = tuple(require_int(v, "a permutation entry") for v in w)
    if not is_permutation(w):
        raise ValueError(f"{w} is not a permutation")
    J = require_indices(J, len(w))
    if right_descents(w) & J:
        raise ValueError(
            f"{w} has a right descent in J={sorted(J)}; "
            "not a minimal coset representative")
    return w, J


def min_coset_rep(w: Perm, J: Iterable[int]) -> Perm:
    """Minimal-length element of the coset ``w * W_J``: sort each position
    block of ``J`` increasingly.

    >>> min_coset_rep((3, 2, 1), {1})
    (2, 3, 1)
    >>> min_coset_rep((3, 4, 1, 2), {2})
    (3, 1, 4, 2)
    """
    return _min_coset_rep(w, require_indices(J, len(w)))


def _min_coset_rep(w: Perm, J: frozenset[int]) -> Perm:
    out = list(w)
    for lo, hi in _position_blocks(J, len(w)):
        if hi > lo:
            out[lo - 1:hi] = sorted(out[lo - 1:hi])
    return tuple(out)


def longest_element(J: Iterable[int], n: int) -> Perm:
    """Longest element of ``W_J``: each position block reversed.

    >>> longest_element({1, 2}, 3)
    (3, 2, 1)
    >>> longest_element({1, 3, 4, 5}, 6)
    (2, 1, 6, 5, 4, 3)
    """
    n = require_rank(n)
    return _longest_element(require_indices(J, n), n)


def _longest_element(J: frozenset[int], n: int) -> Perm:
    out = list(range(1, n + 1))
    for lo, hi in _position_blocks(J, n):
        out[lo - 1:hi] = range(hi, lo - 1, -1)
    return tuple(out)


@lru_cache(maxsize=None)
def _quotient_reps(n: int, J: frozenset[int]) -> tuple[Perm, ...]:
    _check_rank(n)
    # segments of positions as (is a J-block, size): a J-block must increase,
    # a run of singleton blocks is unconstrained
    segments: list[tuple[bool, int]] = []
    for lo, hi in _position_blocks(J, n):
        if hi > lo:
            segments.append((True, hi - lo + 1))
        elif segments and not segments[-1][0]:
            segments[-1] = (False, segments[-1][1] + 1)
        else:
            segments.append((False, 1))
    # fixed-length prefixes, each paired with its unused values, in lex order
    level: list[tuple[Perm, Perm]] = [((), tuple(range(1, n + 1)))]
    *head, (last_is_block, _) = segments
    for is_block, size in head:
        pick = itertools.combinations if is_block else itertools.permutations
        level = [(prefix + chosen, tuple(v for v in rest if v not in chosen))
                 for prefix, rest in level for chosen in pick(rest, size)]
    if last_is_block:
        return tuple(prefix + rest for prefix, rest in level)
    return tuple(prefix + tail for prefix, rest in level
                 for tail in itertools.permutations(rest))


def quotient_reps(n: int, J: Iterable[int] = ()) -> tuple[Perm, ...]:
    """All of ``W^J`` in lexicographic order.

    ``W^J`` is listed block by block rather than filtered out of all
    ``n!`` permutations: its elements are exactly the permutations that
    increase on each position block of ``J``, so each block draws an
    increasing selection of the values still unused.  The cost is
    proportional to ``|W^J|``.  Ranks above :data:`RANK_LIMIT` are still
    refused, however small the quotient.

    >>> quotient_reps(3, {1})
    ((1, 2, 3), (1, 3, 2), (2, 3, 1))
    """
    n = require_rank(n)
    return _quotient_reps(n, require_indices(J, n))


# uncalled; kept because bench/worker.py reads its cache counters by name
@lru_cache(maxsize=None)
def _parabolic_elements(n: int, J: frozenset[int]) -> tuple[Perm, ...]:
    _check_rank(n)
    blocks = _position_blocks(J, n)
    out = []
    ranges = [range(lo, hi + 1) for lo, hi in blocks]
    for choice in itertools.product(*[itertools.permutations(r) for r in ranges]):
        elem = [0] * n
        for (lo, _), img in zip(blocks, choice):
            for off, v in enumerate(img):
                elem[lo - 1 + off] = v
        out.append(tuple(elem))
    return tuple(sorted(out))


def lower_covers(w: Perm, J: Iterable[int] = ()) -> frozenset[Perm]:
    """Elements of ``W^J`` one length below ``w`` in Bruhat order.

    These index the Schubert divisors of the variety attached to ``w``.
    Swapping positions ``i < j`` gives a cover iff no position between them
    holds a value between ``w_j < w_i`` (Bjorner-Brenti, Sec. 2.1), so one
    pass per ``i`` keeps ``best``, the largest value below ``w_i`` seen to
    its right, and ``(i, j)`` is a cover iff ``best < w_j < w_i``: O(n^2)
    in all.  Covers outside ``W^J`` are dropped.

    >>> sorted(lower_covers((3, 4, 1, 2)))
    [(1, 4, 3, 2), (2, 4, 1, 3), (3, 1, 4, 2), (3, 2, 1, 4)]
    """
    return _lower_covers(*require_quotient(w, J))


def _lower_covers(w: Perm, J: frozenset[int]) -> frozenset[Perm]:
    covers = set()
    for i, top in enumerate(w):
        best = 0
        for j in range(i + 1, len(w)):
            if best < w[j] < top:
                best = w[j]
                t = list(w)
                t[i], t[j] = best, top
                t = tuple(t)
                if right_descents(t).isdisjoint(J):
                    covers.add(t)
    return frozenset(covers)


# ---------------------------------------------------------------------------
# rank generating functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _poincare(w: Perm, J: frozenset[int]) -> tuple[int, ...]:
    n = len(w)
    _check_rank(n)
    S = support(w)
    if len(S) < n - 1:
        # every x <= w lies in W_S, a product of the symmetric groups of the
        # position blocks of S, and so does its part of W^J; lengths add
        out: tuple[int, ...] = (1,)
        for lo, hi in _position_blocks(S, n):
            if hi > lo:
                block = tuple(v - lo + 1 for v in w[lo - 1:hi])
                out = poly_mul(out, _poincare(block, frozenset(
                    j - lo + 1 for j in J if lo <= j < hi)))
        return out
    coeffs = [0] * (length(w) + 1)
    for x in _quotient_reps(n, J):
        if bruhat_leq(x, w):
            coeffs[length(x)] += 1
    return tuple(coeffs)


def poincare_polynomial(w: Perm, J: Iterable[int] = ()) -> tuple[int, ...]:
    """Rank generating function of the lower Bruhat interval of ``w`` in
    ``W^J``: coefficient ``k`` counts the ``x <= w`` of length ``k``.

    When the support of ``w`` misses an index, the interval lies in the
    parabolic subgroup ``W_S`` of its support ``S``, a product of smaller
    symmetric groups, one per position block of ``S``.  Its part of
    ``W^J`` is the product of the quotients of those blocks, with lengths
    adding, so the polynomial is the product of the blocks' polynomials,
    each with ``J`` restricted to the block.  Only a ``w`` of full support
    is tested against every element of ``W^J``.  Ranks above
    :data:`RANK_LIMIT` are refused either way.

    >>> poincare_polynomial((3, 2, 1))
    (1, 2, 2, 1)
    >>> poincare_polynomial((2, 3, 1), {1})
    (1, 1, 1)
    """
    return _poincare(*require_quotient(w, J))


def poly_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def is_palindromic(p: Sequence[int]) -> bool:
    return tuple(p) == tuple(reversed(p))
