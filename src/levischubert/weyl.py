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

All functions are pure and operate on plain tuples, so values can be
shared freely and dropped into sets.
"""

from __future__ import annotations

import itertools
from bisect import insort
from functools import lru_cache
from typing import Iterable, Sequence

Perm = tuple[int, ...]

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
    """Bruhat-Chevalley comparison via the sorted-prefix criterion:
    ``u <= w`` iff every sorted prefix of ``u`` is entrywise at most the
    sorted prefix of ``w`` of the same size.

    >>> bruhat_leq((2, 4, 1, 3), (3, 4, 1, 2))
    True
    >>> bruhat_leq((3, 4, 1, 2), (2, 4, 1, 3))
    False
    """
    if len(u) != len(w):
        raise ValueError("rank mismatch")
    su: list[int] = []
    sw: list[int] = []
    for k in range(len(u) - 1):
        insort(su, u[k])
        insort(sw, w[k])
        if any(a > b for a, b in zip(su, sw)):
            return False
    return True


# ---------------------------------------------------------------------------
# parabolic subsets
# ---------------------------------------------------------------------------

def position_blocks(J: Iterable[int], n: int) -> tuple[tuple[int, int], ...]:
    """Maximal position intervals ``[lo, hi]`` tied together by ``J``.

    Positions ``i`` and ``i + 1`` land in the same interval iff ``i in J``.

    >>> position_blocks({1, 3, 4}, 6)
    ((1, 2), (3, 5), (6, 6))
    """
    J = frozenset(J)
    if J and not J <= set(range(1, n)):
        raise ValueError(f"parabolic indices must lie in 1..{n - 1}")
    blocks = []
    lo = 1
    for i in range(1, n):
        if i not in J:
            blocks.append((lo, i))
            lo = i + 1
    blocks.append((lo, n))
    return tuple(blocks)


def in_quotient(w: Perm, J: Iterable[int]) -> bool:
    """True iff ``w`` is a minimal coset representative (no right descent in J)."""
    return not (right_descents(w) & frozenset(J))


def require_quotient(w: Perm, J: Iterable[int]) -> None:
    if not is_permutation(w):
        raise ValueError(f"{w} is not a permutation")
    if not in_quotient(w, J):
        raise ValueError(
            f"{w} has a right descent in J={sorted(frozenset(J))}; "
            "not a minimal coset representative")


def min_coset_rep(w: Perm, J: Iterable[int]) -> Perm:
    """Minimal-length element of the coset ``w * W_J``: sort each position
    block of ``J`` increasingly.

    >>> min_coset_rep((3, 2, 1), {1})
    (2, 3, 1)
    >>> min_coset_rep((3, 4, 1, 2), {2})
    (3, 1, 4, 2)
    """
    out = list(w)
    for lo, hi in position_blocks(J, len(w)):
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
    out = list(range(1, n + 1))
    for lo, hi in position_blocks(J, n):
        out[lo - 1:hi] = range(hi, lo - 1, -1)
    return tuple(out)


@lru_cache(maxsize=None)
def _quotient_reps(n: int, J: frozenset[int]) -> tuple[Perm, ...]:
    _check_rank(n)
    # segments of positions as (is a J-block, size): a J-block must increase,
    # a run of singleton blocks is unconstrained
    segments: list[tuple[bool, int]] = []
    for lo, hi in position_blocks(J, n):
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
    return _quotient_reps(n, frozenset(J))


# uncalled; kept because bench/worker.py reads its cache counters by name
@lru_cache(maxsize=None)
def _parabolic_elements(n: int, J: frozenset[int]) -> tuple[Perm, ...]:
    _check_rank(n)
    blocks = position_blocks(J, n)
    out = []
    ranges = [range(lo, hi + 1) for lo, hi in blocks]
    for choice in itertools.product(*[itertools.permutations(r) for r in ranges]):
        elem = [0] * n
        for (lo, _), img in zip(blocks, choice):
            for off, v in enumerate(img):
                elem[lo - 1 + off] = v
        out.append(tuple(elem))
    return tuple(sorted(out))


def in_parabolic(w: Perm, J: Iterable[int]) -> bool:
    """True iff ``w`` lies in ``W_J``."""
    return min_coset_rep(w, J) == identity(len(w))


def lower_covers(w: Perm, J: Iterable[int] = ()) -> frozenset[Perm]:
    """Elements of ``W^J`` one length below ``w`` in Bruhat order.

    These index the Schubert divisors of the variety attached to ``w``.
    A candidate is ``w`` with positions ``i < j`` swapped where
    ``w_i > w_j`` and no intermediate position carries a value between
    them; the candidate survives iff it stays in ``W^J``.

    >>> sorted(lower_covers((3, 4, 1, 2)))
    [(1, 4, 3, 2), (2, 4, 1, 3), (3, 1, 4, 2), (3, 2, 1, 4)]
    """
    J = frozenset(J)
    require_quotient(w, J)
    n = len(w)
    covers = set()
    for i in range(n - 1):
        for j in range(i + 1, n):
            if w[i] <= w[j]:
                continue
            if any(w[j] < w[k] < w[i] for k in range(i + 1, j)):
                continue
            t = list(w)
            t[i], t[j] = t[j], t[i]
            tt = tuple(t)
            if not (right_descents(tt) & J):
                covers.add(tt)
    return frozenset(covers)


# ---------------------------------------------------------------------------
# rank generating functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _poincare(w: Perm, J: frozenset[int]) -> tuple[int, ...]:
    coeffs = [0] * (length(w) + 1)
    for x in _quotient_reps(len(w), J):
        if bruhat_leq(x, w):
            coeffs[length(x)] += 1
    return tuple(coeffs)


def poincare_polynomial(w: Perm, J: Iterable[int] = ()) -> tuple[int, ...]:
    """Rank generating function of the lower Bruhat interval of ``w`` in
    ``W^J``: coefficient ``k`` counts the ``x <= w`` of length ``k``.

    >>> poincare_polynomial((3, 2, 1))
    (1, 2, 2, 1)
    >>> poincare_polynomial((2, 3, 1), {1})
    (1, 1, 1)
    """
    J = frozenset(J)
    require_quotient(w, J)
    return _poincare(tuple(w), J)


def poly_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def is_palindromic(p: Sequence[int]) -> bool:
    return tuple(p) == tuple(reversed(p))


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def parse_perm(text: str) -> Perm:
    """Parse comma-separated one-line notation such as ``"3,4,1,2"``."""
    try:
        w = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{text!r} is not comma-separated one-line notation")
    if not is_permutation(w):
        raise ValueError(f"{text!r} is not a permutation of 1..{len(w)}")
    return w


def parse_parabolic(text: str, n: int) -> frozenset[int]:
    """Parse comma-separated simple-root indices such as ``"1,3,4"``."""
    if not text:
        return frozenset()
    try:
        J = frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{text!r} is not a comma-separated index set")
    if not J <= set(range(1, n)):
        raise ValueError(f"indices in {text!r} fall outside 1..{n - 1}")
    return J
