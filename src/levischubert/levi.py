"""Levi-subgroup actions on Schubert varieties: block partitions, the
stability test, degree-1 heads, and head enumeration by one pruned walk
(``_stable_below``) with its boundary (the maximal proper heads).

A standard Levi subgroup is given by a set ``I`` of simple-root indices;
its complement cuts ``{1..n}`` into consecutive blocks (:func:`blocks`)
and the Levi is the corresponding block-diagonal subgroup.  A Schubert
variety is stable under that Levi iff every generator ``s_i`` with ``i in
I`` maps it into itself, which :func:`max_levi` reads off the positions of
``i, i + 1``; :func:`require_stable` is the one guard for operations
defined only on stable varieties.  A *degree-1 head* below ``tau`` is any
``theta <= tau`` in ``W^J`` whose Schubert variety is itself Levi-stable;
heads detect Levi orbits.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import weyl
from .grassmann import GrassmannSchubert
from .weyl import Perm


def blocks(I: Iterable[int], n: int) -> tuple[tuple[int, ...], ...]:
    """The ordered set partition of ``{1..n}`` attached to a Levi: cut
    after each simple root missing from ``I``, so there are
    ``|complement| + 1`` blocks, the last ending at ``n``.

    >>> blocks({1, 3, 4, 7}, 8)
    ((1, 2), (3, 4, 5), (6,), (7, 8))
    """
    n = weyl.require_rank(n)
    return tuple(tuple(range(lo, hi + 1))
                 for lo, hi in weyl._position_blocks(weyl.require_indices(I, n), n))


@lru_cache(maxsize=None)
def _max_levi(w: Perm, J: frozenset[int]) -> frozenset[int]:
    pos = weyl.inverse(w)
    # J joins the positions of i and i + 1 (vacuous when i is a left descent)
    return frozenset(i for i in range(1, len(w))
                     if J.issuperset(range(pos[i - 1], pos[i])))


def max_levi(w: Perm, J: Iterable[int] = ()) -> frozenset[int]:
    """Simple roots of the largest standard Levi stabilizing the Schubert
    variety of ``w`` in the quotient by ``J``.

    An index ``i`` qualifies iff ``s_i * w`` does not lengthen the coset
    representative, so that the Levi generator preserves the variety: iff
    the value ``i + 1`` stands left of ``i`` (a left descent), or the two
    values sit in one position block of ``J`` (``s_i * w`` is in ``w * W_J``).

    >>> sorted(max_levi((3, 4, 1, 2)))
    [2]
    """
    return _max_levi(*weyl.require_quotient(w, J))


def is_stable(theta: Perm, J: Iterable[int], I: Iterable[int]) -> bool:
    """True iff the Schubert variety of ``theta`` in the quotient by ``J``
    is stable under the Levi with simple roots ``I``.

    The identity is ``I``-stable iff ``I`` is contained in ``J``: its
    variety is the base point, fixed only by the parabolic of ``J``.
    """
    I = weyl.require_indices(I, len(theta))
    return I <= _max_levi(*weyl.require_quotient(theta, J))


def require_stable(w: Perm, J: Iterable[int], I: Iterable[int]
                   ) -> tuple[Perm, frozenset[int], frozenset[int]]:
    """``(w, J, I)`` as the ``weyl`` checks return them, refused unless the
    variety of ``w`` mod ``J`` is stable under the Levi of ``I``."""
    I = weyl.require_indices(I, len(w))
    w, J = weyl.require_quotient(w, J)
    if not I <= _max_levi(w, J):
        raise ValueError(f"{w} is not stable under the Levi of {sorted(I)}")
    return w, J, I


def is_degree1_head(x: GrassmannSchubert, I: Iterable[int]) -> bool:
    """Block criterion for Grassmann permutations: ``x`` indexes a
    Levi-stable variety in Gr(d, n) iff its column values meet every Levi
    block in that block's top segment.

    The columns are sorted, so those in a block ``[lo, hi]`` are a slice
    ``cols[a:b]`` that starts where the previous block's ends and ends at
    ``bisect(cols, hi)``.  Being distinct values of ``[lo, hi]``, they form
    its top segment iff the least is ``hi + 1 - (b - a)``.

    >>> is_degree1_head(GrassmannSchubert(2, (2, 4, 1, 3)), {1})
    True
    >>> is_degree1_head(GrassmannSchubert(2, (1, 4, 2, 3)), {1})
    False
    """
    n, cols = x.n, x.columns  # increasing: GrassmannSchubert keeps w in W^J
    a = 0
    for _, hi in weyl._position_blocks(weyl.require_indices(I, n), n):
        b = bisect.bisect(cols, hi, a)
        if b > a and cols[a] != hi + 1 - (b - a):
            return False
        a = b
    return True


def _stable_below(tau: Perm, J: frozenset[int], I: frozenset[int]
                  ) -> list[tuple[int, Perm]]:
    """``(length(t), t)`` for each ``t <= tau`` in ``W^J`` whose Schubert
    variety is stable under the Levi of ``I``, in lexicographic order of ``t``.

    A walk over ``W^J`` position by position, values increasing inside each
    position block of ``J``, that places a value only when some completion
    can still qualify:

    * Bruhat: ``t <= tau`` iff no prefix of ``t`` has more values ``>= j``
      than the prefix of ``tau`` as long (:func:`weyl.bruhat_leq`'s surplus
      ``diff``).  A value ``a > tau[p]`` uses up one unit of ``diff`` on
      ``(tau[p], a]``, so once ``a`` reaches the least ``z`` there with
      ``diff[z] == 0`` every larger value fails as well.
    * Stability: ``i`` in ``I`` needs ``i + 1`` left of it or in its own
      block (:func:`max_levi`'s closed form), so after ``i`` comes ``i + 1``
      unless it is already placed, and a block may not end in such an ``i``.
    * Room: a block that goes on needs larger unused values to fill it.

    The value placed at a position has as many inversions to its right as
    there are smaller unused values, which gives the length.  The last value
    always qualifies once the others do.  Ranks above :data:`weyl.RANK_LIMIT`
    are refused.
    """
    n = len(tau)
    weyl._check_rank(n)
    # room[p]: the positions after p in its block
    room = [hi - p for lo, hi in weyl._position_blocks(J, n)
            for p in range(lo, hi + 1)]
    out: list[tuple[int, Perm]] = []
    t = [0] * n

    def walk(p: int, rest: Perm, diff: list[int], ell: int) -> None:
        if p >= n - 1:
            t[p:] = rest
            out.append((ell, tuple(t)))
            return
        b = tau[p]
        z = b + 1
        while z <= n and diff[z]:
            z += 1
        start, stop = 0, len(rest) - room[p]
        if p and room[p - 1]:  # p does not start a block
            prev = t[p - 1]
            start = bisect.bisect(rest, prev)
            if prev in I and start < stop and rest[start] == prev + 1:
                stop = start + 1
        closes = not room[p]
        for idx in range(start, stop):
            a = rest[idx]
            if a >= z:
                break
            if closes and a in I and idx + 1 < len(rest) and rest[idx + 1] == a + 1:
                continue
            d = diff[:]
            if a < b:
                for j in range(a + 1, b + 1):
                    d[j] += 1
            else:
                for j in range(b + 1, a + 1):
                    d[j] -= 1
            t[p] = a
            walk(p + 1, rest[:idx] + rest[idx + 1:], d, ell + idx)

    walk(0, tuple(range(1, n + 1)), [0] * (n + 1), 0)
    return out


@dataclass(frozen=True)
class HeadReport:
    """Degree-1 heads below a reference element.

    ``heads`` is sorted by (length, lex), so their unique Bruhat-minimum
    ``minimal_head`` (:func:`minimal_head`; None when there is no head) is
    the first; ``maximal_proper_heads`` are the Bruhat-maximal heads strictly
    below the reference element, in the order of ``heads``: the boundary.
    """

    heads: tuple[Perm, ...]
    maximal_proper_heads: tuple[Perm, ...]

    @property
    def minimal_head(self) -> Optional[Perm]:
        return self.heads[0] if self.heads else None

    def to_json(self) -> dict:
        return {
            "heads": [list(h) for h in self.heads],
            "minimal_head": list(self.minimal_head) if self.minimal_head else None,
            "maximal_proper_heads": [list(h) for h in self.maximal_proper_heads],
        }


def heads_below(tau: Perm, J: Iterable[int], I: Iterable[int]) -> HeadReport:
    """Enumerate every degree-1 head below ``tau``: the ``theta <= tau``
    in ``W^J`` whose varieties are stable under the Levi of ``I``.

    The heads come from a walk over ``W^J`` that prunes every prefix with
    no head below ``tau`` among its completions (:func:`_stable_below`),
    so no element of ``W^J`` is tested one by one; that walk refuses ranks
    above :data:`weyl.RANK_LIMIT`.  The first head must be
    :func:`minimal_head` and lie below every head, or ``RuntimeError`` is
    raised.  The maximal proper heads are found longest first: a head that
    is not maximal lies below a maximal one, which is longer and so already
    kept.  With ``H`` the heads and ``M`` the maximal proper ones this
    makes at most ``|H| * (|M| + 1)`` Bruhat tests.
    """
    tau, J = weyl.require_quotient(tau, J)
    I = weyl.require_indices(I, len(tau))
    mh = _minimal_head(J, I, len(tau))
    found = [t for _, t in sorted(_stable_below(tau, J, I))]
    # mh is I-stable in W^J, so below tau it is the first and least head
    if found and (found[0] != mh or not all(weyl.bruhat_leq(mh, h) for h in found)):
        raise RuntimeError(f"head set below {tau} has no unique minimum")
    maximal: list[Perm] = []
    for h in reversed(found):
        if h != tau and not any(weyl.bruhat_leq(h, g) for g in maximal):
            maximal.append(h)
    return HeadReport(tuple(found), tuple(reversed(maximal)))


def minimal_head(J: Iterable[int], I: Iterable[int], n: int) -> Perm:
    """The unique minimal Levi-stable element: the coset representative of
    the longest element of ``W_I``.  Its variety is the Levi orbit through
    the base point.

    >>> minimal_head((), {2}, 4)
    (1, 3, 2, 4)
    """
    n = weyl.require_rank(n)
    return _minimal_head(weyl.require_indices(J, n), weyl.require_indices(I, n), n)


def _minimal_head(J: frozenset[int], I: frozenset[int], n: int) -> Perm:
    return weyl._min_coset_rep(weyl._longest_element(I, n), J)
