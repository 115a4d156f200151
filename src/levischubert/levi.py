"""Levi-subgroup actions on Schubert varieties: block partitions, the
stability test, degree-1 heads, and head enumeration by one pruned walk
(``_stable_below``) with its boundary (the maximal proper heads).  The
walk's Bruhat rule is the Gale bound of :func:`weyl._gale_bounds`, read at
each ``J``-block start as the prefix-set DP reads it, and it places the
last ``J``-block without a search.  The boundary of a stable element comes
from one cover scan of the least element of its double coset ``W_I * tau *
W_J`` (``_deal``), and the minimal head is the largest element of the
identity's double coset.

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
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

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
    position block of ``J``, that places a value only by these rules:

    * Bruhat: the Gale bounds of :func:`weyl._gale_bounds`, the one rule
      that :func:`weyl._prefix_dp` reads too, taken at each ``J``-block
      start from ``rest``, the values still unused, sorted.  At the
      ``k``-th position of the block (from 0) the ``k`` values placed in it
      are smaller than any candidate, so index ``idx`` into ``rest`` is
      index ``idx + k`` of those unused at the block start, and it is
      allowed iff ``idx + k <= bounds[k]``.  The bound is exact within a
      block: the ``b_k`` strictly increase, so ``c_k <= b_k`` always
      leaves ``c_{k+1} = c_k + 1`` open.
    * Stability: ``i`` in ``I`` needs ``i + 1`` left of it or in its own
      block (:func:`max_levi`'s closed form), so after ``i`` comes ``i + 1``
      unless it is already placed, and a block may not end in such an ``i``.
    * Room: a block that goes on needs larger unused values to fill it.
      The bound keeps it: with ``m`` values unused at the block start, the
      ``b_k`` strictly increase to at most ``m - 1``, so ``idx + k <=
      b_k`` leaves as many larger values as the block has positions left.

    The last ``J``-block needs no search: it takes the values left, sorted.
    The tableau criterion says nothing at ``e = n``, and ``W^J`` increases
    inside a block.  Any ``i`` in ``I`` placed earlier already has ``i + 1``
    placed, or its block was refused; any other has ``i + 1`` left of it or
    in the last block with it.  The value placed at a position has as many
    inversions to its right as there are smaller unused values, which gives
    the length; the last block adds none.  Ranks above
    :data:`weyl.RANK_LIMIT` are refused.
    """
    n = len(tau)
    weyl._check_rank(n)
    blocks = weyl._position_blocks(J, n)
    # at[p]: the positions before p in its block
    at = [p - lo for lo, hi in blocks for p in range(lo, hi + 1)]
    # outside[p]: the Gale counts at the end of the block that p starts
    outside = {lo - 1: weyl._outside(tau, hi) for lo, hi in blocks[:-1]}
    last = blocks[-1][0] - 1
    out: list[tuple[int, Perm]] = []
    t = [0] * n

    def walk(p: int, rest: Perm, ell: int, bounds: list[int]) -> None:
        k = at[p]
        if not k:  # p starts a block
            if p == last:
                t[p:] = rest
                out.append((ell, tuple(t)))
                return
            bounds = weyl._gale_bounds(rest, outside[p])
        start, stop = 0, bounds[k] - k + 1
        if k:
            prev = t[p - 1]
            start = bisect.bisect(rest, prev)
            if prev in I and start < stop and rest[start] == prev + 1:
                stop = start + 1
        closes = k + 1 == len(bounds)
        for idx in range(start, stop):
            a = rest[idx]
            if closes and a in I and idx + 1 < len(rest) and rest[idx + 1] == a + 1:
                continue
            t[p] = a
            walk(p + 1, rest[:idx] + rest[idx + 1:], ell + idx, bounds)

    walk(0, tuple(range(1, n + 1)), 0, [])
    return out


class HeadReport(NamedTuple):
    """Degree-1 heads below a reference element.

    ``heads`` is sorted by (length, lex), so their unique Bruhat-minimum
    ``minimal_head`` (:func:`minimal_head`; None when there is no head) is
    the first; ``maximal_proper_heads`` are the Bruhat-maximal heads strictly
    below the reference element, in the order of ``heads``: the boundary.
    For a stable reference element it comes from the lower covers of the
    least element of its double coset (:func:`heads_below`), and each of
    its heads is checked to be one the walk listed.
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


def _deal(x: Perm, J: frozenset[int], I: frozenset[int], top: bool) -> Perm:
    """An end of ``W_I * x * W_J`` in ``W^J``: the least (``top`` false) or
    the largest.  Each block of values of ``I`` is dealt to the positions
    that hold it in ``x``, left to right, smallest value first for the
    least and largest first for the largest; then each position block of
    ``J`` is sorted.

    Dealing is a left factor in ``W_I`` and sorting a right one in ``W_J``,
    so the result stays in the double coset and lies in ``W^J``.  Sorting
    keeps the values of each ``J``-block, so the order that dealing gave
    the values of an ``I``-block survives between ``J``-blocks.  For the
    least, ``i`` in ``I`` then stands left of ``i + 1``: no left descent in
    ``I`` and no right descent in ``J`` make it the least element of the
    double coset.  For the largest, ``i + 1`` stands left of ``i`` or in its
    ``J``-block, which is :func:`max_levi`'s test: the result is
    ``I``-stable, the coset representative of the double coset's longest
    element, and so the largest of the double coset in ``W^J``.
    """
    n = len(x)
    nxt = [0] * (n + 1)  # nxt[lo]: the next value the I-block from lo deals
    key = [0] * (n + 1)  # key[v]: the first value of v's I-block
    for lo, hi in weyl._position_blocks(I, n):
        nxt[lo] = hi if top else lo
        key[lo:hi + 1] = [lo] * (hi + 1 - lo)
    step = -1 if top else 1
    out = []
    for v in x:
        lo = key[v]
        out.append(nxt[lo])
        nxt[lo] += step
    return weyl._min_coset_rep(tuple(out), J)


def _maximal(proper: list[Perm]) -> tuple[Perm, ...]:
    """The Bruhat-maximal elements of ``proper``, which is sorted by
    (length, lex), kept in that order.  They are found longest first: one
    that is not maximal lies below a maximal one, which is longer and so
    already kept.  That is at most ``|proper| * (|maximal| + 1)`` tests."""
    maximal: list[Perm] = []
    for h in reversed(proper):
        if not any(weyl.bruhat_leq(h, g) for g in maximal):
            maximal.append(h)
    return tuple(reversed(maximal))


def heads_below(tau: Perm, J: Iterable[int], I: Iterable[int]) -> HeadReport:
    """Enumerate every degree-1 head below ``tau``: the ``theta <= tau``
    in ``W^J`` whose varieties are stable under the Levi of ``I``.

    The heads come from a walk over ``W^J`` that prunes every prefix with
    no head below ``tau`` among its completions (:func:`_stable_below`),
    so no element of ``W^J`` is tested one by one; that walk refuses ranks
    above :data:`weyl.RANK_LIMIT`.  There must be heads exactly when
    :func:`minimal_head` lies below ``tau``, and then the first head must
    be it, or ``RuntimeError`` is raised.

    The heads are the largest elements in ``W^J`` of the double cosets
    ``W_I * x * W_J`` (:func:`_deal`), and Bruhat order between double
    cosets reads the same on their least elements as on their largest
    (Bjorner-Brenti, *Combinatorics of Coxeter Groups*, Sec. 2.5).  Write
    ``floor(x)`` and ``ceil(x)`` for those two ends.  The minimal head is
    ``ceil(e)`` for the identity ``e``, and ``e <= floor(h)`` for every
    head ``h``, so it lies below every head.  That is not re-checked per
    head: ``TestMinimalHead`` in the test suite checks it on every stable
    element of ``W^J`` at ``n <= 6`` and on sampled double cosets at
    ``n = 7, 8``.  When ``tau`` is ``I``-stable, its boundary is the
    Bruhat-maximal ``ceil(c)`` over the lower covers ``c`` of
    ``floor(tau)`` in ``W^J``.  A proper head
    ``h < tau`` lies in a lower double coset, so ``floor(h) < floor(tau)``.
    ``W^J`` is graded, so ``floor(h) <= c`` for some such cover ``c``.
    Hence ``h <= ceil(c) <= tau``, and ``ceil(c) != tau`` because ``c`` is
    shorter than the least element of ``tau``'s double coset.  Each
    ``ceil(c)`` must be a proper head the walk listed, or ``RuntimeError``
    is raised.  That is one cover scan, whatever the number of heads.  An
    unstable ``tau`` has no such double coset: its boundary is the
    maximal heads, found among all of them (:func:`_maximal`).
    """
    tau, J = weyl.require_quotient(tau, J)
    I = weyl.require_indices(I, len(tau))
    mh = _minimal_head(J, I, len(tau))
    found = [t for _, t in sorted(_stable_below(tau, J, I))]
    # mh is I-stable in W^J: there are heads iff it lies below tau, and
    # then it is the first of them
    if bool(found) != weyl.bruhat_leq(mh, tau) or (found and found[0] != mh):
        raise RuntimeError(f"head set below {tau} has no unique minimum")
    # tau is I-stable iff it is a head, and then the walk lists it last
    if not found or found[-1] != tau:
        return HeadReport(tuple(found), _maximal(found))
    rank = dict(zip(found[:-1], range(len(found) - 1)))
    tops = {_deal(c, J, I, True)
            for c in weyl._lower_covers(_deal(tau, J, I, False), J)}
    if not tops <= rank.keys():
        raise RuntimeError(f"boundary of {tau} has {sorted(tops - rank.keys())}, "
                           "which the walk did not list as proper heads")
    return HeadReport(tuple(found), _maximal(sorted(tops, key=rank.__getitem__)))


def minimal_head(J: Iterable[int], I: Iterable[int], n: int) -> Perm:
    """The unique minimal Levi-stable element: the coset representative of
    the longest element of ``W_I``, which is the largest element of the
    identity's double coset in ``W^J`` (:func:`_deal`).  Its variety is the
    Levi orbit through the base point.  For ``J`` empty it is the longest
    element of ``W_I``.

    >>> minimal_head((), {2}, 4)
    (1, 3, 2, 4)
    >>> minimal_head((), {1, 3, 4, 5}, 6)
    (2, 1, 6, 5, 4, 3)
    """
    n = weyl.require_rank(n)
    return _minimal_head(weyl.require_indices(J, n), weyl.require_indices(I, n), n)


def _minimal_head(J: frozenset[int], I: frozenset[int], n: int) -> Perm:
    return _deal(weyl.identity(n), J, I, True)
