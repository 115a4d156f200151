"""Levi-subgroup actions on Schubert varieties: block partitions, the
stability test, degree-1 heads, and head enumeration with its boundary
(the maximal proper heads).

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


@dataclass(frozen=True)
class HeadReport:
    """Degree-1 heads below a reference element.

    ``heads`` is sorted by (length, lex).  ``minimal_head`` is their unique
    Bruhat-minimum, :func:`minimal_head` (None when there is no head);
    ``maximal_proper_heads`` are the Bruhat-maximal heads strictly below
    the reference element, in the order of ``heads``: the boundary.
    """

    heads: tuple[Perm, ...]
    minimal_head: Optional[Perm]
    maximal_proper_heads: tuple[Perm, ...]

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
    no head below ``tau`` among its completions (``weyl._stable_below``),
    so no element of ``W^J`` is tested one by one; that walk refuses ranks
    above :data:`weyl.RANK_LIMIT`.  The minimal head is
    :func:`minimal_head`, checked to lie below every head.  The maximal
    proper heads are found longest first: a head that is not maximal lies
    below a maximal one, which is longer and so already kept.  With ``H``
    the heads and ``M`` the maximal proper ones this makes at most
    ``|H| * (|M| + 1)`` Bruhat tests.
    """
    tau, J = weyl.require_quotient(tau, J)
    I = weyl.require_indices(I, len(tau))
    mh = _minimal_head(J, I, len(tau))
    found = [t for _, t in sorted(weyl._stable_below(tau, J, I))]
    if not found:
        return HeadReport((), None, ())
    if any(not weyl.bruhat_leq(mh, h) for h in found):
        # mh is I-stable in W^J, so below every head it is the least head
        raise RuntimeError(f"head set below {tau} has no unique minimum")
    maximal: list[Perm] = []
    for h in reversed(found):
        if h != tau and not any(weyl.bruhat_leq(h, g) for g in maximal):
            maximal.append(h)
    return HeadReport(tuple(found), mh, tuple(reversed(maximal)))


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
