"""Levi-subgroup actions on Schubert varieties: block partitions, the
stability test, degree-1 heads, and head enumeration with its boundary
(the maximal proper heads).

A standard Levi subgroup is given by a set ``I`` of simple-root indices;
its complement cuts ``{1..n}`` into consecutive blocks (the position blocks
of :func:`weyl.position_blocks`, read as sets of values) and the Levi is
the corresponding block-diagonal subgroup.  A Schubert variety is stable
under that Levi iff every generator ``s_i`` with ``i in I`` maps it into
itself, which :func:`max_levi` reads off the positions of ``i, i + 1``;
:func:`require_stable` is the one guard for operations defined only on
stable varieties.  A *degree-1 head* below ``tau`` is any ``theta <= tau``
in ``W^J`` whose Schubert variety is itself Levi-stable; heads detect Levi
orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import weyl
from .grassmann import GrassmannSchubert
from .weyl import Perm


@dataclass(frozen=True)
class LeviBlocks:
    """The ordered set partition of ``{1..n}`` attached to a Levi.

    Each block ends at an element of the complement of ``indices`` (the
    last block ends at ``n``), so there are ``|complement| + 1`` blocks.
    """

    indices: frozenset[int]
    n: int
    blocks: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {"indices": sorted(self.indices),
                "blocks": [list(b) for b in self.blocks]}


def blocks(I: Iterable[int], n: int) -> LeviBlocks:
    """Cut ``{1..n}`` after each simple root missing from ``I``.

    >>> blocks({1, 3, 4, 7}, 8).blocks
    ((1, 2), (3, 4, 5), (6,), (7, 8))
    """
    I = frozenset(I)
    return LeviBlocks(I, n, tuple(tuple(range(lo, hi + 1))
                                  for lo, hi in weyl.position_blocks(I, n)))


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
    J = frozenset(J)
    weyl.require_quotient(w, J)
    return _max_levi(tuple(w), J)


def is_stable(theta: Perm, J: Iterable[int], I: Iterable[int]) -> bool:
    """True iff the Schubert variety of ``theta`` in the quotient by ``J``
    is stable under the Levi with simple roots ``I``.

    The identity is ``I``-stable iff ``I`` is contained in ``J``: its
    variety is the base point, fixed only by the parabolic of ``J``.
    """
    return frozenset(I) <= max_levi(theta, J)


def require_stable(w: Perm, J: Iterable[int], I: Iterable[int]) -> None:
    """Refuse ``w`` unless its variety in the quotient by ``J`` is stable
    under the Levi of ``I``."""
    if not is_stable(w, J, I):
        raise ValueError(f"{w} is not stable under the Levi of {sorted(frozenset(I))}")


def is_degree1_head(x: GrassmannSchubert, I: Iterable[int]) -> bool:
    """Block criterion for Grassmann permutations: ``x`` indexes a
    Levi-stable variety in Gr(d, n) iff its column values meet every Levi
    block in that block's top segment.

    >>> is_degree1_head(GrassmannSchubert(2, (2, 4, 1, 3)), {1})
    True
    >>> is_degree1_head(GrassmannSchubert(2, (1, 4, 2, 3)), {1})
    False
    """
    cols = set(x.columns)
    for lo, hi in weyl.position_blocks(I, x.n):
        hit = cols.intersection(range(lo, hi + 1))
        # k values of [lo, hi] form its top segment iff the least is hi + 1 - k
        if hit and min(hit) != hi + 1 - len(hit):
            return False
    return True


@dataclass(frozen=True)
class HeadReport:
    """Degree-1 heads below a reference element.

    ``heads`` is sorted by (length, lex).  ``minimal_head`` is the unique
    Bruhat-minimum of the head set (None when the set is empty);
    ``maximal_proper_heads`` are the Bruhat-maximal heads strictly below
    the reference element.
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

    The enumeration is exhaustive over the lower interval; ranks above the
    configured cap are refused.
    """
    J, I = frozenset(J), frozenset(I)
    weyl.require_quotient(tau, J)
    found = [t for t in weyl.quotient_reps(len(tau), J)
             if weyl.bruhat_leq(t, tau) and I <= max_levi(t, J)]
    found.sort(key=lambda t: (weyl.length(t), t))
    if not found:
        return HeadReport((), None, ())
    mh = found[0]
    if any(not weyl.bruhat_leq(mh, h) for h in found):
        # the orbit closure through the base point is the unique minimum
        raise RuntimeError(f"head set below {tau} has no unique minimum")
    proper = [h for h in found if h != tau]
    maximal = tuple(h for h in proper
                    if not any(h != g and weyl.bruhat_leq(h, g) for g in proper))
    return HeadReport(tuple(found), mh, maximal)


def contains_levi_orbit(tau: Perm, J: Iterable[int], I: Iterable[int]) -> bool:
    """True iff the variety of ``tau`` contains an orbit of the Levi of
    ``I``, i.e. some degree-1 head lies below ``tau``: exactly when the
    minimal head, which lies below every head, does."""
    J = frozenset(J)
    weyl.require_quotient(tau, J)
    return weyl.bruhat_leq(minimal_head(J, I, len(tau)), tau)


def minimal_head(J: Iterable[int], I: Iterable[int], n: int) -> Perm:
    """The unique minimal Levi-stable element: the coset representative of
    the longest element of ``W_I``.  Its variety is the Levi orbit through
    the base point.

    >>> minimal_head((), {2}, 4)
    (1, 3, 2, 4)
    """
    return weyl.min_coset_rep(weyl.longest_element(I, n), J)
