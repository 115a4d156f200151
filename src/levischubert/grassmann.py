"""Grassmann (single-descent) permutations: run decomposition, Schubert
divisors by run, and the column pattern characterizing smoothness."""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import weyl
from .weyl import Perm


class _GrassmannFields(NamedTuple):
    d: int
    w: Perm


class GrassmannSchubert(_GrassmannFields):
    """Index of a Schubert variety in Gr(d, n).

    ``w`` is the minimal coset representative: increasing on the first
    ``d`` positions (the column set) and increasing on the rest.  The
    column set determines ``w``; the suffix is the increasing arrangement
    of the complement.
    """

    __slots__ = ()

    def __new__(cls, d: int, w: Perm):
        d, J = weyl.require_descent(d, weyl.require_rank(len(w)))
        return super().__new__(cls, d, weyl.require_quotient(w, J)[0])

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def columns(self) -> tuple[int, ...]:
        return self.w[:self.d]

    @property
    def quotient(self) -> frozenset[int]:
        """The parabolic subset omitting only the descent position."""
        return weyl._omitting(self.d, self.n)

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "w": list(self.w)}


def run_starts(x: GrassmannSchubert) -> tuple[int, ...]:
    """First values of the maximal consecutive runs of the column set.
    Consecutive runs are separated by a gap of at least two.

    >>> run_starts(GrassmannSchubert(2, (2, 6, 1, 3, 4, 5)))
    (2, 6)
    """
    cols = x.columns
    return tuple(c for i, c in enumerate(cols) if i == 0 or cols[i - 1] != c - 1)


def run_divisors(x: GrassmannSchubert) -> tuple[tuple[int, Perm], ...]:
    """Schubert divisors paired with the 1-based index of the run that
    produced them.  The divisor for the run starting at ``a`` lowers ``a``
    to ``a - 1``: it is ``s_{a-1} * w``, with the values ``a - 1`` and
    ``a`` swapped.  A run starting at 1 produces nothing.

    >>> run_divisors(GrassmannSchubert(2, (2, 6, 1, 3, 4, 5)))
    ((1, (1, 6, 2, 3, 4, 5)), (2, (2, 5, 1, 3, 4, 6)))
    """
    out = []
    for idx, a in enumerate(run_starts(x), start=1):
        if a > 1:
            swap = {a - 1: a, a: a - 1}
            out.append((idx, tuple(swap.get(v, v) for v in x.w)))
    return tuple(out)


def is_smooth(x: GrassmannSchubert) -> bool:
    """The column pattern ``{1..p} | {m, ..., m + (d-p) - 1}`` that
    characterizes the smooth varieties: the columns form one run, or two
    runs the first of which starts at 1."""
    starts = run_starts(x)
    return len(starts) == 1 or (len(starts) == 2 and starts[0] == 1)


def all_grassmann(n: int, d: int) -> Iterator[GrassmannSchubert]:
    """Every element of ``S_n^d``, in column lexicographic order.

    ``n`` and ``d`` are checked once; each value is then built unchecked,
    by ``tuple.__new__``, from a ``w`` of ``weyl._quotient_reps``, whose
    every ``w`` is in ``W^J``, and equals ``GrassmannSchubert(d, w)``.
    """
    n = weyl._check_rank(weyl.require_rank(n))  # before Delta - {d} is built
    d, J = weyl.require_descent(d, n)
    # S_n^d is W^J for J every index but d; its lex order is column order
    for w in weyl._quotient_reps(n, J):
        yield tuple.__new__(GrassmannSchubert, (d, w))
