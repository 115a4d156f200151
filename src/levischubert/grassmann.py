"""Grassmann (single-descent) permutations: run decomposition, dimension,
Schubert divisors, and the column pattern characterizing smoothness."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import weyl
from .weyl import Perm


@dataclass(frozen=True)
class GrassmannSchubert:
    """Index of a Schubert variety in Gr(d, n).

    ``w`` is the minimal coset representative: increasing on the first
    ``d`` positions (the column set) and increasing on the rest.  The
    column set determines ``w``; the suffix is the increasing arrangement
    of the complement.
    """

    d: int
    w: Perm

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))
        n = len(self.w)
        if not 1 <= self.d < n:
            raise ValueError(f"descent position d={self.d} must satisfy 1 <= d < {n}")
        if not weyl.is_permutation(self.w):
            raise ValueError(f"{self.w} is not a permutation")
        if not weyl.in_quotient(self.w, self.quotient):
            raise ValueError(f"{self.w} is not Grassmann at d={self.d}")

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def columns(self) -> tuple[int, ...]:
        return self.w[:self.d]

    @property
    def quotient(self) -> frozenset[int]:
        """The parabolic subset omitting only the descent position."""
        return frozenset(i for i in range(1, self.n) if i != self.d)

    @property
    def is_identity(self) -> bool:
        return self.columns == tuple(range(1, self.d + 1))

    @classmethod
    def from_columns(cls, n: int, d: int, columns: Iterable[int]) -> "GrassmannSchubert":
        cols = sorted(columns)
        if len(cols) != d or len(set(cols)) != d:
            raise ValueError(f"need {d} distinct column values, got {cols}")
        if cols and not (1 <= cols[0] and cols[-1] <= n):
            raise ValueError(f"column values {cols} fall outside 1..{n}")
        rest = sorted(set(range(1, n + 1)) - set(cols))
        return cls(d, tuple(cols + rest))

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "w": list(self.w)}


def runs(x: GrassmannSchubert) -> tuple[tuple[int, int], ...]:
    """Maximal consecutive intervals of the column set, as ``(a, b)`` pairs
    covering ``a, a+1, ..., a+b``.  Consecutive runs are separated by a gap
    of at least two.

    >>> runs(GrassmannSchubert(2, (2, 6, 1, 3, 4, 5)))
    ((2, 0), (6, 0))
    """
    out: list[list[int]] = []
    for c in x.columns:
        if out and c == out[-1][0] + out[-1][1] + 1:
            out[-1][1] += 1
        else:
            out.append([c, 0])
    return tuple((a, b) for a, b in out)


def dimension(x: GrassmannSchubert) -> int:
    """Dimension of the Schubert variety: ``sum(w_i - i)`` over the window."""
    return sum(v - i for i, v in enumerate(x.columns, start=1))


def run_divisors(x: GrassmannSchubert) -> tuple[tuple[int, GrassmannSchubert], ...]:
    """Schubert divisors paired with the 1-based index of the run that
    produced them.  The divisor for run ``(a, b)`` lowers that run's first
    value ``a`` to ``a - 1``; runs starting at 1 produce nothing.
    """
    cols = set(x.columns)
    out = []
    for idx, (a, _) in enumerate(runs(x), start=1):
        if a > 1:
            out.append((idx, GrassmannSchubert.from_columns(
                x.n, x.d, (cols - {a}) | {a - 1})))
    return tuple(out)


def schubert_divisors(x: GrassmannSchubert) -> frozenset[GrassmannSchubert]:
    """All Schubert divisors of the variety indexed by ``x``."""
    if x.is_identity:
        raise ValueError("the identity indexes a point; it has no divisors")
    return frozenset(div for _, div in run_divisors(x))


def smooth_form(x: GrassmannSchubert) -> Optional[tuple[int, int]]:
    """Detect the column pattern ``{1..p} | {m, ..., m + (d-p) - 1}`` with
    ``m > p + 1`` that characterizes the smooth varieties; returns
    ``(p, m)`` or None.

    ``p`` may be zero (no initial segment).  When the columns are exactly
    ``{1..d}`` the variety is a point; by convention ``(d, d + 2)`` is
    returned, ``m`` being vacuous for an empty upper run.
    """
    rs = runs(x)
    if len(rs) == 1:
        a, _ = rs[0]
        if a == 1:
            return (x.d, x.d + 2)
        return (0, a)
    if len(rs) == 2 and rs[0][0] == 1:
        return (rs[0][1] + 1, rs[1][0])
    return None


def all_grassmann(n: int, d: int) -> Iterator[GrassmannSchubert]:
    """Every element of ``S_n^d``, in column lexicographic order."""
    weyl._check_rank(n)
    for cols in itertools.combinations(range(1, n + 1), d):
        yield GrassmannSchubert.from_columns(n, d, cols)
