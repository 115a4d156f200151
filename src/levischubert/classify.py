"""Bookkeeping for the three families of Picard-number-one horospherical
homogeneous spaces, and the dimension counts showing that their two closed
orbits sit in codimension at least two.

:data:`FAMILIES` is the one table of the families: their Dynkin type, the
least ``m``, whether a member takes a parameter ``i``, its space and its
dimension formulas.  Everything in this module reads it; nothing restates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional


@dataclass(frozen=True)
class CaseFamily:
    """One parameterized family: a marked Dynkin diagram with two adjacent
    fundamental weights and the homogeneous space it produces, as a
    pattern and as a function of a member's ``(m, i)``."""

    tag: str
    dynkin: str
    min_m: int
    needs_i: bool
    marked_roots: str
    space_pattern: str
    space: Callable[[int, Optional[int]], str]
    dimensions: Callable[[int, Optional[int]], tuple[int, int, int]]

    def to_json(self) -> dict:
        constraint = f"m >= {self.min_m}"
        if self.needs_i:
            constraint += ", 1 <= i <= m-1"
        return {
            "tag": self.tag,
            "dynkin": self.dynkin,
            "marked_roots": self.marked_roots,
            "constraint": constraint,
            "space": self.space_pattern,
        }


FAMILIES: tuple[CaseFamily, ...] = (
    CaseFamily("a", "A", 2, False, "(A_m, alpha_1, alpha_m)",
               "SO(2m+2)/P(omega_1)",
               lambda m, i: f"SO({2 * m + 2})/P(omega_1)",
               lambda m, i: (2 * m, m, m)),
    CaseFamily("b", "A", 3, True, "(A_m, alpha_i, alpha_{i+1})",
               "Gr(i+1, m+2)",
               lambda m, i: f"Gr({i + 1}, {m + 2})",
               lambda m, i: ((m - i + 1) * (i + 1), (m - i + 1) * i,
                             (m - i) * (i + 1))),
    CaseFamily("c", "D", 4, False, "(D_m, alpha_{m-1}, alpha_m)",
               "Spin(2m+1)/P(omega_m)",
               lambda m, i: f"Spin({2 * m + 1})/P(omega_{m})",
               lambda m, i: (m * (m + 1) // 2, m * (m - 1) // 2, m * (m - 1) // 2)),
)


_BY_TAG = {f.tag: f for f in FAMILIES}


@dataclass(frozen=True)
class HorosphericalCase:
    """A concrete member of one of the three families."""

    tag: str
    m: int
    i: Optional[int] = None

    def __post_init__(self):
        family = _BY_TAG.get(self.tag)
        if family is None:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if self.m < family.min_m:
            raise ValueError(f"family {self.tag} requires m >= {family.min_m}")
        if not family.needs_i:
            if self.i is not None:
                raise ValueError(f"family {self.tag} takes no parameter i")
        elif self.i is None or not 1 <= self.i <= self.m - 1:
            raise ValueError(f"family {self.tag} requires 1 <= i <= m-1")

    def homogeneous_space(self) -> str:
        return _BY_TAG[self.tag].space(self.m, self.i)

    def to_json(self) -> dict:
        dims = case_dimensions(self)
        return {
            "tag": self.tag,
            "m": self.m,
            "i": self.i,
            "space": self.homogeneous_space(),
            "dimensions": list(dims),
        }


def case_dimensions(case: HorosphericalCase) -> tuple[int, int, int]:
    """Dimension of the embedding and of its two closed orbits.

    Family a is a quadric of dimension 2m with two m-dimensional projective
    spaces inside; family b is Gr(i+1, m+2) with the two adjacent smaller
    Grassmannians; family c is the even orthogonal Grassmannian pair inside
    the odd one, with triangular-number dimensions.
    """
    return _BY_TAG[case.tag].dimensions(case.m, case.i)


def codim_at_least_two(case: HorosphericalCase) -> bool:
    """True iff both closed orbits have codimension >= 2, so neither is a
    divisor; this is what rules out the toroidal property for the family."""
    total, orb_a, orb_b = case_dimensions(case)
    return orb_a <= total - 2 and orb_b <= total - 2


def iter_cases(max_m: int) -> Iterator[HorosphericalCase]:
    """Every valid parameterization with m up to ``max_m``, family by
    family in table order."""
    for family in FAMILIES:
        for m in range(family.min_m, max_m + 1):
            for i in (range(1, m) if family.needs_i else (None,)):
                yield HorosphericalCase(family.tag, m, i)
