"""Bookkeeping for the three families of Picard-number-one horospherical
homogeneous spaces, and the dimension counts showing that their two closed
orbits sit in codimension at least two.

:data:`FAMILIES` is the one table of the families: their Dynkin type, the
least ``m``, whether a member takes a parameter ``i``, the pattern of its
space and its dimension formulas.  Everything in this module reads it;
nothing restates it.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional

from . import weyl


class CaseFamily(NamedTuple):
    """One parameterized family: a marked Dynkin diagram with two adjacent
    fundamental weights, the pattern of the homogeneous space it produces,
    and the dimensions of a member ``(m, i)``."""

    tag: str
    dynkin: str
    min_m: int
    needs_i: bool
    marked_roots: str
    space_pattern: str
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
               lambda m, i: (2 * m, m, m)),
    CaseFamily("b", "A", 3, True, "(A_m, alpha_i, alpha_{i+1})",
               "Gr(i+1, m+2)",
               lambda m, i: ((m - i + 1) * (i + 1), (m - i + 1) * i,
                             (m - i) * (i + 1))),
    CaseFamily("c", "D", 4, False, "(D_m, alpha_{m-1}, alpha_m)",
               "Spin(2m+1)/P(omega_m)",
               lambda m, i: (m * (m + 1) // 2, m * (m - 1) // 2, m * (m - 1) // 2)),
)


_BY_TAG = {f.tag: f for f in FAMILIES}


class _CaseFields(NamedTuple):
    tag: str
    m: int
    i: Optional[int] = None


class HorosphericalCase(_CaseFields):
    """A concrete member of one of the three families; ``m`` and ``i``
    become plain ints by :func:`weyl.require_int`."""

    __slots__ = ()

    def __new__(cls, tag: str, m: int, i: Optional[int] = None):
        family = _BY_TAG.get(tag)
        if family is None:
            raise ValueError(f"unknown family tag {tag!r}")
        m = weyl.require_int(m, "m")
        if i is not None:
            i = weyl.require_int(i, "i")
        if m < family.min_m:
            raise ValueError(f"family {tag} requires m >= {family.min_m}")
        if not family.needs_i:
            if i is not None:
                raise ValueError(f"family {tag} takes no parameter i")
        elif i is None or not 1 <= i <= m - 1:
            raise ValueError(f"family {tag} requires 1 <= i <= m-1")
        return super().__new__(cls, tag, m, i)


def codim_at_least_two(case: HorosphericalCase) -> bool:
    """True iff both closed orbits have codimension >= 2, so neither is a
    divisor; this rules out the toroidal property for the family.  Family a
    is a quadric of dimension 2m with two m-dimensional projective spaces
    inside; b is Gr(i+1, m+2) with the two adjacent smaller Grassmannians;
    c is the odd orthogonal Grassmannian with the even pair inside it."""
    total, orb_a, orb_b = _BY_TAG[case.tag].dimensions(case.m, case.i)
    return orb_a <= total - 2 and orb_b <= total - 2


def iter_cases(max_m: int) -> Iterator[HorosphericalCase]:
    """Every valid parameterization with m up to ``max_m``, family by
    family in table order; ``max_m`` is read by :func:`weyl.require_int`.

    The cases are built unchecked, by ``tuple.__new__``: the loop takes
    ``m >= min_m`` and ``i`` in ``1..m-1`` (or ``None``) from
    :data:`FAMILIES`, so every rule of ``HorosphericalCase.__new__`` already
    holds.  Each case still equals, hashes like and is as immutable as
    ``HorosphericalCase(tag, m, i)``.
    """
    max_m = weyl.require_int(max_m, "max_m")
    for family in FAMILIES:
        tag = family.tag
        for m in range(family.min_m, max_m + 1):
            for i in (range(1, m) if family.needs_i else (None,)):
                yield tuple.__new__(HorosphericalCase, (tag, m, i))
