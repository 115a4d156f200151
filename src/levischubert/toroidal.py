"""Necessary conditions for a Grassmannian Schubert variety to be toroidal
under a block Levi action.

The verdicts are deliberately one-sided.  A ``fails`` report certifies
non-toroidality: some Schubert divisor is not Levi-stable yet contains a
Levi orbit (a witness head is recorded).  A ``passes-necessary`` report
asserts nothing beyond the necessary conditions holding; no ``toroidal:
yes`` verdict exists anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import grassmann, levi, weyl
from .grassmann import GrassmannSchubert
from .weyl import Perm

CRITERION_STABLE = "criterion-1"
CRITERION_NO_HEAD = "criterion-2"
VIOLATED = "violated"

PASSES = "passes-necessary"
FAILS = "fails"


@dataclass(frozen=True)
class DivisorCheck:
    """One Schubert divisor of the subject, with its toroidality status.

    ``stable`` records whether the divisor itself stays Levi-stable, which
    happens exactly when decrementing the run start lands on a block end
    (``a - 1`` outside ``I``).  ``criterion`` is ``criterion-1`` for stable
    divisors, ``criterion-2`` for unstable divisors containing no head, and
    ``violated`` otherwise; a violation's ``witness`` is a head inside the
    divisor (the minimal one).
    """

    divisor: GrassmannSchubert
    run: int
    stable: bool
    criterion: str
    witness: Optional[Perm]

    def to_json(self) -> dict:
        return {
            "w": list(self.divisor.w),
            "run": self.run,
            "stable": self.stable,
            "criterion": self.criterion,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass(frozen=True)
class ToroidalReport:
    subject: GrassmannSchubert
    levi: levi.LeviBlocks
    divisors: tuple[DivisorCheck, ...]
    verdict: str

    def to_json(self) -> dict:
        return {
            "subject": self.subject.to_json(),
            "levi": self.levi.to_json(),
            "divisors": [c.to_json() for c in self.divisors],
            "verdict": self.verdict,
        }


def divisor_stability(x: GrassmannSchubert, I: Iterable[int],
                      ) -> tuple[tuple[int, GrassmannSchubert, bool], ...]:
    """For each Schubert divisor of a Levi-stable ``x``: its run index,
    the divisor, and whether the divisor remains Levi-stable.

    Stability holds iff ``a - 1`` lies outside ``I`` for the run ``(a, b)``
    that was decremented.
    """
    I = frozenset(I)
    levi.require_stable(x.w, x.quotient, I)
    rs = grassmann.runs(x)
    return tuple((idx, div, (rs[idx - 1][0] - 1) not in I)
                 for idx, div in grassmann.run_divisors(x))


def toroidal_necessary(x: GrassmannSchubert, I: Iterable[int]) -> ToroidalReport:
    """Check every Schubert divisor of a Levi-stable ``x`` against the two
    admissible situations: the divisor is itself stable, or it contains no
    head at all.  Any divisor admitting neither certifies that ``x`` is not
    toroidal for this Levi action; otherwise only the necessary conditions
    are reported as passing.
    """
    I = frozenset(I)
    checks = []
    for idx, div, stable in divisor_stability(x, I):
        if stable:
            criterion, witness = CRITERION_STABLE, None
        else:
            witness = levi.heads_below(div.w, x.quotient, I).minimal_head
            criterion = CRITERION_NO_HEAD if witness is None else VIOLATED
        checks.append(DivisorCheck(div, idx, stable, criterion, witness))
    verdict = FAILS if any(c.criterion == VIOLATED for c in checks) else PASSES
    return ToroidalReport(x, levi.blocks(I, x.n), tuple(checks), verdict)


def unique_head_check(x: GrassmannSchubert) -> bool:
    """For a smooth-pattern ``x``: is ``x.w`` the only head for the maximal
    Levi?  When true, no Schubert divisor of ``x`` contains an orbit of
    that Levi, and the Levi acts with a dense orbit exhausting the variety.
    """
    if grassmann.smooth_form(x) is None:
        raise ValueError(f"{x.w} does not have the smooth column pattern")
    I = levi.max_levi(x.w, x.quotient)
    return levi.heads_below(x.w, x.quotient, I).heads == (x.w,)


def no_stable_divisor_check(x: GrassmannSchubert) -> bool:
    """For a singular ``x`` (no smooth column pattern), with the maximal
    Levi: no Schubert divisor is Levi-stable, and every proper head sits in
    codimension at least two.  Both facts reflect the stable subvarieties
    lying inside the singular locus.
    """
    if grassmann.smooth_form(x) is not None:
        raise ValueError(f"{x.w} has the smooth column pattern; "
                         "the check applies to singular varieties")
    I = levi.max_levi(x.w, x.quotient)
    if any(levi.is_stable(div.w, x.quotient, I)
           for _, div in grassmann.run_divisors(x)):
        return False
    dim = grassmann.dimension(x)
    report = levi.heads_below(x.w, x.quotient, I)
    return all(dim - weyl.length(h) >= 2
               for h in report.heads if h != x.w)
