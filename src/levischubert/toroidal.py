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

from . import grassmann, levi
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

    ``stable`` records whether the divisor itself stays Levi-stable
    (:func:`levi.is_stable`).  The lemma the ``divisor-stability`` sweep
    checks, the run-start rule, says it is exactly when lowering the run
    start ``a`` lands on a block end (``a - 1`` outside ``I``).
    ``criterion`` is ``criterion-1`` for stable divisors, ``criterion-2``
    for unstable divisors containing no head, and ``violated`` otherwise;
    a violation's ``witness`` is a head inside the divisor (the minimal
    one).
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
    levi: frozenset[int]
    divisors: tuple[DivisorCheck, ...]
    verdict: str

    def to_json(self) -> dict:
        return {
            "subject": self.subject.to_json(),
            "levi": {"indices": sorted(self.levi), "blocks": [
                list(b) for b in levi.blocks(self.levi, self.subject.n)]},
            "divisors": [c.to_json() for c in self.divisors],
            "verdict": self.verdict,
        }


def divisor_stability(x: GrassmannSchubert, I: Iterable[int],
                      ) -> tuple[tuple[int, GrassmannSchubert, bool], ...]:
    """For each Schubert divisor of a Levi-stable ``x``: its run index,
    the divisor, and whether the divisor remains Levi-stable."""
    I = frozenset(I)
    levi.require_stable(x.w, x.quotient, I)
    return tuple((idx, div, levi.is_stable(div.w, x.quotient, I))
                 for idx, div in grassmann.run_divisors(x))


def toroidal_necessary(x: GrassmannSchubert, I: Iterable[int]) -> ToroidalReport:
    """Check every Schubert divisor of a Levi-stable ``x`` against the two
    admissible situations: the divisor is itself stable, or it contains no
    head at all.  Any divisor admitting neither certifies that ``x`` is not
    toroidal for this Levi action; otherwise only the necessary conditions
    are reported as passing.  No step enumerates, so any rank is accepted.
    """
    I = frozenset(I)
    checks = []
    for idx, div, stable in divisor_stability(x, I):
        if stable:
            criterion, witness = CRITERION_STABLE, None
        elif levi.contains_levi_orbit(div.w, x.quotient, I):
            criterion, witness = VIOLATED, levi.minimal_head(x.quotient, I, x.n)
        else:
            criterion, witness = CRITERION_NO_HEAD, None
        checks.append(DivisorCheck(div, idx, stable, criterion, witness))
    verdict = FAILS if any(c.criterion == VIOLATED for c in checks) else PASSES
    return ToroidalReport(x, I, tuple(checks), verdict)


def unique_head_check(x: GrassmannSchubert) -> bool:
    """For a smooth-pattern ``x``: is ``x.w`` the only head for the maximal
    Levi?  When true, no Schubert divisor of ``x`` contains an orbit of
    that Levi, and the Levi acts with a dense orbit exhausting the variety.

    ``x.w`` is itself a head and the minimal head lies below every head,
    so the head is unique exactly when ``x.w`` is the minimal head.  No
    step enumerates, so any rank is accepted.
    """
    if not grassmann.is_smooth(x):
        raise ValueError(f"{x.w} does not have the smooth column pattern")
    I = levi.max_levi(x.w, x.quotient)
    return levi.minimal_head(x.quotient, I, x.n) == x.w


def no_stable_divisor_check(x: GrassmannSchubert) -> bool:
    """For a singular ``x`` (no smooth column pattern), with the maximal
    Levi: no Schubert divisor is Levi-stable, which reflects the stable
    subvarieties lying inside the singular locus.

    It also puts every proper head in codimension at least two: a proper
    head of codimension one is a Schubert divisor that is Levi-stable.  No
    step enumerates, so any rank is accepted.
    """
    if grassmann.is_smooth(x):
        raise ValueError(f"{x.w} has the smooth column pattern; "
                         "the check applies to singular varieties")
    I = levi.max_levi(x.w, x.quotient)
    return not any(stable for _, _, stable in divisor_stability(x, I))
