"""Necessary conditions for a Schubert variety to be toroidal under a
block Levi action, in any parabolic quotient (:func:`divisor_checks`).  The
Grassmannian report :func:`toroidal_necessary` is its maximal-parabolic
case, with each divisor labelled by its run.

The verdicts are deliberately one-sided.  A ``fails`` report certifies
non-toroidality: some Schubert divisor is not Levi-stable yet contains a
Levi orbit (a witness head is recorded).  A ``passes-necessary`` report
asserts nothing beyond the necessary conditions holding; no ``toroidal:
yes`` verdict exists anywhere in this module.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import grassmann, levi, weyl
from .grassmann import GrassmannSchubert
from .weyl import Perm

CRITERION_STABLE = "criterion-1"
CRITERION_NO_HEAD = "criterion-2"
VIOLATED = "violated"

PASSES = "passes-necessary"
FAILS = "fails"


class DivisorCheck(NamedTuple):
    """One Schubert divisor, whether it is Levi-stable, its criterion, and
    for a violation the minimal head inside it (``witness``)."""

    divisor: Perm
    stable: bool
    criterion: str
    witness: Optional[Perm]


class ToroidalReport(NamedTuple):
    subject: GrassmannSchubert
    levi: frozenset[int]
    divisors: tuple[DivisorCheck, ...]
    verdict: str

    def to_json(self) -> dict:
        runs = {div: idx for idx, div in grassmann.run_divisors(self.subject)}
        return {
            "subject": self.subject.to_json(),
            "levi": {"indices": sorted(self.levi), "blocks": [
                list(b) for b in levi.blocks(self.levi, self.subject.n)]},
            "divisors": [{"w": list(c.divisor), "run": runs[c.divisor],
                          "stable": c.stable, "criterion": c.criterion,
                          "witness": list(c.witness) if c.witness else None}
                         for c in self.divisors],
            "verdict": self.verdict,
        }


def divisor_checks(w: Perm, J: Iterable[int], I: Iterable[int]
                   ) -> tuple[DivisorCheck, ...]:
    """Check every Schubert divisor of an ``I``-stable ``w`` in ``W^J``, in
    lexicographic order.  A toroidal variety has no Borel-stable divisor
    that is not Levi-stable yet contains a Levi orbit, and Schubert
    divisors are Borel-stable.  So a divisor must be stable itself
    (``criterion-1``) or contain no head (``criterion-2``); one that is
    neither is ``violated`` and certifies that ``w`` is not toroidal for
    this Levi action.  No step enumerates, so any rank is accepted.

    >>> [c.criterion for c in divisor_checks((3, 4, 1, 2), (), {2})]
    ['criterion-1', 'violated', 'criterion-1', 'criterion-1']
    """
    return _divisor_checks(*levi.require_stable(w, J, I))


def _divisor_checks(w: Perm, J: frozenset, I: frozenset) -> tuple[DivisorCheck, ...]:
    # the minimal head lies below every head, so a divisor contains a Levi
    # orbit exactly when it lies above the minimal head
    head = levi._minimal_head(J, I, len(w))
    checks = []
    for tau in sorted(weyl._lower_covers(w, J)):
        stable = I <= levi._max_levi(tau, J)
        if stable:
            criterion, witness = CRITERION_STABLE, None
        elif weyl.bruhat_leq(head, tau):
            criterion, witness = VIOLATED, head
        else:
            criterion, witness = CRITERION_NO_HEAD, None
        checks.append(DivisorCheck(tau, stable, criterion, witness))
    return tuple(checks)


def verdict(checks: Iterable[DivisorCheck]) -> str:
    """``fails`` when some divisor check is violated, else ``passes-necessary``."""
    return FAILS if any(c.criterion == VIOLATED for c in checks) else PASSES


def toroidal_necessary(x: GrassmannSchubert, I: Iterable[int]) -> ToroidalReport:
    """:func:`divisor_checks` on a Grassmannian ``x``, with its verdict."""
    w, J, I = levi.require_stable(x.w, x.quotient, I)
    checks = _divisor_checks(w, J, I)
    return ToroidalReport(x, I, checks, verdict(checks))


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
    I = levi._max_levi(x.w, x.quotient)
    return levi._minimal_head(x.quotient, I, x.n) == x.w


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
    I = levi._max_levi(x.w, x.quotient)
    return not any(c.stable for c in _divisor_checks(x.w, x.quotient, I))
