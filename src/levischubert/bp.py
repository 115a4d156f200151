"""Parabolic (Billey-Postnikov) decompositions ``w = v * u`` with respect
to nested parabolic subsets ``J <= K``, the equivalent characterizations of
when the rank generating function factors, and the behaviour of Schubert
divisors under the induced projection.

A decomposition *factors* (is a BP decomposition) when the generating
function of ``w`` over ``W^J`` is the product of those of ``v`` over
``W^K`` and ``u`` over ``W^J``.  Two further characterizations are
implemented and kept in exact agreement by the test suite: maximality of
``u`` inside the truncated parabolic, and the support/descent containment
test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import grassmann, levi, toroidal, weyl
from .weyl import Perm

ONTO = "onto-image"
DIVISOR = "unique-divisor"


def _normalize(w: Perm, J: Iterable[int], K: Iterable[int]
               ) -> tuple[Perm, frozenset[int], frozenset[int]]:
    J, K = frozenset(J), frozenset(K)
    if not J <= K:
        raise ValueError(f"J={sorted(J)} must be contained in K={sorted(K)}")
    weyl.require_quotient(w, J)
    return tuple(w), J, K


def parabolic_decompose(w: Perm, J: Iterable[int], K: Iterable[int]
                        ) -> tuple[Perm, Perm]:
    """Unique factorization ``w = v * u`` with ``v`` in ``W^K`` and ``u``
    in ``W_K`` (and automatically in ``W^J``); lengths add.

    >>> parabolic_decompose((3, 2, 1), (), {1})
    ((2, 3, 1), (2, 1, 3))
    """
    w, J, K = _normalize(w, J, K)
    v = weyl.min_coset_rep(w, K)
    u = weyl.compose(weyl.inverse(v), w)
    return v, u


def is_bp_maximality(w: Perm, J: Iterable[int], K: Iterable[int]) -> bool:
    """Maximality characterization: the factor ``u`` admits no strictly
    larger element of ``W_K`` intersected with ``W^J`` below ``w``."""
    w, J, K = _normalize(w, J, K)
    _, u = parabolic_decompose(w, J, K)
    candidates = [x for x in weyl.parabolic_elements(K, len(w))
                  if not (weyl.right_descents(x) & J) and weyl.bruhat_leq(x, w)]
    return not any(x != u and weyl.bruhat_leq(u, x) for x in candidates)


def is_bp_support(w: Perm, J: Iterable[int], K: Iterable[int]) -> bool:
    """Support characterization: every index of ``K`` supporting ``v`` is a
    left descent of the longest element ``u * w0(J)`` of the coset
    ``u * W_J``."""
    w, J, K = _normalize(w, J, K)
    v, u = parabolic_decompose(w, J, K)
    u_top = weyl.compose(u, weyl.longest_element(J, len(w)))
    return (weyl.support(v) & K) <= weyl.left_descents(u_top)


def poincare_factorizes(w: Perm, J: Iterable[int], K: Iterable[int]) -> bool:
    """Defining condition: the rank generating function of ``w`` over
    ``W^J`` equals the product of those of the two factors.

    >>> poincare_factorizes((3, 2, 1), (), {1})
    True
    """
    w, J, K = _normalize(w, J, K)
    v, u = parabolic_decompose(w, J, K)
    return weyl.poincare_polynomial(w, J) == weyl.poly_mul(
        weyl.poincare_polynomial(v, K), weyl.poincare_polynomial(u, J))


@dataclass(frozen=True)
class BPDecomposition:
    """A parabolic decomposition with all three factorization tests."""

    w: Perm
    J: frozenset[int]
    K: frozenset[int]
    v: Perm
    u: Perm
    maximality: bool
    support_condition: bool
    poincare_condition: bool

    @property
    def is_bp(self) -> bool:
        return self.poincare_condition

    def to_json(self) -> dict:
        return {
            "v": list(self.v),
            "u": list(self.u),
            "bp": self.is_bp,
            "characterizations": {
                "maximality": self.maximality,
                "support": self.support_condition,
                "poincare": self.poincare_condition,
            },
        }


def decompose(w: Perm, J: Iterable[int], K: Iterable[int]) -> BPDecomposition:
    w, J, K = _normalize(w, J, K)
    v, u = parabolic_decompose(w, J, K)
    return BPDecomposition(
        w, J, K, v, u,
        is_bp_maximality(w, J, K),
        is_bp_support(w, J, K),
        poincare_factorizes(w, J, K),
    )


def project_divisor(tau: Perm, w: Perm, J: Iterable[int], K: Iterable[int]
                    ) -> tuple[Perm, str]:
    """Classify the image of a Schubert divisor ``tau`` of ``w`` under the
    coset projection attached to ``K``: the image is either ``v`` itself
    (the projection stays onto) or a single Schubert divisor of ``v``.

    The dichotomy is a theorem only for factoring decompositions, so a
    non-BP pair is rejected: without the factorization the image can drop
    more than one dimension.
    """
    w, J, K = _normalize(w, J, K)
    if tau not in weyl.lower_covers(w, J):
        raise ValueError(f"{tau} is not a Schubert divisor of {w}")
    if not poincare_factorizes(w, J, K):
        raise ValueError(
            f"the decomposition of {w} at K={sorted(K)} does not factor; "
            "the projection dichotomy is not guaranteed")
    v = weyl.min_coset_rep(w, K)
    image = weyl.min_coset_rep(tau, K)
    if image == v:
        return image, ONTO
    if image in weyl.lower_covers(v, K):
        return image, DIVISOR
    raise RuntimeError(f"projection dichotomy violated for {tau} under K={sorted(K)}")


# ---------------------------------------------------------------------------
# transport of the Grassmannian necessary conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportStep:
    """One maximal coarsening ``K = Delta - {omitted}`` of the quotient."""

    omitted: int
    v: Perm
    u: Perm
    is_bp: bool
    verdict: str
    witness: Optional[Perm]

    def to_json(self) -> dict:
        return {
            "omitted": self.omitted,
            "v": list(self.v),
            "u": list(self.u),
            "bp": self.is_bp,
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass(frozen=True)
class TransportReport:
    subject: Perm
    J: frozenset[int]
    levi: frozenset[int]
    steps: tuple[TransportStep, ...]
    certified_nontoroidal: bool

    def to_json(self) -> dict:
        return {
            "w": list(self.subject),
            "parabolic": sorted(self.J),
            "levi": sorted(self.levi),
            "steps": [s.to_json() for s in self.steps],
            "certified_nontoroidal": self.certified_nontoroidal,
        }


def nontoroidal_transport(w: Perm, J: Iterable[int], I: Iterable[int]
                          ) -> TransportReport:
    """Push the Grassmannian divisor conditions through every projection to
    a maximal parabolic containing ``J``.

    The image ``v`` of a Levi-stable variety is Levi-stable, so the
    Grassmannian checker applies to it.  When the decomposition at some
    maximal ``K`` factors and the check on ``v`` fails, the variety of
    ``w`` cannot be a smooth toroidal variety for this Levi action: the
    projection would carry a divisor violating toroidality.  Steps where
    the decomposition does not factor are reported but never certify.
    """
    J, I = frozenset(J), frozenset(I)
    levi.require_stable(w, J, I)
    n = len(w)
    steps = []
    for d in range(1, n):
        if d in J:
            continue
        K = frozenset(range(1, n)) - {d}
        v, u = parabolic_decompose(w, J, K)
        factors = poincare_factorizes(w, J, K)
        report = toroidal.toroidal_necessary(grassmann.GrassmannSchubert(d, v), I)
        witness = next((c.witness for c in report.divisors
                        if c.criterion == toroidal.VIOLATED), None)
        steps.append(TransportStep(d, v, u, factors, report.verdict, witness))
    certified = any(s.is_bp and s.verdict == toroidal.FAILS for s in steps)
    return TransportReport(tuple(w), J, I, tuple(steps), certified)
