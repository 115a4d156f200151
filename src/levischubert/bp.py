"""Parabolic (Billey-Postnikov) decompositions ``w = v * u`` with respect
to nested parabolic subsets ``J <= K``, the equivalent characterizations of
when the rank generating function factors, and the behaviour of Schubert
divisors under the induced projection.

:func:`decompose` validates ``(w, J, K)`` and factors it once; the other
functions take its :class:`BPDecomposition`.  The decomposition *factors*
(is BP) when the generating function of ``w`` over ``W^J`` is the product
of those of ``v`` over ``W^K`` and ``u`` over ``W^J``.  The polynomial
support/descent test decides this everywhere, including the filter of the
projection sweep; the maximality of ``u`` is polynomial too.  Only the
defining identity enumerates, so only the ``bp`` report and the
``bp-equivalence`` sweep run it.

:func:`project_divisors` sorts every Schubert divisor of ``w`` by the
dimension its image in ``W^K`` loses against ``v``: none, one, or more
(:data:`NEITHER`); the projection sweep checks that a factoring
decomposition never loses more.  :func:`nontoroidal_transport`
runs :func:`toroidal.divisor_checks` on each image ``v`` in a maximal ``W^K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import levi, toroidal, weyl
from .weyl import Perm

ONTO = "onto-image"
DIVISOR = "unique-divisor"
NEITHER = "neither"


@dataclass(frozen=True)
class BPDecomposition:
    """A parabolic decomposition ``w = v * u``, validated by :func:`decompose`."""

    w: Perm
    J: frozenset[int]
    K: frozenset[int]
    v: Perm
    u: Perm

    def to_json(self) -> dict:
        support = is_bp_support(self)
        return {
            "v": list(self.v),
            "u": list(self.u),
            "bp": support,
            "characterizations": {
                "maximality": is_bp_maximality(self),
                "support": support,
                "poincare": poincare_factorizes(self),
            },
        }


def decompose(w: Perm, J: Iterable[int], K: Iterable[int]) -> BPDecomposition:
    """Unique factorization ``w = v * u`` with ``v`` in ``W^K`` and ``u``
    in ``W_K`` (and automatically in ``W^J``); lengths add.  This is the one
    place that checks ``J <= K`` and that ``w`` lies in ``W^J``.

    >>> d = decompose((3, 2, 1), (), {1})
    >>> d.v, d.u
    ((2, 3, 1), (2, 1, 3))
    """
    K = weyl.require_indices(K, len(w))
    w, J = weyl.require_quotient(w, J)
    if not J <= K:
        raise ValueError(f"J={sorted(J)} must be contained in K={sorted(K)}")
    return _decompose(w, J, K)


def _decompose(w: Perm, J: frozenset[int], K: frozenset[int]) -> BPDecomposition:
    v = weyl._min_coset_rep(w, K)
    return BPDecomposition(w, J, K, v, weyl.compose(weyl.inverse(v), w))


def is_bp_maximality(d: BPDecomposition) -> bool:
    """Maximality characterization: ``u`` is the largest element of both
    ``W_K`` and ``W^J`` below ``w``, i.e. the representative of the Demazure
    product of the ``K``-letters of a reduced word of ``w`` (subword
    property; coset projection keeps order).  O(l(w) * n), at any rank."""
    m = list(weyl.identity(len(d.w)))
    for i in weyl.reduced_word(d.w):
        if i in d.K and m[i - 1] < m[i]:
            m[i - 1], m[i] = m[i], m[i - 1]
    return d.u == weyl._min_coset_rep(tuple(m), d.J)


def is_bp_support(d: BPDecomposition) -> bool:
    """Support characterization: every index of ``K`` supporting ``v`` is a
    left descent of the longest element ``u * w0(J)`` of the coset
    ``u * W_J``.  Polynomial, so it is the production test.

    Those left descents are ``levi.max_levi(u, J)``, so the test is the
    closed form ``support(v) & K <= max_levi(u, J)``.  ``w0(J)`` reverses
    each position block of ``J`` and ``u`` in ``W^J`` increases on each
    block, so ``i`` is a left descent of ``u * w0(J)`` exactly when
    ``i + 1`` stands left of ``i`` in ``u`` or the two sit in one block.
    Geometrically: the decomposition factors iff the Levi of
    ``support(v) & K`` stabilizes the Schubert variety of ``u`` in the
    quotient by ``J``.
    """
    return (weyl.support(d.v) & d.K) <= levi._max_levi(d.u, d.J)


def poincare_factorizes(d: BPDecomposition) -> bool:
    """Defining condition: the rank generating function of ``w`` over
    ``W^J`` equals the product of those of the two factors.

    >>> poincare_factorizes(decompose((3, 2, 1), (), {1}))
    True
    """
    return weyl._poincare(d.w, d.J) == weyl.poly_mul(
        weyl._poincare(d.v, d.K), weyl._poincare(d.u, d.J))


def project_divisors(d: BPDecomposition) -> tuple[tuple[Perm, Perm, str], ...]:
    """Classify the image of every Schubert divisor ``tau`` of ``d.w`` under
    the coset projection attached to ``d.K`` by the dimension it loses,
    ``l(v) - l(image)``: :data:`ONTO` for 0, :data:`DIVISOR` for 1 and
    :data:`NEITHER` for more.  The projection keeps Bruhat order and
    ``W^K`` is graded by length, so the image is ``v``, a Schubert divisor
    of ``v``, or neither.  Returns ``(tau, image, kind)`` triples in the
    iteration order of ``weyl.lower_covers(d.w, d.J)``.  When the
    decomposition factors, no divisor is :data:`NEITHER` (the projection
    dichotomy).

    >>> for tau, image, kind in sorted(project_divisors(decompose((3, 2, 1), (), {1}))):
    ...     print(tau, image, kind)
    (2, 3, 1) (2, 3, 1) onto-image
    (3, 1, 2) (1, 3, 2) unique-divisor
    """
    top = weyl.length(d.v)
    out = []
    for tau in weyl._lower_covers(d.w, d.J):
        image = weyl._min_coset_rep(tau, d.K)
        kind = (ONTO, DIVISOR, NEITHER)[min(top - weyl.length(image), 2)]
        out.append((tau, image, kind))
    return tuple(out)


# ---------------------------------------------------------------------------
# transport of the toroidal necessary conditions
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
    """Push the divisor conditions of :func:`toroidal.divisor_checks`
    through every projection to a maximal parabolic ``K`` containing ``J``.

    The image ``v`` of a Levi-stable variety is Levi-stable, so the check
    applies to ``v`` in ``W^K``.  When the decomposition at some
    maximal ``K`` factors and the check on ``v`` fails, the variety of
    ``w`` cannot be a smooth toroidal variety for this Levi action: the
    projection would carry a divisor violating toroidality.  Steps where
    the decomposition does not factor are reported but never certify.
    """
    w, J, I = levi.require_stable(w, J, I)
    n = len(w)
    steps = []
    for d in range(1, n):
        if d in J:
            continue
        dec = _decompose(w, J, weyl._omitting(d, n))
        checks = toroidal._divisor_checks(dec.v, dec.K, I)
        witness = next((c.witness for c in checks
                        if c.criterion == toroidal.VIOLATED), None)
        steps.append(TransportStep(d, dec.v, dec.u, is_bp_support(dec),
                                   toroidal.verdict(checks), witness))
    certified = any(s.is_bp and s.verdict == toroidal.FAILS for s in steps)
    return TransportReport(w, J, I, tuple(steps), certified)
