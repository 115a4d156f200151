import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from levischubert import bp, levi, toroidal, weyl
from oracles import brute_force_checks, stabilizer, subsets


def subset_pairs(n):
    delta = list(range(1, n))
    for r in range(n):
        for jc in itertools.combinations(delta, r):
            J = frozenset(jc)
            rest = [x for x in delta if x not in J]
            for s in range(len(rest) + 1):
                for kc in itertools.combinations(rest, s):
                    yield J, J | frozenset(kc)


def factors(w, J, K):
    d = bp.decompose(w, J, K)
    return d.v, d.u


class TestParabolicDecompose:
    def test_identity(self):
        assert factors((1, 2, 3), (), {1}) == ((1, 2, 3), (1, 2, 3))

    def test_worked_s3_instance(self):
        assert factors((3, 2, 1), (), {1}) == ((2, 3, 1), (2, 1, 3))

    def test_frozen_s4_instance(self):
        assert factors((3, 4, 1, 2), (), {1, 2}) == ((1, 3, 4, 2), (2, 3, 1, 4))

    def test_rejects_bad_nesting(self):
        with pytest.raises(ValueError):
            bp.decompose((3, 2, 1), {1}, {2})

    def test_rejects_non_representative(self):
        with pytest.raises(ValueError):
            bp.decompose((2, 1, 3), {1}, {1, 2})

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_factorization_properties(self, n):
        for J, K in subset_pairs(n):
            for w in weyl.quotient_reps(n, J):
                v, u = factors(w, J, K)
                assert weyl.compose(v, u) == w
                assert oracles.coset_min(v, K) == v
                assert oracles.coset_min(u, K) == oracles.ident(n)
                assert oracles.coset_min(u, J) == u
                assert weyl.length(w) == weyl.length(v) + weyl.length(u)
                assert v == oracles.coset_min(w, K)


def random_decomposition(data, low, high):
    """Draw ``n`` in ``[low, high]``, nested ``J <= K`` and a uniform element
    of ``W^J``, and decompose it."""
    n = data.draw(st.integers(low, high), label="n")
    # each simple root lies in J, in K - J, or outside K
    where = data.draw(st.lists(st.sampled_from("JK-"), min_size=n - 1,
                               max_size=n - 1), label="J, K")
    J = frozenset(i for i, c in enumerate(where, 1) if c == "J")
    K = frozenset(i for i, c in enumerate(where, 1) if c != "-")
    # the coset representative of a permutation: uniform over W^J
    x = data.draw(st.permutations(range(1, n + 1)), label="x")
    return bp.decompose(weyl.min_coset_rep(tuple(x), J), J, K)


class TestCharacterizations:
    def test_worked_s3_instance(self):
        d = bp.decompose((3, 2, 1), (), {1})
        assert bp.is_bp_maximality(d)
        assert bp.is_bp_support(d)
        assert bp.poincare_factorizes(d)
        # the generating function identity behind it
        assert weyl.poly_mul((1, 1), (1, 1, 1)) == (1, 2, 2, 1)
        assert weyl.poincare_polynomial((3, 2, 1)) == (1, 2, 2, 1)

    def test_identity_always_factors(self):
        d = bp.decompose((1, 2, 3), (), {2})
        assert bp.poincare_factorizes(d)
        assert bp.is_bp_maximality(d)
        assert bp.is_bp_support(d)

    def test_frozen_counterexample(self):
        # the factor u = id is not maximal below w inside W_K
        d = bp.decompose((1, 4, 2, 3), (), {3})
        assert not bp.is_bp_maximality(d)
        assert not bp.is_bp_support(d)
        assert not bp.poincare_factorizes(d)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_three_way_equivalence(self, n):
        for J, K in subset_pairs(n):
            for w in weyl.quotient_reps(n, J):
                d = bp.decompose(w, J, K)
                a = bp.is_bp_maximality(d)
                b = bp.is_bp_support(d)
                c = bp.poincare_factorizes(d)
                assert a == b == c, (w, J, K)

    @settings(max_examples=60)
    @given(st.data())
    def test_three_way_equivalence_at_ranks_6_7(self, data):
        d = random_decomposition(data, 6, 7)
        assert bp.is_bp_maximality(d) == bp.is_bp_support(d) \
            == bp.poincare_factorizes(d), (d.w, d.J, d.K)

    def test_decompose_bundle(self):
        got = bp.decompose((3, 2, 1), (), {1})
        assert (got.v, got.u) == ((2, 3, 1), (2, 1, 3))
        assert bp.is_bp_maximality(got) and bp.is_bp_support(got)
        assert bp.poincare_factorizes(got)
        data = got.to_json()
        assert data == {
            "v": (2, 3, 1), "u": (2, 1, 3), "bp": True,
            "characterizations": {
                "maximality": True, "support": True, "poincare": True}}
        # the record's own tuples, written as arrays only by the encoder
        assert data["v"] is got.v and data["u"] is got.u


class TestMaximality:
    """The Demazure-product maximality test against the scan over all of
    ``W_K`` that it replaced."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_scan_exhaustively(self, n):
        for J, K in subset_pairs(n):
            for w in weyl.quotient_reps(n, J):
                d = bp.decompose(w, J, K)
                assert bp.is_bp_maximality(d) == \
                    oracles.bp_maximal_scan(w, J, K, d.u), (w, J, K)

    @settings(max_examples=100)
    @given(st.data())
    def test_matches_scan_at_ranks_7_8(self, data):
        d = random_decomposition(data, 7, 8)
        assert bp.is_bp_maximality(d) == oracles.bp_maximal_scan(d.w, d.J, d.K, d.u)

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_support_above_the_cap(self, data):
        # neither test enumerates, so they are compared past RANK_LIMIT
        d = random_decomposition(data, 9, 14)
        assert bp.is_bp_maximality(d) == bp.is_bp_support(d)

    def test_never_enumerates(self, monkeypatch):
        calls = []
        # _poincare checks the rank before it splits or scans
        for name in ("_parabolic_elements", "_quotient_reps", "quotient_reps",
                     "_poincare"):
            fn = getattr(weyl, name)
            monkeypatch.setattr(weyl, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        w = (6, 2, 5, 4, 3, 1, *range(7, 13))
        d = bp.decompose(w, (), frozenset(range(1, 12)) - {2})
        assert bp.is_bp_maximality(d) and bp.is_bp_support(d)
        d = bp.decompose((1, 12, *range(2, 12)), (), {11})
        assert not bp.is_bp_maximality(d) and not bp.is_bp_support(d)
        assert calls == []
        # the wrapping sees the enumerating test
        with pytest.raises(weyl.RankLimitError):
            bp.poincare_factorizes(d)
        assert calls


class TestSupport:
    """The closed form ``support(v) & K <= max_levi(u, J)`` against the
    definition: left descents of the product ``u * w0(J)``."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_definition_exhaustively(self, n):
        for J, K in subset_pairs(n):
            for w in oracles.quotient_perms(n, J):
                d = bp.decompose(w, J, K)
                assert bp.is_bp_support(d) == \
                    oracles.bp_support_by_descents(d.v, d.u, J, K), (w, J, K)

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_definition_above_the_cap(self, data):
        # w0(J) is written down block by block, so neither side enumerates
        d = random_decomposition(data, 9, 14)
        assert bp.is_bp_support(d) == \
            oracles.bp_support_by_descents(d.v, d.u, d.J, d.K)

    def test_builds_no_product(self, monkeypatch):
        decompositions = [bp.decompose(w, J, K) for n in (1, 2, 3, 4)
                          for J, K in subset_pairs(n)
                          for w in weyl.quotient_reps(n, J)]
        calls = []
        for name in ("compose", "inverse"):
            fn = getattr(weyl, name)
            monkeypatch.setattr(weyl, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        levi._max_levi.cache_clear()
        for d in decompositions:
            bp.is_bp_support(d)
        # cold, the only call is the inverse that max_levi reads positions
        # from, once per (u, J) it has not seen
        assert calls == ["inverse"] * len({(d.u, d.J) for d in decompositions})
        calls.clear()
        for d in decompositions:
            bp.is_bp_support(d)
        assert calls == []


def projections(d):
    """``project_divisors`` keyed by divisor: tau -> (image, kind)."""
    return {tau: (image, kind) for tau, image, kind in bp.project_divisors(d)}


class TestProjectDivisor:
    def test_onto_instance(self):
        d = bp.decompose((1, 3, 5, 4, 2), (), {1, 4})
        image, kind = projections(d)[(1, 3, 5, 2, 4)]
        assert image == (1, 3, 5, 2, 4)
        assert kind == bp.ONTO

    def test_unique_divisor_instance(self):
        d = bp.decompose((1, 3, 5, 4, 2), (), {1, 4})
        image, kind = projections(d)[(1, 2, 5, 4, 3)]
        assert image == (1, 2, 5, 3, 4)
        assert kind == bp.DIVISOR
        assert image in weyl.lower_covers((1, 3, 5, 2, 4), {1, 4})

    def test_collapsing_quotient_is_onto(self):
        # K swallowing the support collapses everything onto the image
        d = bp.decompose((3, 2, 1), (), {1, 2})
        got = projections(d)
        assert set(got) == weyl.lower_covers(d.w)
        assert set(got.values()) == {((1, 2, 3), bp.ONTO)}

    def test_projects_exactly_the_divisors(self):
        # one triple per Schubert divisor, in the order lower_covers lists
        # them, and never neither: 3,332 factoring (w, J, K) at n <= 5
        for n in range(2, 6):
            for J, K in subset_pairs(n):
                for w in weyl.quotient_reps(n, J):
                    d = bp.decompose(w, J, K)
                    if bp.is_bp_support(d):
                        got = bp.project_divisors(d)
                        assert [tau for tau, _, _ in got] == \
                            list(weyl.lower_covers(w, J)), (w, J, K)
                        assert all(kind != bp.NEITHER for _, _, kind in got), \
                            (w, J, K)

    def test_classifies_non_factoring_pair(self):
        # u = id is not maximal, and (1, 2, 4, 3) drops two dimensions
        got = bp.project_divisors(bp.decompose((1, 4, 2, 3), (), {3}))
        assert sorted(got) == [
            ((1, 2, 4, 3), (1, 2, 3, 4), bp.NEITHER),
            ((1, 3, 2, 4), (1, 3, 2, 4), bp.DIVISOR)]

    @settings(max_examples=100)
    @given(st.data())
    def test_matches_oracles_at_ranks_7_8(self, data):
        # each kind against the definition: the image is v, one of its
        # covers in W^K, or neither, and a factoring pair yields no neither
        d = random_decomposition(data, 7, 8)
        v = oracles.coset_min(d.w, d.K)
        vcovers = oracles.covers_by_length(v, d.K)
        factors = oracles.bp_support_by_descents(d.v, d.u, d.J, d.K)
        got = bp.project_divisors(d)
        assert {tau for tau, _, _ in got} == oracles.covers_by_length(d.w, d.J)
        for tau, image, kind in got:
            assert image == oracles.coset_min(tau, d.K)
            assert (kind == bp.ONTO) == (image == v)
            assert (kind == bp.DIVISOR) == (image in vcovers)
            assert not (factors and kind == bp.NEITHER), (d.w, d.J, d.K, tau)

    def test_one_cover_walk_per_call(self, monkeypatch):
        # the kind is read off the lengths, so the only cover walk is the
        # one listing the divisors of w
        decompositions = [bp.decompose(w, J, K) for n in (2, 3, 4)
                          for J, K in subset_pairs(n)
                          for w in weyl.quotient_reps(n, J)]
        calls = []
        fn = weyl._lower_covers
        monkeypatch.setattr(weyl, "_lower_covers",
                            lambda w, J: calls.append((w, J)) or fn(w, J))
        for d in decompositions:
            bp.project_divisors(d)
        assert calls == [(d.w, d.J) for d in decompositions]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dichotomy_exhaustive(self, n):
        # the kind is read off the image for every pair; the Poincare
        # identity, not the support test, decides which pairs factor, and
        # those never yield neither
        for w in itertools.permutations(range(1, n + 1)):
            if weyl.length(w) == 0:
                continue
            covers = weyl.lower_covers(w)
            for r in range(n):
                for kc in itertools.combinations(range(1, n), r):
                    K = frozenset(kc)
                    d = bp.decompose(w, (), K)
                    vcovers = oracles.covers_by_length(d.v, K)
                    is_bp = bp.poincare_factorizes(d)
                    got = projections(d)
                    assert set(got) == covers
                    for tau, (image, kind) in got.items():
                        assert image == oracles.coset_min(tau, K)
                        assert (kind == bp.ONTO) == (image == d.v)
                        assert (kind == bp.DIVISOR) == (image in vcovers)
                        if is_bp:
                            assert kind != bp.NEITHER, (w, K, tau)


class TestTransport:
    def test_certified_instance(self):
        # product of the failing Grassmannian index with the longest
        # element of its parabolic: the factorization holds and the
        # projected check fails with the identity as witness
        report = bp.nontoroidal_transport((6, 2, 5, 4, 3, 1), (), {1, 3, 4, 5})
        assert report.certified_nontoroidal
        step = next(s for s in report.steps if s.omitted == 2)
        assert step.v == (2, 6, 1, 3, 4, 5)
        assert step.is_bp
        assert step.verdict == toroidal.FAILS
        assert step.witness == weyl.identity(6)

    def test_certified_above_the_cap(self):
        # padded with fixed points past RANK_LIMIT: the support test and the
        # minimal-head check never enumerate
        w = (6, 2, 5, 4, 3, 1, *range(7, 13))
        report = bp.nontoroidal_transport(w, (), {1, 3, 4, 5})
        assert report.certified_nontoroidal
        step = next(s for s in report.steps if s.omitted == 2)
        assert step.v == (2, 6, 1, 3, 4, 5, *range(7, 13))
        assert step.is_bp and step.verdict == toroidal.FAILS
        assert step.witness == weyl.identity(12)

    def test_uncertified_without_factorization(self):
        # every maximal coarsening of this element fails to factor, so no
        # verdict propagates even though one projected check fails
        report = bp.nontoroidal_transport((3, 4, 1, 2), (), {2})
        assert not report.certified_nontoroidal
        assert all(not s.is_bp for s in report.steps)
        assert {s.omitted for s in report.steps} == {1, 2, 3}

    def test_requires_stability(self):
        with pytest.raises(ValueError):
            bp.nontoroidal_transport((2, 4, 1, 3), (), {2})

    def test_json_shape(self):
        report = bp.nontoroidal_transport((6, 2, 5, 4, 3, 1), (), {1, 3, 4, 5})
        data = report.to_json()
        assert set(data) == {
            "w", "parabolic", "levi", "steps", "certified_nontoroidal"}
        assert data["certified_nontoroidal"] is True

    def test_json_holds_the_reports_own_tuples(self):
        report = bp.nontoroidal_transport((6, 2, 5, 4, 3, 1), (), {1, 3, 4, 5})
        data = report.to_json()
        assert data["w"] is report.subject
        for step, item in zip(report.steps, data["steps"], strict=True):
            assert item["v"] is step.v and item["u"] is step.u
            assert item["witness"] is step.witness

    def test_sound_against_the_direct_check_and_oracles(self):
        # every stable (w, J, I) at 2 <= n <= 5: each step's factors are the
        # coset oracle's, its verdict is the brute-force check on (v, K, I),
        # and a certified triple fails the brute-force check on w itself
        checks = functools.lru_cache(maxsize=None)(brute_force_checks)
        triples = certified = 0
        for n in range(2, 6):
            for J in subsets(range(1, n)):
                for w in oracles.quotient_perms(n, J):
                    for I in subsets(stabilizer(w, J)):
                        report = bp.nontoroidal_transport(w, J, I)
                        triples += 1
                        for step in report.steps:
                            K = frozenset(range(1, n)) - {step.omitted}
                            assert step.v == oracles.coset_min(w, K)
                            assert oracles.multiply(step.v, step.u) == w
                            assert oracles.coset_min(step.u, K) == oracles.ident(n)
                            violated = [c[3] for c in checks(step.v, K, I)
                                        if c[2] == toroidal.VIOLATED]
                            assert step.verdict == (
                                toroidal.FAILS if violated else toroidal.PASSES)
                            assert step.witness == next(iter(violated), None)
                        if report.certified_nontoroidal:
                            certified += 1
                            assert any(c[2] == toroidal.VIOLATED
                                       for c in checks(w, J, I)), (w, J, I)
        assert (triples, certified) == (3280, 1042)

    def test_image_of_stable_is_stable(self):
        # equivariance of the projection, checked over the full flag at n=4
        for w in itertools.permutations(range(1, 5)):
            stab = levi.max_levi(w)
            for d in (1, 2, 3):
                K = frozenset({1, 2, 3}) - {d}
                v = bp.decompose(w, (), K).v
                assert stab <= levi.max_levi(v, K)
