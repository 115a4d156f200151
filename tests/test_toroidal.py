import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import brute_force_checks, stabilizer, subsets
from levischubert import grassmann, levi, toroidal, weyl
from levischubert.grassmann import GrassmannSchubert


@st.composite
def stable_at_ranks_7_8(draw):
    """A Grassmann permutation of rank 7 or 8 and a Levi stabilizing it."""
    n = draw(st.integers(7, 8), label="n")
    d = draw(st.integers(1, n - 1), label="d")
    cols = draw(st.sets(st.integers(1, n), min_size=d, max_size=d), label="columns")
    x = GrassmannSchubert(d, oracles.grassmann_perm(n, cols))
    stab = sorted(levi.max_levi(x.w, x.quotient))
    I = draw(st.frozensets(st.sampled_from(stab)) if stab else st.just(frozenset()),
             label="I")
    return x, I


class TestDivisorStability:
    """The ``stable`` flags of :func:`toroidal.divisor_checks` on
    Grassmannian inputs."""

    def test_both_divisors_unstable(self):
        x = GrassmannSchubert(2, (2, 6, 1, 3, 4, 5))
        got = toroidal.divisor_checks(x.w, x.quotient, {1, 3, 4, 5})
        assert [(c.divisor[:2], c.stable) for c in got] == [
            ((1, 6), False), ((2, 5), False)]

    def test_single_unstable_divisor(self):
        x = GrassmannSchubert(2, (1, 4, 2, 3))
        got = toroidal.divisor_checks(x.w, x.quotient, {2, 3})
        assert [(c.divisor[:2], c.stable) for c in got] == [((1, 3), False)]

    def test_stable_divisor_when_run_lowers_onto_block_end(self):
        # run starting at 2 with 1 outside the Levi: the divisor stays stable
        x = GrassmannSchubert(2, (2, 4, 1, 3))
        got = toroidal.divisor_checks(x.w, x.quotient, {3})
        assert [(c.divisor[:2], c.stable) for c in got] == [
            ((1, 4), True), ((2, 3), False)]

    def test_requires_stability(self):
        x = GrassmannSchubert(2, (2, 4, 1, 3))
        with pytest.raises(ValueError):
            toroidal.divisor_checks(x.w, x.quotient, {2})

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_run_start_rule(self, n):
        # lowering the run start a keeps the divisor I-stable iff a - 1 is
        # outside I, with a read off the columns, not off the package's runs
        for d in range(1, n):
            for x in grassmann.all_grassmann(n, d):
                for I in subsets(levi.max_levi(x.w, x.quotient)):
                    for check in toroidal.divisor_checks(x.w, x.quotient, I):
                        (a,) = set(x.columns) - set(check.divisor[:d])
                        assert check.stable == ((a - 1) not in I), (x, I, check)


def as_tuples(checks):
    return [(c.divisor, c.stable, c.criterion, c.witness) for c in checks]


class TestDivisorChecks:
    """The general check at every parabolic, against brute force."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force(self, n):
        for J in subsets(range(1, n)):
            for w in oracles.quotient_perms(n, J):
                for I in subsets(stabilizer(w, J)):
                    assert as_tuples(toroidal.divisor_checks(w, J, I)) \
                        == brute_force_checks(w, J, I), (w, J, I)

    @settings(max_examples=30)
    @given(st.data())
    def test_matches_brute_force_at_ranks_6_7(self, data):
        n = data.draw(st.integers(6, 7), label="n")
        J = data.draw(st.frozensets(st.integers(1, n - 1)), label="J")
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        w = weyl.min_coset_rep(tuple(x), J)
        stab = sorted(stabilizer(w, J))
        I = data.draw(st.frozensets(st.sampled_from(stab)) if stab
                      else st.just(frozenset()), label="I")
        assert as_tuples(toroidal.divisor_checks(w, J, I)) \
            == brute_force_checks(w, J, I), (w, J, I)


class TestNecessaryConditions:
    def test_certified_nontoroidal_instance(self):
        x = GrassmannSchubert(2, (2, 6, 1, 3, 4, 5))
        report = toroidal.toroidal_necessary(x, {1, 3, 4, 5})
        assert report.verdict == toroidal.FAILS
        assert [c.criterion for c in report.divisors] == [
            toroidal.VIOLATED, toroidal.VIOLATED]
        assert all(c.witness == weyl.identity(6) for c in report.divisors)

    def test_passes_necessary_instance(self):
        x = GrassmannSchubert(2, (1, 4, 2, 3))
        report = toroidal.toroidal_necessary(x, {2, 3})
        assert report.verdict == toroidal.PASSES
        (check,) = report.divisors
        assert not check.stable
        assert check.criterion == toroidal.CRITERION_NO_HEAD
        assert check.witness is None

    def test_vacuous_pass_without_eligible_runs(self):
        # initial-segment columns admit no divisors at all
        x = GrassmannSchubert(2, (1, 2, 3, 4))
        report = toroidal.toroidal_necessary(x, {1})
        assert report.divisors == ()
        assert report.verdict == toroidal.PASSES

    def test_stable_divisors_meet_criterion_one(self):
        x = GrassmannSchubert(2, (2, 4, 1, 3))
        report = toroidal.toroidal_necessary(x, {3})
        # the first run's divisor, lowering 2 to 1
        (check,) = [c for c in report.divisors if c.divisor == (1, 4, 2, 3)]
        assert check.criterion == toroidal.CRITERION_STABLE
        assert check.stable

    def test_requires_stability(self):
        x = GrassmannSchubert(2, (2, 6, 1, 3, 4, 5))
        with pytest.raises(ValueError):
            toroidal.toroidal_necessary(x, {2})

    def test_verdict_vocabulary_is_two_valued(self):
        # the checker never claims toroidality, only failure or necessity
        assert {toroidal.PASSES, toroidal.FAILS} == {
            "passes-necessary", "fails"}

    def test_witness_lies_below_its_divisor(self):
        for n in range(2, 7):
            for d in range(1, n):
                J = frozenset(range(1, n)) - {d}
                for x in grassmann.all_grassmann(n, d):
                    stab = levi.max_levi(x.w, J)
                    report = toroidal.toroidal_necessary(x, stab)
                    for check in report.divisors:
                        if check.criterion == toroidal.VIOLATED:
                            assert weyl.bruhat_leq(check.witness, check.divisor)
                            assert stab <= levi.max_levi(check.witness, J)

    @settings(max_examples=60)
    @given(stable_at_ranks_7_8())
    def test_witness_is_enumerated_minimal_head(self, pair):
        # the minimal-head comparison against the head enumeration, at the
        # ranks the exhaustive tests above do not reach
        x, I = pair
        for check in toroidal.toroidal_necessary(x, I).divisors:
            if not check.stable:
                heads = levi.heads_below(check.divisor, x.quotient, I)
                assert check.witness == heads.minimal_head


class TestReportJson:
    def test_schema(self):
        x = GrassmannSchubert(2, (2, 6, 1, 3, 4, 5))
        data = toroidal.toroidal_necessary(x, {1, 3, 4, 5}).to_json()
        assert set(data) == {"subject", "levi", "divisors", "verdict"}
        assert data["subject"] == {"n": 6, "d": 2, "w": [2, 6, 1, 3, 4, 5]}
        assert data["levi"]["indices"] == [1, 3, 4, 5]
        assert data["levi"]["blocks"] == [[1, 2], [3, 4, 5, 6]]
        for item in data["divisors"]:
            assert set(item) == {"w", "run", "stable", "criterion", "witness"}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_run_labels_match_run_divisors(self, n):
        # each divisor is labelled with the run whose start it drops: the
        # 1-based index in run_starts of the one subject column missing
        # from the divisor's columns
        for d in range(1, n):
            for x in grassmann.all_grassmann(n, d):
                starts = grassmann.run_starts(x)
                stab = levi.max_levi(x.w, x.quotient)
                data = toroidal.toroidal_necessary(x, stab).to_json()
                assert len(data["divisors"]) == sum(a > 1 for a in starts), x
                for item in data["divisors"]:
                    (dropped,) = set(x.columns) - set(item["w"][:d])
                    assert item["run"] == starts.index(dropped) + 1, (x, item)

    def test_unlabelled_divisor_is_an_error(self, monkeypatch):
        # a divisor with no run is refused, never printed with a wrong label
        x = GrassmannSchubert(2, (2, 6, 1, 3, 4, 5))
        report = toroidal.toroidal_necessary(x, {1, 3, 4, 5})
        monkeypatch.setattr(grassmann, "run_starts", lambda x: ())
        with pytest.raises(KeyError):
            report.to_json()


def head_criteria(x, I):
    """The two polynomial criteria for ``x`` under the Levi of ``I``, each
    compared with the head enumeration; returns both verdicts."""
    heads = levi.heads_below(x.w, x.quotient, I).heads
    unique = levi.minimal_head(x.quotient, I, x.n) == x.w
    assert unique == (heads == (x.w,)), (x, I)
    no_stable = not any(c.stable for c in toroidal.divisor_checks(x.w, x.quotient, I))
    # a proper head of codimension one is a Levi-stable Schubert divisor
    dim = weyl.length(x.w)
    assert no_stable == all(dim - weyl.length(h) >= 2
                            for h in heads if h != x.w), (x, I)
    # with the maximal Levi, each check is the criterion on its own domain
    if I == levi.max_levi(x.w, x.quotient):
        if not grassmann.is_smooth(x):
            assert toroidal.no_stable_divisor_check(x) == no_stable, x
        else:
            assert toroidal.unique_head_check(x) == unique, x
    return unique, no_stable


class TestHeadCriteria:
    """The criteria behind ``unique_head_check`` and
    ``no_stable_divisor_check`` at every Levi inside the maximal one, where
    both verdicts occur; with the maximal Levi on their own domain the
    checks always hold, so a wrong criterion shows only here."""

    def test_exhaustive(self):
        seen = set()
        for n in range(2, 7):
            for d in range(1, n):
                for x in grassmann.all_grassmann(n, d):
                    for I in subsets(levi.max_levi(x.w, x.quotient)):
                        seen.add(head_criteria(x, I))
        # a unique head leaves no room for a stable divisor
        assert seen == {(True, True), (False, True), (False, False)}

    @settings(max_examples=100)
    @given(stable_at_ranks_7_8())
    def test_at_ranks_7_8(self, pair):
        head_criteria(*pair)

    def test_checks_above_the_cap(self):
        # neither check enumerates, so both run past RANK_LIMIT
        smooth = GrassmannSchubert(4, oracles.grassmann_perm(12, (1, 2, 9, 10)))
        assert toroidal.unique_head_check(smooth)
        singular = GrassmannSchubert(3, oracles.grassmann_perm(12, (2, 5, 12)))
        assert toroidal.no_stable_divisor_check(singular)


class TestSmoothUniqueHead:
    @pytest.mark.parametrize("d,w", [
        (2, (3, 4, 1, 2, 5)),
        (3, (1, 2, 5, 3, 4, 6)),
        (1, (4, 1, 2, 3)),
    ])
    def test_frozen(self, d, w):
        assert toroidal.unique_head_check(GrassmannSchubert(d, w))

    def test_rejects_singular_input(self):
        with pytest.raises(ValueError):
            toroidal.unique_head_check(GrassmannSchubert(2, (2, 6, 1, 3, 4, 5)))


class TestSingularNoStableDivisor:
    def test_frozen(self):
        assert toroidal.no_stable_divisor_check(GrassmannSchubert(2, (2, 4, 1, 3)))

    def test_rejects_smooth_input(self):
        with pytest.raises(ValueError):
            toroidal.no_stable_divisor_check(GrassmannSchubert(2, (3, 4, 1, 2, 5)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_holds_for_every_singular_variety(self, n):
        for d in range(1, n):
            for x in grassmann.all_grassmann(n, d):
                if not grassmann.is_smooth(x):
                    assert toroidal.no_stable_divisor_check(x), x
