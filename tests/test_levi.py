import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from levischubert import grassmann, levi, weyl
from levischubert.grassmann import GrassmannSchubert


def subsets(n):
    return [frozenset(c) for r in range(n)
            for c in itertools.combinations(range(1, n), r)]


class TestBlocks:
    def test_worked_example(self):
        got = levi.blocks({1, 3, 4, 7}, 8)
        assert got.blocks == ((1, 2), (3, 4, 5), (6,), (7, 8))
        assert len(got.blocks) == len(set(range(1, 8)) - {1, 3, 4, 7}) + 1

    def test_torus_and_full(self):
        assert levi.blocks((), 3).blocks == ((1,), (2,), (3,))
        assert levi.blocks({1, 2}, 3).blocks == ((1, 2, 3),)

    def test_block_ends(self):
        for n in range(2, 8):
            for I in subsets(n):
                got = levi.blocks(I, n)
                comp = sorted(set(range(1, n)) - I)
                assert [b[-1] for b in got.blocks] == comp + [n]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            levi.blocks({4}, 4)


class TestStability:
    def test_frozen(self):
        assert levi.is_stable((3, 4, 1, 2), (), {2})
        assert not levi.is_stable((2, 4, 1, 3), (), {2})

    def test_identity_stable_iff_contained(self):
        # the base point is fixed by the parabolic of J and nothing more
        for n in range(2, 6):
            for J in subsets(n):
                for I in subsets(n):
                    assert levi.is_stable(weyl.identity(n), J, I) == (I <= J)

    def test_rejects_non_representative(self):
        with pytest.raises(ValueError):
            levi.is_stable((2, 1, 3), {1}, {2})

    def test_stability_is_elementwise(self):
        for w in itertools.permutations(range(1, 6)):
            stab = levi.max_levi(w)
            for I in subsets(5):
                assert levi.is_stable(w, (), I) == (I <= stab)


class TestMaxLevi:
    def test_frozen(self):
        assert levi.max_levi((3, 4, 1, 2)) == frozenset({2})
        assert levi.max_levi((4, 3, 2, 1)) == frozenset({1, 2, 3})
        x = grassmann.GrassmannSchubert(2, (3, 4, 1, 2, 5))
        assert levi.max_levi(x.w, x.quotient) == frozenset({1, 2, 3})

    def test_full_flag_is_left_descents(self):
        # with no quotient the reflection test reduces to left descents
        for w in itertools.permutations(range(1, 6)):
            assert levi.max_levi(w) == weyl.left_descents(w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_length_test_exhaustively(self, n):
        # the closed form against the coset-representative length test
        for J in subsets(n):
            for w in oracles.quotient_perms(n, J):
                assert levi.max_levi(w, J) == oracles.max_levi_by_length(w, J), (w, J)

    @settings(max_examples=30)
    @given(st.data())
    def test_matches_length_test_at_ranks_7_8(self, data):
        n = data.draw(st.integers(7, 8), label="n")
        # each simple root in J or not, as in the bp draws
        inside = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1),
                           label="J")
        J = frozenset(i for i, c in enumerate(inside, 1) if c)
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        w = weyl.min_coset_rep(tuple(x), J)
        assert levi.max_levi(w, J) == oracles.max_levi_by_length(w, J)


class TestHeadCriterion:
    @pytest.mark.parametrize("theta,d,I,expected", [
        ((2, 4, 1, 3), 2, {1}, True),
        ((1, 4, 2, 3), 2, {1}, False),
        ((3, 4, 1, 2), 2, {1}, True),
    ])
    def test_frozen(self, theta, d, I, expected):
        assert levi.is_degree1_head(GrassmannSchubert(d, theta), I) is expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_reflection_test(self, n):
        # the combinatorial block criterion against the geometry-side test
        for d in range(1, n):
            J = frozenset(range(1, n)) - {d}
            for x in grassmann.all_grassmann(n, d):
                stab = levi.max_levi(x.w, J)
                for I in subsets(n):
                    assert levi.is_degree1_head(x, I) == (I <= stab)

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_reflection_test_above_the_cap(self, data):
        # max_levi is polynomial, so the comparison runs past RANK_LIMIT
        n = data.draw(st.integers(9, 14), label="n")
        d = data.draw(st.integers(1, n - 1), label="d")
        cols = data.draw(st.sets(st.integers(1, n), min_size=d, max_size=d),
                         label="columns")
        I = data.draw(st.frozensets(st.integers(1, n - 1)), label="I")
        x = GrassmannSchubert.from_columns(n, d, cols)
        stab = levi.max_levi(x.w, x.quotient)
        assert levi.is_degree1_head(x, I) == (I <= stab)
        assert levi.is_degree1_head(x, I & stab)


class TestHeadsBelow:
    def test_reference_gl4_instance(self):
        report = levi.heads_below((3, 4, 1, 2), (), {2})
        assert set(report.heads) == {
            (1, 3, 2, 4), (1, 3, 4, 2), (1, 4, 3, 2), (3, 1, 2, 4),
            (3, 1, 4, 2), (3, 2, 1, 4), (3, 4, 1, 2)}
        assert report.minimal_head == (1, 3, 2, 4)
        assert set(report.maximal_proper_heads) == {
            (1, 4, 3, 2), (3, 1, 4, 2), (3, 2, 1, 4)}

    def test_identity_with_contained_levi(self):
        report = levi.heads_below(weyl.identity(4), {1, 2}, {1})
        assert report.heads == (weyl.identity(4),)
        assert report.minimal_head == weyl.identity(4)
        assert report.maximal_proper_heads == ()

    def test_only_identity_qualifies(self):
        report = levi.heads_below((1, 6, 2, 3, 4, 5), {1, 3, 4, 5}, {1, 3, 4, 5})
        assert report.heads == (weyl.identity(6),)

    def test_heads_are_sorted_and_stable(self):
        report = levi.heads_below((3, 4, 1, 2, 5), {1, 3, 4}, {1, 2})
        lengths = [weyl.length(h) for h in report.heads]
        assert lengths == sorted(lengths)
        for h in report.heads:
            assert levi.is_stable(h, {1, 3, 4}, {1, 2})
            assert weyl.bruhat_leq(h, (3, 4, 1, 2, 5))


class TestContainsOrbit:
    def test_above_minimal_head(self):
        mh = levi.minimal_head((), {2}, 4)
        assert levi.contains_levi_orbit(mh, (), {2})
        assert levi.contains_levi_orbit((3, 4, 1, 2), (), {2})

    def test_frozen_negative_n4(self):
        assert not levi.contains_levi_orbit((1, 3, 2, 4), {1, 3}, {2, 3})

    def test_frozen_negative_n5(self):
        assert not levi.contains_levi_orbit((1, 3, 2, 4, 5), {1, 3, 4}, {2, 3})

    def test_nonempty_iff_minimal_head_below(self):
        # the minimal-head comparison against the head enumeration
        for n in range(2, 6):
            for J in subsets(n):
                for I in subsets(n):
                    for tau in weyl.quotient_reps(n, J):
                        assert levi.contains_levi_orbit(tau, J, I) == \
                            bool(levi.heads_below(tau, J, I).heads), (tau, J, I)


class TestMinimalHead:
    def test_contained_levi_gives_identity(self):
        assert levi.minimal_head({1, 3}, {1}, 4) == weyl.identity(4)
        assert levi.minimal_head({1, 3, 4, 5}, {1, 3, 4, 5}, 6) == weyl.identity(6)

    def test_frozen(self):
        assert levi.minimal_head((), {2}, 4) == (1, 3, 2, 4)
        assert levi.minimal_head({1, 3, 4}, {2, 3}, 5) == (1, 4, 2, 3, 5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_unique_minimum_of_every_head_set(self, n):
        # the head set of any stable element contains the minimal head and
        # nothing below it
        for J in subsets(n):
            reps = weyl.quotient_reps(n, J)
            stabs = {w: levi.max_levi(w, J) for w in reps}
            for I in subsets(n):
                mh = levi.minimal_head(J, I, n)
                assert I <= stabs[mh]
                for w in reps:
                    if I <= stabs[w]:
                        assert weyl.bruhat_leq(mh, w)


def boundary(w, J, I):
    """The maximal proper heads below a stable ``w``."""
    return frozenset(levi.heads_below(w, J, I).maximal_proper_heads)


class TestBoundary:
    def test_minimal_head_has_empty_boundary(self):
        mh = levi.minimal_head((), {2}, 4)
        assert boundary(mh, (), {2}) == frozenset()

    def test_reference_gl4_instance(self):
        assert boundary((3, 4, 1, 2), (), {2}) == frozenset({
            (1, 4, 3, 2), (3, 1, 4, 2), (3, 2, 1, 4)})

    def test_smooth_grassmann_case_is_homogeneous(self):
        x = grassmann.GrassmannSchubert(2, (3, 4, 1, 2, 5))
        I = levi.max_levi(x.w, x.quotient)
        assert boundary(x.w, x.quotient, I) == frozenset()

    def test_requires_stability(self):
        with pytest.raises(ValueError, match="not stable under the Levi of \\[2\\]"):
            levi.require_stable((2, 4, 1, 3), (), {2})
        assert levi.require_stable((3, 4, 1, 2), (), {2}) is None


class TestHeadReportJson:
    def test_shape(self):
        report = levi.heads_below((3, 4, 1, 2), (), {2})
        data = report.to_json()
        assert set(data) == {"heads", "minimal_head", "maximal_proper_heads"}
        assert data["minimal_head"] == [1, 3, 2, 4]
        empty = levi.heads_below((2, 1, 3), (), {2})
        assert empty.to_json()["minimal_head"] is None
