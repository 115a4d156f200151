import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from levischubert import grassmann, weyl
from levischubert.grassmann import GrassmannSchubert


class TestConstruction:
    def test_round_trip(self):
        x = GrassmannSchubert(2, oracles.grassmann_perm(6, [6, 2]))
        assert x.w == (2, 6, 1, 3, 4, 5)
        assert x.columns == (2, 6)
        assert x.quotient == frozenset({1, 3, 4, 5})

    @pytest.mark.parametrize("d,w", [
        (0, (1, 2, 3)),
        (3, (1, 2, 3)),
        (2, (3, 1, 2, 4)),      # descent inside the window
        (2, (1, 4, 3, 2)),      # descent inside the suffix
        (1, (1, 1, 2)),
    ])
    def test_rejects_invalid(self, d, w):
        with pytest.raises(ValueError):
            GrassmannSchubert(d, w)

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_rejects_rank_0_by_its_rank(self, d):
        # the rank is read before the descent position is measured against it
        with pytest.raises(ValueError, match=r"^rank n=0 must be positive$"):
            GrassmannSchubert(d, ())

    @pytest.mark.parametrize("d", [0, 4, 7])
    def test_all_grassmann_rejects_descent_out_of_range(self, d):
        # refused, not answered with no element
        with pytest.raises(ValueError, match="must satisfy 1 <= d < 4"):
            list(grassmann.all_grassmann(4, d))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_all_grassmann_lists_the_quotient_in_order(self, n):
        # S_n^d is W^J for J every index but d, filtered out of all of S_n
        for d in range(1, n):
            got = [x.w for x in grassmann.all_grassmann(n, d)]
            assert got == oracles.quotient_perms(n, set(range(1, n)) - {d})
            assert len(got) == math.comb(n, d)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_grassmann_equals_validated_constructions(self, n):
        # each value is built unchecked from weyl._quotient_reps
        for d in range(1, n):
            for x in grassmann.all_grassmann(n, d):
                expected = GrassmannSchubert(d, x.w)
                assert x.__dict__ == expected.__dict__
                assert list(x.__dict__) == ["d", "w"]
                assert x == expected and hash(x) == hash(expected)
                assert type(x.d) is int and type(x.w) is tuple

    def test_all_grassmann_skips_the_validation(self, monkeypatch):
        calls = []
        fn = GrassmannSchubert.__post_init__
        monkeypatch.setattr(GrassmannSchubert, "__post_init__",
                            lambda self: calls.append(1) or fn(self))
        xs = list(grassmann.all_grassmann(6, 3))
        assert len(xs) == 20 and calls == []
        with pytest.raises(dataclasses.FrozenInstanceError):
            xs[0].d = 2
        with pytest.raises(ValueError):
            GrassmannSchubert(3, (1, 4, 2, 3, 5, 6))
        assert calls == [1]

    def test_json_shape(self):
        assert GrassmannSchubert(2, (3, 4, 1, 2)).to_json() == {
            "n": 4, "d": 2, "w": [3, 4, 1, 2]}


class TestRuns:
    @pytest.mark.parametrize("d,w,expected", [
        (2, (3, 4, 1, 2, 5), (3,)),
        (2, (2, 6, 1, 3, 4, 5), (2, 6)),
        (3, (1, 2, 3, 4, 5), (1,)),
    ])
    def test_frozen(self, d, w, expected):
        assert grassmann.run_starts(GrassmannSchubert(d, w)) == expected

    def test_runs_cover_columns_with_gaps(self):
        # a run ends at the column just before the next run start
        for n in range(2, 8):
            for d in range(1, n):
                for x in grassmann.all_grassmann(n, d):
                    starts = grassmann.run_starts(x)
                    ends = [x.columns[x.columns.index(b) - 1] for b in starts[1:]]
                    ends.append(x.columns[-1])
                    rebuilt = [c for a, e in zip(starts, ends) for c in range(a, e + 1)]
                    assert tuple(rebuilt) == x.columns
                    assert all(e + 1 < a2 for e, a2 in zip(ends, starts[1:]))


class TestDimension:
    """The dimension of a Grassmannian Schubert variety is the length of
    its index: ``sum(w_i - i)`` over the column window."""

    @pytest.mark.parametrize("d,w,expected", [
        (2, (1, 2, 3, 4), 0),
        (3, (2, 3, 6, 1, 4, 5), 5),
        (2, (3, 4, 1, 2), 4),
    ])
    def test_frozen(self, d, w, expected):
        assert weyl.length(GrassmannSchubert(d, w).w) == expected

    def test_equals_length(self):
        for n in range(2, 8):
            for d in range(1, n):
                for x in grassmann.all_grassmann(n, d):
                    window = sum(v - i for i, v in enumerate(x.columns, start=1))
                    assert window == weyl.length(x.w)


def divisors(x):
    return {div for _, div in grassmann.run_divisors(x)}


class TestDivisors:
    @pytest.mark.parametrize("d,w,expected_columns", [
        (3, (2, 3, 6, 1, 4, 5), {(1, 3, 6), (2, 3, 5)}),
        (2, (1, 4, 2, 3, 5), {(1, 3)}),
        (2, (2, 6, 1, 3, 4, 5), {(1, 6), (2, 5)}),
    ])
    def test_frozen(self, d, w, expected_columns):
        divs = divisors(GrassmannSchubert(d, w))
        assert {div[:d] for div in divs} == expected_columns

    def test_identity_has_no_divisors(self):
        # the identity indexes a point
        assert grassmann.run_divisors(GrassmannSchubert(2, (1, 2, 3))) == ()

    def test_divisors_drop_dimension_by_one(self):
        x = GrassmannSchubert(3, (2, 3, 6, 1, 4, 5))
        for div in divisors(x):
            assert weyl.length(div) == weyl.length(x.w) - 1
            assert weyl.bruhat_leq(div, x.w)

    def test_equals_lower_covers(self):
        # run replacement reproduces the quotient covers exactly, and each
        # divisor is the Grassmann permutation of its column set
        for n in range(2, 8):
            for d in range(1, n):
                for x in grassmann.all_grassmann(n, d):
                    divs = divisors(x)
                    assert divs == weyl.lower_covers(x.w, x.quotient)
                    assert all(
                        GrassmannSchubert(d, oracles.grassmann_perm(n, div[:d])).w == div
                        for div in divs)

    @settings(max_examples=60)
    @given(st.data())
    def test_equals_lower_covers_at_ranks_9_14(self, data):
        # both sides are polynomial, so ranks past the enumeration cap work
        n = data.draw(st.integers(9, 14), label="n")
        d = data.draw(st.integers(1, n - 1), label="d")
        cols = data.draw(st.sets(st.integers(1, n), min_size=d, max_size=d),
                         label="columns")
        x = GrassmannSchubert(d, oracles.grassmann_perm(n, cols))
        assert divisors(x) == weyl.lower_covers(x.w, x.quotient)

    def test_builds_no_grassmann_schubert(self, monkeypatch):
        # a divisor is s_{a-1} * w, not a validated GrassmannSchubert
        x = GrassmannSchubert(3, (2, 3, 6, 1, 4, 5))
        calls = []
        fn = GrassmannSchubert.__post_init__
        monkeypatch.setattr(GrassmannSchubert, "__post_init__",
                            lambda self: calls.append(1) or fn(self))
        assert len(grassmann.run_divisors(x)) == 2
        assert calls == []

    def test_run_divisors_indexing(self):
        x = GrassmannSchubert(2, (1, 4, 2, 3, 5))
        assert grassmann.run_divisors(x) == ((2, (1, 3, 2, 4, 5)),)


class TestSmoothForm:
    @pytest.mark.parametrize("d,w,expected", [
        (2, (3, 4, 1, 2, 5), (0, 3)),
        (3, (1, 2, 5, 3, 4, 6), (2, 5)),
        (2, (2, 6, 1, 3, 4, 5), None),
    ])
    def test_frozen(self, d, w, expected):
        # expected is the (p, m) of the pattern {1..p} | {m, ..., m + d - p - 1}
        x = GrassmannSchubert(d, w)
        assert grassmann.is_smooth(x) == (expected is not None)
        if expected is not None:
            p, m = expected
            assert x.columns == tuple(range(1, p + 1)) + tuple(range(m, m + d - p))

    def test_identity_counts_as_smooth(self):
        assert grassmann.is_smooth(GrassmannSchubert(2, (1, 2, 3, 4)))

    def test_iff_palindromic(self):
        # rational smoothness via the rank generating function; small ranks
        # here, the full bound runs in the acceptance suite
        for n in range(2, 7):
            for d in range(1, n):
                for x in grassmann.all_grassmann(n, d):
                    smooth = grassmann.is_smooth(x)
                    pal = weyl.is_palindromic(
                        weyl.poincare_polynomial(x.w, x.quotient))
                    assert smooth == pal, x
