import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from levischubert import weyl


class TestLength:
    @pytest.mark.parametrize("w,expected", [
        ((1, 2, 3, 4), 0),
        ((3, 4, 1, 2), 4),
        ((3, 2, 1), 3),
    ])
    def test_frozen(self, w, expected):
        assert weyl.length(w) == expected

    def test_matches_cayley_distance(self):
        for w in itertools.permutations(range(1, 5)):
            assert weyl.length(w) == oracles.bfs_length(w)


class TestBruhat:
    def test_identity_below_everything(self):
        assert weyl.bruhat_leq((1, 2, 3), (3, 2, 1))

    def test_frozen(self):
        assert weyl.bruhat_leq((2, 4, 1, 3), (3, 4, 1, 2))
        assert not weyl.bruhat_leq((3, 4, 1, 2), (2, 4, 1, 3))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            weyl.bruhat_leq((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_subword_oracle(self, n):
        perms = list(itertools.permutations(range(1, n + 1)))
        for w in perms:
            interval = oracles.subword_interval(w)
            for u in perms:
                assert weyl.bruhat_leq(u, w) == (u in interval), (u, w)

    def test_rank_oracle_agrees_with_subword_oracle(self):
        perms = list(itertools.permutations(range(1, 5)))
        for w in perms:
            interval = oracles.subword_interval(w)
            for u in perms:
                assert oracles.rank_leq(u, w) == (u in interval), (u, w)


class TestDescentsSupport:
    def test_frozen(self):
        assert weyl.right_descents((1, 2, 3)) == frozenset()
        assert weyl.right_descents((3, 4, 1, 2)) == frozenset({2})
        assert weyl.left_descents((3, 4, 1, 2)) == frozenset({2})

    def test_descents_via_length_drop(self):
        for w in itertools.permutations(range(1, 5)):
            lw = weyl.length(w)
            right = {i for i in range(1, 4)
                     if weyl.length(oracles.swap_positions(w, i)) < lw}
            left = {i for i in range(1, 4)
                    if weyl.length(oracles.swap_values(w, i)) < lw}
            assert weyl.right_descents(w) == right
            assert weyl.left_descents(w) == left

    def test_support_frozen(self):
        assert weyl.support((1, 2, 3)) == frozenset()
        assert weyl.support((2, 1, 3)) == frozenset({1})
        assert weyl.support((3, 4, 1, 2)) == frozenset({1, 2, 3})

    def test_support_is_reduced_word_letters(self):
        for w in itertools.permutations(range(1, 6)):
            assert weyl.support(w) == frozenset(oracles.a_reduced_word(w))


def spell(word, n):
    """The product of the simple transpositions of ``word``, left to right."""
    x = oracles.ident(n)
    for i in word:
        x = oracles.swap_positions(x, i)
    return x


class TestReducedWord:
    def test_frozen(self):
        assert weyl.reduced_word((1, 2, 3)) == ()
        assert weyl.reduced_word((3, 2, 1)) == (1, 2, 1)
        assert weyl.reduced_word((3, 4, 1, 2)) == (2, 1, 3, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_spells_w_with_length_letters(self, n):
        for w in itertools.permutations(range(1, n + 1)):
            word = weyl.reduced_word(w)
            assert len(word) == oracles.inv_count(w)
            assert spell(word, n) == w

    @settings(max_examples=50)
    @given(st.integers(9, 14).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_spells_w_above_the_cap(self, w):
        word = weyl.reduced_word(tuple(w))
        assert len(word) == oracles.inv_count(w)
        assert spell(word, len(w)) == tuple(w)


class TestCosetReps:
    def test_frozen(self):
        assert weyl.min_coset_rep((1, 2, 3), {1, 2}) == (1, 2, 3)
        assert weyl.min_coset_rep((3, 2, 1), {1}) == (2, 3, 1)
        assert weyl.min_coset_rep((3, 4, 1, 2), {2}) == (3, 1, 4, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_coset_enumeration(self, n):
        subsets = [frozenset(c) for r in range(n)
                   for c in itertools.combinations(range(1, n), r)]
        for J in subsets:
            for w in itertools.permutations(range(1, n + 1)):
                v = weyl.min_coset_rep(w, J)
                assert v == oracles.coset_min(w, J)
                # idempotent, below w, lengths add across the factorization
                assert weyl.min_coset_rep(v, J) == v
                assert weyl.bruhat_leq(v, w)
                rest = weyl.compose(weyl.inverse(v), w)
                assert weyl.length(w) == weyl.length(v) + weyl.length(rest)

    def test_longest_frozen(self):
        assert weyl.longest_element((), 3) == (1, 2, 3)
        assert weyl.longest_element({1, 2}, 3) == (3, 2, 1)
        assert weyl.longest_element({1, 3, 4, 5}, 6) == (2, 1, 6, 5, 4, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_longest_against_enumeration(self, n):
        for r in range(n):
            for c in itertools.combinations(range(1, n), r):
                J = frozenset(c)
                if J:
                    assert weyl.longest_element(J, n) == oracles.coset_longest(J, n)

    def test_parabolic_elements(self):
        # uncalled in the package, but its cache is still read by name
        for n in range(1, 6):
            for r in range(n):
                for J in itertools.combinations(range(1, n), r):
                    got = weyl._parabolic_elements(n, frozenset(J))
                    assert got == tuple(sorted(oracles.parabolic_group(J, n)))
                    assert all(weyl.in_parabolic(x, J) for x in got)


class TestQuotientReps:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_filter_oracle_in_order(self, n):
        for r in range(n):
            for J in itertools.combinations(range(1, n), r):
                assert list(weyl.quotient_reps(n, J)) == oracles.quotient_perms(n, J)

    @settings(max_examples=20)
    @given(st.sets(st.integers(min_value=1, max_value=7)))
    def test_matches_filter_oracle_at_rank_8(self, J):
        assert list(weyl.quotient_reps(8, J)) == oracles.quotient_perms(8, J)


class TestLowerCovers:
    def test_identity_has_none(self):
        assert weyl.lower_covers((1, 2, 3)) == frozenset()

    def test_frozen(self):
        assert weyl.lower_covers((3, 4, 1, 2)) == frozenset({
            (1, 4, 3, 2), (2, 4, 1, 3), (3, 1, 4, 2), (3, 2, 1, 4)})
        assert weyl.lower_covers((2, 4, 1, 3, 5), {1, 3, 4}) == frozenset({
            (1, 4, 2, 3, 5), (2, 3, 1, 4, 5)})

    def test_rejects_non_representative(self):
        with pytest.raises(ValueError):
            weyl.lower_covers((2, 1, 3), {1})

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_subword_filter(self, n):
        subsets = [frozenset(c) for r in range(n)
                   for c in itertools.combinations(range(1, n), r)]
        for J in subsets:
            for w in weyl.quotient_reps(n, J):
                covers = weyl.lower_covers(w, J)
                assert covers == oracles.covers_below(w, J, n)
                for tau in covers:
                    assert weyl.bruhat_leq(tau, w) and tau != w
                    assert weyl.length(tau) == weyl.length(w) - 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_no_intermediate_element(self, n):
        subsets = [frozenset(c) for r in range(n)
                   for c in itertools.combinations(range(1, n), r)]
        for J in subsets:
            reps = weyl.quotient_reps(n, J)
            for w in reps:
                for tau in weyl.lower_covers(w, J):
                    assert not any(
                        z != tau and z != w
                        and weyl.bruhat_leq(tau, z) and weyl.bruhat_leq(z, w)
                        for z in reps)


class TestPoincare:
    def test_frozen(self):
        assert weyl.poincare_polynomial((1, 2, 3)) == (1,)
        assert weyl.poincare_polynomial((3, 2, 1)) == (1, 2, 2, 1)
        assert weyl.poincare_polynomial((2, 3, 1), {1}) == (1, 1, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_full_group_product_formula(self, n):
        w0 = tuple(range(n, 0, -1))
        expected = (1,)
        for k in range(1, n + 1):
            expected = weyl.poly_mul(expected, (1,) * k)
        assert weyl.poincare_polynomial(w0) == expected

    def test_normalization(self):
        for w in itertools.permutations(range(1, 5)):
            p = weyl.poincare_polynomial(w)
            assert p[0] == 1 and p[-1] == 1
            assert len(p) - 1 == weyl.length(w)

    def test_rejects_non_representative(self):
        with pytest.raises(ValueError):
            weyl.poincare_polynomial((2, 1, 3), {1})

    def test_palindromic(self):
        assert weyl.is_palindromic((1, 2, 1))
        assert not weyl.is_palindromic((1, 2, 2))


class TestRankLimit:
    def test_quotient_reps_capped(self):
        # the cap holds however small W^J is: W^{1..8} has one element
        for J in ((), {1, 3, 5, 7}, range(1, 9)):
            with pytest.raises(weyl.RankLimitError):
                weyl.quotient_reps(9, J)

    def test_limit_is_a_value_error(self):
        assert issubclass(weyl.RankLimitError, ValueError)


class TestWireFormat:
    def test_round_trip(self):
        assert weyl.parse_perm("3,4,1,2") == (3, 4, 1, 2)
        for w in itertools.permutations(range(1, 5)):
            assert weyl.parse_perm(",".join(map(str, w))) == w
        assert weyl.parse_parabolic("1,3,4", 6) == frozenset({1, 3, 4})
        assert weyl.parse_parabolic("", 6) == frozenset()
        for J in ({1}, {1, 3, 4}, {2, 5}):
            assert weyl.parse_parabolic(",".join(map(str, sorted(J))), 6) == J

    @pytest.mark.parametrize("text", ["3,3,1,2", "0,1", "a,b", "1,2,4"])
    def test_bad_permutations(self, text):
        with pytest.raises(ValueError):
            weyl.parse_perm(text)

    @pytest.mark.parametrize("text", ["0", "6", "x"])
    def test_bad_indices(self, text):
        with pytest.raises(ValueError):
            weyl.parse_parabolic(text, 6)
