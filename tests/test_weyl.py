import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from levischubert import bp, grassmann, levi, toroidal, weyl


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

    @pytest.mark.parametrize("u,w,expected", [
        # an entry 1 opposite an entry n: the whole rank column moves at once
        ((1, 2, 3, 4, 5, 6, 7, 8), (8, 7, 6, 5, 4, 3, 2, 1), True),
        ((8, 7, 6, 5, 4, 3, 2, 1), (1, 2, 3, 4, 5, 6, 7, 8), False),
        ((8, 1, 2, 3, 4, 5, 6, 7), (1, 8, 2, 3, 4, 5, 6, 7), False),
        ((1, 8, 2, 3, 4, 5, 6, 7), (8, 1, 2, 3, 4, 5, 6, 7), True),
        ((1, 8, 2, 3, 4, 5, 6, 7), (7, 1, 2, 3, 4, 5, 6, 8), False),
        # the last position is never compared: the full prefixes balance
        ((1, 2, 3, 4, 5, 6, 7, 8), (2, 3, 4, 5, 6, 7, 8, 1), True),
        ((2, 3, 4, 5, 6, 7, 8, 1), (8, 1, 2, 3, 4, 5, 6, 7), False),
    ])
    def test_frozen_extreme_steps(self, u, w, expected):
        assert weyl.bruhat_leq(u, w) is expected
        assert oracles.rank_leq(u, w) is expected
        assert (u in oracles.subword_interval(w)) is expected

    @settings(max_examples=60)
    @given(st.data())
    def test_agrees_with_oracles_at_ranks_7_8(self, data):
        n = data.draw(st.integers(7, 8), label="n")
        w = tuple(data.draw(st.permutations(range(1, n + 1)), label="w"))
        interval = oracles.subword_interval(w)
        # half the draws from the interval, so both verdicts occur
        if data.draw(st.booleans(), label="from interval"):
            u = data.draw(st.sampled_from(sorted(interval)), label="u")
        else:
            u = tuple(data.draw(st.permutations(range(1, n + 1)), label="u"))
        assert weyl.bruhat_leq(u, w) == oracles.rank_leq(u, w) == (u in interval)

    def test_rank_oracle_agrees_with_subword_oracle(self):
        perms = list(itertools.permutations(range(1, 5)))
        for w in perms:
            interval = oracles.subword_interval(w)
            for u in perms:
                assert oracles.rank_leq(u, w) == (u in interval), (u, w)


class TestCompose:
    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            weyl.compose((2, 1), (1, 2, 3))


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


class TestPositionBlocks:
    #: every (J, n) with n <= RANK_LIMIT: 2^(n-1) subsets J at each rank n
    SMALL = [(frozenset(J), n) for n in range(1, weyl.RANK_LIMIT + 1)
             for r in range(n) for J in itertools.combinations(range(1, n), r)]

    def test_memo_is_bounded_and_holds_every_rank_up_to_the_cap(self):
        maxsize = weyl._position_blocks.cache_info().maxsize
        assert len(self.SMALL) == 255
        assert maxsize is not None and maxsize >= len(self.SMALL)

    def test_against_block_lists_cold_and_warm(self):
        weyl._position_blocks.cache_clear()
        for _ in ("cold", "warm"):
            for J, n in self.SMALL:
                got = weyl._position_blocks(J, n)
                assert type(got) is tuple and all(type(b) is tuple for b in got)
                assert ([list(range(lo, hi + 1)) for lo, hi in got]
                        == oracles.position_block_lists(J, n))
        info = weyl._position_blocks.cache_info()
        assert (info.misses, info.hits, info.currsize) == (255, 255, 255)


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

    @settings(max_examples=80)
    @given(st.data())
    def test_matches_length_oracle_at_ranks_7_8(self, data):
        n = data.draw(st.integers(7, 8), label="n")
        # |J| uniform, so long position blocks are drawn as often as short
        size = data.draw(st.integers(0, n - 1), label="|J|")
        J = data.draw(st.frozensets(st.integers(1, n - 1), min_size=size, max_size=size),
                      label="J")
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        w = weyl.min_coset_rep(tuple(x), J)
        assert weyl.lower_covers(w, J) == oracles.covers_by_length(w, J)

    @pytest.mark.parametrize("w,J,count", [
        # w0: only adjacent swaps have nothing in between
        ((12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (), 11),
        ((5, 12, 3, 9, 1, 11, 7, 2, 10, 4, 8, 6), (), 18),
        ((3, 7, 12, 1, 5, 9, 11, 2, 4, 6, 8, 10), {1, 2, 4, 5, 6, 8, 9, 10, 11}, 8),
        ((2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1), (), 11),
    ])
    def test_matches_length_oracle_at_rank_12(self, w, J, count):
        covers = weyl.lower_covers(w, J)
        assert covers == oracles.covers_by_length(w, J)
        assert len(covers) == count

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_interval_count_exhaustively(self, n):
        for J in subsets(n):
            for w in oracles.quotient_perms(n, J):
                assert weyl.poincare_polynomial(w, J) == interval_count(w, J), (w, J)

    @settings(max_examples=40)
    @given(st.data())
    def test_support_blocks_at_ranks_6_7(self, data):
        # w inside a proper W_K, so the product over support blocks runs,
        # and W^J is scanned only at the smaller ranks of those blocks
        n = data.draw(st.integers(6, 7), label="n")
        K = data.draw(st.frozensets(st.integers(1, n - 1), max_size=n - 2), label="K")
        J = data.draw(st.frozensets(st.integers(1, n - 1)), label="J")
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        w = weyl.min_coset_rep(in_parabolic(x, K), J)
        scanned = []
        fn = weyl._quotient_reps
        weyl._poincare.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weyl, "_quotient_reps",
                       lambda m, L: scanned.append(m) or fn(m, L))
            got = weyl.poincare_polynomial(w, J)
        weyl._poincare.cache_clear()
        assert got == interval_count(w, J)
        assert all(m < n for m in scanned)


def subsets(n):
    return [frozenset(c) for r in range(n)
            for c in itertools.combinations(range(1, n), r)]


def interval_count(w, J):
    """The Poincare polynomial of ``w`` in ``W^J`` by brute force: lengths
    of the subword interval, filtered to ``W^J``."""
    coeffs = [0] * (oracles.inv_count(w) + 1)
    for x in oracles.subword_interval(w):
        if not any(x[j - 1] > x[j] for j in J):
            coeffs[oracles.inv_count(x)] += 1
    return tuple(coeffs)


def in_parabolic(x, K):
    """The element of ``W_K`` whose position blocks of ``K`` hold the values
    of that block in the relative order of ``x`` there."""
    out = []
    for block in oracles.position_block_lists(K, len(x)):
        ranks = sorted(x[p - 1] for p in block)
        out += [block[0] + ranks.index(x[p - 1]) for p in block]
    return tuple(out)


W9 = (9, 8, 7, 6, 5, 4, 3, 2, 1)
W12 = (6, 2, 5, 4, 3, 1, *range(7, 13))
X12 = grassmann.GrassmannSchubert(3, (2, 6, 9, 1, 3, 4, 5, 7, 8, 10, 11, 12))
SMOOTH12 = grassmann.GrassmannSchubert(3, (1, 5, 6, *range(2, 5), *range(7, 13)))
I12 = levi.max_levi(W12)
IX12 = levi.max_levi(X12.w, X12.quotient)

#: the entries README lists as enumerating, on an instance at rank 9
CAPPED = {
    "weyl.quotient_reps": lambda: weyl.quotient_reps(9, set(range(1, 9)) - {4}),
    "weyl.poincare_polynomial": lambda: weyl.poincare_polynomial(W9),
    "weyl.poincare_polynomial_split": lambda: weyl.poincare_polynomial(
        (2, 1, *range(3, 10))),
    "grassmann.all_grassmann": lambda: list(grassmann.all_grassmann(9, 4)),
    "levi.heads_below": lambda: levi.heads_below(W9, (), {2}),
    "bp.poincare_factorizes": lambda: bp.poincare_factorizes(
        bp.decompose(W9, (), {1, 2, 3})),
}

#: the entries README lists as running at any rank, on an instance at rank 12
UNCAPPED = {
    "weyl.length": lambda: weyl.length(W12),
    "weyl.reduced_word": lambda: weyl.reduced_word(W12),
    "weyl.bruhat_leq": lambda: weyl.bruhat_leq(X12.w, W12),
    "weyl.min_coset_rep": lambda: weyl.min_coset_rep(W12, {1, 3, 4}),
    "weyl.lower_covers": lambda: weyl.lower_covers(W12, ()),
    "levi.max_levi": lambda: levi.max_levi(W12),
    "levi.is_degree1_head": lambda: levi.is_degree1_head(X12, IX12),
    "levi.minimal_head": lambda: levi.minimal_head((), I12, 12),
    "grassmann.run_divisors": lambda: grassmann.run_divisors(X12),
    "toroidal.divisor_checks": lambda: toroidal.divisor_checks(W12, (), I12),
    "toroidal.toroidal_necessary": lambda: toroidal.toroidal_necessary(X12, IX12),
    "toroidal.unique_head_check": lambda: toroidal.unique_head_check(SMOOTH12),
    "toroidal.no_stable_divisor_check": lambda: toroidal.no_stable_divisor_check(X12),
    "bp.decompose": lambda: bp.decompose(W12, (), {1, 2, 3}),
    "bp.is_bp_maximality": lambda: bp.is_bp_maximality(bp.decompose(W12, (), {1, 2, 3})),
    "bp.is_bp_support": lambda: bp.is_bp_support(bp.decompose(W12, (), {1, 2, 3})),
    "bp.project_divisors": lambda: bp.project_divisors(bp.decompose(W12, (), {1, 2, 3})),
    "bp.nontoroidal_transport": lambda: bp.nontoroidal_transport(W12, (), I12),
}


class TestRankLimit:
    def test_quotient_reps_capped(self):
        # the cap holds however small W^J is: W^{1..8} has one element
        for J in ((), {1, 3, 5, 7}, range(1, 9)):
            with pytest.raises(weyl.RankLimitError):
                weyl.quotient_reps(9, J)

    @pytest.mark.parametrize("call", CAPPED.values(), ids=CAPPED.keys())
    def test_enumerating_entries_capped(self, call):
        # splitting w by its support does not lift the cap either
        with pytest.raises(weyl.RankLimitError, match="rank 9 exceeds"):
            call()

    @pytest.mark.parametrize("call", UNCAPPED.values(), ids=UNCAPPED.keys())
    def test_polynomial_entries_answer_past_the_cap(self, call):
        assert call() is not None

    def test_limit_is_a_value_error(self):
        assert issubclass(weyl.RankLimitError, ValueError)

