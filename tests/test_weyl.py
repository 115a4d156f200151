import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from levischubert import bp, grassmann, levi, sweeps, toroidal, weyl


class TestLength:
    @pytest.mark.parametrize("w,expected", [
        ((1, 2, 3, 4), 0),
        ((3, 4, 1, 2), 4),
        ((3, 2, 1), 3),
        ((), 0),
        ((1,), 0),
    ])
    def test_frozen(self, w, expected):
        assert weyl.length(w) == expected

    def test_matches_cayley_distance(self):
        for w in itertools.permutations(range(1, 5)):
            assert weyl.length(w) == oracles.bfs_length(w)

    @settings(max_examples=200)
    @given(st.integers(9, 16).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)))
    def test_matches_inversion_count_above_the_cap(self, w):
        # length enumerates nothing, so it answers at any rank
        assert weyl.length(w) == oracles.inv_count(w)


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

    def test_descents_via_length_drop(self):
        # left descents are levi.max_levi(w), checked against
        # oracles.left_descents_by_length in test_levi.py
        for w in itertools.permutations(range(1, 5)):
            lw = weyl.length(w)
            right = {i for i in range(1, 4)
                     if weyl.length(oracles.swap_positions(w, i)) < lw}
            assert weyl.right_descents(w) == right

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

    def test_refuses_a_non_permutation(self):
        # sorting the block {1, 2} of (3, 3, 1) would hand it back unchanged
        with pytest.raises(ValueError, match=r"\(3, 3, 1\) is not a permutation"):
            weyl.min_coset_rep((3, 3, 1), {1})

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_coset_enumeration(self, n):
        for J in oracles.subsets(range(1, n)):
            for w in itertools.permutations(range(1, n + 1)):
                v = weyl.min_coset_rep(w, J)
                assert v == oracles.coset_min(w, J)
                # idempotent, below w, lengths add across the factorization
                assert weyl.min_coset_rep(v, J) == v
                assert weyl.bruhat_leq(v, w)
                rest = weyl.compose(weyl.inverse(v), w)
                assert weyl.length(w) == weyl.length(v) + weyl.length(rest)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_lengths_match_inversion_count(self, n):
        # every listed element lies below the top of W^J, so the prefix-set
        # DP at the top grades the whole listing: its per-block rule,
        # sum(c_k) - s(s - 1)/2, must give each element its inversion count
        for J in oracles.subsets(range(1, n)):
            assert weyl._prefix_dp(top_of(n, J), J) == graded(weyl.quotient_reps(n, J)), J

    @settings(max_examples=20)
    @given(st.frozensets(st.integers(min_value=1, max_value=7)))
    def test_lengths_match_inversion_count_at_rank_8(self, J):
        assert weyl._prefix_dp(top_of(8, J), J) == graded(weyl.quotient_reps(8, J))

    def test_lengths_are_exact_past_a_byte(self):
        # the DP has no rank cap: W^J of Gr(n - 1, n) (a J-block, then a
        # free position) and of Gr(1, n) (a free position, then a J-block)
        # holds one element of each length 0..n - 1, so the polynomial of
        # its top has n coefficients 1, with exponents past 255
        for n in (256, 257):
            for J in (frozenset(range(1, n - 1)), frozenset(range(2, n))):
                assert weyl._prefix_dp(top_of(n, J), J) == (1,) * n

    def test_trailing_free_run_takes_permutations(self, monkeypatch):
        # a trailing run of free positions is filled by permutations of the
        # values left, not by one combination per position
        calls = []

        class Spy:
            def __getattr__(self, name):
                return getattr(itertools, name)

            def permutations(self, values):
                calls.append(("permutations", len(values)))
                return itertools.permutations(values)

            def combinations(self, values, r):
                calls.append(("combinations", r))
                return itertools.combinations(values, r)

        J = frozenset({1, 2})  # blocks {1, 2, 3}, {4}, {5}, {6}
        expected = (tuple(itertools.permutations(range(1, 7))),
                    tuple(oracles.quotient_perms(6, J)))
        monkeypatch.setattr(weyl, "itertools", Spy())
        reps = weyl._quotient_reps.__wrapped__
        assert reps(6, frozenset()) == expected[0]
        assert calls == [("permutations", 6)]
        calls.clear()
        assert reps(6, J) == expected[1]
        # one permutations call of the run of three per first-block choice
        assert [c for c in calls if c[0] == "permutations"] == [("permutations", 3)] * 20


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
        for J in oracles.subsets(range(1, n)):
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
        for J in oracles.subsets(range(1, n)):
            reps = weyl.quotient_reps(n, J)
            for w in reps:
                for tau in weyl.lower_covers(w, J):
                    assert not any(
                        z != tau and z != w
                        and weyl.bruhat_leq(tau, z) and weyl.bruhat_leq(z, w)
                        for z in reps)

    def test_tests_only_the_moved_positions(self, monkeypatch):
        # a swap of positions i < j keeps an element of W^J inside W^J
        # unless it breaks a block next to i or next to j, so the scan
        # builds no descent set
        cases = [(w, J) for J in oracles.subsets(range(1, 6))
                 for w in weyl.quotient_reps(6, J)]
        calls = []
        fn = weyl.right_descents
        monkeypatch.setattr(weyl, "right_descents", lambda w: calls.append(w) or fn(w))
        for w, J in cases:
            assert weyl._lower_covers(w, J) == oracles.covers_by_length(w, J), (w, J)
        assert len(cases) == 4683 and calls == []


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
        for J in oracles.subsets(range(1, n)):
            for w in oracles.quotient_perms(n, J):
                assert weyl.poincare_polynomial(w, J) == interval_count(w, J), (w, J)

    @settings(max_examples=40)
    @given(st.data())
    def test_support_blocks_at_ranks_6_7(self, data):
        # w inside a proper W_K, so the product over support blocks runs,
        # and the prefix-set DP runs only at the smaller ranks of those blocks
        n = data.draw(st.integers(6, 7), label="n")
        K = data.draw(st.frozensets(st.integers(1, n - 1), max_size=n - 2), label="K")
        J = data.draw(st.frozensets(st.integers(1, n - 1)), label="J")
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        w = weyl.min_coset_rep(in_parabolic(x, K), J)
        ranks = []
        fn = weyl._prefix_dp
        weyl._poincare.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weyl, "_prefix_dp",
                       lambda u, L: ranks.append(len(u)) or fn(u, L))
            got = weyl.poincare_polynomial(w, J)
        weyl._poincare.cache_clear()
        assert got == interval_count(w, J)
        assert all(m < n for m in ranks)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_support_split_skips_one_position_blocks(self, n):
        # every _poincare call, its own recursion included, seen through a
        # wrapper: the split recurses on each support block of rank 2 or
        # more and never on one of rank 1; (2, 1, 3, 5, 4) has support
        # {1, 4}, so blocks [1, 2], [3], [4, 5], and recurses on (2, 1) twice
        fn = weyl._poincare
        for J in oracles.subsets(range(1, n)):
            for w in oracles.quotient_perms(n, J):
                calls = []
                weyl._poincare.cache_clear()
                try:
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(weyl, "_poincare",
                                   lambda u, L: calls.append(len(u)) or fn(u, L))
                        weyl.poincare_polynomial(w, J)
                finally:
                    weyl._poincare.cache_clear()
                sizes = [hi - lo + 1 for lo, hi in
                         weyl._position_blocks(weyl.support(w), n)]
                expected = [] if len(sizes) == 1 else [m for m in sizes if m > 1]
                assert calls == [n] + expected, (w, J)

    @staticmethod
    def dp(w, J):
        """``poincare_polynomial(w, J)``, cold, for a ``w`` of full support
        in ``W^J``: the support split does not answer, so the prefix-set DP
        does.  It lists no ``W^J`` and makes no Bruhat test.  Every block
        reads one bound, ``c_k <= b_k`` on the chosen indices, from one scan
        of a state's unused values: the new prefix set lies below ``w``'s
        in Gale order iff, for every value ``v``, the unused values ``<= v``
        left unchosen are at most the values ``<= v`` outside ``w``'s."""
        listed, tests = [], []
        fn, leq = weyl._quotient_reps, weyl.bruhat_leq
        weyl._poincare.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(weyl, "_quotient_reps",
                           lambda *a: listed.append(a) or fn(*a))
                mp.setattr(weyl, "bruhat_leq",
                           lambda u, v: tests.append((u, v)) or leq(u, v))
                got = weyl.poincare_polynomial(w, J)
        finally:
            weyl._poincare.cache_clear()
        assert listed == [] and tests == []
        return got

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_full_support_scan_exhaustively(self, n):
        for J in oracles.subsets(range(1, n)):
            if len(J) > n - 3:
                continue
            for w in oracles.quotient_perms(n, J):
                if full_support(w):
                    assert self.dp(w, J) == interval_count(w, J), (w, J)

    @settings(max_examples=40)
    @given(st.data())
    def test_full_support_scan_at_ranks_7_8(self, data):
        n = data.draw(st.integers(7, 8), label="n")
        size = data.draw(st.integers(0, n - 3), label="|J|")
        J = data.draw(st.frozensets(st.integers(1, n - 1), min_size=size, max_size=size),
                      label="J")
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        w = weyl.min_coset_rep(tuple(x), J)
        assume(full_support(w))
        assert self.dp(w, J) == interval_count(w, J)

    def test_no_length_and_no_bruhat_test(self, monkeypatch):
        # the slowest bp query's w: 1,260 elements of W^J, 672 below w,
        # which the scan tested one by one; the DP counts no inversions and
        # makes no Bruhat test, in the blocks it builds states for and in
        # the last, counted as Young diagrams
        w, J = (4, 6, 5, 7, 2, 3, 1), frozenset({1, 5})
        calls = {"length": 0, "bruhat_leq": 0}
        for name in calls:
            fn = getattr(weyl, name)

            def counted(*a, fn=fn, name=name):
                calls[name] += 1
                return fn(*a)
            monkeypatch.setattr(weyl, name, counted)
        got = self.dp(w, J)
        assert got == interval_count(w, J) and sum(got) == 672
        assert len(oracles.quotient_perms(7, J)) == 1260
        assert calls == {"length": 0, "bruhat_leq": 0}

    @pytest.mark.parametrize("n,count", [(3, 5), (4, 33), (5, 269), (6, 2585)])
    def test_dp_matches_scan_oracle_exhaustively(self, n, count):
        # every (w, J) that reaches the DP through poincare_polynomial
        pairs = [(w, J) for J in oracles.subsets(range(1, n)) if len(J) <= n - 2
                 for w in oracles.quotient_perms(n, J) if full_support(w)]
        assert len(pairs) == count
        for w, J in pairs:
            assert weyl._prefix_dp(w, J) == oracles.poincare_scan(w, J), (w, J)

    @settings(max_examples=30)
    @given(st.data())
    def test_dp_matches_scan_oracle_at_ranks_7_8(self, data):
        # any w of W^J: the DP answers whatever the support or J
        n = data.draw(st.integers(7, 8), label="n")
        size = data.draw(st.integers(0, n - 1), label="|J|")
        J = data.draw(st.frozensets(st.integers(1, n - 1), min_size=size, max_size=size),
                      label="J")
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        w = weyl.min_coset_rep(tuple(x), J)
        assert weyl._prefix_dp(w, J) == oracles.poincare_scan(w, J)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_block_end_prefixes_decide_bruhat_order(self, n):
        # the criterion the DP reads: x <= w in W^J iff at each block end
        # e < n the prefix set of x lies below that of w in Gale order, and
        # Gale order is bruhat_leq on the Grassmannian projections
        for J in oracles.subsets(range(1, n)):
            ends = [e for e in range(1, n) if e not in J]
            quotient = oracles.quotient_perms(n, J)
            for x, w in itertools.product(quotient, repeat=2):
                gale = [gale_leq(x[:e], w[:e]) for e in ends]
                assert gale == [weyl.bruhat_leq(projection(x, e), projection(w, e))
                                for e in ends]
                assert weyl.bruhat_leq(x, w) == all(gale), (x, w, J)

    @pytest.mark.parametrize("w,J", [
        ((8, 7, 6, 5, 4, 3, 2, 1), ()),
        ((8, 6, 7, 3, 4, 1, 5, 2), ()),
        # the top of W^J
        ((8, 7, 6, 3, 4, 5, 2, 1), {4, 5}),
    ])
    def test_rank_8_rows_match_scan_oracle(self, w, J):
        assert weyl.poincare_polynomial(w, J) == oracles.poincare_scan(w, J)

    def test_reaches_past_the_cap_through_the_core(self):
        # w0 at n = 12 gives [1]_q [2]_q ... [12]_q; RANK_LIMIT still holds
        # for poincare_polynomial
        expected = (1,)
        for k in range(1, 13):
            expected = weyl.poly_mul(expected, (1,) * k)
        assert weyl._prefix_dp(tuple(range(12, 0, -1)), frozenset()) == expected


class TestGrassmannPoincare:
    """``J`` omitting one index: the prefix-set DP with one processed block,
    counted as Young diagrams, against scans of ``W^J`` made by the oracles
    alone."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_rank_scan_exhaustively(self, n):
        for d in range(1, n):
            J = frozenset(range(1, n)) - {d}
            quotient = oracles.quotient_perms(n, J)
            for w in quotient:
                expected = [0] * (oracles.inv_count(w) + 1)
                for x in quotient:
                    if oracles.rank_leq(x, w):
                        expected[oracles.inv_count(x)] += 1
                assert weyl.poincare_polynomial(w, J) == tuple(expected), (w, d)

    @settings(max_examples=60)
    @given(st.data())
    def test_count_matches_column_filter_at_ranks_9_12(self, data):
        # past the cap, so the DP is called directly, at the Grassmannian
        # element with columns top
        n = data.draw(st.integers(9, 12), label="n")
        d = data.draw(st.integers(1, n - 1), label="d")
        top = tuple(sorted(data.draw(
            st.sets(st.integers(1, n), min_size=d, max_size=d), label="columns")))
        expected = [0] * (sum(top) - d * (d + 1) // 2 + 1)
        for cols in itertools.combinations(range(1, n + 1), d):
            if all(c <= t for c, t in zip(cols, top)):
                rest = sorted(set(range(1, n + 1)) - set(cols))
                expected[oracles.inv_count(cols + tuple(rest))] += 1
        w = top + tuple(sorted(set(range(1, n + 1)) - set(top)))
        assert weyl._prefix_dp(w, frozenset(range(1, n)) - {d}) == tuple(expected)

    def test_scans_nothing(self, monkeypatch):
        cases = [(w, frozenset(range(1, n)) - {d}) for n in range(2, 7)
                 for d in range(1, n)
                 for w in oracles.quotient_perms(n, frozenset(range(1, n)) - {d})]
        calls = []
        for name in ("_quotient_reps", "bruhat_leq"):
            monkeypatch.setattr(weyl, name, lambda *a, name=name: calls.append(name))
        weyl._poincare.cache_clear()
        try:
            for w, J in cases:
                assert weyl.poincare_polynomial(w, J) == interval_count(w, J)
        finally:
            weyl._poincare.cache_clear()
        assert len(cases) == 114 and calls == []


class TestGaleBounds:
    """``_gale_bounds`` against Gale order by its definition: two sets of
    one size, sorted, compared entrywise."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bounds_decide_gale_order_exhaustively(self, n):
        values = range(1, n + 1)
        for w in itertools.permutations(values):
            for start, e in itertools.combinations(range(n + 1), 2):
                outside = weyl._outside(w, e)
                for used in itertools.combinations(values, start):
                    if not gale_leq(used, w[:start]):
                        continue
                    unused = [v for v in values if v not in used]
                    bounds = weyl._gale_bounds(unused, outside)
                    assert len(bounds) == e - start, (w, start, e, used)
                    for chosen in itertools.combinations(range(len(unused)), e - start):
                        below = gale_leq(used + tuple(unused[c] for c in chosen), w[:e])
                        assert below == all(c <= b for c, b in zip(chosen, bounds)), (
                            w, e, used, chosen)


class TestDiagramCount:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_matches_enumeration(self, s):
        # 0 <= a_1 <= ... <= a_s <= 5: at most C(9, 4) = 126 sequences, so
        # each coefficient fits in a byte
        slot = 8
        for limits in itertools.product(range(6), repeat=s):
            expected = sum(1 << sum(a) * slot
                           for a in itertools.combinations_with_replacement(range(6), s)
                           if all(x <= limit for x, limit in zip(a, limits)))
            assert weyl._diagram_count(limits, slot) == expected, limits


def interval_count(w, J):
    """The Poincare polynomial of ``w`` in ``W^J`` by brute force: lengths
    of the subword interval, filtered to ``W^J``."""
    coeffs = [0] * (oracles.inv_count(w) + 1)
    for x in oracles.subword_interval(w):
        if not any(x[j - 1] > x[j] for j in J):
            coeffs[oracles.inv_count(x)] += 1
    return tuple(coeffs)


def top_of(n, J):
    """The longest element of W^J: w0 with each position block sorted."""
    return tuple(v for block in oracles.position_block_lists(J, n)
                 for v in sorted(n + 1 - p for p in block))


def graded(elements):
    """Counts of ``elements`` by inversion count, as a coefficient tuple."""
    coeffs = [0] * (max(map(oracles.inv_count, elements)) + 1)
    for x in elements:
        coeffs[oracles.inv_count(x)] += 1
    return tuple(coeffs)


def gale_leq(a, b):
    """Two sets of one size, sorted, lie entrywise below each other."""
    return all(p <= q for p, q in zip(sorted(a), sorted(b)))


def projection(x, e):
    """The Grassmannian element whose first ``e`` entries are ``x``'s."""
    return tuple(sorted(x[:e])) + tuple(sorted(x[e:]))


def full_support(w):
    """Every ``s_i`` lies below ``w``: no prefix ``w(1..i)`` is ``{1..i}``."""
    return all(max(w[:i]) > i for i in range(1, len(w)))


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
    # full support in Gr(4, 9): the Young-diagram count enumerates nothing
    # yet keeps the cap
    "weyl.poincare_polynomial_grassmann": lambda: weyl.poincare_polynomial(
        (2, 6, 8, 9, 1, 3, 4, 5, 7), set(range(1, 9)) - {4}),
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

    @pytest.mark.parametrize("check", [
        check for check, (_, _, is_rank) in sweeps.SWEEPS.items() if is_rank])
    def test_rank_sweeps_refuse_before_any_record(self, check):
        # the cap is checked when the ranks are read, not after the lower
        # ranks have streamed their records
        sweep = sweeps.SWEEPS[check][0]
        with pytest.raises(weyl.RankLimitError, match="rank 9 exceeds"):
            next(sweep(weyl.RANK_LIMIT + 1))

    def test_limit_is_a_value_error(self):
        assert issubclass(weyl.RankLimitError, ValueError)

