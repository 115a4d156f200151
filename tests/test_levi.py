import bisect
import itertools
import math
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from oracles import stabilizer, subsets
from levischubert import bp, classify, grassmann, levi, sweeps, toroidal, weyl
from levischubert.classify import HorosphericalCase
from levischubert.grassmann import GrassmannSchubert


class TestBlocks:
    def test_worked_example(self):
        got = levi.blocks({1, 3, 4, 7}, 8)
        assert got == ((1, 2), (3, 4, 5), (6,), (7, 8))
        assert len(got) == len(set(range(1, 8)) - {1, 3, 4, 7}) + 1

    def test_torus_and_full(self):
        assert levi.blocks((), 3) == ((1,), (2,), (3,))
        assert levi.blocks({1, 2}, 3) == ((1, 2, 3),)

    def test_block_ends(self):
        for n in range(2, 8):
            for I in subsets(range(1, n)):
                got = levi.blocks(I, n)
                comp = sorted(set(range(1, n)) - I)
                assert [b[-1] for b in got] == comp + [n]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            levi.blocks({4}, 4)


class TestMaxLevi:
    def test_frozen(self):
        assert levi.max_levi((3, 4, 1, 2)) == frozenset({2})
        assert levi.max_levi((4, 3, 2, 1)) == frozenset({1, 2, 3})
        x = grassmann.GrassmannSchubert(2, (3, 4, 1, 2, 5))
        assert levi.max_levi(x.w, x.quotient) == frozenset({1, 2, 3})

    def test_stability_frozen(self):
        # a variety is stable under the Levi of I iff I <= max_levi
        assert {2} <= levi.max_levi((3, 4, 1, 2))
        assert not {2} <= levi.max_levi((2, 4, 1, 3))

    def test_identity_stable_iff_contained(self):
        # the base point is fixed by the parabolic of J and nothing more
        for n in range(1, 6):
            for J in subsets(range(1, n)):
                assert levi.max_levi(weyl.identity(n), J) == J

    def test_rejects_non_representative(self):
        with pytest.raises(ValueError):
            levi.max_levi((2, 1, 3), {1})

    def test_full_flag_is_left_descents(self):
        # with no quotient the reflection test reduces to left descents
        for w in itertools.permutations(range(1, 6)):
            assert levi.max_levi(w) == oracles.left_descents_by_length(w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_is_left_descents_of_the_coset_top(self, n):
        # the lemma behind bp.is_bp_support: for u in W^J the stabilizer is
        # the left descent set of the longest element u * w0(J) of u W_J
        for J in subsets(range(1, n)):
            top = oracles.block_reversal(J, n)
            for u in oracles.quotient_perms(n, J):
                assert levi.max_levi(u, J) == \
                    oracles.left_descents_by_length(oracles.multiply(u, top)), (u, J)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_length_test_exhaustively(self, n):
        # the closed form against the coset-representative length test
        for J in subsets(range(1, n)):
            for w in oracles.quotient_perms(n, J):
                assert levi.max_levi(w, J) == oracles.max_levi_by_length(w, J), (w, J)

    @settings(max_examples=40)
    @given(st.data())
    def test_matches_length_test_at_ranks_7_8(self, data):
        n = data.draw(st.integers(7, 8), label="n")
        # |J| uniform, so large J (long position blocks) are drawn as often as small
        size = data.draw(st.integers(0, n - 1), label="|J|")
        J = data.draw(st.frozensets(st.integers(1, n - 1), min_size=size, max_size=size),
                      label="J")
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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_reflection_test(self, n):
        # the combinatorial block criterion against the geometry-side test
        for d in range(1, n):
            J = frozenset(range(1, n)) - {d}
            for x in grassmann.all_grassmann(n, d):
                stab = levi.max_levi(x.w, J)
                for I in subsets(range(1, n)):
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
        x = GrassmannSchubert(d, oracles.grassmann_perm(n, cols))
        stab = levi.max_levi(x.w, x.quotient)
        assert levi.is_degree1_head(x, I) == (I <= stab)
        assert levi.is_degree1_head(x, I & stab)


def stable_below_filter(tau, J, I):
    """``(length, t)`` for the ``I``-stable ``t <= tau`` in ``W^J``, in lex
    order: all of ``W^J`` filtered by the rank criterion and the length test."""
    return [(oracles.inv_count(t), t) for t in oracles.quotient_perms(len(tau), J)
            if oracles.rank_leq(t, tau) and I <= stabilizer(t, J)]


# the J with |W^J| <= 1260 at n = 8: |W^J| is 8! over the order of W_J
SMALL_QUOTIENTS_8 = [
    J for J in subsets(range(1, 8))
    if math.factorial(8) <= 1260 * math.prod(math.factorial(len(b)) for b in levi.blocks(J, 8))]


class TestStableBelow:
    """The pruned walk behind ``levi.heads_below`` against a filter of all
    of ``W^J``."""

    def test_frozen(self):
        assert levi._stable_below((3, 4, 1, 2), frozenset(), frozenset({2})) == [
            (1, (1, 3, 2, 4)), (2, (1, 3, 4, 2)), (3, (1, 4, 3, 2)),
            (2, (3, 1, 2, 4)), (3, (3, 1, 4, 2)), (3, (3, 2, 1, 4)),
            (4, (3, 4, 1, 2))]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_filter_exhaustively(self, n):
        # stable_below_filter, with the rank filter shared by every I
        for J in subsets(range(1, n)):
            reps = oracles.quotient_perms(n, J)
            for tau in reps:
                below = [(oracles.inv_count(t), t) for t in reps
                         if oracles.rank_leq(t, tau)]
                for I in subsets(range(1, n)):
                    assert levi._stable_below(tau, J, I) == [
                        (ell, t) for ell, t in below if I <= stabilizer(t, J)], (tau, J, I)

    @settings(max_examples=30)
    @given(st.data())
    def test_matches_filter_at_ranks_6_to_8(self, data):
        n = data.draw(st.integers(6, 8), label="n")
        # at rank 8 only the J with |W^J| <= 1260, which the filter lists cheaply
        J = data.draw(st.sampled_from(SMALL_QUOTIENTS_8) if n == 8
                      else st.frozensets(st.integers(1, n - 1)), label="J")
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        tau = weyl.min_coset_rep(tuple(x), J)
        # half the Levis stabilize tau, so that the head set is rarely empty
        stable = data.draw(st.booleans(), label="stable")
        roots = sorted(stabilizer(tau, J)) if stable else []
        I = data.draw(st.frozensets(st.sampled_from(roots or range(1, n))), label="I")
        assert levi._stable_below(tau, J, I) == stable_below_filter(tau, J, I)

    def test_last_value_is_placed_without_a_search(self, monkeypatch):
        # J = {6} leaves position 7 the only one that continues a block, so
        # a walk that stepped through the last position would bisect there
        calls = []
        monkeypatch.setattr(levi, "bisect", types.SimpleNamespace(
            bisect=lambda *a: calls.append(a) or bisect.bisect(*a)))
        got = levi._stable_below((7, 6, 5, 4, 3, 1, 2), frozenset({6}), frozenset())
        assert len(got) == 2520 and calls == []

    def test_last_block_is_placed_without_a_search(self, monkeypatch):
        # J = {5, 6}: positions 1-4 are blocks of one, so only the last
        # block, positions 5-7, continues a block; the walk takes it as the
        # values left, sorted, where a search would bisect at 6 and 7
        calls = []
        monkeypatch.setattr(levi, "bisect", types.SimpleNamespace(
            bisect=lambda *a: calls.append(a) or bisect.bisect(*a)))
        got = levi._stable_below((7, 6, 5, 4, 1, 2, 3), frozenset({5, 6}), frozenset())
        assert len(got) == 840 and calls == []

    def test_prunes_by_the_prefix_dp_gale_bounds(self, monkeypatch):
        # one Bruhat rule on W^J: the walk behind heads_below and the
        # prefix-set DP both read weyl._gale_bounds, and the walk makes no
        # Bruhat test of its own
        calls = []
        for name in ("_gale_bounds", "bruhat_leq"):
            fn = getattr(weyl, name)
            monkeypatch.setattr(weyl, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        levi._stable_below((4, 5, 7, 6, 1, 2, 3), frozenset({2, 5}), frozenset({3}))
        assert calls and set(calls) == {"_gale_bounds"}
        calls.clear()
        assert len(levi.heads_below((3, 4, 1, 2), (), {2}).heads) == 7
        assert "_gale_bounds" in calls
        calls.clear()
        assert weyl._prefix_dp((3, 4, 1, 2), frozenset()) == (1, 3, 5, 4, 1)
        assert set(calls) == {"_gale_bounds"}


class TestDoubleCosetEnds:
    """The closed forms of the least and the largest element of
    ``W_I * x * W_J`` in ``W^J`` against the whole double coset."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_match_the_coset_exhaustively(self, n):
        perms = list(itertools.permutations(range(1, n + 1)))
        for J in subsets(range(1, n)):
            for I in subsets(range(1, n)):
                ends = {}  # each double coset is scanned once, by its members
                for x in perms:
                    key = oracles.coset_min(x, J)
                    if key not in ends:
                        ends.update(dict.fromkeys(oracles.double_coset(x, J, I),
                                                  oracles.double_coset_ends(x, J, I)))
                    got = levi._deal(x, J, I, False), levi._deal(x, J, I, True)
                    assert got == ends[key], (x, J, I)

    def test_frozen(self):
        # w0 of S_4 with I = {2}: values 2, 3 dealt in position order
        I = frozenset({2})
        assert levi._deal((4, 3, 2, 1), frozenset(), I, False) == (4, 2, 3, 1)
        assert levi._deal((4, 2, 3, 1), frozenset(), I, True) == (4, 3, 2, 1)
        # J = {2}: the middle position block is sorted after the deal
        assert levi._deal((3, 1, 4, 2), frozenset({2}), I, False) == (2, 1, 4, 3)
        assert levi._deal((2, 1, 4, 3), frozenset({2}), I, True) == (3, 1, 4, 2)


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
            assert {1, 2} <= levi.max_levi(h, {1, 3, 4})
            assert weyl.bruhat_leq(h, (3, 4, 1, 2, 5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_scan_exhaustively(self, n):
        # heads, minimal head and boundary (in order) against the interval
        # scan, and the minimal-head orbit test against the scanned heads
        for J in subsets(range(1, n)):
            for tau in oracles.quotient_perms(n, J):
                for I in subsets(range(1, n)):
                    expected = oracles.heads_scan(tau, J, I)
                    assert report(tau, J, I) == expected, (tau, J, I)
                    assert contains_orbit(tau, J, I) == bool(expected[0]), (tau, J, I)

    @settings(max_examples=40)
    @given(st.data())
    def test_matches_scan_at_ranks_6_7(self, data):
        n = data.draw(st.integers(6, 7), label="n")
        inside = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1),
                           label="J")
        J = frozenset(i for i, c in enumerate(inside, 1) if c)
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        tau = weyl.min_coset_rep(tuple(x), J)
        # a Levi stabilizing tau when there is one, so the head set is rarely empty
        roots = sorted(levi.max_levi(tau, J)) or range(1, n)
        I = data.draw(st.frozensets(st.sampled_from(roots), min_size=1), label="I")
        assert report(tau, J, I) == oracles.heads_scan(tau, J, I)

    def test_bruhat_calls_bounded(self, monkeypatch):
        # the minimum check tests tau alone, whatever |heads| is; the boundary
        # comes from one cover scan, and the longest-first filter tests each
        # pair of the at most C(21, 2) covers' coset tops once
        calls = []
        for name in ("bruhat_leq", "_lower_covers"):
            fn = getattr(weyl, name)
            monkeypatch.setattr(weyl, name,
                                lambda u, w, fn=fn, name=name: calls.append(name) or fn(u, w))
        got = levi.heads_below((7, 6, 5, 4, 3, 2, 1), (), {2})
        assert (len(got.heads), len(got.maximal_proper_heads)) == (2520, 5)
        assert calls.count("bruhat_leq") <= 1 + math.comb(21, 2)
        assert calls.count("_lower_covers") == 1

    @settings(max_examples=25)
    @given(st.data())
    def test_boundary_matches_longest_first_filter_at_rank_8(self, data):
        # the cover scan against the filter over every listed head
        n = 8
        J = data.draw(st.frozensets(st.integers(1, n - 1)), label="J")
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        tau = weyl.min_coset_rep(tuple(x), J)
        roots = sorted(levi.max_levi(tau, J))
        assume(roots)
        I = data.draw(st.frozensets(st.sampled_from(roots), min_size=1), label="I")
        got = levi.heads_below(tau, J, I)
        assert got.maximal_proper_heads == oracles.boundary_longest_first(got.heads, tau)

    def test_walk_missing_a_maximal_head_fails_loudly(self, monkeypatch):
        # (1, 4, 3, 2) is a coset top below a cover of tau's least element;
        # without it the other heads would pass as a two-element boundary
        walk = levi._stable_below
        monkeypatch.setattr(levi, "_stable_below", lambda tau, J, I: [
            (ell, t) for ell, t in walk(tau, J, I) if t != (1, 4, 3, 2)])
        with pytest.raises(RuntimeError, match=r"\(1, 4, 3, 2\)"):
            levi.heads_below((3, 4, 1, 2), (), {2})

    def test_tau_as_its_own_boundary_fails_loudly(self, monkeypatch):
        # a coset top is a proper head: one that came out as tau itself is
        # refused, though tau is a head the walk listed; the top of the
        # identity's double coset, the minimal head, is left as it is
        deal = levi._deal
        monkeypatch.setattr(levi, "_deal", lambda x, J, I, top:
                            (3, 4, 1, 2) if top and x != (1, 2, 3, 4) else deal(x, J, I, top))
        with pytest.raises(RuntimeError, match=r"\(3, 4, 1, 2\)\]"):
            levi.heads_below((3, 4, 1, 2), (), {2})

    def test_no_element_of_the_quotient_tested_one_by_one(self, monkeypatch):
        # the heads come from the pruned walk: W^J is not listed, and no
        # stabilizer or length is computed per element
        calls = []
        for module, name in ((weyl, "quotient_reps"), (weyl, "_quotient_reps"),
                             (weyl, "length"), (levi, "_max_levi")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        got = levi.heads_below((7, 6, 5, 4, 3, 2, 1), (), {1, 2, 3, 5, 6})
        assert len(got.heads) == 35 and calls == []

    def test_wrong_closed_form_fails_the_self_check(self, monkeypatch):
        # the closed-form minimal head must lie below every head found
        monkeypatch.setattr(levi, "_minimal_head", lambda J, I, n: (3, 4, 1, 2))
        with pytest.raises(RuntimeError, match="has no unique minimum"):
            levi.heads_below((3, 4, 1, 2), (), {2})

    def test_walk_missing_the_minimal_head_fails_the_self_check(self, monkeypatch):
        # the walk must find the closed-form minimal head first; without
        # it the other heads still lie above it, so only that check sees it
        walk = levi._stable_below
        monkeypatch.setattr(levi, "_stable_below", lambda tau, J, I: [
            (ell, t) for ell, t in walk(tau, J, I) if t != (1, 3, 2, 4)])
        with pytest.raises(RuntimeError, match="has no unique minimum"):
            levi.heads_below((3, 4, 1, 2), (), {2})

    def test_empty_walk_fails_the_self_check(self, monkeypatch):
        # the minimal head (1, 3, 2, 4) lies below tau, so no heads is wrong
        monkeypatch.setattr(levi, "_stable_below", lambda tau, J, I: [])
        with pytest.raises(RuntimeError, match="has no unique minimum"):
            levi.heads_below((3, 4, 1, 2), (), {2})

    def test_levi_index_out_of_range(self):
        # refused, not answered with no heads
        with pytest.raises(ValueError, match=r"must lie in 1\.\.2"):
            levi.heads_below((3, 1, 2), (), {5})


class TestParabolicRange:
    @pytest.mark.parametrize("call", [
        lambda: levi.max_levi((2, 1, 3), {5}),
        lambda: weyl.lower_covers((3, 1, 2), {9}),
        lambda: weyl.require_quotient((1, 2, 3), {0}),
        lambda: levi.require_stable((3, 2, 1), (), {5}),
        lambda: bp.nontoroidal_transport((3, 2, 1), (), {5}),
        lambda: levi.heads_below((3, 1, 2), {9}, ()),
        lambda: toroidal.divisor_checks((3, 2, 1), (), {5}),
        lambda: bp.decompose((3, 2, 1), (), {5}),
    ], ids=["max_levi", "lower_covers", "require_quotient",
            "require_stable", "nontoroidal_transport",
            "heads_below", "divisor_checks", "decompose_K"])
    def test_parabolic_index_out_of_range(self, call):
        # the parabolic J or the Levi I is refused with the message
        # heads_below gives, never answered as unstable
        with pytest.raises(ValueError, match=r"must lie in 1\.\.2"):
            call()


# (w, J, I, K): a Grassmannian w in W^J, stable under the Levi of I, and a
# K containing J
INSTANCE = ((2, 6, 1, 3, 4, 5), {1, 3, 4, 5}, {1, 3, 4, 5}, {1, 2, 3, 4, 5})
ENTRIES = {
    "require_indices": lambda w, J, I, K: weyl.require_indices(J, len(w)),
    "require_quotient": lambda w, J, I, K: weyl.require_quotient(w, J),
    "min_coset_rep": lambda w, J, I, K: weyl.min_coset_rep(w, J),
    "lower_covers": lambda w, J, I, K: weyl.lower_covers(w, J),
    "poincare_polynomial": lambda w, J, I, K: weyl.poincare_polynomial(w, J),
    "max_levi": lambda w, J, I, K: levi.max_levi(w, J),
    "require_stable": lambda w, J, I, K: levi.require_stable(w, J, I),
    "heads_below": lambda w, J, I, K: levi.heads_below(w, J, I),
    "divisor_checks": lambda w, J, I, K: toroidal.divisor_checks(w, J, I),
    "toroidal_necessary": lambda w, J, I, K: toroidal.toroidal_necessary(
        GrassmannSchubert(2, w), I),
    "decompose": lambda w, J, I, K: bp.decompose(w, J, K),
    "nontoroidal_transport":
        lambda w, J, I, K: bp.nontoroidal_transport(w, J, I),
}

#: every entry that takes integers: (entry, its plain arguments)
INT_ENTRIES = {
    **{name: (entry, INSTANCE) for name, entry in ENTRIES.items()},
    "GrassmannSchubert": (lambda d, w: GrassmannSchubert(d, w).to_json(),
                          (2, (2, 6, 1, 3, 4, 5))),
    "all_grassmann": (lambda n, d: list(grassmann.all_grassmann(n, d)), (5, 2)),
    # the repr shows whether m and i are kept as given or read as ints
    "HorosphericalCase": (lambda m, i: repr(HorosphericalCase("b", m, i)), (4, 2)),
    "quotient_reps": (weyl.quotient_reps, (4, (1,))),
    "blocks": (levi.blocks, ((1, 3, 4, 7), 8)),
    "minimal_head": (levi.minimal_head, ((1,), (2,), 4)),
    "iter_cases": (lambda max_m: list(classify.iter_cases(max_m)), (5,)),
    # every rank sweep yields records at bound 4
    **{name: (lambda max_n, sweep=sweep: list(sweep(max_n)), (4,))
       for name, (sweep, _, is_rank) in sweeps.SWEEPS.items() if is_rank},
}

#: every entry that takes an explicit rank n, called at rank n
RANK_ENTRIES = {
    "quotient_reps": lambda n: weyl.quotient_reps(n),
    "blocks": lambda n: levi.blocks((), n),
    "minimal_head": lambda n: levi.minimal_head((), (), n),
    "all_grassmann": lambda n: list(grassmann.all_grassmann(n, 1)),
}


class Index:
    """An integer type other than ``int``, read by ``operator.index``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


#: the forms an integer is drawn in: read as the int, or refused when read
FORMS = {"int": int, "index": Index, "float": float,
         "fraction": lambda v: v + 0.5, "bool": bool, "str": str}


def reform(data, value):
    """``value`` with each integer inside it in a drawn form, and whether
    each is read as the int.  A set comes back as a tuple, so that a drawn
    ``True`` reaches the entry instead of merging with a ``1`` first."""
    if isinstance(value, int):
        form = data.draw(st.sampled_from(sorted(FORMS)), label=f"form of {value}")
        return FORMS[form](value), form in ("int", "index")
    parts = [reform(data, v) for v in value]
    rebuild = tuple if isinstance(value, (set, frozenset)) else type(value)
    return rebuild(v for v, _ in parts), all(ok for _, ok in parts)


#: require_quotient calls of the entries that make other than one
ONE_CHECK_PER_W = {"require_indices": 0, "toroidal_necessary": 2}


class TestInputForms:
    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
    def test_list_and_iterators_as_tuple_and_frozensets(self, entry):
        # the weyl checks convert each input once, so a list w and
        # one-shot iterators of indices are read as a tuple and frozensets
        w, J, I, K = INSTANCE
        expected = entry(w, frozenset(J), frozenset(I), frozenset(K))
        assert entry(list(w), iter(J), iter(I), iter(K)) == expected

    @settings(max_examples=30)
    @given(data=st.data())
    @pytest.mark.parametrize("entry,args", INT_ENTRIES.values(), ids=INT_ENTRIES.keys())
    def test_integers_in_any_form(self, entry, args, data):
        # each index, entry, n and d becomes a plain int through
        # operator.index: an entry gives the result on plain ints, or, when
        # it reads a bool, float or string, refuses it
        reformed, readable = reform(data, args)
        try:
            got = entry(*reformed)
        except ValueError as exc:
            assert not readable and "must be an integer" in str(exc)
        else:
            assert got == entry(*args)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("entry", RANK_ENTRIES.values(), ids=RANK_ENTRIES.keys())
    def test_rank_must_be_positive(self, entry, n):
        # no symmetric group has a rank below 1
        with pytest.raises(ValueError, match=f"rank n={n} must be positive"):
            entry(n)

    @pytest.mark.parametrize("name", [name for name in ENTRIES if name != "require_indices"])
    def test_rank_zero_permutation_refused(self, name):
        # the empty permutation has rank 0, refused as an explicit rank 0
        # is; toroidal_necessary's GrassmannSchubert reads its rank first
        with pytest.raises(ValueError, match="rank n=0 must be positive"):
            ENTRIES[name]((), (), (), ())

    @pytest.mark.parametrize("call", [
        lambda: levi.require_stable((1, 2, 3, 4), (), {1.5}),
        lambda: bp.decompose((4, 3, 2, 1), (), {2.5}),
        lambda: weyl.require_quotient((True, 2, 3), ()),
        lambda: weyl.require_quotient((1.0, 2, 3), ()),
        lambda: weyl.min_coset_rep((1.0, 2), ()),
        lambda: weyl.require_indices({"1"}, 4),
        lambda: weyl.require_indices({2.0}, 4),
        lambda: levi.max_levi((1, 2, 3), {True}),
        lambda: GrassmannSchubert(2.0, (1, 3, 2)),
        # a True beside a 1 would merge with it once frozen
        lambda: weyl.require_indices([1, True], 4),
        lambda: weyl.require_quotient((1, 2, 3, 4), (1, 2, True)),
    ], ids=["require_stable", "decompose", "require_quotient_bool",
            "require_quotient_float", "min_coset_rep_float", "require_indices_str",
            "require_indices_float", "max_levi_bool", "GrassmannSchubert",
            "require_indices_bool_beside_1", "require_quotient_bool_beside_1"])
    def test_non_integer_refused(self, call):
        # each was answered, or refused with TypeError, before the rule
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_transport_checks_each_index_set_once(self, monkeypatch):
        # the Levi, and J inside require_quotient; the coset representatives,
        # longest elements and minimal heads behind it reach the position
        # blocks through the cores
        calls = []
        fn = weyl.require_indices
        monkeypatch.setattr(weyl, "require_indices",
                            lambda J, n: calls.append(1) or fn(J, n))
        bp.nontoroidal_transport((6, 2, 5, 4, 3, 1), (), {1, 3, 4, 5})
        assert len(calls) == 2

    @pytest.mark.parametrize("name", ENTRIES)
    def test_validates_each_w_once(self, monkeypatch, name):
        # an entry checks the w handed in once and works on trusted values
        # from then on: divisors, images and heads are not checked again;
        # toroidal_necessary also builds a GrassmannSchubert, which checks w
        calls = []
        fn = weyl.require_quotient
        monkeypatch.setattr(weyl, "require_quotient",
                            lambda w, J: calls.append(1) or fn(w, J))
        ENTRIES[name](*INSTANCE)
        assert len(calls) == ONE_CHECK_PER_W.get(name, 1)


def report(tau, J, I):
    """``heads_below`` as the triple that ``oracles.heads_scan`` returns."""
    got = levi.heads_below(tau, J, I)
    return got.heads, got.minimal_head, got.maximal_proper_heads


def contains_orbit(tau, J, I):
    """The orbit test ``toroidal.divisor_checks`` makes: the variety of
    ``tau`` contains a Levi orbit iff the minimal head, which lies below
    every head, lies below ``tau``."""
    return weyl.bruhat_leq(levi.minimal_head(J, I, len(tau)), tau)


class TestContainsOrbit:
    """The orbit test on frozen cases, each also against the head scan."""

    @staticmethod
    def check(tau, J, I, expected):
        assert contains_orbit(tau, J, I) == expected
        assert bool(oracles.heads_scan(tau, J, I)[0]) == expected

    def test_above_minimal_head(self):
        mh = levi.minimal_head((), {2}, 4)
        self.check(mh, (), {2}, True)
        self.check((3, 4, 1, 2), (), {2}, True)

    def test_frozen_negative_n4(self):
        self.check((1, 3, 2, 4), {1, 3}, {2, 3}, False)

    def test_frozen_negative_n5(self):
        self.check((1, 3, 2, 4, 5), {1, 3, 4}, {2, 3}, False)


class TestMinimalHead:
    def test_contained_levi_gives_identity(self):
        assert levi.minimal_head({1, 3}, {1}, 4) == weyl.identity(4)
        assert levi.minimal_head({1, 3, 4, 5}, {1, 3, 4, 5}, 6) == weyl.identity(6)

    def test_frozen(self):
        assert levi.minimal_head((), {2}, 4) == (1, 3, 2, 4)
        assert levi.minimal_head({1, 3, 4}, {2, 3}, 5) == (1, 4, 2, 3, 5)

    def test_longest_frozen(self):
        # with no quotient the minimal head is the longest element of W_I
        assert levi.minimal_head((), (), 3) == (1, 2, 3)
        assert levi.minimal_head((), {1, 2}, 3) == (3, 2, 1)
        assert levi.minimal_head((), {1, 3, 4, 5}, 6) == (2, 1, 6, 5, 4, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_longest_against_enumeration(self, n):
        for I in subsets(range(1, n)):
            if I:
                assert levi.minimal_head((), I, n) == oracles.coset_longest(I, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_unique_minimum_of_every_head_set(self, n):
        # the head set of any stable element contains the minimal head and
        # nothing below it
        for J in subsets(range(1, n)):
            reps = weyl.quotient_reps(n, J)
            stabs = {w: levi.max_levi(w, J) for w in reps}
            for I in subsets(range(1, n)):
                mh = levi.minimal_head(J, I, n)
                assert I <= stabs[mh]
                for w in reps:
                    if I <= stabs[w]:
                        assert weyl.bruhat_leq(mh, w)

    @settings(max_examples=60)
    @given(st.data())
    def test_below_every_head_at_ranks_7_8(self, data):
        # heads_below checks only that the minimal head is the first head: it
        # lies below the top end of every double coset W_I x W_J, the heads
        n = data.draw(st.integers(7, 8), label="n")
        J = data.draw(st.frozensets(st.integers(1, n - 1)), label="J")
        I = data.draw(st.frozensets(st.integers(1, n - 1)), label="I")
        x = tuple(data.draw(st.permutations(range(1, n + 1)), label="x"))
        h = levi._deal(x, J, I, True)
        assert I <= levi.max_levi(h, J)
        assert weyl.bruhat_leq(levi.minimal_head(J, I, n), h)


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
        assert levi.require_stable([3, 4, 1, 2], (), {2}) \
            == ((3, 4, 1, 2), frozenset(), frozenset({2}))


class TestHeadReportJson:
    def test_shape(self):
        report = levi.heads_below((3, 4, 1, 2), (), {2})
        data = report.to_json()
        assert set(data) == {"heads", "minimal_head", "maximal_proper_heads"}
        assert data["minimal_head"] == (1, 3, 2, 4)
        assert data["heads"] is report.heads
        assert data["maximal_proper_heads"] is report.maximal_proper_heads
        empty = levi.heads_below((2, 1, 3), (), {2})
        assert empty.to_json()["minimal_head"] is None

    def test_minimal_head_is_read_off_the_heads(self):
        # stored once: the report keeps the heads and the boundary only
        assert levi.HeadReport._fields == ("heads", "maximal_proper_heads")
        report = levi.HeadReport(((1, 3, 2, 4), (3, 4, 1, 2)), ())
        assert report.minimal_head == (1, 3, 2, 4)
        assert levi.HeadReport((), ()).minimal_head is None
