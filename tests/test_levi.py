import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from levischubert import bp, classify, grassmann, levi, sweeps, toroidal, weyl
from levischubert.classify import HorosphericalCase
from levischubert.grassmann import GrassmannSchubert
from test_toroidal import stabilizer


def subsets(n):
    return [frozenset(c) for r in range(n)
            for c in itertools.combinations(range(1, n), r)]


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
            for I in subsets(n):
                got = levi.blocks(I, n)
                comp = sorted(set(range(1, n)) - I)
                assert [b[-1] for b in got] == comp + [n]

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


def stable_below_filter(tau, J, I):
    """``(length, t)`` for the ``I``-stable ``t <= tau`` in ``W^J``, in lex
    order: all of ``W^J`` filtered by the rank criterion and the length test."""
    return [(oracles.inv_count(t), t) for t in oracles.quotient_perms(len(tau), J)
            if oracles.rank_leq(t, tau) and I <= stabilizer(t, J)]


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
        for J in subsets(n):
            reps = oracles.quotient_perms(n, J)
            for tau in reps:
                below = [(oracles.inv_count(t), t) for t in reps
                         if oracles.rank_leq(t, tau)]
                for I in subsets(n):
                    assert levi._stable_below(tau, J, I) == [
                        (ell, t) for ell, t in below if I <= stabilizer(t, J)], (tau, J, I)

    @settings(max_examples=30)
    @given(st.data())
    def test_matches_filter_at_ranks_6_7(self, data):
        n = data.draw(st.integers(6, 7), label="n")
        J = data.draw(st.frozensets(st.integers(1, n - 1)), label="J")
        x = data.draw(st.permutations(range(1, n + 1)), label="x")
        tau = weyl.min_coset_rep(tuple(x), J)
        # half the Levis stabilize tau, so that the head set is rarely empty
        stable = data.draw(st.booleans(), label="stable")
        roots = sorted(stabilizer(tau, J)) if stable else []
        I = data.draw(st.frozensets(st.sampled_from(roots or range(1, n))), label="I")
        assert levi._stable_below(tau, J, I) == stable_below_filter(tau, J, I)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_scan_exhaustively(self, n):
        # heads, minimal head and boundary (in order) against the interval
        # scan, and the minimal-head orbit test against the scanned heads
        for J in subsets(n):
            for tau in oracles.quotient_perms(n, J):
                for I in subsets(n):
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
        # the minimum check tests each head, and the longest-first boundary
        # each head against the maximal ones kept
        calls = []
        fn = weyl.bruhat_leq
        monkeypatch.setattr(weyl, "bruhat_leq", lambda u, w: calls.append(1) or fn(u, w))
        got = levi.heads_below((7, 6, 5, 4, 3, 2, 1), (), {2})
        assert (len(got.heads), len(got.maximal_proper_heads)) == (2520, 5)
        assert len(calls) <= 2520 * (5 + 1)

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

    def test_levi_index_out_of_range(self):
        # refused, not answered with no heads
        with pytest.raises(ValueError, match=r"must lie in 1\.\.2"):
            levi.heads_below((3, 1, 2), (), {5})


class TestParabolicRange:
    @pytest.mark.parametrize("call", [
        lambda: levi.max_levi((2, 1, 3), {5}),
        lambda: levi.is_stable((1, 2, 3), {9}, ()),
        lambda: weyl.lower_covers((3, 1, 2), {9}),
        lambda: weyl.require_quotient((1, 2, 3), {0}),
        lambda: levi.is_stable((1, 2, 3), (), {9}),
        lambda: levi.require_stable((3, 2, 1), (), {5}),
        lambda: bp.nontoroidal_transport((3, 2, 1), (), {5}),
        lambda: levi.heads_below((3, 1, 2), {9}, ()),
        lambda: toroidal.divisor_checks((3, 2, 1), (), {5}),
        lambda: bp.decompose((3, 2, 1), (), {5}),
    ], ids=["max_levi", "is_stable", "lower_covers", "require_quotient",
            "is_stable_levi", "require_stable", "nontoroidal_transport",
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
    "lower_covers": lambda w, J, I, K: weyl.lower_covers(w, J),
    "poincare_polynomial": lambda w, J, I, K: weyl.poincare_polynomial(w, J),
    "max_levi": lambda w, J, I, K: levi.max_levi(w, J),
    "is_stable": lambda w, J, I, K: levi.is_stable(w, J, I),
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
    "longest_element": (weyl.longest_element, ((1, 3, 4, 5), 6)),
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
    "longest_element": lambda n: weyl.longest_element((), n),
    "blocks": lambda n: levi.blocks((), n),
    "minimal_head": lambda n: levi.minimal_head((), (), n),
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

    @pytest.mark.parametrize("call", [
        lambda: levi.is_stable((1, 2, 3, 4), (), {1.5}),
        lambda: bp.decompose((4, 3, 2, 1), (), {2.5}),
        lambda: weyl.require_quotient((True, 2, 3), ()),
        lambda: weyl.require_quotient((1.0, 2, 3), ()),
        lambda: weyl.require_indices({"1"}, 4),
        lambda: weyl.require_indices({2.0}, 4),
        lambda: levi.max_levi((1, 2, 3), {True}),
        lambda: GrassmannSchubert(2.0, (1, 3, 2)),
        # a True beside a 1 would merge with it once frozen
        lambda: weyl.require_indices([1, True], 4),
        lambda: weyl.require_quotient((1, 2, 3, 4), (1, 2, True)),
    ], ids=["is_stable", "decompose", "require_quotient_bool",
            "require_quotient_float", "require_indices_str",
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
        assert levi.require_stable([3, 4, 1, 2], (), {2}) \
            == ((3, 4, 1, 2), frozenset(), frozenset({2}))


class TestHeadReportJson:
    def test_shape(self):
        report = levi.heads_below((3, 4, 1, 2), (), {2})
        data = report.to_json()
        assert set(data) == {"heads", "minimal_head", "maximal_proper_heads"}
        assert data["minimal_head"] == [1, 3, 2, 4]
        empty = levi.heads_below((2, 1, 3), (), {2})
        assert empty.to_json()["minimal_head"] is None

    def test_minimal_head_is_read_off_the_heads(self):
        # stored once: the report keeps the heads and the boundary only
        assert [f.name for f in dataclasses.fields(levi.HeadReport)] == [
            "heads", "maximal_proper_heads"]
        report = levi.HeadReport(((1, 3, 2, 4), (3, 4, 1, 2)), ())
        assert report.minimal_head == (1, 3, 2, 4)
        assert levi.HeadReport((), ()).minimal_head is None
