import pytest

from levischubert import classify
from levischubert.classify import HorosphericalCase


class TestFamilies:
    def test_three_families(self):
        fams = classify.FAMILIES
        assert [f.tag for f in fams] == ["a", "b", "c"]
        assert [f.dynkin for f in fams] == ["A", "A", "D"]
        assert [f.min_m for f in fams] == [2, 3, 4]
        assert [f.needs_i for f in fams] == [False, True, False]

    def test_family_json_mentions_spaces(self):
        spaces = [f.to_json()["space"] for f in classify.FAMILIES]
        assert spaces == ["SO(2m+2)/P(omega_1)", "Gr(i+1, m+2)",
                          "Spin(2m+1)/P(omega_m)"]


class TestCases:
    @pytest.mark.parametrize("tag,m,i", [
        ("a", 1, None),
        ("b", 2, 1),
        ("b", 3, None),
        ("b", 3, 3),
        ("c", 3, None),
        ("a", 2, 1),
        ("z", 5, None),
    ])
    def test_rejects_bad_parameters(self, tag, m, i):
        with pytest.raises(ValueError):
            HorosphericalCase(tag, m, i)

    def test_iter_cases_respects_constraints(self):
        cases = list(classify.iter_cases(6))
        assert all(c.m <= 6 for c in cases)
        assert {c.tag for c in cases} == {"a", "b", "c"}
        b_cases = [(c.m, c.i) for c in cases if c.tag == "b"]
        assert (3, 1) in b_cases and (3, 3) not in b_cases


class TestUncheckedCases:
    """``iter_cases`` builds its cases without the checks of
    ``HorosphericalCase.__new__``; each must be the case the validating
    constructor builds."""

    @staticmethod
    def validated(max_m):
        # (tag, least m, takes i) as in Pasquier's table, not read from FAMILIES
        for tag, min_m, needs_i in (("a", 2, False), ("b", 3, True), ("c", 4, False)):
            for m in range(min_m, max_m + 1):
                for i in (range(1, m) if needs_i else (None,)):
                    yield HorosphericalCase(tag, m, i)

    def test_same_as_validated_constructions(self):
        got, want = list(classify.iter_cases(60)), list(self.validated(60))
        assert len(got) == len(want) == 59 + 1769 + 57
        for case, expected in zip(got, want):
            assert type(case) is HorosphericalCase
            assert tuple(case) == tuple(expected)
            assert case._fields == ("tag", "m", "i")
            assert case == expected and hash(case) == hash(expected)
            assert type(case.m) is int and type(case.i) in (int, type(None))

    def test_frozen(self):
        case = next(classify.iter_cases(3))
        with pytest.raises(AttributeError):
            case.m = 7
        with pytest.raises(AttributeError):
            case.i = 1
        assert case == HorosphericalCase("a", 2)

    def test_skips_the_validation(self, monkeypatch):
        calls = []
        fn = HorosphericalCase.__new__
        monkeypatch.setattr(HorosphericalCase, "__new__",
                            lambda cls, *args: calls.append(1) or fn(cls, *args))
        assert len(list(classify.iter_cases(50))) == 49 + 1224 + 47
        assert calls == []
        HorosphericalCase("b", 4, 2)
        assert calls == [1]

    def test_public_constructor_keeps_its_checks(self):
        # every integer form is probed in test_levi.TestInputForms
        with pytest.raises(ValueError, match="must be an integer"):
            HorosphericalCase("b", 4, 2.5)


#: tag -> the dimension formulas of its FAMILIES row
DIMENSIONS = {f.tag: f.dimensions for f in classify.FAMILIES}


class TestDimensions:
    def test_quadric_case(self):
        assert DIMENSIONS["a"](2, None) == (4, 2, 2)

    def test_grassmannian_case(self):
        assert DIMENSIONS["b"](3, 1) == (6, 3, 4)

    def test_spinor_case(self):
        assert DIMENSIONS["c"](4, None) == (10, 6, 6)

    def test_orbits_always_smaller(self):
        for case in classify.iter_cases(30):
            total, a, b = DIMENSIONS[case.tag](case.m, case.i)
            assert a < total and b < total


class TestCodim:
    def test_smallest_members(self):
        assert classify.codim_at_least_two(HorosphericalCase("a", 2))
        assert classify.codim_at_least_two(HorosphericalCase("b", 3, 1))
        assert classify.codim_at_least_two(HorosphericalCase("c", 4))

    def test_sweep_small(self):
        for case in classify.iter_cases(50):
            assert classify.codim_at_least_two(case), case
