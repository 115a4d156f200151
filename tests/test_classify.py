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
    def test_smallest_members(self):
        assert HorosphericalCase("a", 2).homogeneous_space() == "SO(6)/P(omega_1)"
        assert HorosphericalCase("b", 3, 1).homogeneous_space() == "Gr(2, 5)"
        assert HorosphericalCase("c", 4).homogeneous_space() == "Spin(9)/P(omega_4)"

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


class TestDimensions:
    def test_quadric_case(self):
        assert classify.case_dimensions(HorosphericalCase("a", 2)) == (4, 2, 2)

    def test_grassmannian_case(self):
        assert classify.case_dimensions(HorosphericalCase("b", 3, 1)) == (6, 3, 4)

    def test_spinor_case(self):
        assert classify.case_dimensions(HorosphericalCase("c", 4)) == (10, 6, 6)

    def test_orbits_always_smaller(self):
        for case in classify.iter_cases(30):
            total, a, b = classify.case_dimensions(case)
            assert a < total and b < total


class TestCodim:
    def test_smallest_members(self):
        assert classify.codim_at_least_two(HorosphericalCase("a", 2))
        assert classify.codim_at_least_two(HorosphericalCase("b", 3, 1))
        assert classify.codim_at_least_two(HorosphericalCase("c", 4))

    def test_sweep_small(self):
        for case in classify.iter_cases(50):
            assert classify.codim_at_least_two(case), case
