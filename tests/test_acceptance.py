"""Acceptance criteria, one test per criterion, each printed as a PASS or
FAIL line with its wall-clock time.  Bounds are pinned here and nowhere
else; run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import io
import json
import time
from contextlib import redirect_stdout

from levischubert import bp, classify, cli, grassmann, levi, sweeps, toroidal, weyl


def criterion(number, name):
    """Print the verdict line even when the body throws."""
    def wrap(fn):
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {name}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s)")
        run.__name__ = fn.__name__
        return run
    return wrap


def violations(rows):
    """The lines of a rank sweep's ``(n, ok, line)`` rows that disagree."""
    return [line for _, ok, line in rows if not ok]


@criterion(1, "levi-block-partition")
def test_block_partition_worked_example():
    assert levi.blocks({1, 3, 4, 7}, 8) == ((1, 2), (3, 4, 5), (6,), (7, 8))


@criterion(2, "gl4-stability-and-boundary")
def test_gl4_worked_example():
    w = (3, 4, 1, 2)
    assert levi.max_levi(w, ()) == frozenset({2})
    assert {2} <= levi.max_levi((1, 3, 2, 4), ())
    assert frozenset(levi.heads_below(w, (), {2}).maximal_proper_heads) == frozenset({
        (1, 4, 3, 2), (3, 1, 4, 2), (3, 2, 1, 4)})


@criterion(3, "head-criterion-oracle-equivalence")
def test_head_criterion_matches_reflection_oracle():
    bad = violations(sweeps.head_oracle(7))
    assert not bad, bad[:5]


@criterion(4, "divisor-stability-criterion")
def test_divisor_stability_matches_reflection_oracle():
    bad = violations(sweeps.divisor_stability(7))
    assert not bad, bad[:5]


@criterion(5, "smooth-form-unique-head")
def test_smooth_form_forces_unique_head():
    bad = violations(sweeps.smooth_unique_head(7))
    assert not bad, bad[:5]


@criterion(6, "singular-no-stable-divisor")
def test_singular_varieties_have_no_stable_divisor():
    bad = violations(sweeps.singular_no_stable_divisor(7))
    assert not bad, bad[:5]


@criterion(7, "bp-characterization-equivalence")
def test_bp_characterizations_agree():
    # the worked S3 instance first
    assert bp.poincare_factorizes(bp.decompose((3, 2, 1), (), {1}))
    assert weyl.poly_mul((1, 1), (1, 1, 1)) == (1, 2, 2, 1)
    assert weyl.poincare_polynomial((3, 2, 1)) == (1, 2, 2, 1)
    bad = violations(sweeps.bp_equivalence(5))
    assert not bad, bad[:5]


@criterion(8, "divisor-projection-dichotomy")
def test_projection_dichotomy():
    bad = violations(sweeps.projection_dichotomy(5))
    assert not bad, bad[:5]


@criterion(9, "smooth-iff-palindromic")
def test_smooth_form_iff_palindromic():
    bad = violations(sweeps.smooth_palindromic(8))
    assert not bad, bad[:5]


@criterion(10, "classification-codimension")
def test_classification_inequalities():
    # classify-codim yields dict records, not rows
    bad = [record for record in sweeps.classify_codim(1000) if not record["ok"]]
    assert not bad, bad[:5]


@criterion(11, "toroidal-checker-end-to-end")
def test_toroidal_checker_end_to_end():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["toroidal", "--n", "6", "--d", "2",
                         "--w", "2,6,1,3,4,5", "--levi", "1,3,4,5"])
    assert code == 0
    data = json.loads(buffer.getvalue())
    assert data["verdict"] == "fails"
    assert all(item["criterion"] == "violated"
               and item["witness"] == [1, 2, 3, 4, 5, 6]
               for item in data["divisors"])

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["toroidal", "--n", "4", "--d", "2",
                         "--w", "1,4,2,3", "--levi", "2,3"])
    assert code == 0
    data = json.loads(buffer.getvalue())
    assert data["verdict"] == "passes-necessary"
    assert all(item["criterion"] != "violated" for item in data["divisors"])
