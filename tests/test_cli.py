import argparse
import contextlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import oracles
from levischubert import bp, classify, cli, grassmann, levi, sweeps, toroidal, weyl


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


#: JSON values as the package writes them: no floats, any unicode text, and
#: tuples (records and replies hold the package's own) as well as lists
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20)


class TestParsing:
    def test_bad_permutation_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--n", "4", "--w", "3,3,1,2")
        assert code == 2
        assert "not a permutation" in err

    def test_wrong_length(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--n", "5", "--w", "3,4,1,2")
        assert code == 2
        # a non-positive rank is refused before --w is measured against it
        code, _, err = run_cli(capsys, "bp", "--n", "0", "--w", "1", "--d", "1")
        assert code == 2
        assert err == "error: rank n=0 must be positive\n"

    def test_not_a_coset_representative(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--n", "4", "--w", "2,1,3,4", "--d", "2")
        assert code == 2
        assert "minimal coset representative" in err

    def test_levi_index_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "4")
        assert code == 2
        assert err == "error: simple-root indices must lie in 1..3\n"

    @pytest.mark.parametrize("text,message", [
        ("3,3,1,2", "(3, 3, 1, 2) is not a permutation"),
        ("0,1,2,3", "(0, 1, 2, 3) is not a permutation"),
        ("a,b,c,d", "'a,b,c,d' is not comma-separated one-line notation"),
        ("1,2,4,5", "(1, 2, 4, 5) is not a permutation"),
        # refused as text, not measured as zero entries
        ("", "'' is not comma-separated one-line notation"),
    ], ids=["3,3,1,2", "0,1,2,3", "a,b,c,d", "1,2,4,5", ""])
    def test_bad_permutation_text(self, capsys, text, message):
        code, out, err = run_cli(capsys, "analyze", "--n", "4", "--w", text)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text,message", [
        ("0", "simple-root indices must lie in 1..3"),
        ("4", "simple-root indices must lie in 1..3"),
        ("x", "'x' is not a comma-separated index set"),
        ("1,,2", "'1,,2' is not a comma-separated index set"),
    ], ids=["0", "4", "x", "1,,2"])
    @pytest.mark.parametrize("flag", ["--parabolic", "--levi"])
    def test_bad_index_text(self, capsys, flag, text, message):
        code, out, err = run_cli(
            capsys, "analyze", "--n", "4", "--w", "1,2,3,4", flag, text)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_round_trip(self, capsys):
        for w in itertools.permutations(range(1, 5)):
            code, out, _ = run_cli(
                capsys, "analyze", "--n", "4", "--w", ",".join(map(str, w)))
            assert code == 0
            assert json.loads(out)["w"] == list(w)
        for text, J in [("", []), ("1", [1]), ("1,3,4", [1, 3, 4]),
                        ("2,5", [2, 5]), ("1,1,3", [1, 3]), ("3,1", [1, 3])]:
            code, out, _ = run_cli(capsys, "analyze", "--n", "6", "--w",
                                   "1,2,3,4,5,6", "--parabolic", text)
            assert code == 0
            assert f'"parabolic":{json.dumps(J, separators=(",", ":"))}' in out

    @pytest.mark.parametrize("argv,checks", [
        (["heads", "--n", "4", "--w", "3,4,1,2", "--levi", "2"], 1),
        (["bp", "--n", "4", "--w", "1,3,4,2", "--d", "3"], 1),
        (["analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "2"], 2),
        (["toroidal", "--n", "4", "--d", "2", "--w", "1,4,2,3", "--levi", "2,3"], 2),
    ], ids=["heads", "bp", "analyze", "toroidal"])
    def test_no_value_rule_of_its_own(self, capsys, monkeypatch, argv, checks):
        # the permutation rule is checked only at the library doors: once
        # per validating entry a command calls (analyze calls max_levi and
        # heads_below; toroidal builds a GrassmannSchubert and
        # toroidal_necessary re-reads its w), never by the parse
        calls = []
        fn = weyl.is_permutation
        monkeypatch.setattr(weyl, "is_permutation",
                            lambda w: calls.append(w) or fn(w))
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == checks

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert cli.main(["analyze", "--n", "4"]) == 2


def ints(values):
    return ",".join(map(str, values))


def some(rng, pool):
    """A random subset of ``pool``, sorted."""
    return sorted(v for v in pool if rng.random() < 0.5)


def grassmannian(rng, n, d):
    """A random element of ``W^J`` for ``J`` omitting only ``d``."""
    cols = sorted(rng.sample(range(1, n + 1), d))
    return cols + sorted(set(range(1, n + 1)) - set(cols))


#: each rule a malformed query breaks, and the words of its refusal
MALFORMED = {
    "permutation": r"is not a permutation|entries; expected",
    "descent": r"has a right descent in J=",
    "index": r"indices must lie in 1\.\.",
    "stable": r"is not stable under the Levi of",
    "inclusion": r"must be contained in K=",
    "d": r"descent position d=",
}


def malformed_query(rng):
    """``(rule, argv)``: an instance query at rank ``n <= 8`` whose flags are
    well formed and whose values break ``rule`` alone.  Each value goes in
    as ``--flag=text``, so that a leading ``-`` stays a value."""
    rule = rng.choice(sorted(MALFORMED))
    command = {"stable": "toroidal", "inclusion": "bp"}.get(rule) or rng.choice(
        ["analyze", "heads", "toroidal", "bp"])
    # a Grassmannian w with a descent other than d, or with a Levi it is
    # not stable under, needs n >= 3
    n = rng.randint(3 if rule in ("descent", "stable") else 2, 8)
    roots = range(1, n)
    d = rng.randint(1, n - 1)
    w = rng.sample(range(1, n + 1), n)
    flags = {}
    if command == "toroidal":
        w, flags["--d"] = grassmannian(rng, n, d), d
    elif command == "bp":
        flags["--d"] = d
    if rule == "permutation":
        i, j = rng.sample(range(n), 2)
        how = rng.randrange(4)
        if how == 0:
            w[i] = w[j]
        elif how == 1:
            w[i] = rng.choice([0, -1, n + 1, n + 5])
        else:
            w = w[:-1] if how == 2 else w + [n + 1]
    elif rule == "descent":
        others = [i for i in roots if i != flags.get("--d")]
        while not any(w[i - 1] > w[i] for i in others):
            w = rng.sample(range(1, n + 1), n)
        if command != "toroidal":
            J = set(some(rng, roots)) | {rng.choice(
                [i for i in roots if w[i - 1] > w[i]])}
            flags["--parabolic"] = ints(sorted(J))
            if command == "bp":
                del flags["--d"]
                flags["--quotient"] = ints(sorted(J | set(some(rng, roots))))
    elif rule == "index":
        bad = rng.choice([0, -1, n, n + 3])
        if command == "toroidal":
            flag, good = "--levi", some(rng, roots)
        elif command == "bp":
            flag, good = rng.choice(["--parabolic", "--quotient"]), []
            if flag == "--quotient":
                del flags["--d"]
        else:
            # no descent of w among the good indices
            flag = rng.choice(["--parabolic", "--levi"])
            good = some(rng, [i for i in roots if w[i - 1] < w[i]])
        flags[flag] = ints(rng.sample(good + [bad], len(good) + 1))
    elif rule == "stable":
        J = frozenset(roots) - {d}
        while levi.max_levi(tuple(w), J) == frozenset(roots):
            w = grassmannian(rng, n, d)
        stable = levi.max_levi(tuple(w), J)
        extra = rng.choice(sorted(frozenset(roots) - stable))
        flags["--levi"] = ints(sorted(set(some(rng, stable)) | {extra}))
    elif rule == "inclusion":
        J = sorted(rng.sample(roots, rng.randint(1, n - 1)))
        w = list(weyl.min_coset_rep(tuple(w), J))
        flags["--parabolic"] = ints(J)
        if rng.random() < 0.5:
            flags["--d"] = rng.choice(J)
        else:
            del flags["--d"]
            missing = rng.choice(J)
            flags["--quotient"] = ints(some(rng, [i for i in roots if i != missing]))
    else:
        flags["--d"] = rng.choice([0, -1, -n, n, n + 3])
    return rule, [command, f"--n={n}", f"--w={ints(w)}",
                  *(f"{flag}={value}" for flag, value in flags.items())]


class TestMalformedQueries:
    def test_each_exits_two_with_one_error_line(self, capsys):
        # a seeded slice of malformed instance queries: each is refused as a
        # usage error by the rule it breaks, with no output, one error line
        # and no traceback
        rng = random.Random(25)
        rules = set()
        for _ in range(300):
            rule, argv = malformed_query(rng)
            rules.add(rule)
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            line, = err.splitlines()
            assert err == line + "\n" and line.startswith("error: "), argv
            assert not line.startswith("error: internal:"), argv
            assert "Traceback" not in err and re.search(MALFORMED[rule], line), argv
        assert rules == set(MALFORMED)


class TestAnalyze:
    def test_reference_gl4_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "2")
        assert code == 0
        data = json.loads(out)
        assert data["max_levi"] == [2]
        assert data["stable"] is True
        assert data["minimal_head"] == [1, 3, 2, 4]
        assert data["boundary"] == [[1, 4, 3, 2], [3, 1, 4, 2], [3, 2, 1, 4]]

    def test_unstable_has_no_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--n", "4", "--w", "2,4,1,3", "--levi", "2")
        assert code == 0
        data = json.loads(out)
        assert data["stable"] is False
        assert data["boundary"] is None

    @pytest.mark.parametrize("n", [3, 4])
    def test_boundary_matches_levi_boundary(self, capsys, n):
        for w in itertools.permutations(range(1, n + 1)):
            stab = sorted(levi.max_levi(w))
            for I in (stab, stab[:1]):
                code, out, _ = run_cli(
                    capsys, "analyze", "--n", str(n), "--w",
                    ",".join(map(str, w)), "--levi", ",".join(map(str, I)))
                assert code == 0
                report = levi.heads_below(w, (), I)
                expected = [list(h) for h in sorted(report.maximal_proper_heads)]
                assert json.loads(out)["boundary"] == expected

    @pytest.mark.parametrize("w, closed_forms", [("3,4,1,2", 1), ("1,2,3,4", 2)])
    def test_minimal_head_read_off_the_report(self, capsys, monkeypatch, w, closed_forms):
        # heads_below takes the closed form once and checks it against the
        # walk's first head; analyze takes it again only when no head is
        # listed, and never through the validating entry
        calls = []
        for name in ("minimal_head", "_minimal_head"):
            fn = getattr(levi, name)
            monkeypatch.setattr(levi, name, lambda J, I, n, fn=fn, name=name:
                                calls.append(name) or fn(J, I, n))
        code, out, _ = run_cli(capsys, "analyze", "--n", "4", "--w", w, "--levi", "2")
        assert code == 0
        assert json.loads(out)["minimal_head"] == [1, 3, 2, 4]
        assert calls == ["_minimal_head"] * closed_forms

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "2",
            "--format", "text")
        assert code == 0
        assert "max_levi: [2]" in out


class TestHeads:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "heads", "--n", "4", "--w", "3,4,1,2", "--levi", "2")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"heads", "minimal_head", "maximal_proper_heads"}
        assert [1, 3, 2, 4] in data["heads"]


class TestToroidal:
    def test_certified_nontoroidal_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "toroidal", "--n", "6", "--d", "2",
            "--w", "2,6,1,3,4,5", "--levi", "1,3,4,5")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "fails"
        assert all(item["witness"] == [1, 2, 3, 4, 5, 6]
                   for item in data["divisors"])

    def test_passes_necessary_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "toroidal", "--n", "4", "--d", "2",
            "--w", "1,4,2,3", "--levi", "2,3")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "passes-necessary"

    def test_unstable_input_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "toroidal", "--n", "6", "--d", "2",
            "--w", "2,6,1,3,4,5", "--levi", "2")
        assert code == 2

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 20])
    def test_certified_family_above_the_cap(self, capsys, n):
        # w = (2, n, 1, 3, ..., n-1) under the Levi of {1, 3, ..., n-1}: both
        # divisors are unstable and contain the base point
        w, I = [2, n, 1, *range(3, n)], [1, *range(3, n)]
        code, out, _ = run_cli(
            capsys, "toroidal", "--n", str(n), "--d", "2",
            "--w", ",".join(map(str, w)), "--levi", ",".join(map(str, I)))
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "fails"
        assert [(item["criterion"], item["witness"]) for item in data["divisors"]] \
            == [("violated", list(range(1, n + 1)))] * 2
        if n <= weyl.RANK_LIMIT:
            # the head enumeration, where it runs, finds the same witnesses
            J = frozenset(range(1, n)) - {2}
            for item in data["divisors"]:
                report = levi.heads_below(tuple(item["w"]), J, I)
                assert report.minimal_head == weyl.identity(n)


class TestBp:
    def test_worked_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "bp", "--n", "3", "--w", "3,2,1", "--quotient", "1")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "bp": True,
            "characterizations": {
                "maximality": True, "poincare": True, "support": True},
            "u": [2, 1, 3], "v": [2, 3, 1]}

    def test_maximal_quotient_via_d(self, capsys):
        code, out, _ = run_cli(
            capsys, "bp", "--n", "4", "--w", "1,3,4,2", "--d", "3")
        assert code == 0
        data = json.loads(out)
        assert data["bp"] is False

    def test_d_must_avoid_parabolic(self, capsys):
        # bp.decompose refuses J outside K = Delta - {d}
        code, _, err = run_cli(
            capsys, "bp", "--n", "4", "--w", "1,4,2,3",
            "--parabolic", "3", "--d", "3")
        assert code == 2
        assert err == "error: J=[3] must be contained in K=[1, 2]\n"

    @pytest.mark.parametrize("d", ["0", "4", "-1"])
    def test_d_out_of_range(self, capsys, d):
        code, out, err = run_cli(capsys, "bp", "--n", "4", "--w", "1,3,4,2", "--d", d)
        assert (code, out) == (2, "")
        assert err == f"error: descent position d={d} must satisfy 1 <= d < 4\n"


def misrouted(run_divisors):
    """``run_divisors`` with each divisor paired to the next run."""
    def wrong(x):
        pairs = run_divisors(x)
        divs = [div for _, div in pairs]
        return tuple((idx, div) for (idx, _), div in zip(pairs, divs[1:] + divs[:1]))
    return wrong


#: check -> (module, function, mutant of the original, bound): one wrong
#: function each sweep calls, which it must then report as a violation
MUTANTS = {
    "head-oracle": (levi, "is_degree1_head", lambda f: lambda x, I: True, 3),
    "divisor-stability": (grassmann, "run_divisors", misrouted, 4),
    # these sweeps reach the closed form and the checks through the cores,
    # not the validating entries
    "smooth-unique-head": (
        levi, "_minimal_head", lambda f: lambda J, I, n: weyl.identity(n), 4),
    "singular-no-stable-divisor": (
        toroidal, "_divisor_checks", lambda f: lambda w, J, I: tuple(
            c._replace(stable=True) for c in f(w, J, I)), 4),
    "bp-equivalence": (bp, "is_bp_support", lambda f: lambda d: True, 3),
    # every length doubled, so an image one dimension below v reads as two
    "projection-dichotomy": (weyl, "length", lambda f: lambda w: 2 * f(w), 4),
    "smooth-palindromic": (grassmann, "is_smooth", lambda f: lambda x: False, 4),
    # every family's orbits then fill the whole space
    "classify-codim": (classify, "_BY_TAG", lambda by_tag: {
        tag: f._replace(dimensions=lambda m, i: (1, 1, 1))
        for tag, f in by_tag.items()}, 3),
}


class TestSweep:
    @pytest.mark.parametrize("check", sorted(sweeps.SWEEPS))
    def test_every_sweep_can_fail(self, capsys, monkeypatch, check):
        # a sweep without an entry in MUTANTS fails here with KeyError
        module, name, mutate, bound = MUTANTS[check]
        monkeypatch.setattr(module, name, mutate(getattr(module, name)))
        code, out, _ = run_cli(
            capsys, "sweep", "--check", check, "--max-n", str(bound))
        *records, summary = json_lines(out)
        assert code == 1
        assert summary == {"check": check, "instances": len(records),
                           "violations": sum(not r["ok"] for r in records)}
        assert summary["violations"] > 0

    def test_smooth_palindromic_sees_a_wrong_count(self, capsys, monkeypatch):
        # MUTANTS breaks the smooth side; this breaks the palindromic one,
        # the prefix-set DP's last-block count, by one more diagram of the
        # largest size
        count = weyl._diagram_count

        def one_more(limits, slot):
            got = count(limits, slot)
            return got + (1 << (got.bit_length() - 1) // slot * slot)
        monkeypatch.setattr(weyl, "_diagram_count", one_more)
        weyl._poincare.cache_clear()
        try:
            code, out, _ = run_cli(
                capsys, "sweep", "--check", "smooth-palindromic", "--max-n", "4")
        finally:
            weyl._poincare.cache_clear()
        *records, summary = json_lines(out)
        assert code == 1
        assert summary == {"check": "smooth-palindromic", "instances": len(records),
                           "violations": sum(not r["ok"] for r in records)}
        assert summary["violations"] > 0

    def test_head_oracle_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--check", "head-oracle", "--max-n", "4",
            "--format", "text")
        assert code == 0
        assert "0 disagreements" in out

    def test_json_lines_and_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--check", "classify-codim", "--max-n", "10")
        assert code == 0
        lines = json_lines(out)
        summary = lines[-1]
        assert summary["violations"] == 0
        assert summary["instances"] == len(lines) - 1
        assert all(rec["ok"] for rec in lines[:-1])

    def test_every_line_is_one_canonical_json_call(self, capsys, monkeypatch):
        # the bench traces cli.canonical_json on classify-codim and expects
        # one call per record plus one for the summary
        calls = []
        encode = cli.canonical_json
        monkeypatch.setattr(cli, "canonical_json",
                            lambda obj: calls.append(1) or encode(obj))
        code, out, _ = run_cli(
            capsys, "sweep", "--check", "classify-codim", "--max-n", "12")
        assert code == 0
        summary = json_lines(out)[-1]
        assert summary["instances"] > 0
        assert len(calls) == summary["instances"] + 1
        assert len(out.splitlines()) == summary["instances"] + 1

    @pytest.mark.parametrize("check, mutated", [
        (check, mutated) for check in oracles.SWEEP_RECORDS for mutated in (False, True)],
        ids=lambda value: {False: "golden", True: "mutant"}.get(value, value))
    def test_rows_are_the_canonical_json_of_the_records(self, monkeypatch, check, mutated):
        # each rank sweep's rows against the dict form of its records, at
        # its largest JSON bound in the golden corpus, and under its MUTANTS
        # entry, where some rows are violations
        bound = max(int(e["argv"][4]) for e in GOLDEN if e["code"] == 0
                    and e["argv"][:3] == ["sweep", "--check", check] and len(e["argv"]) == 5)
        if mutated:
            module, name, mutate, bound = MUTANTS[check]
            monkeypatch.setattr(module, name, mutate(getattr(module, name)))
        rows = list(sweeps.SWEEPS[check][0](bound))
        assert rows == [(r["n"], r["ok"], cli.canonical_json(r) + "\n")
                        for r in oracles.SWEEP_RECORDS[check](bound)]
        assert any(not ok for _, ok, _ in rows) == mutated

    def test_rank_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--check", "head-oracle", "--max-n", "9")
        assert code == 3
        assert "limit" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--check", "head-oracle", "--max-n", "0"],
        ["sweep", "--check", "head-oracle", "--max-n", "1"],
        ["sweep", "--check", "head-oracle", "--max-n", "-3"],
        ["sweep", "--check", "classify-codim", "--max-n", "1"],
        ["classify", "--max-m", "-4"],
    ])
    def test_vacuous_bound_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "yields no" in err

    def test_closed_pipe_ends_quietly(self):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "levischubert.cli", "sweep",
             "--check", "head-oracle", "--max-n", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first["check"] == "head-oracle"
        assert err == b""
        assert proc.returncode == 141

    def test_closed_pipe_closes_what_it_opens(self, monkeypatch):
        # in-process: the run's own descriptors are all closed again after
        # stdout is pointed at the null device
        before = len(os.listdir("/proc/self/fd"))
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            code = cli.main(["sweep", "--check", "head-oracle", "--max-n", "4"])
            monkeypatch.undo()
        assert code == 141
        assert len(os.listdir("/proc/self/fd")) == before

    def test_interrupt_ends_quietly(self, capsys, monkeypatch):
        def interrupted(bound):
            yield 2, True, '{"check":"head-oracle","ok":true}\n'
            raise KeyboardInterrupt
        # the parser is built once per process, so the rigged sweep takes
        # the place of a registered one
        monkeypatch.setitem(sweeps.SWEEPS, "head-oracle", (interrupted, 6, False))
        try:
            code, _, err = run_cli(capsys, "sweep", "--check", "head-oracle")
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped cli.main")
        assert code == 130
        assert err == ""

    def test_unknown_check_rejected(self, capsys):
        assert cli.main(["sweep", "--check", "nonsense"]) == 2

    def test_violation_found_exits_one(self, capsys, monkeypatch):
        def rigged(bound):
            yield 2, True, '{"check":"head-oracle","ok":true}\n'
            yield 2, False, '{"check":"head-oracle","ok":false}\n'
        monkeypatch.setitem(sweeps.SWEEPS, "head-oracle", (rigged, 6, False))
        code, out, _ = run_cli(capsys, "sweep", "--check", "head-oracle",
                               "--format", "text")
        assert code == 1
        assert out == "head-oracle: 2 instances, 1 disagreements\n"


class TestSharedParser:
    def test_built_once_per_process(self, monkeypatch):
        built, subcommands = [], []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "levischubert":
                built.append(self)
            elif self.prog.startswith("levischubert "):
                subcommands.append(self.prog)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        # start from an empty cache, as a new process does
        cli._parser.cache_clear()
        for argv in (
            ["analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "2"],
            ["heads", "--n", "4", "--w", "3,4,1,2", "--levi", "2"],
            ["toroidal", "--n", "4", "--d", "2", "--w", "1,4,2,3", "--levi", "2,3"],
            ["bp", "--n", "3", "--w", "3,2,1", "--quotient", "1"],
            ["sweep", "--check", "head-oracle", "--max-n", "3"],
            ["classify", "--max-m", "5"],
            ["analyze", "--n", "4"],
            ["analyze", "--n", "4", "--w", "3,4,1,2", "--bogus"],
            [],
        ):
            cli.main(argv)
        assert len(built) == 1
        assert sorted(subcommands) == [f"levischubert {name}" for name in (
            "analyze", "bp", "classify", "heads", "sweep", "toroidal")]


GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden_cli.json").read_text())
GOLDEN_ARGVS = [entry["argv"] for entry in GOLDEN]


def query_argv(rng):
    """A command line shaped like a query: a subcommand and its flags in any
    order, each now and then written ``--flag=value`` or abbreviated, and
    now and then a flag missing or doubled, an unknown option, a stray word,
    a ``--``, a ``-h`` or a word before the subcommand."""
    n = rng.randint(1, 8)
    w = ",".join(map(str, rng.sample(range(1, n + 1), n)))

    def indices():
        return ",".join(str(i) for i in range(1, n) if rng.random() < 0.4)

    d = ["--d", str(rng.randint(-1, n))]
    command = rng.choice(("analyze", "heads", "toroidal", "bp", "sweep", "classify"))
    if command in ("analyze", "heads"):
        flags = [["--n", str(n)], ["--w", w], ["--levi", indices()],
                 rng.choice((d, ["--parabolic", indices()]))]
    elif command == "toroidal":
        flags = [["--n", str(n)], ["--w", w], d, ["--levi", indices()]]
    elif command == "bp":
        flags = [["--n", str(n)], ["--w", w], ["--parabolic", indices()],
                 rng.choice((d, ["--quotient", indices()]))]
    elif command == "sweep":
        flags = [["--check", rng.choice(sorted(sweeps.SWEEPS) + ["nonsense"])],
                 ["--max-n", str(rng.randint(1, 4))]]
    else:
        flags = [["--max-m", str(rng.randint(-2, 30))]]
    if rng.random() < 0.5:
        flags.append(["--format", rng.choice(("json", "text", "yaml"))])
    if rng.random() < 0.15:
        del flags[rng.randrange(len(flags))]
    if rng.random() < 0.15:
        flags.append(rng.choice(flags or [d])[:])
    rng.shuffle(flags)
    for flag in flags:
        if rng.random() < 0.1:
            flag[:] = [f"{flag[0]}={flag[1]}"]
        elif rng.random() < 0.1:
            flag[0] = flag[0][:rng.randint(3, len(flag[0]))]
    argv = [command] + [word for flag in flags for word in flag]
    for extra in (["--bogus"], ["--bogus", "x"], ["-x"], ["extra"], ["--"], ["-h"]):
        if rng.random() < 0.06:
            at = rng.randint(1, len(argv))
            argv[at:at] = extra
    if rng.random() < 0.05:
        argv.pop()  # a flag may lose its value
    if rng.random() < 0.04:
        argv.insert(0, rng.choice(("--bogus", "-h", "analyse")))
    return argv


def outcome(parse, argv):
    """What ``parse(argv)`` returns, or the code it exits with, then what
    it wrote to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


class TestDispatch:
    """``main`` sends an argv that starts with a subcommand's name straight
    to that subcommand's parser; the namespace, the messages and the exit
    codes must be those of the one parser ``build_parser`` returns."""

    @pytest.fixture
    def both_routes(self, monkeypatch):
        # argparse wraps its usage and help text to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        reference = cli.build_parser().parse_args
        return lambda argv: (outcome(cli._parse, argv), outcome(reference, argv))

    def test_golden_argvs(self, both_routes):
        for argv in GOLDEN_ARGVS:
            dispatched, reference = both_routes(argv)
            assert dispatched == reference, argv

    def test_sampled_query_argvs(self, both_routes):
        rng = random.Random(33)
        results = []
        for _ in range(600):
            argv = query_argv(rng)
            dispatched, reference = both_routes(argv)
            assert dispatched == reference, argv
            results.append(dispatched)
        # the sample reaches every route: parsed namespaces, errors of a
        # subcommand's parser and of the top-level one, and help
        namespaces = [r for r, _, _ in results if isinstance(r, argparse.Namespace)]
        assert {args.command for args in namespaces} == {
            "analyze", "heads", "toroidal", "bp", "sweep", "classify"}
        errors = [err for r, _, err in results if r == ("exit", 2)]
        assert any(e.startswith("usage: levischubert [-h]") for e in errors)
        assert any(e.startswith("usage: levischubert analyze") for e in errors)
        assert any(r == ("exit", 0) and out for r, out, _ in results)

    # errors the golden corpus does not hold
    @pytest.mark.parametrize("argv", [
        ["analyze", "--n", "4", "--w", "3,4,1,2", "--bogus"],
        ["heads", "--n", "4", "--w", "3,4,1,2", "--", "--levi", "2"],
        ["bp", "--n", "4", "--w", "1,3,4,2", "--d"],
        ["toroidal", "--n", "4", "--d", "2", "--w", "1,4,2,3", "--le=2", "-x"],
        ["classify", "--max-m", "5", "--format", "yaml"],
        ["--bogus", "analyze"],
    ], ids=" ".join)
    def test_errors_alike(self, both_routes, argv):
        (result, out, err), reference = both_routes(argv)
        assert (result, out) == (("exit", 2), "")
        assert err.startswith("usage: levischubert")
        assert (result, out, err) == reference

    @pytest.mark.parametrize("argv, refusal", [
        (["frobnicate"], "levischubert: error: argument command: invalid choice: "
         "'frobnicate' (choose from 'analyze', 'heads', 'toroidal', 'bp', "
         "'sweep', 'classify')"),
        # argparse reads the bare "-" and a negative number as positionals too
        (["-"], "levischubert: error: argument command: invalid choice: "
         "'-' (choose from 'analyze', 'heads', 'toroidal', 'bp', 'sweep', "
         "'classify')"),
        (["-1"], "levischubert: error: argument command: invalid choice: "
         "'-1' (choose from 'analyze', 'heads', 'toroidal', 'bp', 'sweep', "
         "'classify')"),
        # and a word holding a space that no option takes by its prefix
        *[([word], "levischubert: error: argument command: invalid choice: "
           f"{word!r} (choose from 'analyze', 'heads', 'toroidal', 'bp', 'sweep', "
           "'classify')") for word in ("-a b", "--a b", "- b", "-x=1 y", "--h b")],
        (["sweep", "--check", "nonsense"], "levischubert sweep: error: argument "
         "--check: invalid choice: 'nonsense' (choose from "
         + ", ".join(map(repr, sorted(sweeps.SWEEPS))) + ")"),
    ], ids=["frobnicate", "-", "-1", "-a b", "--a b", "- b", "-x=1 y", "--h b",
            "sweep --check nonsense"])
    def test_invalid_choice_is_worded_by_the_package(self, both_routes, monkeypatch,
                                                     argv, refusal):
        # argparse words its own refusal by version (CPython 3.13.13 drops the
        # quotes); a gettext hook that rewords it must not reach these bytes
        monkeypatch.setattr(argparse, "_", lambda text: text.replace(
            "invalid choice", "not a choice"))
        for result, out, err in both_routes(argv):
            assert (result, out) == (("exit", 2), "")
            assert err.splitlines()[-1] == refusal

    @pytest.mark.parametrize("word, tail", [
        ("-h b", " b"), ("-hx", "x"), ("-hh b", " b"), ("-h-", "-"), ("-h=x", "x"),
        ("--he=x y", "x y")])
    def test_help_with_a_tail_is_refused(self, both_routes, word, tail):
        # CPython 3.13 reads "-hx" as -h and prints the help; every version
        # refuses it here, with the words of the versions before
        (result, out, err), reference = both_routes([word])
        assert (result, out) == (("exit", 2), "")
        assert err.splitlines()[-1] == (
            f"levischubert: error: argument -h/--help: ignored explicit argument {tail!r}")
        assert (result, out, err) == reference

    @pytest.mark.parametrize("argv", [["-h"], ["-hh"], ["analyze", "-h"]], ids=" ".join)
    def test_help_alike(self, both_routes, argv):
        (result, out, err), reference = both_routes(argv)
        assert (result, err) == (("exit", 0), "")
        assert out.startswith(f"usage: levischubert {' '.join(argv[:-1])}".rstrip())
        assert (result, out, err) == reference

    def test_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "2"]
        expected = run_cli(capsys, *argv)
        # the command line of a console script is dispatched too: the
        # top-level parse_args never runs on it
        top_level = []
        parse_args = argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda self, *a: top_level.append(a) or parse_args(self, *a))
        monkeypatch.setattr(sys, "argv", ["levischubert", *argv])
        assert (cli.main(), *capsys.readouterr()) == expected
        assert top_level == []
        monkeypatch.setattr(sys, "argv", ["levischubert"])
        code, out, err = cli.main(), *capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.endswith("error: the following arguments are required: command\n")


class TestInternalError:
    def test_failed_self_check_exits_four(self, capsys, monkeypatch):
        def broken(tau, J, I):
            raise RuntimeError(f"head set below {tau} has no unique minimum")
        monkeypatch.setattr(levi, "heads_below", broken)
        code, out, err = run_cli(
            capsys, "analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "2")
        assert code == 4
        assert out == ""
        assert err.splitlines() == [
            "error: internal: RuntimeError: "
            "head set below (3, 4, 1, 2) has no unique minimum"]

    def test_wrong_minimal_head_exits_four(self, capsys, monkeypatch):
        # the real heads_below, whose self-check rejects a wrong closed form
        monkeypatch.setattr(levi, "_minimal_head", lambda J, I, n: (3, 4, 1, 2))
        code, out, err = run_cli(
            capsys, "analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "2")
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            "error: internal: RuntimeError: "
            "head set below (3, 4, 1, 2) has no unique minimum"]


class TestClassifyCommand:
    def test_table_and_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--max-m", "25")
        assert code == 0
        data = json.loads(out)
        assert [f["tag"] for f in data["families"]] == ["a", "b", "c"]
        assert data["sweep"]["violations"] == 0


class TestJsonCanonical:
    def test_round_trip_byte_identity(self, capsys):
        for argv in (
            ["analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "2"],
            ["toroidal", "--n", "6", "--d", "2", "--w", "2,6,1,3,4,5",
             "--levi", "1,3,4,5"],
            ["bp", "--n", "3", "--w", "3,2,1", "--quotient", "1"],
            ["sweep", "--check", "head-oracle", "--max-n", "3"],
        ):
            code = cli.main(argv)
            out = capsys.readouterr().out
            assert code == 0
            for line in out.strip().splitlines():
                assert cli.canonical_json(json.loads(line)) == line

    @given(JSON_VALUES)
    def test_same_bytes_as_dumps(self, obj):
        expected = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert cli.canonical_json(obj) == expected

    @given(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4))
    def test_text_format_same_bytes_as_dumps(self, obj):
        # the text format's encoder has json.dumps's default separators
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(obj, "text")
        assert out.getvalue() == "".join(
            f"{key}: {json.dumps(obj[key], sort_keys=True)}\n" for key in sorted(obj))

    def test_refuses_what_json_cannot_hold(self):
        # both encoders raise json.JSONEncoder.default's error
        message = "Object of type set is not JSON serializable"
        with pytest.raises(TypeError, match=message):
            cli.canonical_json({"b": {1}})
        with pytest.raises(TypeError, match=message), \
                contextlib.redirect_stdout(io.StringIO()):
            cli._emit({"b": {1}}, "text")

    def test_no_state_left_by_a_failed_encode(self):
        # a shared circular-reference table would keep the ids of "a" and
        # its dict from the failed encode and refuse the second as circular
        outer = {"a": {"x": 1}, "b": {1}}
        with pytest.raises(TypeError):
            cli.canonical_json(outer)
        del outer["b"]
        assert cli.canonical_json(outer) == '{"a":{"x":1}}'

    def test_reproducible(self, capsys):
        argv = ["analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "2"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestStartup:
    #: the modules that importing the command line and building its parser
    #: add to a fresh interpreter
    ADDED = ("import sys; before = set(sys.modules); "
             "import levischubert.cli as cli; cli.build_parser(); "
             "print(*sorted(set(sys.modules) - before))")

    def test_imports_neither_dataclasses_nor_json(self, report_fact):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", self.ADDED], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        added = set(proc.stdout.split())
        assert "levischubert.cli" in added  # the scan sees the import
        assert not added & {"dataclasses", "json"}
        # inspect is reported, not asserted: another stdlib may import it
        # for its own reasons
        report_fact("imports inspect", "inspect" in added)
