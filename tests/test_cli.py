import argparse
import dataclasses
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from levischubert import bp, classify, cli, grassmann, levi, sweeps, toroidal, weyl


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


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
            dataclasses.replace(c, stable=True) for c in f(w, J, I)), 4),
    "bp-equivalence": (bp, "is_bp_support", lambda f: lambda d: True, 3),
    # every length doubled, so an image one dimension below v reads as two
    "projection-dichotomy": (weyl, "length", lambda f: lambda w: 2 * f(w), 4),
    "smooth-palindromic": (grassmann, "is_smooth", lambda f: lambda x: False, 4),
    # every family's orbits then fill the whole space
    "classify-codim": (classify, "_BY_TAG", lambda by_tag: {
        tag: dataclasses.replace(f, dimensions=lambda m, i: (1, 1, 1))
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
        # the Young-diagram count, by one more diagram of the largest size
        count = weyl._grassmann_poincare
        monkeypatch.setattr(weyl, "_grassmann_poincare",
                            lambda top: (*count(top)[:-1], count(top)[-1] + 1))
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
        # the bench traces cli.canonical_json and expects one call per
        # record plus one for the summary
        calls = []
        encode = cli.canonical_json
        monkeypatch.setattr(cli, "canonical_json",
                            lambda obj: calls.append(1) or encode(obj))
        code, out, _ = run_cli(
            capsys, "sweep", "--check", "smooth-palindromic", "--max-n", "5")
        assert code == 0
        summary = json_lines(out)[-1]
        assert summary["instances"] > 0
        assert len(calls) == summary["instances"] + 1
        assert len(out.splitlines()) == summary["instances"] + 1

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
            yield {"check": "head-oracle", "ok": True}
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
            yield {"check": "head-oracle", "ok": True}
            yield {"check": "head-oracle", "ok": False}
        monkeypatch.setitem(sweeps.SWEEPS, "head-oracle", (rigged, 6, False))
        code, out, _ = run_cli(capsys, "sweep", "--check", "head-oracle",
                               "--format", "text")
        assert code == 1
        assert out == "head-oracle: 2 instances, 1 disagreements\n"


class TestSharedParser:
    def test_built_once_per_process(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "levischubert":
                built.append(self)
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
        ):
            cli.main(argv)
        assert len(built) == 1


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

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=20))
    def test_same_bytes_as_dumps(self, obj):
        expected = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert cli.canonical_json(obj) == expected

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
