import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from levischubert import cli, levi, sweeps


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
        assert "--n must be positive" in err

    def test_not_a_coset_representative(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--n", "4", "--w", "2,1,3,4", "--d", "2")
        assert code == 2
        assert "minimal coset representative" in err

    def test_levi_index_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "4")
        assert code == 2

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
                expected = [list(h) for h in sorted(levi.boundary(w, (), I))]
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
        code, _, err = run_cli(
            capsys, "bp", "--n", "4", "--w", "1,4,2,3",
            "--parabolic", "3", "--d", "3")
        assert code == 2


class TestSweep:
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

    def test_unknown_check_rejected(self, capsys):
        assert cli.main(["sweep", "--check", "nonsense"]) == 2

    def test_violation_found_exits_one(self, capsys, monkeypatch):
        def rigged(bound):
            yield {"check": "rigged", "ok": True}
            yield {"check": "rigged", "ok": False}
        monkeypatch.setitem(sweeps.SWEEPS, "rigged", (rigged, 6, False))
        code, out, _ = run_cli(capsys, "sweep", "--check", "rigged",
                               "--format", "text")
        assert code == 1
        assert "1 disagreements" in out


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

    def test_reproducible(self, capsys):
        argv = ["analyze", "--n", "4", "--w", "3,4,1,2", "--levi", "2"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second
