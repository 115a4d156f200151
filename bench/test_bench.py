"""Tests of the benchmark itself, at smoke sizes: ``python3 -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import queries
import run
import tracing

SMOKE = ["--seed", "1", "--seconds", "0", "--smoke"]


def bench(*args, script=run.BENCH / "run.py", cwd=run.ROOT):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=120)


def result_of(out: str) -> dict:
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_the_gate(workload):
    proc = bench("--workload", workload, "--trace", "0", *SMOKE)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload, layer", [("sweep-bp", "weyl.bruhat_leq.calls"),
                                             ("query-mix", "levi.heads_below.calls"),
                                             ("sweep-stream", "classify.calls")])
def test_traced_run_reports_every_layer_metric(workload, layer):
    proc = bench("--workload", workload, "--trace", "1", *SMOKE)
    assert proc.returncode == 0, proc.stderr
    metrics = result_of(proc.stdout)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == dict(run.PER_LAYER)
    assert metrics[layer]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def _run_in_process(capsys, workload) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--trace", "0", *SMOKE])
    return code, result_of(capsys.readouterr().out)


@pytest.mark.parametrize("field, workload", [("instances", "sweep-bp"),
                                             ("sha256", "sweep-stream")])
def test_gate_fails_on_a_changed_sweep_pin(monkeypatch, capsys, field, workload):
    pins = run.load_pins()
    pin = pins["sweeps"]["bp-equivalence@4" if workload == "sweep-bp" else "classify-codim@20"]
    pin[field] = 0 if field == "instances" else "0" * 64
    monkeypatch.setattr(run, "load_pins", lambda: pins)
    code, result = _run_in_process(capsys, workload)
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_gate_fails_on_a_changed_reply_digest(monkeypatch, capsys):
    pins = run.load_pins()
    pins["query-mix"]["smoke"] = "0" * 64
    monkeypatch.setattr(run, "load_pins", lambda: pins)
    code, result = _run_in_process(capsys, "query-mix")
    assert code == 1 and result["failed"] == 1


def test_gate_fails_on_a_changed_oracle_check(monkeypatch, capsys):
    monkeypatch.setattr(queries, "VERDICTS", ("toroidal",))
    code, result = _run_in_process(capsys, "query-mix")
    assert code == 1 and result["failed"] >= 1


def test_incomplete_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-bp", "--trace", "0", *SMOKE,
                 script=tmp_path / "bench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_query_stream_is_seeded_and_balanced():
    a = queries.generate(5, 60, smoke=True)
    assert a == queries.generate(5, 60, smoke=True)
    assert a != queries.generate(6, 60, smoke=True)
    assert all(sum(q["kind"] == k for q in a) == 12 for k in queries.KINDS)
    assert run.KINDS == queries.KINDS


def test_tracer_sees_sweeps_by_reference_and_each_iteration():
    sys.path.insert(0, str(run.ROOT / "src"))
    import levischubert
    from levischubert import classify, cli, sweeps

    original = cli.main
    tracer = tracing.Tracer(levischubert)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--check", "classify-codim", "--max-n", "6"]) == 0
    finally:
        tracer.uninstall()
    table = {(key, parent): calls for key, parent, calls, _, _ in tracer.report()["table"]}
    cases = sum(1 for _ in classify.iter_cases(6))
    # one frame per item, plus the final next() that ends the generator
    assert table[("sweeps.classify_codim", "cli.main")] == cases + 1
    assert table[("classify.iter_cases", "sweeps.classify_codim")] == cases + 1
    assert table[("classify.codim_at_least_two", "sweeps.classify_codim")] == cases
    assert table[("cli.canonical_json", "cli.main")] == cases + 1
    assert cli.main is original
    assert sweeps.SWEEPS["classify-codim"][0] is sweeps.classify_codim
