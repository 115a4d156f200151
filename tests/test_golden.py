"""Byte-identity gate for the command line.

Each invocation in ``golden_cli.json`` must reproduce its recorded exit
code, the sha256 of its stdout and its stderr lines.  The corpus covers
the README examples, their ``--format text`` variants, the usage,
rank-limit and vacuous-bound error paths, and every sweep at a small
bound.

The one allowance is the ``usage:`` block of a usage error: argparse wraps
it at points that differ between Python versions, so it is compared with
its whitespace normalized.  Every word and flag in it, every other stderr
line and every stdout byte must still match.

After an intended output change (or to add an invocation: append an entry
with only its ``argv``), re-record the corpus and review the diff::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random

import pytest

from levischubert import cli

CORPUS = pathlib.Path(__file__).with_name("golden_cli.json")
#: argparse wraps its usage lines to the terminal width
COLUMNS = "80"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {
        "argv": list(argv),
        "code": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue().splitlines(),
    }


def unwrapped(record):
    """``record`` with the ``usage:`` block of its stderr (the ``usage:``
    line and its indented continuation lines) joined into one line with
    single spaces; every other line is kept as it is."""
    stderr = []
    for line in record["stderr"]:
        if stderr and stderr[-1].startswith("usage:") and line[:1].isspace():
            stderr[-1] += line
        else:
            stderr.append(line)
    return {**record, "stderr": [" ".join(line.split()) if line.startswith("usage:")
                                 else line for line in stderr]}


ENTRIES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_invocation_is_byte_identical(monkeypatch, entry):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert unwrapped(invoke(entry["argv"])) == unwrapped(entry)


def test_corpus_in_any_order(monkeypatch):
    # one process, one shared parser: no call may see what an earlier one
    # parsed, defaulted or rejected
    monkeypatch.setenv("COLUMNS", COLUMNS)
    shuffled = ENTRIES[:]
    random.Random(12).shuffle(shuffled)
    for entry in ENTRIES[::-1] + shuffled:
        assert unwrapped(invoke(entry["argv"])) == unwrapped(entry)


PINS = json.loads((CORPUS.parent.parent / "bench" / "pins.json").read_text())["sweeps"]
#: each sweep the benchmark runs, at its full-size bound: the larger of its
#: two pins (the other is the smoke size), so the later one in bound order
FULL_SIZE = {check: int(bound) for check, bound in
             sorted((key.rsplit("@", 1) for key in PINS), key=lambda cb: int(cb[1]))}


@pytest.mark.parametrize("check", sorted(FULL_SIZE),
                         ids=lambda check: f"{check}@{FULL_SIZE[check]}")
def test_sweep_matches_bench_pin(check):
    # the corpus runs each sweep at a small bound; the benchmark pins the
    # instance count and stdout digest of each at its full size
    bound = FULL_SIZE[check]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sweep", "--check", check, "--max-n", str(bound)])
    text = out.getvalue()
    pin = PINS[f"{check}@{bound}"]
    assert code == 0
    assert json.loads(text.rsplit("\n", 2)[-2])["instances"] == pin["instances"]
    assert hashlib.sha256(text.encode()).hexdigest() == pin["sha256"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    recorded = [invoke(e["argv"]) for e in ENTRIES]
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, recorded)) + "\n]\n")
    print(f"recorded {len(recorded)} invocations in {CORPUS.name}")
