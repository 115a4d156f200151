"""Byte-identity gate for the command line.

Each invocation in ``golden_cli.json`` must reproduce its recorded exit
code, the sha256 of its stdout and its stderr lines.  The corpus covers
the README examples, their ``--format text`` variants, the usage,
rank-limit and vacuous-bound error paths, and every sweep at a small
bound.

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


ENTRIES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_invocation_is_byte_identical(monkeypatch, entry):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert invoke(entry["argv"]) == entry


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    recorded = [invoke(e["argv"]) for e in ENTRIES]
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, recorded)) + "\n]\n")
    print(f"recorded {len(recorded)} invocations in {CORPUS.name}")
