"""The README names entry points as ``module.name`` inside backticks, in
prose and in its code blocks.  Each must resolve in the package, so a
deleted or renamed function cannot stay documented."""

import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("weyl", "grassmann", "levi", "toroidal", "bp", "classify", "sweeps", "cli")
NAME = re.compile(r"(?<![\w.])(%s)\.(\w+(?:\.\w+)*)" % "|".join(MODULES))


def backticked(text):
    """Fenced code blocks first, then the inline spans of what is left."""
    fences = re.compile(r"^```.*?^```", re.S | re.M)
    yield from fences.findall(text)
    yield from re.findall(r"`([^`\n]+)`", fences.sub("", text))


def resolves(module, dotted):
    obj = importlib.import_module(f"levischubert.{module}")
    for attr in dotted.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_named_entry_point_resolves():
    names = {m.groups() for span in backticked(README.read_text())
             for m in NAME.finditer(span)}
    assert len(names) > 20  # the pattern still finds the entry points
    missing = sorted(f"{module}.{dotted}" for module, dotted in names
                     if not resolves(module, dotted))
    assert not missing, missing
