"""The README names entry points as ``module.name`` inside backticks, in
prose and in its code blocks.  Each must resolve in the package, so a
deleted or renamed function cannot stay documented.  Its list of sweep
names must be the sweep table's, so a new sweep cannot go unlisted.  And
every function of the package must have a caller, a README entry or a
bench trace, so that nothing stays that nothing calls."""

import ast
import importlib
import inspect
import pathlib
import re

from test_bench_contract import traced_names

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "levischubert"
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


def test_sweep_names_list_every_sweep():
    # the "Sweep names:" sentence lists the keys of sweeps.SWEEPS, in order
    listed = re.search(r"^Sweep names: (.*?)\.$", README.read_text(), re.S | re.M)
    names = re.findall(r"`([^`]+)`", listed.group(1))
    assert names == list(importlib.import_module("levischubert.sweeps").SWEEPS)


def test_every_function_has_a_caller():
    # a module-level function (private or public, lru_cache unwrapped) is
    # kept only when package code names it, README documents it as
    # module.name, or bench/run.py traces it
    used = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    named = {".".join(m.groups()) for span in backticked(README.read_text())
             for m in NAME.finditer(span)} | traced_names()
    functions = {}
    for module in MODULES:
        package_module = importlib.import_module(f"levischubert.{module}")
        for name, obj in vars(package_module).items():
            fn = inspect.unwrap(obj)
            if inspect.isfunction(fn) and fn.__module__ == package_module.__name__:
                functions[f"{module}.{name}"] = name
    assert len(functions) > 50  # the scan still finds the functions
    uncalled = {qualified for qualified, name in functions.items()
                if name not in used and qualified not in named}
    # bench/worker.py still reads the cache counters of
    # weyl._parabolic_elements, which nothing in the package calls; ROADMAP
    # item 5 step 2 deletes it and empties this set
    assert uncalled == {"weyl._parabolic_elements"}
