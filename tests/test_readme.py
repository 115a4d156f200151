"""The README names entry points as ``module.name`` inside backticks, in
prose and in its code blocks.  Each must resolve in the package, so a
deleted or renamed function cannot stay documented.  Its list of sweep
names must be the sweep table's, so a new sweep cannot go unlisted.  And
every function of the package, and every method or property defined in
one of its classes, must have a caller, a README entry or a bench trace,
so that nothing stays that nothing calls."""

import ast
import importlib
import inspect
import pathlib
import re

from test_bench_contract import traced_names

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "levischubert"
MODULES = ("weyl", "grassmann", "levi", "toroidal", "bp", "classify", "sweeps", "jsonl",
           "cli")
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


def package_names():
    """Every name and attribute that package code reads or calls."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def documented():
    """The README's ``module.name`` entries and the bench's traced names."""
    return {".".join(m.groups()) for span in backticked(README.read_text())
            for m in NAME.finditer(span)} | traced_names()


def defined_in(module):
    """The ``(name, object)`` pairs that ``levischubert.<module>`` defines
    itself, ``lru_cache`` unwrapped; what it imports is left out."""
    package_module = importlib.import_module(f"levischubert.{module}")
    for name, obj in vars(package_module).items():
        if getattr(inspect.unwrap(obj), "__module__", None) == package_module.__name__:
            yield name, obj


def is_function(obj):
    return inspect.isfunction(inspect.unwrap(obj))


def is_member(name, attr):
    """A method, property, classmethod or staticmethod written in the
    package, but not a dunder method, which the language calls, nor one
    that ``NamedTuple`` supplies (``_make``, ``_replace``, ``_asdict``),
    whose code is in the standard library."""
    dunder = name.startswith("__") and name.endswith("__")
    if dunder or not (isinstance(attr, (property, classmethod, staticmethod))
                      or is_function(attr)):
        return False
    code = inspect.unwrap(getattr(attr, "fget", None) or getattr(attr, "__func__", attr))
    return pathlib.Path(code.__code__.co_filename).resolve().parent == PACKAGE


def uncalled(qualified_names):
    """The names in ``qualified_names`` (qualified name -> bare name) that
    no package code names and neither README nor bench lists."""
    used, named = package_names(), documented()
    return {qualified for qualified, name in qualified_names.items()
            if name not in used and qualified not in named}


def test_every_function_has_a_caller():
    # a module-level function (private or public) is kept only when
    # package code names it, README documents it as module.name, or
    # bench/run.py traces it
    functions = {f"{module}.{name}": name for module in MODULES
                 for name, obj in defined_in(module) if is_function(obj)}
    assert len(functions) > 50  # the scan still finds the functions
    # bench/worker.py still reads the cache counters of
    # weyl._parabolic_elements, which nothing in the package calls; ROADMAP
    # item 5 step 2 deletes it and empties this set
    assert uncalled(functions) == {"weyl._parabolic_elements"}


def test_every_class_member_has_a_caller():
    # a member defined in the body of a package class is kept on the same
    # terms, with README documenting it as module.Class.member
    members = {f"{module}.{cls_name}.{name}": name for module in MODULES
               for cls_name, cls in defined_in(module) if inspect.isclass(cls)
               for name, attr in vars(cls).items() if is_member(name, attr)}
    assert len(members) > 10  # the scan still finds the members
    assert uncalled(members) == set()
