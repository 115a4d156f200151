"""The benchmark reaches into the package by name: the worker reads
caches by their private names (``weyl._quotient_reps``, ``levi._max_levi``,
...) to report hit ratios, and ``bench/run.py`` lists the traced functions
whose calls and self time it reports.  Renaming or deleting one must fail
here and not only in the slower benchmark suite, or its metric silently
reads 0.  The bench's query oracles come from ``tests/oracles.py`` by name
too, so renaming one of those must fail here as well."""

import ast
import importlib.util
import inspect
import pathlib
import sys

import oracles
from levischubert import levi, weyl

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
WORKER = BENCH / "worker.py"
MODULES = {"weyl": weyl, "levi": levi}
#: Traced names whose function is gone, so that their metrics read 0; they
#: wait for a benchmark change that retargets them (ROADMAP item 5).
STALE = {"weyl.parabolic_elements", "levi.boundary", "bp.project_divisor"}


def private_names():
    """Every ``weyl._name`` / ``levi._name`` attribute read in the worker."""
    tree = ast.parse(WORKER.read_text())
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES and node.attr.startswith("_")}


def test_worker_reads_some_cache():
    # the scan must still see the worker's reads, or the next test is vacuous
    assert private_names()


def test_every_cache_the_worker_reads_exists():
    for module, attr in sorted(private_names()):
        cache = getattr(MODULES[module], attr, None)
        assert cache is not None, f"{module}.{attr} is gone"
        assert callable(getattr(cache, "cache_info", None)), f"{module}.{attr}"
        assert callable(getattr(cache, "cache_clear", None)), f"{module}.{attr}"


def traced_names():
    """The ``<module>.<function>`` of each per-layer metric of ``bench/run.py``
    that the tracer fills: ``.calls``, ``.self_s`` and ``tail.*.share``."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
        for name in ("tracing", "worker"):  # run.py's imports from the bench
            sys.modules.pop(name, None)
    out = set()
    for metric, _ in run.PER_LAYER:
        parts = metric.removeprefix("tail.").split(".")
        if len(parts) == 3 and parts[0] in run.MODULES \
                and parts[2] in ("calls", "self_s", "share"):
            out.add(f"{parts[0]}.{parts[1]}")
    return out


def test_every_traced_function_exists_but_the_stale_ones():
    names = traced_names()
    assert "weyl.lower_covers" in names and "levi.heads_below" in names
    gone = set()
    for name in names:
        module, fn = name.split(".")
        package_module = importlib.import_module(f"levischubert.{module}")
        if not inspect.isfunction(getattr(package_module, fn, None)):
            gone.add(name)
    assert gone == STALE


def oracle_names():
    """Every ``oracles.<name>`` attribute read in ``bench/*.py``."""
    out = set()
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        out.update(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "oracles")
    return out


def test_bench_reads_some_oracle():
    # the scan must still see the bench's reads, or the next test is vacuous
    assert oracle_names()


def test_every_oracle_the_bench_reads_exists():
    for name in sorted(oracle_names()):
        assert inspect.isfunction(getattr(oracles, name, None)), f"oracles.{name}"
