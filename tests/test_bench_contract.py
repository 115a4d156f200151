"""The benchmark worker reads package caches by their private names
(``weyl._quotient_reps``, ``levi._max_levi``, ...) to report hit ratios.
Each name it reads must stay an ``lru_cache``-wrapped function, so that
renaming or deleting one fails here and not only in the slower benchmark
suite."""

import ast
import pathlib

from levischubert import levi, weyl

WORKER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "worker.py"
MODULES = {"weyl": weyl, "levi": levi}


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
