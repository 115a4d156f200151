"""One hypothesis profile for the whole suite: examples are drawn from a
seed fixed per test and no example database is replayed, so a verdict
cannot change from one run to the next; no example is timed out.

What a test records with the ``report_fact`` fixture is printed at the end
of the run, as facts of the interpreter that the test reports but does not
assert.  The facts stay out of the test reports, so a JUnit XML report of
the default xunit2 family is written without a warning (the suite makes
every warning an error, and ``record_property`` warns under xunit2)."""

import pytest
from hypothesis import settings

settings.register_profile("levischubert", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("levischubert")

_FACTS = pytest.StashKey[list]()


@pytest.fixture
def report_fact(request):
    facts = request.config.stash.setdefault(_FACTS, [])
    return lambda name, value: facts.append((request.node.nodeid, name, value))


def pytest_terminal_summary(terminalreporter):
    for nodeid, name, value in terminalreporter.config.stash.get(_FACTS, ()):
        terminalreporter.write_line(f"{nodeid}: {name}: {value}")
