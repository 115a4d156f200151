"""One hypothesis profile for the whole suite: examples are drawn from a
seed fixed per test and no example database is replayed, so a verdict
cannot change from one run to the next; no example is timed out."""

from hypothesis import settings

settings.register_profile("levischubert", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("levischubert")
