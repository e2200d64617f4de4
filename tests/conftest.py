"""Settings shared by the whole suite.

One hypothesis profile is loaded for every property test: derandomized, so
each run draws the same examples, and without a deadline, so a slow
machine cannot fail a test that is correct.  Tests set only their
`max_examples`.
"""

from hypothesis import settings

settings.register_profile("chartscribe", derandomize=True, deadline=None)
settings.load_profile("chartscribe")
