"""One hypothesis profile for every property test.

Examples are derandomized, so every run draws the same ones; no example
database is read or written, and no example has a deadline.  Each property
sets only its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("clusterforge", derandomize=True, database=None, deadline=None)
settings.load_profile("clusterforge")
