"""Test-suite configuration: hypothesis runs derandomized (examples are
derived from each test's source, not drawn at random) and keeps no example
database, so every run of the suite checks the same cases."""

from hypothesis import settings

settings.register_profile("socalm", derandomize=True, database=None, deadline=None)
settings.load_profile("socalm")
