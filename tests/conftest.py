"""Test-suite configuration: hypothesis runs derandomized (examples are
derived from each test's source, not drawn at random) and keeps no example
database, so every run of the suite checks the same cases.  The
`socalm-fuzz` profile is the same with 20 times the examples, for the
command-line fuzz and the repeated-oracle-result test
(`--hypothesis-profile socalm-fuzz`)."""

from hypothesis import settings

settings.register_profile("socalm", derandomize=True, database=None, deadline=None)
settings.register_profile("socalm-fuzz", settings.get_profile("socalm"), max_examples=2000)
settings.load_profile("socalm")
