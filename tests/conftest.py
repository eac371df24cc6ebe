"""Suite-wide settings.

Every hypothesis test draws the same examples on every run (``derandomize``)
and keeps no example database.  Hypothesis also caches the constants it
parses out of the sources; that cache goes to a temporary directory removed
at the end of the run, so a run writes no ``.hypothesis/`` directory.
Example counts stay with each test.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")


def pytest_configure(config):
    set_hypothesis_home_dir(_storage.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    _storage.cleanup()
