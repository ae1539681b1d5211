"""Test-suite settings shared by every module."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and store none, so the
# suite stays deterministic.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("deterministic")


def pytest_configure(config):
    # Hypothesis also caches the constants it reads from the package's
    # source; keep that cache in a directory removed after the run.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
