import os

import numpy as np
import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci: every run of a commit draws the same examples and
# a failure prints the blob that reproduces it; local runs keep the default
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _strict_float_errors():
    """Fail loudly on invalid float ops inside any test."""
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        yield
