"""Test-suite set-up: HYPOTHESIS_PROFILE=ci makes every @given test
deterministic and lifts the per-example deadline, so that a slow runner
cannot fail one at random."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
