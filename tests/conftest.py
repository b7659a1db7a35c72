"""Hypothesis profiles.

Local runs use Hypothesis's defaults.  CI sets HYPOTHESIS_PROFILE=ci,
which draws ten times as many examples for every property test.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
