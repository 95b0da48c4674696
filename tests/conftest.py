"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` runs every property on
derandomized examples, without the example database, so two builds are
checked on the same draws; unset, the default profile is used."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
