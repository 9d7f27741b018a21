"""Test-suite configuration.

`--hypothesis-profile=ci` selects the `ci` profile: hypothesis draws the
same examples on every run, so a property failure seen in CI replays
locally with the same flag.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
