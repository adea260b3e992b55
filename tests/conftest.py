"""Suite-wide Hypothesis settings.

On CI (GitHub Actions sets ``CI``) every property test draws a fixed,
derandomized sequence of examples and keeps no example database, so one
unlucky draw cannot turn tier-1 red on one run and green on the next.
Locally the default randomized profile keeps exploring new examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)

if os.environ.get("CI"):
    settings.load_profile("ci")
