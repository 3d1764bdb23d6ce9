"""Shared test settings.

The `ci` hypothesis profile (`pytest --hypothesis-profile=ci`) draws
examples deterministically and prints the blob of a failing one, so a
failing property reproduces the same way on every CI leg; local runs keep
the random default.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
