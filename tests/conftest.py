"""Suite-wide test settings: one hypothesis profile for every property test.

``deadline=None`` because per-example wall time depends on machine load,
not on the code under test; ``derandomize=True`` so every run draws the
same examples and a failure reproduces from the suite alone.
"""

from hypothesis import settings

settings.register_profile("coordsim", deadline=None, derandomize=True)
settings.load_profile("coordsim")
