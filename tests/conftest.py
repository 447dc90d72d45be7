"""One hypothesis profile for the suite: no per-example deadline (the
examples run numerical solves whose time varies with the machine) and
derandomized draws, so every run checks the same examples."""

from hypothesis import settings

settings.register_profile("finslerheat", deadline=None, derandomize=True)
settings.load_profile("finslerheat")
