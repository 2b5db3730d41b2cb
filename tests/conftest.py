"""Shared test settings: property tests run a small, fixed set of examples."""

from hypothesis import settings

settings.register_profile("tier1", max_examples=30, deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")
