"""Suite-wide test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; no deadline, because a shared
# machine's speed varies between runs.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
