from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; max_examples bounds its time.
settings.register_profile("flatperm", derandomize=True, deadline=None,
                          database=None, max_examples=150)
settings.load_profile("flatperm")
