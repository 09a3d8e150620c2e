from hypothesis import settings

# Property tests draw the same examples on every run, so a failure
# reproduces on rerun; each test still sets its own max_examples.
settings.register_profile("scakit", derandomize=True, deadline=None)
settings.load_profile("scakit")
