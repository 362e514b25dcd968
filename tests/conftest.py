import sys

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; max_examples bounds its time.
settings.register_profile("flatperm", derandomize=True, deadline=None,
                          database=None, max_examples=150)
settings.load_profile("flatperm")


def interrupt_every_line(module, start, grow):
    """For every line event that sys.settrace reports inside module while
    grow(memo) runs, build memo = start() untraced, then run grow(memo)
    with a KeyboardInterrupt raised at that event.  Yields each memo after
    its interrupted growth, for the caller's retry."""
    source = module.__file__
    events, fail_at, memo = 0, None, None

    def on_line(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
            if events == fail_at:
                raise KeyboardInterrupt
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == source else None

    def traced():
        nonlocal events, memo
        memo = start()
        events = 0
        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            grow(memo)
        finally:
            sys.settrace(previous)

    traced()
    grow_events = events
    assert grow_events > 0
    for fail_at in range(1, grow_events + 1):
        with pytest.raises(KeyboardInterrupt):
            traced()
        yield memo
