"""Keep CPython's cyclic garbage collector out of the engine's hot calls.

The engine's working set is large and long-lived (an ``OdinsonEngine``
holds one ``DirectedGraph`` adjacency list per token, a matcher batch
builds thousands of per-sentence indexes), and none of it forms
reference cycles: it is freed by reference counting alone. A full
collection during a call still scans all of it and frees nothing.

``collector_paused`` turns the collector off for the duration of a call,
as a context manager (``with collector_paused:``) or as a decorator
(``@collector_paused``). It is re-entrant: nested and concurrent calls
share one depth counter, the outermost entry records whether the
collector was on and disables it, and the outermost exit, normal or by an
exception, turns it back on only if it was on at entry. A call that
creates reference cycles leaves them to the next collection after the
pause; ``tests/test_collector_paused.py`` pins that the paused entry
points create none.
"""

from __future__ import annotations

import functools
import gc
import threading


class _CollectorPause:
    """The pause shared by every decorated call of a process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __reduce__(self):
        # a lock does not pickle: a copy shipped to a worker (a decorated
        # class pickled by value) gets a fresh pause of its own
        return _CollectorPause, ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()

    def __call__(self, fn):
        @functools.wraps(fn)
        def paused(*args, **kwargs):
            with self:
                return fn(*args, **kwargs)

        return paused


collector_paused = _CollectorPause()
