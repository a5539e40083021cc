"""Build-once memo: the one place the lab keeps a solved value."""

import threading


class Once:
    """Values built once per key, on first request, also for concurrent callers.

    Each key has its own lock, so different keys build in parallel and a build
    may ask for another key.  A build that raises keeps nothing.
    """

    def __init__(self):
        self._values, self._locks = {}, {}
        self._guard = threading.Lock()

    def get(self, key, build):
        """The value of ``key``, made by ``build()`` unless a caller made it before."""
        with self._guard:
            lock = self._locks.setdefault(key, threading.Lock())
        with lock:
            if key not in self._values:
                self._values[key] = build()
            return self._values[key]

    def peek(self, key, default=None):
        """The value of ``key`` if a caller built it, else ``default``; builds nothing."""
        return self._values.get(key, default)
