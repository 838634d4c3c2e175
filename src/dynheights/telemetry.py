"""Work counters for the run manifest.

Library calls report their work through ``count``, once per call or kernel
run; ``count`` keeps nothing unless a caller installed a sink with
``counting()``, as ``cli.main`` does around each command.  The package runs
on one thread, so the sink is one module-level variable.
"""

import contextlib

_sink = None


def count(name: str, k: int = 1) -> None:
    """Add k to the counter ``name`` of the installed sink, if any; k = 0
    lists the counter at 0."""
    if _sink is not None:
        _sink[name] = _sink.get(name, 0) + k


@contextlib.contextmanager
def counting():
    """Install a fresh sink for the block and yield it, a dict of counters;
    the previous sink comes back on exit, also when an exception leaves."""
    global _sink
    previous, _sink = _sink, {}
    try:
        yield _sink
    finally:
        _sink = previous
