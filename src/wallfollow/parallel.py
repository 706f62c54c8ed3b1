"""A fit's independent parts, run in forked worker processes with unchanged results.

The SVM's one-vs-rest solves and the forest's trees read shared arrays and
draw from their own seeds, so each part computes the same bits in any
process.  ``fork_map`` forks one worker per usable CPU; the workers inherit
the shared arrays copy-on-write, so only an index goes to a worker and only
its part's result comes back.
"""

from __future__ import annotations

import os
import threading

# (fn, items) of the running ``fork_map``, which its forked workers inherit.  The lock
# is held while it is set, so a call from a second thread runs its loop in turn.
_WORK: tuple | None = None
_WORK_LOCK = threading.Lock()


def _fork_task(i: int):
    """In a forked worker: ``fn(items[i])`` of the ``fork_map`` that forked it."""
    fn, items = _WORK
    return fn(items[i])


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, spread over ``min(len(items), usable CPUs)``
    forked workers, each of which sends its results back pickled.

    The loop runs in this process when one CPU is usable (``taskset`` sets
    that) or the platform cannot tell (no ``os.sched_getaffinity``), there
    are fewer than two items, this process is itself a pool worker (so
    ``--jobs`` workers never nest a pool), another thread's ``fork_map`` is
    forking, or the platform cannot fork.  An error raised by ``fn`` in a
    worker is raised here; a worker that dies raises ``BrokenProcessPool``.
    No worker outlives the call.
    """
    global _WORK
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(items), cpus)
    if workers >= 2 and _WORK_LOCK.acquire(blocking=False):
        try:
            # loaded here, so that a command that fits no model never imports multiprocessing
            import multiprocessing
            from concurrent.futures.process import ProcessPoolExecutor

            if (multiprocessing.parent_process() is None
                    and "fork" in multiprocessing.get_all_start_methods()):
                _WORK = fn, items
                context = multiprocessing.get_context("fork")
                with ProcessPoolExecutor(workers, mp_context=context) as pool:
                    return list(pool.map(_fork_task, range(len(items))))
        finally:
            _WORK = None
            _WORK_LOCK.release()
    return [fn(item) for item in items]
