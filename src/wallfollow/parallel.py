"""Forked worker processes with unchanged results, for the grid's tasks and a fit's parts.

The SVM's one-vs-rest solves and the forest's trees read shared arrays and draw from
their own seeds, so each part computes the same bits in any process.  ``fork_map`` forks
one worker per usable CPU through ``forked_futures``, which also runs the ``--jobs``
grid's tasks; the workers inherit the shared arrays copy-on-write, so only an index
goes to a worker and only its part's result comes back.

A network's lane draws depend only on its seed, never on its weights, so ``made_ahead``
has one forked worker make the lane stream ahead, block by block, while the training
that reads it runs here.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import threading

import numpy as np

# (fn, items) of the pool that forked this process, set by the pool's initializer in each
# worker.  The lock is held while any worker that ``_forkable`` allows runs, so that a
# second thread's call, which would fork as many workers again, runs in turn.
_WORK: tuple | None = None
_WORK_LOCK = threading.Lock()

# ``made_ahead``'s ring: this many slots of one block each, so that the worker can run
# a few blocks ahead
RING_SLOTS = 4


@contextlib.contextmanager
def _forkable(parts: int):
    """Yields how many workers ``parts`` parts may fork: ``min(parts, usable CPUs)``, or
    0 when they must run in this process.  Holds ``_WORK_LOCK`` while it yields more.

    They run here when one CPU is usable (``taskset`` sets that) or the platform
    cannot tell (no ``os.sched_getaffinity``), there are fewer than two parts, this
    process is itself a pool worker (so workers never nest), another thread's workers
    run, or the platform cannot fork.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(parts, cpus)
    if workers < 2 or not _WORK_LOCK.acquire(blocking=False):
        yield 0
        return
    try:
        # loaded here, so that a command that fits no model never imports multiprocessing
        import multiprocessing

        if (multiprocessing.parent_process() is None
                and "fork" in multiprocessing.get_all_start_methods()):
            yield workers
        else:
            yield 0
    finally:
        _WORK_LOCK.release()


def _set_work(fn, items) -> None:
    """In each forked worker, the pool's initializer: the ``(fn, items)`` it inherited."""
    global _WORK
    _WORK = fn, items


def _fork_task(i: int):
    """In a forked worker: ``fn(items[i])`` of the pool that forked it."""
    fn, items = _WORK
    return fn(items[i])


@contextlib.contextmanager
def forked_futures(fn, items: list, workers: int):
    """Yields one future of ``fn(item)`` per item, in order, run by at most ``workers``
    workers of a ``fork``-context pool, which inherit ``(fn, items)``: only an index goes
    to a worker and only its result comes back.  On leaving, also on an error, the
    futures not started are cancelled and every worker is joined.
    """
    # loaded here, so that a run that forks no pool never imports multiprocessing
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(min(workers, len(items)), mp_context=context,
                               initializer=_set_work, initargs=(fn, items))
    try:
        yield [pool.submit(_fork_task, i) for i in range(len(items))]
    finally:
        pool.shutdown(cancel_futures=True)


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, spread over ``min(len(items), usable CPUs)``
    forked workers, or run in this process under ``_forkable``'s conditions.  An error
    raised by ``fn`` in a worker is raised here; a worker that dies raises
    ``BrokenProcessPool``.  No worker outlives the call.
    """
    items = list(items)
    with _forkable(len(items)) as workers:
        if workers:
            with forked_futures(fn, items, workers) as futures:
                return [future.result() for future in futures]
    return [fn(item) for item in items]


def _make_ahead(draw, ring, full_w: int, free_r: int, parent_ends) -> None:
    """In the forked worker: ``draw()`` into each slot of the ring in turn, one "slot full"
    token per block; a block past the first ``RING_SLOTS`` waits for a "slot free" token."""
    for fd in parent_ends:  # so that the parent closing its ends is seen here as EOF
        os.close(fd)
    for k in itertools.count():
        if k >= RING_SLOTS and not os.read(free_r, 1):
            return  # the parent stopped reading
        ring[k % RING_SLOTS] = draw()
        os.write(full_w, b"f")


def _ring_blocks(ring, full_r: int, free_w: int, worker):
    """The parent's side of the ring: each block in order, as a view of its slot."""
    for k in itertools.count():
        if k:  # the slot of the block before is free
            # a worker that exited early says so in the read below
            with contextlib.suppress(BrokenPipeError):
                os.write(free_w, b"f")
        if not os.read(full_r, 1):
            worker.join()
            raise ValueError(f"the draw worker exited (code {worker.exitcode}) before "
                             f"making block {k + 1}")
        yield ring[k % RING_SLOTS]


@contextlib.contextmanager
def made_ahead(draw, size: int):
    """Yields an endless iterator over ``draw()``, each a float64 array of ``size``
    values that ``draw`` makes from its own state alone.  A block may change once the
    next is read.

    Under ``_forkable``'s conditions for two parts, one forked worker makes the blocks
    ahead into a shared ring of ``RING_SLOTS`` slots of ``size`` values, and this process
    reads each in its slot; otherwise ``draw`` runs here as each is read.  A worker that
    dies raises ``ValueError``.  The worker is joined on leaving, also on an error.
    """
    with _forkable(2) as workers:
        if not workers:
            yield (draw() for _ in itertools.count())
            return
        import multiprocessing

        ring = np.frombuffer(mmap.mmap(-1, RING_SLOTS * size * 8)).reshape(RING_SLOTS, size)
        full_r, full_w = os.pipe()
        free_r, free_w = os.pipe()
        worker = multiprocessing.get_context("fork").Process(
            target=_make_ahead, daemon=True,
            args=(draw, ring, full_w, free_r, (full_r, free_w)))
        try:
            worker.start()
        except BaseException:
            os.close(full_r)
            os.close(free_w)
            raise
        finally:
            os.close(full_w)
            os.close(free_r)
        try:
            yield _ring_blocks(ring, full_r, free_w, worker)
        finally:
            os.close(free_w)  # a worker that waits for a free slot reads EOF and returns
            worker.join()
            os.close(full_r)
