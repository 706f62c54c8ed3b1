"""Forked worker processes with unchanged results, for the grid's tasks and a fit's parts.

The SVM's one-vs-rest solves and the forest's trees read shared arrays and draw from
their own seeds, so each part computes the same bits in any process.  ``fork_map`` forks
one worker per usable CPU through ``forked_futures``, which also runs the ``--jobs``
grid's tasks; the workers inherit the shared arrays copy-on-write, so only an index
goes to a worker and only its part's result comes back.

A network's lane draws depend only on its seed and its batch plan, never on its weights,
so ``made_ahead`` has one forked worker make them while the training that reads them
runs here.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import threading

import numpy as np

# (fn, items) of the pool that forked this process, set by the pool's initializer in each
# worker.  The lock is held while any worker that ``_forkable`` allows runs, so that a
# second thread's call, which would fork as many workers again, runs in turn.
_WORK: tuple | None = None
_WORK_LOCK = threading.Lock()

# ``made_ahead``'s ring: this many slots, each at least this many bytes, so that a
# slot holds several small arrays and the worker can run a few slots ahead
RING_SLOTS = 4
SLOT_FLOOR = 512 * 1024


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


def _places(shapes, slot_values: int):
    """(slot number, offset in values) of each shape's float64 array, packed in
    order: an array that does not fit the rest of its slot starts the next slot."""
    slot = used = 0
    for shape in shapes:
        size = math.prod(shape)
        if used + size > slot_values:
            slot, used = slot + 1, 0
        yield slot, used
        used += size


def _make_ahead(draw, shapes, ring, slot_values: int, full_w: int, free_r: int,
                parent_ends) -> None:
    """In the forked worker: each ``draw(shape)`` into the ring, one "slot full" token
    per slot; a slot past the first ``RING_SLOTS`` waits for a "slot free" token."""
    for fd in parent_ends:  # so that the parent closing its ends is seen here as EOF
        os.close(fd)
    current = 0
    for (slot, offset), shape in zip(_places(shapes, slot_values), shapes):
        if slot != current:
            os.write(full_w, b"f")
            current = slot
            if slot >= RING_SLOTS and not os.read(free_r, 1):
                return  # the parent stopped reading
        start = slot % RING_SLOTS * slot_values + offset
        values = draw(shape).reshape(-1)
        ring[start:start + values.size] = values
    os.write(full_w, b"f")


def _copy_out(shapes, ring, slot_values: int, full_r: int, free_w: int, worker):
    """The parent's side of the ring: each array copied out in order."""
    current = -1
    for k, ((slot, offset), shape) in enumerate(zip(_places(shapes, slot_values), shapes)):
        if slot != current:
            if current >= 0:
                # a worker past its last slot has exited; if it exited early, the read says so
                with contextlib.suppress(BrokenPipeError):
                    os.write(free_w, b"f")
            if not os.read(full_r, 1):
                worker.join()
                raise ValueError(f"the draw worker exited (code {worker.exitcode}) before "
                                 f"making draw {k + 1} of {len(shapes)}")
            current = slot
        start = slot % RING_SLOTS * slot_values + offset
        yield ring[start:start + math.prod(shape)].reshape(shape).copy()


@contextlib.contextmanager
def made_ahead(draw, shapes):
    """Yields an iterator over ``draw(shape)`` for each shape of ``shapes`` in order,
    each a float64 array that ``draw`` makes from its own state alone.

    Under ``_forkable``'s conditions for two parts, one forked worker makes the arrays
    ahead into a shared ring of ``RING_SLOTS`` slots, each the size of the largest
    array or ``SLOT_FLOOR`` bytes if that is larger, and this process copies each out
    as it is read; otherwise ``draw`` runs here as each is read.  A worker that dies
    raises ``ValueError``.  The worker is joined on leaving, also on an error.
    """
    with _forkable(2) as workers:
        if not workers:
            yield map(draw, shapes)
            return
        import multiprocessing

        slot_bytes = max(SLOT_FLOOR, 8 * max(map(math.prod, shapes), default=0))
        ring = np.frombuffer(mmap.mmap(-1, RING_SLOTS * slot_bytes), dtype=np.float64)
        full_r, full_w = os.pipe()
        free_r, free_w = os.pipe()
        worker = multiprocessing.get_context("fork").Process(
            target=_make_ahead, daemon=True,
            args=(draw, shapes, ring, slot_bytes // 8, full_w, free_r, (full_r, free_w)))
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
            yield _copy_out(shapes, ring, slot_bytes // 8, full_r, free_w, worker)
        finally:
            os.close(free_w)  # a worker that waits for a free slot reads EOF and returns
            worker.join()
            os.close(full_r)
