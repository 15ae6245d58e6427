"""Forked worker pools: one worker per usable CPU.

A pool's workers are forked, so they start with the parent's memory.
Arrays that exist when the pool is made reach them without a copy: its
``state``, which :func:`ordered_map` hands to every job, and arrays made by
:func:`shared_array`, which the workers write and the parent reads.  Only
job arguments and results cross the pipes.

With one usable CPU, or one job, nothing is forked and every job runs in
the calling process, on the same ``state``.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import Callable, Iterable, Iterator

import numpy as np

#: A forked worker's ``state``, set once by :func:`_init_worker`; the
#: parent process never sets it.
_worker_state: tuple = ()


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where there is none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _init_worker(state: tuple = ()) -> None:
    """Set up a forked worker: keep ``state`` for its jobs, and leave it one
    OpenBLAS thread, since the workers already fill every CPU (BLAS threads
    of their own spin against the other workers: twice the CPU time)."""
    global _worker_state
    _worker_state = state
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in fh
                     if "openblas" in line}
        for library in map(ctypes.CDLL, paths):
            for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads",
                         "scipy_openblas_set_num_threads64_"):
                if hasattr(library, name):
                    getattr(library, name)(ctypes.c_int(1))
    except OSError:
        pass    # no /proc, or a library that cannot be opened: threads stay


def fork_pool(workers: int, state: tuple = ()):
    """A process pool of ``workers`` forked workers that hold ``state``."""
    # Imported here: at module level they would add about 20 ms to every
    # start of the program.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    return ProcessPoolExecutor(workers, get_context("fork"),
                               initializer=_init_worker, initargs=(state,))


def shared_array(shape, dtype) -> np.ndarray:
    """A zero-filled array in an anonymous shared mapping, which workers
    forked after this call write for the parent to read.  The mapping is
    released with the last array that views it."""
    import mmap     # here, like the pool's imports: only its users pay for it
    count = math.prod(shape)
    size = count * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, max(size, 1)), dtype,
                         count=count).reshape(shape)


def _run(job: Callable, args: tuple):
    return job(_worker_state, *args)


def ordered_map(job: Callable, jobs: Iterable[tuple], state: tuple = ()) -> Iterator:
    """Yield ``job(state, *args)`` for every ``args`` of ``jobs``, in order.

    ``job`` is a module-level function.  The jobs run on one forked worker
    per usable CPU (no more workers than jobs), at most two per worker in
    flight, so at most that many results wait in the parent.  A job's
    exception reaches the caller, and every worker has exited by the time
    the generator is exhausted or closed.
    """
    jobs = list(jobs)
    workers = min(_usable_cpus(), len(jobs))
    if workers < 2:
        for args in jobs:
            yield job(state, *args)
        return
    pool = fork_pool(workers, state)
    try:
        pending = deque()
        for args in jobs:
            pending.append(pool.submit(_run, job, args))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
