"""Forked worker pools: one worker per usable CPU.

A :class:`Pool` forks its workers with ``multiprocessing`` (the fork
start method) and feeds each over a pipe of its own; it starts no thread.
The workers start with the parent's memory, so what exists when the pool
is made reaches them without a copy: the pool's job function and its
``state``, which every job receives, and arrays made by
:func:`shared_array`, which the workers write and the parent reads.  Only
job arguments and replies cross the pipes.

Before the first fork the parent imports ``numpy.random``, ``numpy.fft``
and ``numpy.ma`` (which np.median's NaN check loads).  numpy loads them on
first use, and the parent of a pool may never run a job itself, so
without this every worker of every pool would import them again (12-19 ms
of import time for the first two, 12-17 ms for numpy.ma, on a 2-vCPU
Xeon).  Set-up code that forks no pool loads none of them.

With one usable CPU, or one job, nothing is forked and every job runs in
the calling process, on the same ``state``.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import closing
from typing import Callable, Iterable, Iterator, Tuple

import numpy as np


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where there is none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _init_worker() -> None:
    """Leave a forked worker one OpenBLAS thread, since the workers already
    fill every CPU (BLAS threads of their own spin against the other
    workers: twice the CPU time)."""
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


def _serve(conn, inherited: list, job: Callable, state: tuple) -> None:
    """A worker's life: answer each ``args`` read from ``conn`` with
    ``(True, job(state, *args))``, or ``(False, (exception, traceback))``,
    until the parent closes its end.

    The worker closes ``inherited``, the parent's ends of the earlier
    workers' pipes, so those workers see end-of-file when the parent closes
    them.  It ignores SIGINT (the parent ends it) and leaves with
    ``os._exit``, so it never writes to stderr and never runs the parent's
    exit handlers.
    """
    import signal   # loaded already: multiprocessing forks with it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    code = 1    # any failure to talk to the parent
    try:
        for other in inherited:
            other.close()
        _init_worker()
        while True:
            try:
                args = conn.recv()
            except EOFError:
                code = 0
                break
            try:
                reply = (True, job(state, *args))
            except Exception as exc:    # the caller re-raises it
                import traceback
                reply = (False, (exc, traceback.format_exc()))
            conn.send(reply)
    finally:
        os._exit(code)


class Pool:
    """``workers`` forked processes that run ``job(state, *args)``.

    :meth:`submit` sends a job's ``args`` to the worker with the fewest
    jobs still running and returns a ticket; :meth:`result` returns that
    job's result, or raises its exception.  Each worker answers in the
    order it was sent jobs, and the caller asks for results in the order
    it submitted them, skipping those it no longer wants: their replies
    are read and dropped before a later reply of that worker.  A worker
    that dies without replying raises a ``RuntimeError`` that names its
    exit code.  :meth:`close` ends every worker: one still running a job
    is terminated, since no one will read its reply, and the others leave
    when their pipes close.
    """

    def __init__(self, workers: int, job: Callable, state: tuple = ()) -> None:
        # numpy loads these on first use: once here, not in every worker.
        import numpy.fft     # noqa: F401
        import numpy.ma      # noqa: F401
        import numpy.random  # noqa: F401
        from multiprocessing import get_context
        context = get_context("fork")
        self.processes = []
        self._conns = []
        self._sent = []         # jobs sent to each worker
        self._received = []     # replies read from each worker
        self._replies = []      # each worker's replies read, not yet taken
        try:
            for _ in range(workers):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_serve, daemon=True,
                    args=(child_end, [*self._conns, parent_end], job, state))
                self._conns.append(parent_end)
                process.start()
                child_end.close()
                self.processes.append(process)
                self._sent.append(0)
                self._received.append(0)
                self._replies.append(deque())
        except BaseException:
            self.close()
            raise

    def submit(self, *args) -> Tuple[int, int]:
        """Send ``args`` to the least busy worker; returns the ticket that
        :meth:`result` takes."""
        worker = min(range(len(self.processes)), key=self._running)
        try:
            self._conns[worker].send(args)
        except OSError:
            raise self._died(worker) from None
        self._sent[worker] += 1
        return worker, self._sent[worker]

    def result(self, ticket: Tuple[int, int]):
        """The result of the job with ``ticket``; earlier replies of its
        worker that were not asked for are dropped."""
        worker, number = ticket
        while self._received[worker] < number:
            self._receive(worker)
        replies = self._replies[worker]
        for _ in range(number - (self._received[worker] - len(replies) + 1)):
            replies.popleft()
        ok, value = replies.popleft()
        if not ok:
            exc, text = value   # chained to the worker's traceback
            raise exc from RuntimeError(text)
        return value

    def _running(self, worker: int) -> int:
        """Jobs of ``worker`` with no reply yet, after reading the replies
        that are ready (those of skipped jobs among them)."""
        while self._sent[worker] > self._received[worker] and \
                self._conns[worker].poll():
            self._receive(worker)
        return self._sent[worker] - self._received[worker]

    def _receive(self, worker: int) -> None:
        try:
            self._replies[worker].append(self._conns[worker].recv())
        except (EOFError, OSError):
            raise self._died(worker) from None
        self._received[worker] += 1

    def _died(self, worker: int) -> RuntimeError:
        """The error for a worker whose pipe broke: it has exited."""
        process = self.processes[worker]
        process.join()
        return RuntimeError(f"worker {process.pid} exited with code "
                            f"{process.exitcode} before replying")

    def close(self) -> None:
        """End every worker and wait for it."""
        for process, conn, sent, received in zip(
                self.processes, self._conns, self._sent, self._received):
            if sent > received:
                process.terminate()
            conn.close()
        for process in self.processes:
            process.join()
        for conn in self._conns:
            conn.close()    # one whose process never started


def shared_array(shape, dtype) -> np.ndarray:
    """A zero-filled array in an anonymous shared mapping, which workers
    forked after this call write for the parent to read.  The mapping is
    released with the last array that views it."""
    import mmap     # here, like the pool's imports: only its users pay for it
    count = math.prod(shape)
    size = count * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, max(size, 1)), dtype,
                         count=count).reshape(shape)


def ordered_map(job: Callable, jobs: Iterable[tuple], state: tuple = ()) -> Iterator:
    """Yield ``job(state, *args)`` for every ``args`` of ``jobs``, in order.

    The jobs run on a :class:`Pool` of one worker per usable CPU (no more
    workers than jobs), at most two per worker in flight, so at most that
    many results wait in the parent.  A job's exception reaches the caller,
    and every worker has exited by the time the generator is exhausted or
    closed.
    """
    jobs = list(jobs)
    workers = min(_usable_cpus(), len(jobs))
    if workers < 2:
        for args in jobs:
            yield job(state, *args)
        return
    with closing(Pool(workers, job, state)) as pool:
        pending = deque()
        for args in jobs:
            pending.append(pool.submit(*args))
            if len(pending) == 2 * workers:
                yield pool.result(pending.popleft())
        while pending:
            yield pool.result(pending.popleft())
