"""One pool of worker threads for independent parts of one computation.

The worker count is the number of CPUs this process may run on,
``len(os.sched_getaffinity(0))``, read at every call; nothing else sets it.
``map_parts`` splits a list of parts into that many contiguous runs, hands
every run but the first to the pool and runs the first on the calling
thread.  NumPy's products, gathers and scatters release the GIL, so the runs
overlap.  The parts of one call must not depend on each other, and their
results come back in part order, so a caller that merges them in that order
gets the same bits at any worker count.  A call from a pool thread runs
inline, so nested calls cannot wait on a pool that is busy with their
callers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_thread = threading.local()  # ``worker`` is set in the pool's threads


def count() -> int:
    """The number of workers: the CPUs this process may run on, or, where
    the system does not say (macOS, Windows), the CPUs of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mark_worker() -> None:
    _thread.worker = True


def _shared_pool() -> ThreadPoolExecutor:
    """The pool, created at the first call that splits, with one thread per
    worker but the calling thread."""
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, count() - 1),
                                       thread_name_prefix="samplets", initializer=_mark_worker)
        return _pool


def _run(fn, parts: list) -> tuple[list, Exception | None]:
    """fn of each part in order, up to the first that raises: the results
    and that exception, which the caller re-raises."""
    results = []
    try:
        for part in parts:
            results.append(fn(part))
    except Exception as exc:  # re-raised by map_parts, in part order
        return results, exc
    return results, None


def map_parts(fn, parts: list) -> list:
    """[fn(part) for part in parts], with contiguous runs of the parts on
    ``count()`` workers.

    Raises the exception of the first part, in part order, that raised.
    Every run has finished when this returns or raises.  A run that no pool
    thread has started when the caller finishes its own is run by the caller.
    """
    single = len(parts) < 2 or getattr(_thread, "worker", False)
    workers = 1 if single else min(count(), len(parts))  # no system call for one part
    if workers < 2:
        return [fn(part) for part in parts]
    bounds = [len(parts) * k // workers for k in range(workers + 1)]
    runs = [parts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    futures = [_shared_pool().submit(_run, fn, run) for run in runs[1:]]
    results, error = _run(fn, runs[0])
    for future, run in zip(futures, runs[1:]):
        if future.cancel():  # not started: run it here, unless a part before it failed
            done, raised = ([], None) if error else _run(fn, run)
        else:
            done, raised = future.result()
        if error is None:
            results += done
            error = raised
    if error is not None:
        raise error
    return results
