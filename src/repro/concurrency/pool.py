"""A bounded worker pool for the concurrent serving path.

:class:`WorkerPool` is a small fixed-size thread pool with a *bounded* task
queue: ``submit`` blocks once ``max_pending`` tasks are waiting, so a burst
of clients exerts back-pressure instead of growing an unbounded queue (the
failure mode of naive ``Thread``-per-request serving).  Results travel as
:class:`concurrent.futures.Future` objects.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Callable, List, Optional, Tuple

__all__ = ["WorkerPool"]

#: Sentinel telling a worker thread to exit.
_STOP = object()


class WorkerPool:
    """Fixed-size thread pool with a bounded task queue.

    Parameters
    ----------
    max_workers:
        Number of worker threads (the concurrency limit).
    max_pending:
        Maximum queued-but-unstarted tasks before ``submit`` blocks;
        defaults to ``4 * max_workers``.
    name:
        Thread-name prefix (useful in stack dumps of stuck servers).
    """

    def __init__(self, max_workers: int = 8, max_pending: Optional[int] = None,
                 name: str = "kgnet-worker") -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self.max_pending = max_pending if max_pending is not None else 4 * max_workers
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=self.max_pending)
        self._shutdown = False
        self._shutdown_lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._worker, name=f"{name}-{index}", daemon=True)
            for index in range(max_workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            future, fn, args, kwargs = item
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(fn(*args, **kwargs))
                except BaseException as exc:  # noqa: BLE001 — delivered via the future
                    future.set_exception(exc)
            self._queue.task_done()

    # ------------------------------------------------------------------
    def submit(self, fn: Callable, *args, **kwargs) -> "Future":
        """Schedule ``fn(*args, **kwargs)``; blocks when the queue is full.

        The enqueue happens under the shutdown lock: otherwise a task could
        slip in *behind* the ``_STOP`` sentinels a concurrent ``shutdown``
        enqueued, leaving a future no worker will ever complete.  Shutdown
        therefore waits for any in-flight submit; back-pressure still works
        because the workers keep draining while a submitter blocks here.
        """
        with self._shutdown_lock:
            if self._shutdown:
                raise RuntimeError("cannot submit to a shut-down WorkerPool")
            future: Future = Future()
            self._queue.put((future, fn, args, kwargs))
        return future

    def try_submit(self, fn: Callable, *args,
                   timeout: float = 0.0, **kwargs) -> Optional["Future"]:
        """Like :meth:`submit`, but give up after ``timeout`` seconds.

        Returns None when the pending queue stayed full for the whole wait —
        the caller keeps control instead of blocking indefinitely (the HTTP
        accept loop needs this: a saturated pool must not wedge the loop
        past the server's shutdown request).  Note the bounded wait happens
        under the shutdown lock, so a concurrent ``shutdown()`` can stall up
        to ``timeout`` — keep timeouts short.
        """
        with self._shutdown_lock:
            if self._shutdown:
                raise RuntimeError("cannot submit to a shut-down WorkerPool")
            future: Future = Future()
            try:
                self._queue.put((future, fn, args, kwargs), timeout=timeout)
            except queue.Full:
                return None
        return future

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True,
                 cancel_pending: bool = False) -> List[Tuple]:
        """Stop the pool; returns the cancelled ``(fn, args, kwargs)`` tasks.

        ``cancel_pending=True`` drains queued-but-unstarted tasks first,
        cancelling their futures.  That matters for two reasons: the tasks
        never run (the caller gets them back to release whatever resources
        — sockets, handles — ride in their arguments), and — crucially —
        the ``_STOP`` sentinels below go into the queue, so on a FULL queue
        a plain shutdown blocks until busy workers drain it.  A server
        stopping under load (workers wedged on slow connections, queue full
        of unserved ones) needs the non-waiting variant to actually not
        wait.

        With ``wait=False`` the sentinel insertion itself is delegated to a
        daemon thread, so the caller never blocks even if the queue cannot
        accept all sentinels immediately.
        """
        cancelled: List[Tuple] = []
        with self._shutdown_lock:
            if self._shutdown:
                return cancelled
            self._shutdown = True
        if cancel_pending:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _STOP:
                    future, fn, args, kwargs = item
                    future.cancel()
                    cancelled.append((fn, args, kwargs))
                self._queue.task_done()

        def plant_sentinels() -> None:
            for _ in self._threads:
                self._queue.put(_STOP)

        if wait:
            plant_sentinels()
            for thread in self._threads:
                thread.join()
        else:
            threading.Thread(target=plant_sentinels,
                             name="kgnet-pool-reaper", daemon=True).start()
        return cancelled

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:
        return (f"<WorkerPool workers={self.max_workers} "
                f"pending={self._queue.qsize()}/{self.max_pending}>")
