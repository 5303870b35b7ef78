"""A lean worker-process pool: one duplex pipe per worker, no helper threads.

:class:`concurrent.futures.ProcessPoolExecutor` routes every task through
a feeder thread, a call queue, a management thread and a result queue,
and every hop is a GIL hand-off.  On a small box that costs several
hundred microseconds per round trip, which the ER coordinator pays once
per subtree task.  :class:`WorkerPool` keeps only what the coordinator
needs:

* **Workers.** ``n_workers`` processes, each running
  ``initializer(*initargs)`` once and then a loop that receives
  ``(fn, args, kwargs)`` on its own pipe, runs it, and sends back the
  outcome.  A worker's pipe is FIFO, so its results come back in the
  order its tasks went out.
* **Dispatch.** :meth:`WorkerPool.submit` writes the task straight to
  the least-loaded worker's pipe.  Each worker holds at most
  :data:`PREFETCH_DEPTH` outstanding tasks, so it starts its next task
  without waiting for the caller to read the last result.  Tasks beyond
  that wait in a local backlog, where :meth:`TaskFuture.cancel` can
  still withdraw them.
* **Results.** Whoever wants results pumps the pool:
  :meth:`WorkerPool.wait` blocks on the pipes (and the process
  sentinels) through one persistent selector, reads what is ready, and
  refills freed workers from the backlog.  :meth:`TaskFuture.result`
  pumps on its own, so a single-threaded caller needs nothing else; an
  event loop instead calls :meth:`WorkerPool.poll` from readers on
  :meth:`WorkerPool.fds`.
* **Failure.** A worker that dies (its pipe reads EOF or its sentinel
  fires) fails its in-flight tasks and the backlog with
  :class:`~repro.errors.WorkerPoolError` and marks the pool broken:
  later submits raise.  There is no respawn.

The pool is single-threaded by contract: submit, pump and shut down from
one thread.
"""

from __future__ import annotations

import selectors
import time
import traceback
from collections import deque
from concurrent.futures import CancelledError
from multiprocessing.connection import Connection
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Generic, Optional, TypeVar, cast

from ..errors import WorkerPoolError

__all__ = ["PREFETCH_DEPTH", "TaskFuture", "WorkerPool"]

#: Outstanding tasks per worker: the one it runs plus one queued in its pipe.
PREFETCH_DEPTH = 2

#: Seconds :meth:`WorkerPool.shutdown` lets workers finish their queued
#: tasks before terminating them.
_SHUTDOWN_GRACE_S = 1.0

_T = TypeVar("_T")

_PENDING, _RUNNING, _DONE, _CANCELLED = range(4)


class _RemoteTraceback(Exception):
    """Carries a worker's formatted traceback as the ``__cause__`` of its error."""

    def __str__(self) -> str:
        return str(self.args[0])


def _worker_main(
    conn: Connection,
    inherited: list[Connection],
    initializer: Optional[Callable[..., None]],
    initargs: tuple[Any, ...],
) -> None:
    """Worker loop: receive ``(fn, args, kwargs)``, run it, send the outcome.

    ``inherited`` are the coordinator ends of this worker's and earlier
    workers' pipes, copied in by ``fork``; closing them here means each
    pipe's EOF belongs to its two real ends only.  The loop exits on
    ``None`` or when the coordinator end closes.
    """
    for other in inherited:
        other.close()
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        except Exception as error:  # noqa: BLE001 - an unpicklable task fails its future
            reply: tuple[Any, ...] = (False, error, traceback.format_exc())
        else:
            if message is None:
                return
            fn, args, kwargs = message
            try:
                reply = (True, fn(*args, **kwargs), None)
            except BaseException as error:  # noqa: BLE001 - shipped to the caller
                reply = (False, error, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception as error:  # noqa: BLE001 - an unpicklable outcome
            conn.send((False, WorkerPoolError(f"result did not pickle: {error!r}"), None))


class TaskFuture(Generic[_T]):
    """The outcome of one task submitted to a :class:`WorkerPool`.

    Only :meth:`result`/:meth:`exception` block, and they pump the pool
    themselves.  :meth:`cancel` succeeds while the task sits in the
    backlog; a task already written to a worker's pipe runs to the end
    and its outcome is dropped on arrival if nobody wants it.
    """

    __slots__ = ("_pool", "_message", "_state", "_value", "_error", "_callbacks")

    def __init__(self, pool: "WorkerPool", message: tuple[Any, ...]) -> None:
        self._pool = pool
        self._message: Optional[tuple[Any, ...]] = message
        self._state = _PENDING
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: list[Callable[["TaskFuture[_T]"], None]] = []

    def done(self) -> bool:
        return self._state >= _DONE

    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    def cancel(self) -> bool:
        """Withdraw the task if no worker has it yet."""
        if self._state == _PENDING:
            self._message = None
            self._settle(_CANCELLED, None, None)
        return self._state == _CANCELLED

    def result(self, timeout: Optional[float] = None) -> _T:
        """The task's return value; re-raises the worker's exception as is."""
        error = self.exception(timeout)
        if error is not None:
            raise error
        return cast(_T, self._value)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        self._pool._pump_until(self, timeout)
        if self._state == _CANCELLED:
            raise CancelledError()
        return self._error

    def add_done_callback(self, fn: Callable[["TaskFuture[_T]"], None]) -> None:
        """Call ``fn(self)`` once done (at once if already done), in the pumping thread."""
        if self.done():
            fn(self)
        else:
            self._callbacks.append(fn)

    def _settle(self, state: int, value: Any, error: Optional[BaseException]) -> None:
        self._state = state
        self._value = value
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _Worker:
    """Coordinator-side handle: the process, its pipe, its outstanding tasks."""

    __slots__ = ("index", "process", "conn", "in_flight", "alive")

    def __init__(self, index: int, process: BaseProcess, conn: Connection) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.in_flight: deque[TaskFuture[Any]] = deque()
        self.alive = True


class WorkerPool:
    """``n_workers`` forked processes fed over per-worker pipes.

    Args:
        n_workers: worker-process count.
        mp_context: the multiprocessing context the workers start from.
        initializer: called once in every worker with ``initargs``.
        initargs: arguments for ``initializer``; they travel as process
            arguments, so multiprocessing locks may ride along.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        mp_context: BaseContext,
        initializer: Optional[Callable[..., None]] = None,
        initargs: tuple[Any, ...] = (),
    ) -> None:
        if n_workers < 1:
            raise WorkerPoolError("need at least one worker process")
        self._workers: list[_Worker] = []
        self._backlog: deque[TaskFuture[Any]] = deque()
        self._selector = selectors.DefaultSelector()
        self._broken: Optional[str] = None
        self._closed = False
        # Every concrete context has ``Process``; the ``BaseContext`` stubs omit it.
        process_class = cast("type[BaseProcess]", getattr(mp_context, "Process"))  # noqa: B009
        try:
            for index in range(n_workers):
                ours, theirs = mp_context.Pipe(duplex=True)
                process = process_class(
                    target=_worker_main,
                    args=(
                        theirs, [*(w.conn for w in self._workers), ours], initializer, initargs,
                    ),
                    name=f"repro-worker-{index}",
                    daemon=True,
                )
                process.start()
                theirs.close()
                worker = _Worker(index, process, ours)
                self._workers.append(worker)
                self._selector.register(ours, selectors.EVENT_READ, worker)
                self._selector.register(process.sentinel, selectors.EVENT_READ, worker)
        except BaseException:
            self.shutdown()
            raise

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def pids(self) -> tuple[int, ...]:
        """OS pids of the workers, in worker-index order."""
        return tuple(int(w.process.pid or 0) for w in self._workers)

    @property
    def broken(self) -> Optional[str]:
        """Why the pool stopped taking work (a worker died), else ``None``."""
        return self._broken

    def fds(self) -> list[int]:
        """Pipe and sentinel descriptors of live workers, for event-loop readers."""
        if self._closed:
            return []
        return [
            fd
            for w in self._workers
            if w.alive
            for fd in (w.conn.fileno(), w.process.sentinel)
        ]

    # -- dispatch ------------------------------------------------------------

    def submit(self, fn: Callable[..., _T], /, *args: Any, **kwargs: Any) -> TaskFuture[_T]:
        """Queue ``fn(*args, **kwargs)`` on the least-loaded worker."""
        self._check_open()
        future: TaskFuture[_T] = TaskFuture(self, (fn, args, kwargs))
        worker = min(
            (w for w in self._workers if w.alive), key=lambda w: len(w.in_flight)
        )
        if len(worker.in_flight) < PREFETCH_DEPTH:
            self._send(worker, future)
        else:
            self._backlog.append(future)
        return future

    def submit_to(self, index: int, fn: Callable[..., _T], /, *args: Any) -> TaskFuture[_T]:
        """Write ``fn(*args)`` to worker ``index``'s pipe, behind its queued tasks.

        Bypasses the backlog and the prefetch depth: for per-worker
        chores (a trace flush) that must reach every worker exactly once.
        """
        self._check_open()
        future: TaskFuture[_T] = TaskFuture(self, (fn, args, {}))
        self._send(self._workers[index], future)
        return future

    def _check_open(self) -> None:
        if self._closed:
            raise WorkerPoolError("worker pool is shut down")
        if self._broken is not None:
            raise WorkerPoolError(f"worker pool is broken: {self._broken}")

    def _send(self, worker: _Worker, future: TaskFuture[Any]) -> list[TaskFuture[Any]]:
        """Write ``future``'s task to ``worker``; the futures settled by a failure."""
        message, future._message = future._message, None
        future._state = _RUNNING
        worker.in_flight.append(future)
        try:
            worker.conn.send(message)
        except OSError:
            return self._lost(worker)
        except Exception as error:  # noqa: BLE001 - an unpicklable task fails its future
            worker.in_flight.pop()
            future._settle(_DONE, None, error)
            return [future]
        return []

    # -- results ---------------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> list[TaskFuture[Any]]:
        """Block up to ``timeout`` s for results; the futures this call settled.

        Reads every message that is ready, refills each freed worker from
        the backlog, and turns a dead worker into failed futures.  With
        nothing outstanding it only checks for deaths and returns.
        """
        if self._closed:
            return []
        if not any(w.in_flight for w in self._workers):
            timeout = 0
        settled: list[TaskFuture[Any]] = []
        for key, _ in self._selector.select(timeout):
            worker: _Worker = key.data
            if not worker.alive:
                continue
            if key.fd != worker.process.sentinel:
                self._receive(worker, settled)
                continue
            # Exited: take whatever it sent before dying, then fail the rest.
            while worker.alive and worker.conn.poll():
                self._receive(worker, settled)
            if worker.alive:
                settled.extend(self._lost(worker))
        return settled

    def poll(self) -> list[TaskFuture[Any]]:
        """Non-blocking :meth:`wait`: settle whatever has already arrived."""
        return self.wait(0)

    def _receive(self, worker: _Worker, settled: list[TaskFuture[Any]]) -> None:
        try:
            ok, value, remote_tb = worker.conn.recv()
        except (EOFError, OSError):
            settled.extend(self._lost(worker))
            return
        future = worker.in_flight.popleft()
        if ok:
            future._settle(_DONE, value, None)
        else:
            if remote_tb is not None:
                value.__cause__ = _RemoteTraceback(remote_tb)
            future._settle(_DONE, None, value)
        settled.append(future)
        while self._backlog and len(worker.in_flight) < PREFETCH_DEPTH:
            queued = self._backlog.popleft()
            if queued._state == _PENDING:
                settled.extend(self._send(worker, queued))

    def _lost(self, worker: _Worker) -> list[TaskFuture[Any]]:
        """Mark ``worker`` dead and the pool broken; fail and return what it owed.

        The backlog fails too: a broken pool dispatches nothing more.
        """
        worker.alive = False
        self._selector.unregister(worker.conn)
        self._selector.unregister(worker.process.sentinel)
        worker.process.join(1.0)
        reason = (
            f"worker {worker.index} (pid {worker.process.pid}) exited "
            f"with code {worker.process.exitcode}"
        )
        if self._broken is None:
            self._broken = reason
        error = WorkerPoolError(reason)
        failed = [f for f in (*worker.in_flight, *self._backlog) if not f.done()]
        worker.in_flight.clear()
        self._backlog.clear()
        for future in failed:
            future._settle(_DONE, None, error)
        return failed

    def _pump_until(self, future: TaskFuture[Any], timeout: Optional[float]) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not future.done():
            if self._closed:
                raise WorkerPoolError("worker pool is shut down")
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError("task did not finish in time")
            self.wait(remaining)

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker and release every descriptor; idempotent.

        Backlogged tasks are cancelled.  Workers finish the tasks already
        in their pipes (up to :data:`_SHUTDOWN_GRACE_S` in all) and are
        terminated after that; outcomes still owed fail.
        """
        if self._closed:
            return
        self._closed = True
        for future in self._backlog:
            future.cancel()
        self._backlog.clear()
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE_S
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.exitcode is None:
                worker.process.terminate()
                worker.process.join(1.0)
            if worker.process.exitcode is None:
                worker.process.kill()
                worker.process.join()
        self._selector.close()
        error = WorkerPoolError("worker pool shut down before the task finished")
        for worker in self._workers:
            for future in worker.in_flight:
                future._settle(_DONE, None, error)
            worker.in_flight.clear()
            worker.conn.close()
            worker.process.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
