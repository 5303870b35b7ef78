"""Tests for the pipe-per-worker process pool and its failure behaviour.

Unit tests drive :class:`~repro.parallel.workers.WorkerPool` directly;
the crash tests SIGKILL a worker in the middle of a long task and
assert that every layer above turns the loss into an error within a
few seconds — ``SimulationError`` from ``multiproc_er``, a broken
``EnginePool`` whose later submits raise ``ServeError`` — and that no
child process outlives the pool.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.core.er_parallel import ERConfig
from repro.errors import ServeError, SimulationError, WorkerPoolError
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.parallel.multiproc import multiproc_er, preferred_start_method
from repro.parallel.workers import PREFETCH_DEPTH, WorkerPool
from repro.serve.pool import EnginePool

#: Generous bound on how long a dead worker may take to become an error.
ERROR_WITHIN_S = 5.0


def _add(a: int, b: int = 0) -> int:
    return a + b


def _pid() -> int:
    return os.getpid()


def _fail(message: str) -> None:
    raise KeyError(message)


def _sleep(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


class SlowTree(RandomGameTree):
    """A random tree whose leaves take a while to evaluate."""

    def evaluate(self, position):  # type: ignore[no-untyped-def]
        time.sleep(0.01)
        return super().evaluate(position)


def _pool(n_workers: int = 1) -> WorkerPool:
    return WorkerPool(
        n_workers, mp_context=multiprocessing.get_context(preferred_start_method())
    )


def _no_children(timeout_s: float = 5.0) -> list:
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


class TestWorkerPool:
    def test_submit_and_result(self) -> None:
        with _pool(2) as pool:
            futures = [pool.submit(_add, i, b=10) for i in range(7)]
            assert [f.result(timeout=10) for f in futures] == [i + 10 for i in range(7)]
            assert all(f.done() and not f.cancelled() for f in futures)

    def test_least_loaded_dispatch_uses_every_worker(self) -> None:
        with _pool(2) as pool:
            futures = [pool.submit(_pid) for _ in range(2)]
            assert {f.result(timeout=10) for f in futures} == set(pool.pids)

    def test_worker_exception_keeps_its_type(self) -> None:
        with _pool() as pool:
            future = pool.submit(_fail, "boom")
            with pytest.raises(KeyError, match="boom") as raised:
                future.result(timeout=10)
            # The worker's traceback rides along as the cause.
            assert "_fail" in str(raised.value.__cause__)
            # The worker survives its task's exception.
            assert pool.submit(_add, 1, 2).result(timeout=10) == 3

    def test_unpicklable_task_fails_its_future(self) -> None:
        with _pool() as pool:
            future = pool.submit(_add, threading.Lock())
            assert future.done()
            with pytest.raises(TypeError):
                future.result()
            assert pool.broken is None

    def test_cancel_task_in_backlog(self) -> None:
        with _pool() as pool:
            running = [pool.submit(_sleep, 0.2) for _ in range(PREFETCH_DEPTH)]
            queued = pool.submit(_add, 1)
            assert queued.cancel()
            assert queued.cancelled() and queued.done()
            with pytest.raises(CancelledError):
                queued.result()
            # Tasks already in a worker's pipe cannot be withdrawn.
            assert not running[0].cancel()
            assert [f.result(timeout=10) for f in running] == [0.2] * PREFETCH_DEPTH
            assert pool.submit(_add, 2).result(timeout=10) == 2

    def test_backlog_refills_freed_workers(self) -> None:
        with _pool() as pool:
            futures = [pool.submit(_add, i) for i in range(5 * PREFETCH_DEPTH)]
            assert [f.result(timeout=10) for f in futures] == list(range(5 * PREFETCH_DEPTH))

    def test_submit_to_targets_one_worker(self) -> None:
        with _pool(2) as pool:
            pids = [pool.submit_to(index, _pid).result(timeout=10) for index in (1, 0, 1)]
            assert pids == [pool.pids[1], pool.pids[0], pool.pids[1]]

    def test_result_timeout(self) -> None:
        with _pool() as pool:
            future = pool.submit(_sleep, 0.5)
            with pytest.raises(TimeoutError):
                future.result(timeout=0.01)
            assert future.result(timeout=10) == 0.5

    def test_shutdown_is_idempotent(self) -> None:
        pool = _pool(2)
        assert pool.submit(_add, 1).result(timeout=10) == 1
        pool.shutdown()
        pool.shutdown()
        assert pool.fds() == []
        with pytest.raises(WorkerPoolError, match="shut down"):
            pool.submit(_add, 1)
        assert _no_children() == []

    def test_workers_exit_when_their_pipe_closes(self) -> None:
        """Each worker sees EOF: later workers do not hold earlier pipes open."""
        pool = _pool(2)
        try:
            for worker in pool._workers:
                worker.conn.close()
            for worker in pool._workers:
                worker.process.join(5.0)
                assert worker.process.exitcode == 0
        finally:
            pool.shutdown()

    def test_dead_worker_fails_its_futures_and_breaks_the_pool(self) -> None:
        with _pool(2) as pool:
            doomed = pool.submit_to(0, _sleep, 30.0)
            survivor = pool.submit_to(1, _sleep, 0.1)
            os.kill(pool.pids[0], signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(WorkerPoolError, match="exited"):
                doomed.result(timeout=ERROR_WITHIN_S)
            assert time.monotonic() - started < ERROR_WITHIN_S
            assert survivor.result(timeout=10) == 0.1
            assert pool.broken is not None
            with pytest.raises(WorkerPoolError, match="broken"):
                pool.submit(_add, 1)
        assert _no_children() == []


class TestCrashedWorker:
    def test_multiproc_er_raises_simulation_error(self) -> None:
        problem = SearchProblem(SlowTree(3, 6, seed=3), depth=6)
        before = set(multiprocessing.active_children())

        def kill_a_worker() -> None:
            time.sleep(0.5)
            workers = [p for p in multiprocessing.active_children() if p not in before]
            os.kill(workers[0].pid, signal.SIGKILL)

        killer = threading.Thread(target=kill_a_worker)
        killer.start()
        started = time.monotonic()
        try:
            with pytest.raises(SimulationError, match="worker process failed"):
                multiproc_er(problem, 2, config=ERConfig(serial_depth=1))
        finally:
            killer.join()
        assert time.monotonic() - started < 0.5 + ERROR_WITHIN_S
        assert [p for p in _no_children() if p not in before] == []

    def test_engine_pool_breaks_and_refuses_work(self) -> None:
        problem = SearchProblem(SlowTree(3, 6, seed=3), depth=6)
        pool = EnginePool(1, tt_mode="shared")
        try:
            future = pool.submit_eval(problem)
            time.sleep(0.2)
            os.kill(pool.executor.pids[0], signal.SIGKILL)
            with pytest.raises(WorkerPoolError):
                future.result(timeout=ERROR_WITHIN_S)
            assert pool.broken
            with pytest.raises(ServeError, match="broken"):
                pool.submit_eval(problem)
        finally:
            pool.close()
        assert _no_children() == []

    def test_engine_pool_outcome_raises_serve_error_on_the_loop(self) -> None:
        problem = SearchProblem(SlowTree(3, 6, seed=3), depth=6)

        async def scenario(pool: EnginePool) -> None:
            waiter = pool.outcome(pool.submit_eval(problem))
            await asyncio.sleep(0.2)
            os.kill(pool.executor.pids[0], signal.SIGKILL)
            with pytest.raises(ServeError, match="pool task failed"):
                await asyncio.wait_for(waiter, ERROR_WITHIN_S)

        with EnginePool(1, tt_mode="off") as pool:
            asyncio.run(scenario(pool))
            assert pool.broken
        assert _no_children() == []
