"""The persistent engine pool: warm workers and shared caches for the service.

Before this module the multiprocess path was "one engine per search":
every :func:`~repro.parallel.multiproc.multiproc_er` call spawned a
pool, built a fresh :class:`~repro.cache.sharedmem.SharedMemoryTT`, and
tore both down at the end — none of one search's work survived to the
next.  :class:`EnginePool` inverts that ownership: the *server* owns
one long-lived :class:`~repro.parallel.multiproc.LocalPool` — a
:class:`~repro.parallel.workers.WorkerPool` whose workers were
initialized once with :func:`repro.parallel.multiproc._init_worker`,
one shared TT, and one shared eval cache — spanning every request from
every user until the pool is closed.  It satisfies the
:class:`~repro.parallel.multiproc.PersistentPool` protocol, so whole ER
searches (``multiproc_er(pool=...)``) and the service's per-iteration
fan-out (:class:`PoolEngine`) run on the same warm substrate.  On the
event loop, results arrive through readers on the worker pipes; a
worker that dies fails its tasks and breaks the pool, and every later
submit raises :class:`~repro.errors.ServeError` (there is no respawn).

:class:`PoolEngine` is the service's
:class:`~repro.serve.scheduler.DeepeningEngine`: one deepening
iteration evaluates every root move's subtree full-window in a worker
process and argmaxes the negated values — byte-for-byte the decision
rule of :meth:`repro.engine.GameEngine.choose`, which is what the
cross-request parity battery pins against the serial alpha-beta
oracle.  Before paying a task round-trip it probes the warm shared TT
coordinator-side for an EXACT entry deep enough to answer the subtree
outright — the cross-request amortization the ROADMAP's north star is
about.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from ..cache.sharedmem import SharedMemoryTT
from ..errors import ServeError
from ..eval.cache import SharedMemoryEvalCache
from ..games.base import Game, Position, RootedGame, SearchProblem, hash_key
from ..obs import live as _live
from ..obs import reqtrace as _reqtrace
from ..parallel.multiproc import LocalPool, _run_task, _TaskOutcome, _unpack_stats
from ..parallel.workers import TaskFuture, WorkerPool
from ..search.stats import SearchStats
from ..search.transposition import Bound
from .api import SearchRequest
from .scheduler import IterationResult

__all__ = ["EnginePool", "PoolEngine", "ResolvedPosition"]

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class ResolvedPosition:
    """A request's position, resolved against its workload's game."""

    game: Game
    position: Position
    children: tuple[Position, ...]
    sort_below_root: int


class EnginePool:
    """One warm multiprocess pool shared by every request of a service.

    Args:
        n_workers: worker-process count.
        tt_mode: ``off``/``private``/``shared`` — ``shared`` (default)
            is the point of the service: one warm
            :class:`~repro.cache.sharedmem.SharedMemoryTT` spanning
            requests, so repeated and overlapping queries collapse to
            table hits.
        tt_capacity: slot budget for the shared table.
        eval_cache_mode: ``off``/``private``/``shared`` static-eval
            cache for the workers.
        eval_cache_capacity: entry budget for the eval cache.
        batch_eval: batch frontier evaluations in worker subtree
            searches.
        start_method: multiprocessing start method (default prefers
            ``fork``).
        trace_mode: span-ring mode installed in every worker.
        trace_span_limit: per-worker cap on coordinator-side collected
            spans (oldest dropped first), bounding a long-lived
            service's trace memory.

    The pool accumulates run-independent accounting: per-worker busy
    seconds keyed by stable worker index (same convention as
    :class:`~repro.parallel.multiproc.MultiprocResult.per_worker`),
    merged :class:`~repro.search.stats.SearchStats` over every task
    result, and task/short-circuit counters.  :meth:`close` is
    idempotent and tears down the workers and both shared segments;
    the soak battery asserts nothing leaks past it.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        tt_mode: str = "shared",
        tt_capacity: int = 1 << 14,
        eval_cache_mode: str = "off",
        eval_cache_capacity: int = 1 << 14,
        batch_eval: bool = False,
        start_method: Optional[str] = None,
        trace_mode: str = _live.TRACE_OFF,
        trace_span_limit: int = 8192,
    ) -> None:
        if n_workers < 1:
            raise ServeError("need at least one worker process")
        if trace_mode not in _live.TRACE_MODES:
            raise ServeError(
                f"unknown trace mode {trace_mode!r}; expected one of {_live.TRACE_MODES}"
            )
        self._local = LocalPool(
            n_workers,
            start_method=start_method,
            tt_mode=tt_mode,
            tt_capacity=tt_capacity,
            eval_cache_mode=eval_cache_mode,
            eval_cache_capacity=eval_cache_capacity,
            batch_eval=batch_eval,
            trace_mode=trace_mode,
        )
        #: The event loop whose readers watch the worker pipes, and their fds.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._watched: set[int] = set()
        self.stats = SearchStats()
        #: Stable worker index -> {"pid", "applied"} busy seconds; the
        #: service has no moot results, so there is no "wasted" split.
        self.per_worker: dict[int, dict[str, float]] = {}
        self._pid_index: dict[int, int] = {}
        self.counters: dict[str, int] = {
            "tasks_submitted": 0,
            "tasks_completed": 0,
            "tt_short_circuits": 0,
        }
        self._closed = False
        self._final_counters: dict[str, int] = {}
        #: Worker trace collection, fed by :meth:`note_outcome` from the
        #: trace blobs riding on task results: per-pid span deques
        #: (bounded), per-pid clock-offset estimators built from task
        #: round-trips, and cumulative ring counters (max-merged — the
        #: workers ship lifetime values with every result).
        self._trace_span_limit = trace_span_limit
        self._trace_spans: dict[int, deque[_live.SpanRec]] = {}
        self._trace_offsets: dict[int, _live.OffsetEstimator] = {}
        self._trace_dropped: dict[int, int] = {}
        self._trace_self_cost: dict[int, float] = {}

    # -- PersistentPool protocol -------------------------------------------

    @property
    def executor(self) -> WorkerPool:
        """The workers; raises :class:`ServeError` once closed or broken."""
        if self._closed:
            raise ServeError("engine pool is closed")
        workers = self._local.executor
        if workers.broken is not None:
            raise ServeError(f"engine pool is broken: {workers.broken}")
        return workers

    @property
    def shared_tt(self) -> Optional[SharedMemoryTT]:
        return self._local.shared_tt

    @property
    def shared_eval(self) -> Optional[SharedMemoryEvalCache]:
        return self._local.shared_eval

    @property
    def n_workers(self) -> int:
        return self._local.n_workers

    @property
    def trace_mode(self) -> str:
        return self._local.trace_mode

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        """Whether a worker died; a broken pool takes no more work."""
        return self._local.executor.broken is not None

    # -- task submission ----------------------------------------------------

    def submit_eval(
        self,
        problem: SearchProblem,
        alpha: float = NEG_INF,
        beta: float = POS_INF,
        *,
        tag: Optional[str] = None,
    ) -> TaskFuture[_TaskOutcome]:
        """Ship one full subtree search to a warm worker process.

        ``tag`` (``request_id/span_id``, see
        :func:`repro.obs.reqtrace.span_tag`) rides in the task payload
        so the worker's span for this task carries its originating
        request — the propagation leg of request-scoped tracing.
        """
        payload: tuple[object, ...] = ("eval", problem, alpha, beta)
        if tag is not None:
            payload = payload + (tag,)
        future = self.executor.submit(_run_task, payload)
        self.counters["tasks_submitted"] += 1
        return future

    def outcome(self, future: TaskFuture[_TaskOutcome]) -> "asyncio.Future[_TaskOutcome]":
        """``future`` as an awaitable on the running event loop.

        The loop's readers on the worker pipes (installed on first use
        per loop) pump the pool, so the result arrives without a thread.
        A task that failed, including one a dead worker took with it,
        surfaces as :class:`ServeError`.
        """
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._watch(loop)
        waiter: "asyncio.Future[_TaskOutcome]" = loop.create_future()

        def settle(done: TaskFuture[_TaskOutcome]) -> None:
            if waiter.done():
                return
            error = None if done.cancelled() else done.exception()
            if done.cancelled() or error is not None:
                failure = ServeError(f"pool task failed: {error!r}")
                failure.__cause__ = error
                waiter.set_exception(failure)
            else:
                waiter.set_result(done.result())

        future.add_done_callback(settle)
        return waiter

    def _watch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Point readers on ``loop`` at every live worker pipe and sentinel."""
        if self._loop is not loop:
            self._unwatch()
            self._loop = loop
        live = set(self._local.executor.fds())
        for fd in self._watched - live:
            loop.remove_reader(fd)
        for fd in live - self._watched:
            loop.add_reader(fd, self._on_ready)
        self._watched = live

    def _unwatch(self) -> None:
        if self._loop is not None and not self._loop.is_closed():
            for fd in self._watched:
                self._loop.remove_reader(fd)
        self._loop = None
        self._watched = set()

    def _on_ready(self) -> None:
        workers = self._local.executor
        workers.poll()
        if workers.broken is not None and self._loop is not None:
            # Drop the dead worker's descriptors: at EOF they stay readable.
            self._watch(self._loop)

    def note_outcome(
        self, outcome: _TaskOutcome, *, submitted_at: Optional[float] = None
    ) -> float:
        """Fold one task result into the pool's accounting; returns its value.

        ``submitted_at`` (coordinator clock, :func:`repro.obs.live.wall_clock`)
        turns this result's worker timestamps into one clock-offset
        observation — ``(submit, start, end, receive)`` brackets the
        worker-to-coordinator offset — so collected worker spans can be
        rebased onto the service timeline even across clock domains.
        """
        _, value, packed, t_start, t_end, worker_pid, _, blob = outcome
        self.stats.merge(_unpack_stats(packed))
        index = self._pid_index.setdefault(worker_pid, len(self._pid_index))
        split = self.per_worker.setdefault(
            index, {"pid": float(worker_pid), "applied": 0.0}
        )
        split["applied"] += max(0.0, t_end - t_start)
        self.counters["tasks_completed"] += 1
        if blob is not None:
            spans, dropped, self_cost = blob
            store = self._trace_spans.setdefault(
                worker_pid, deque(maxlen=self._trace_span_limit)
            )
            store.extend(spans)
            self._trace_dropped[worker_pid] = max(
                self._trace_dropped.get(worker_pid, 0), dropped
            )
            self._trace_self_cost[worker_pid] = max(
                self._trace_self_cost.get(worker_pid, 0.0), self_cost
            )
        if submitted_at is not None:
            estimator = self._trace_offsets.setdefault(
                worker_pid, _live.OffsetEstimator()
            )
            estimator.observe(submitted_at, t_start, t_end, _live.wall_clock())
        return value

    # -- collected worker traces --------------------------------------------

    def merged_spans(self) -> tuple[_live.WorkerSpan, ...]:
        """Collected worker spans rebased onto the coordinator clock.

        Keyed by stable worker index — the same convention as
        :attr:`per_worker` — with each worker's clock offset taken from
        its round-trip estimator (0 when the clock domains agree, the
        common Linux case).
        """
        spans_by_worker: dict[int, tuple[_live.SpanRec, ...]] = {}
        offsets: dict[int, float] = {}
        for pid, spans in self._trace_spans.items():
            index = self._pid_index.setdefault(pid, len(self._pid_index))
            spans_by_worker[index] = tuple(spans)
            estimator = self._trace_offsets.get(pid)
            offsets[index] = estimator.offset if estimator is not None else 0.0
        return _live.merge_spans(spans_by_worker, offsets)

    def request_spans(self, request_id: str) -> tuple[_live.WorkerSpan, ...]:
        """Merged worker spans tagged as belonging to ``request_id``."""
        prefix = f"{request_id}/"
        matched: list[_live.WorkerSpan] = []
        for span in self.merged_spans():
            _, tag = _live.split_span_name(span.name)
            if tag is not None and tag.startswith(prefix):
                matched.append(span)
        return tuple(matched)

    def span_pids(self) -> dict[int, int]:
        """Stable worker index -> OS pid, for labeling exported tracks."""
        return {index: pid for pid, index in self._pid_index.items()}

    def trace_dropped(self) -> int:
        """Worker spans lost to ring overwrites (cumulative, all workers)."""
        return sum(self._trace_dropped.values())

    def probe_exact(self, game: Game, position: Position, depth: int) -> Optional[float]:
        """Answer a full-window subtree from the warm table, if it can.

        Full-window searches only ever substitute EXACT entries (a
        bound cannot answer an open window), proven at least ``depth``
        deep — the same gate :func:`~repro.core.serial_er.er_search`
        applies at the subtree's root, so a short-circuit here returns
        exactly what the worker would have.
        """
        table = self.shared_tt
        if table is None:
            return None
        entry = table.probe(hash_key(game, position))
        if entry is None or entry.depth < depth or entry.bound is not Bound.EXACT:
            return None
        self.counters["tt_short_circuits"] += 1
        return entry.value

    def clear_caches(self) -> None:
        """Zero the shared segments — the benchmark's "cold" mode.

        Emptying the warm tables between requests isolates what cache
        warmth contributes versus pool persistence, without paying (or
        measuring) worker start-up.
        """
        self._local.clear_caches()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> dict[str, int]:
        """Shut down workers and destroy the shared segments; idempotent.

        Returns the pool's final counters (task counts, short-circuits,
        and the shared segments' cumulative hit/store totals).
        """
        if self._closed:
            return dict(self._final_counters)
        self._closed = True
        self._unwatch()
        final = dict(self.counters)
        final.update(self._local.close())
        self._final_counters = final
        return dict(final)

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PoolEngine:
    """Per-iteration deepening engine over an :class:`EnginePool`.

    Args:
        pool: the warm pool to fan out on.
        resolve: callback mapping a request to its
            :class:`ResolvedPosition` (the server caches game instances
            per workload and applies :func:`~repro.games.base.follow_path`).
        span_ring: optional :class:`~repro.obs.live.SpanRing` receiving
            one ``serve`` span per iteration, named
            ``iteration@<request_id>/<span_id>.d<depth>`` so the
            service ring is request-addressable too.
    """

    def __init__(
        self,
        pool: EnginePool,
        resolve: Callable[[SearchRequest], ResolvedPosition],
        *,
        span_ring: Optional[_live.SpanRing] = None,
    ) -> None:
        self._pool = pool
        self._resolve = resolve
        self._ring = span_ring

    async def run_iteration(
        self, request: SearchRequest, depth: int
    ) -> IterationResult:
        """Evaluate every root move to ``depth - 1``; argmax the negations.

        Mirrors one iteration of :meth:`repro.engine.GameEngine.choose`
        exactly: each child subtree is searched full-window as its own
        :class:`~repro.games.base.SearchProblem` rooted at the child,
        values are negated into the mover's frame, and ties resolve to
        the lowest move index.
        """
        t0 = time.perf_counter()
        resolved = self._resolve(request)
        # One child span id per deepening iteration; the tag only rides
        # to the workers when they record spans at all, keeping the
        # ``off`` payload byte-identical to the multiproc driver's.
        context = _reqtrace.TraceContext(
            request.request_id, request.span_id or "root"
        ).child(f"d{depth}")
        tag = None if self._pool.trace_mode == _live.TRACE_OFF else context.tag
        pending: list[tuple[int, float, "asyncio.Future[_TaskOutcome]"]] = []
        values: list[Optional[float]] = [None] * len(resolved.children)
        for index, child in enumerate(resolved.children):
            hit = self._pool.probe_exact(resolved.game, child, depth - 1)
            if hit is not None:
                values[index] = -hit
                continue
            problem = SearchProblem(
                game=RootedGame(resolved.game, child),
                depth=depth - 1,
                sort_below_root=resolved.sort_below_root,
            )
            submitted_at = _live.wall_clock()
            future = self._pool.submit_eval(problem, tag=tag)
            pending.append((index, submitted_at, self._pool.outcome(future)))
        # Every waiter is awaited, failed or not, so none is left unretrieved.
        outcomes = await asyncio.gather(*(w for _, _, w in pending), return_exceptions=True)
        for (index, submitted_at, _), outcome in zip(pending, outcomes, strict=True):
            if isinstance(outcome, BaseException):
                raise outcome
            values[index] = -self._pool.note_outcome(outcome, submitted_at=submitted_at)
        iteration = [v for v in values if v is not None]
        assert len(iteration) == len(values), "every child resolved to a value"
        best_index = max(range(len(iteration)), key=iteration.__getitem__)
        if self._ring is not None:
            name = _live.tag_span_name("iteration", context.tag)
            self._ring.record("serve", name, t0, time.perf_counter())
        return IterationResult(
            move_index=best_index,
            value=iteration[best_index],
            per_move_values=tuple(iteration),
        )
