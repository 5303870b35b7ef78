"""The service workload, ``serve-repeat``.

One ``SearchService`` (a warm ``EnginePool`` with a shared transposition
table and a shared eval cache) runs in a child process of its own.  This
process only generates load: a seeded open-loop Poisson schedule per ladder
rate, spread over one TCP connection per core, and the replies' decoding.
Each request is timed from when it was due, so a stall also charges the
requests queued behind it.

The requests re-ask positions the warm table already holds, so most answers
are short-circuited by ``EnginePool.probe_exact`` and the cost moves to
table probes, queueing, the wire and the scheduler.  The few new positions
exercise worker search and table stores.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import multiprocessing
import random
import socket
import time
from contextlib import closing
from dataclasses import dataclass
from typing import Any, Iterator

from benchlib import (
    CLOCKED,
    HostSpeed,
    Outcome,
    PeakRss,
    SetupSampler,
    median,
    percentile,
    ratio,
    reference_request,
    samples_for_tail,
    zero_layers,
)
from repro import (
    EngineConfig,
    ERConfig,
    GameEngine,
    SearchProblem,
    alphabeta,
    er_search,
    parallel_er,
)
from repro.errors import ReproError
from repro.games import RandomGameTree
from repro.games.base import RootedGame, follow_path
from repro.obs import live as _live
from repro.serve import SearchRequest, SearchService, ServeConfig, ServeWorkload
from repro.serve.api import STATUS_OK
from repro.serve.client import ServiceClient

#: A request later than this (from its due time) misses the latency limit.
LATENCY_LIMIT_S = 1.0
#: Requests still unanswered this long after their rung count as timeouts.
HARD_TIMEOUT_S = 60.0
#: Large enough that the past-saturation rung queues instead of shedding.
QUEUE_LIMIT = 4096
#: Set-up is timed this many times per run, spread over it, and the median
#: reported.
SETUP_REPEATS = 15
STAGES = ("admission", "queue_wait", "iterations", "reply_serialize", "unattributed")

#: Share of requests that re-ask a position already asked; the new ones are
#: evenly spaced.
REPEAT_FRACTION = 0.95
#: Offered rate of each rung in requests per second, from light load to
#: about twice the capacity of a two-core machine.
LADDER = (60.0, 120.0, 180.0, 720.0)
#: The rung whose latency is reported; it gets ``NOMINAL_SHARE`` of the run
#: and at least enough requests for ten samples beyond the tail percentile.
NOMINAL = 120.0
NOMINAL_SHARE = 2 / 3
#: The nominal rung is sent in this many segments with the serial reference
#: timed between them, so the reference sees the same moments of a machine
#: whose speed drifts as the rung does.
NOMINAL_SEGMENTS = 4
TAIL_Q = 99.0
#: Reference computations and request-shaped round trips timed at each
#: break between rungs and segments.
REFERENCE_CALLS = 8
ECHO_CALLS = 40
#: Idle time before each round trip, about a nominal-rung request's gap.
ECHO_GAP_S = 0.005
#: Mean :class:`Echo` round trip on the machine the benchmark was tuned on,
#: in a quiet spell; request latencies are reported at it.
ECHO_REFERENCE_S = 0.0006
#: Times that wake idle processes (request latencies, and the tail of the
#: iterations stage: new positions' task round trips to idle workers) are
#: rescaled by the round trip; every other time and rate but
#: ``goodput_rps`` (a ladder rate) by the reference computation.
WOKEN = ("latency_p50_s", "latency_tail_s", "search_tail_s")
COMPUTED = tuple(name for name in CLOCKED if name not in WOKEN + ("goodput_rps",))
#: Positions answered once before timing starts: the warm repeat pool.
PREFILL = 64
#: Catalog: seeded ``DEGREE``-ary random trees of height ``HEIGHT``; a
#: position is a walk of ``PATH_LEN`` moves searched to ``MAX_DEPTH``.
TREES = 4
DEGREE = 4
HEIGHT = 9
MAX_DEPTH = 4
PATH_LEN = 5
SMOKE_RUNG_REQUESTS = 12

Key = tuple[str, tuple[int, ...]]


@dataclass
class Sent:
    key: Key
    due: float
    sent: float = 0.0
    done: float = 0.0
    reply: Any = None
    error: str = ""


def catalog(seed: int) -> dict[str, ServeWorkload]:
    rng = random.Random(seed ^ 0x5EED)
    names = {f"t{index}": rng.randrange(1 << 31) for index in range(TREES)}
    names["warm"] = rng.randrange(1 << 31)
    return {
        name: ServeWorkload(
            name=name,
            make_game=lambda tree_seed=tree_seed: RandomGameTree(DEGREE, HEIGHT, seed=tree_seed),
            sort_below_root=0,
            default_depth=MAX_DEPTH,
        )
        for name, tree_seed in names.items()
    }


def schedule(
    seed: int, seconds: float, smoke: bool
) -> tuple[list[Key], list[tuple[float, list[tuple[float, Key]]]]]:
    """Prefill positions and, per rung, ``(rate, [(due offset, key), ...])``."""
    rng = random.Random(seed)
    seen: set[Key] = set()
    issued: list[Key] = []

    def fresh() -> Key:
        while True:
            key = (
                f"t{rng.randrange(TREES)}",
                tuple(rng.randrange(DEGREE) for _ in range(PATH_LEN)),
            )
            if key not in seen:
                seen.add(key)
                issued.append(key)
                return key

    prefill = [fresh() for _ in range(PREFILL)]
    rungs = []
    nominal_seconds = seconds * NOMINAL_SHARE
    other_seconds = (seconds - nominal_seconds) / (len(LADDER) - 1)
    for rate in LADDER:
        if smoke:
            count = SMOKE_RUNG_REQUESTS
        elif rate == NOMINAL:
            count = max(samples_for_tail(TAIL_Q), round(rate * nominal_seconds))
        elif rate == LADDER[-1]:
            # Long enough for the backlog, and the capacity it measures, to
            # build over a few seconds.
            count = max(2 * samples_for_tail(TAIL_Q), round(rate * other_seconds))
        else:
            count = max(10, round(rate * other_seconds))
        # New positions are evenly spaced (random phase), so the share of
        # repeats is exact and new positions do not cluster by seed.
        fresh_every = 1.0 / (1.0 - REPEAT_FRACTION)
        phase = rng.random() * fresh_every
        offset = 0.0
        requests = []
        for index in range(count):
            offset += rng.expovariate(rate)
            new = math.floor((index + 1 + phase) / fresh_every) > math.floor((index + phase) / fresh_every)
            key = fresh() if new or not issued else issued[rng.randrange(len(issued))]
            requests.append((offset, key))
        rungs.append((rate, requests))
    return prefill, rungs


def segments(requests: list[tuple[float, Key]], parts: int) -> list[list[tuple[float, Key]]]:
    """``requests`` cut into ``parts`` runs, each rebased to start at its first due time."""
    size = math.ceil(len(requests) / parts)
    chunks = [requests[start : start + size] for start in range(0, len(requests), size)]
    return [[(offset - chunk[0][0], key) for offset, key in chunk] for chunk in chunks]


def oracle_answer(game: Any, path: tuple[int, ...], depth: int) -> tuple[int, float]:
    """Alpha-beta's move and value: argmax of negated child values, lowest index."""
    position = follow_path(game, path)
    values = [
        -alphabeta(SearchProblem(RootedGame(game, child), depth - 1)).value
        for child in game.children(position)
    ]
    best = max(range(len(values)), key=values.__getitem__)
    return best, values[best]


def _request(request_id: str, key: Key) -> SearchRequest:
    return SearchRequest(request_id=request_id, workload=key[0], path=key[1], max_depth=MAX_DEPTH)


# ---------------------------------------------------------------------------
# The service process.
# ---------------------------------------------------------------------------


def _pool_counters(service: SearchService) -> dict[str, float]:
    pool = service.pool
    stats = pool.stats
    table = pool.shared_tt
    return {
        "tasks_submitted": pool.counters["tasks_submitted"],
        "tasks_completed": pool.counters["tasks_completed"],
        "short_circuits": pool.counters["tt_short_circuits"],
        "busy_s": sum(split["applied"] for split in pool.per_worker.values()),
        "coord_hits": table.hits,
        "coord_probes": table.hits + table.misses,
        "worker_probes": stats.tt_probes,
        "worker_stores": stats.tt_stores,
        "eval_probes": stats.eval_probes,
        "eval_hits": stats.eval_hits,
        "nodes": stats.interior_visits + stats.leaf_evals,
        "cutoffs": stats.cutoffs,
    }


async def _host_serve(conn: Any, games: dict[str, ServeWorkload], workers: int, traced: bool) -> None:
    """Run the service and answer the benchmark's commands from ``conn``.

    Commands arrive only while no request is in flight: ``counters``
    returns the pool's cumulative counters; ``trace`` installs a span ring
    for the coordinator's table probes; ``close`` returns the final
    snapshot (counters, probe span durations, queue peak, scheduler
    counters, peak memory of this process and its workers, and the
    scheduler's conservation problems after shutdown), then stops.
    """
    service = SearchService(
        ServeConfig(
            n_workers=workers,
            max_concurrency=workers,
            queue_limit=QUEUE_LIMIT,
            tt_capacity=1 << 16,
            eval_cache_mode="shared",
            eval_cache_capacity=1 << 16,
            trace_mode=_live.TRACE_FULL if traced else _live.TRACE_OFF,
        ),
        catalog=games,
    )
    await service.start()
    loop = asyncio.get_running_loop()
    readable = asyncio.Event()
    loop.add_reader(conn.fileno(), readable.set)
    conn.send(service.address)
    ring = None
    try:
        while True:
            await readable.wait()
            readable.clear()
            if not conn.poll():  # a reader callback queued before the last recv
                continue
            command = conn.recv()
            if command == "counters":
                conn.send(_pool_counters(service))
            elif command == "trace":
                ring = _live.install_ring(_live.TRACE_FULL, capacity=1 << 18)
                conn.send(None)
            elif command == "close":
                break
            else:
                raise ValueError(f"unknown command {command!r}")
        probes = [
            end - start
            for cat, name, start, end in (ring.drain() if ring is not None else ())
            if cat == "tt" and name == "probe"
        ]
        if traced:
            probes += [
                s.duration for s in service.pool.merged_spans() if s.cat == "tt" and s.name == "probe"
            ]
        rss = PeakRss()
        rss.sample()
        final = {
            "counters": _pool_counters(service),
            "probe_s": probes,
            "queue_peak": service.metrics.registry.timeseries("serve.queue.depth").peak,
            "rss_mb": rss.mb(),
        }
    finally:
        loop.remove_reader(conn.fileno())
        if ring is not None:
            _live.uninstall_ring()
        await service.shutdown()
    final["scheduler"] = dict(service.scheduler.counters)
    final["problems"] = service.scheduler.conservation_problems()
    conn.send(final)


def _host_main(conn: Any, games: dict[str, ServeWorkload], workers: int, traced: bool) -> None:
    asyncio.run(_host_serve(conn, games, workers, traced))


class Host:
    """A ``SearchService`` in a child process, driven over a pipe.

    Start it outside any running event loop: the child is forked and runs
    its own.  A reply slower than :data:`HARD_TIMEOUT_S` raises
    ``TimeoutError``, so a wedged child fails the run instead of hanging it.
    """

    def __init__(self, games: dict[str, ServeWorkload], workers: int, traced: bool) -> None:
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._process = context.Process(target=_host_main, args=(child, games, workers, traced))
        self._process.start()
        child.close()
        self.workers = workers
        try:
            self.address: tuple[str, int] = self._recv()
        except BaseException:
            self._stop()
            raise

    def _recv(self) -> Any:
        if not self._conn.poll(HARD_TIMEOUT_S):
            raise TimeoutError("the service process did not reply")
        return self._conn.recv()

    def call(self, command: str) -> Any:
        self._conn.send(command)
        return self._recv()

    def close(self) -> dict[str, Any]:
        """Shut the service down and return its final snapshot."""
        try:
            return self.call("close")
        finally:
            self._stop()

    def _stop(self) -> None:
        self._conn.close()
        self._process.join(timeout=30)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()


def _echo_main(listener: socket.socket) -> None:
    conn, _ = listener.accept()
    with conn:
        while data := conn.recv(64):
            reference_request()
            conn.sendall(data)


class Echo:
    """A request-shaped reference: a loopback TCP round trip to a child
    process of the benchmark's own, which runs :func:`reference_request`
    before it replies.  :meth:`round_trip` first sleeps :data:`ECHO_GAP_S`,
    untimed, so both processes go idle and are woken as a request's are.
    """

    def __init__(self) -> None:
        listener = socket.create_server(("127.0.0.1", 0))
        self._process = multiprocessing.get_context("fork").Process(
            target=_echo_main, args=(listener,)
        )
        self._process.start()
        self._sock = socket.create_connection(listener.getsockname())
        listener.close()
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def round_trip(self) -> float:
        time.sleep(ECHO_GAP_S)
        start = time.perf_counter()
        self._sock.sendall(b"x" * 32)
        got = 0
        while got < 32:
            got += len(self._sock.recv(32 - got))
        return time.perf_counter() - start

    def close(self) -> None:
        self._sock.close()
        self._process.join(timeout=10)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()


# ---------------------------------------------------------------------------
# The load generator.
# ---------------------------------------------------------------------------


class Arm:
    """Client connections to one running service.

    Request ids come from ``ids``, shared by every session of a run, so no
    id repeats on a service.
    """

    def __init__(self, clients: list[ServiceClient], ids: Iterator[int]) -> None:
        self.clients = clients
        self._ids = ids

    def next_id(self) -> str:
        return f"r{next(self._ids)}"

    async def close(self) -> None:
        for client in self.clients:
            await client.close()


async def connect(host: Host, ids: Iterator[int]) -> Arm:
    """Connect one client per worker."""
    clients = [await ServiceClient(*host.address).connect() for _ in range(host.workers)]
    return Arm(clients, ids)


async def prefill(arm: Arm, keys: list[Key]) -> list[Sent]:
    """Answer the repeat pool once, a few at a time, before timing starts."""
    records = []
    width = 2 * len(arm.clients)
    for start in range(0, len(keys), width):
        chunk = keys[start : start + width]
        batch = [Sent(key, time.perf_counter()) for key in chunk]
        replies = await asyncio.gather(
            *(
                arm.clients[i % len(arm.clients)].search(_request(arm.next_id(), s.key))
                for i, s in enumerate(batch)
            )
        )
        for record, reply in zip(batch, replies):
            record.reply = reply
            record.done = time.perf_counter()
        records.extend(batch)
    return records


async def run_rung(arm: Arm, requests: list[tuple[float, Key]]) -> list[Sent]:
    """Send on the Poisson schedule regardless of replies; await every reply."""
    records: list[Sent] = []

    async def one(record: Sent, client: ServiceClient) -> None:
        record.sent = time.perf_counter()
        try:
            record.reply = await client.search(_request(arm.next_id(), record.key))
        except (ReproError, OSError) as error:
            record.error = repr(error)
        record.done = time.perf_counter()

    tasks = []
    start = time.perf_counter() + 0.01
    for index, (offset, key) in enumerate(requests):
        record = Sent(key, start + offset)
        records.append(record)
        delay = record.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        client = arm.clients[index % len(arm.clients)]
        tasks.append(asyncio.get_running_loop().create_task(one(record, client)))
    _, pending = await asyncio.wait(tasks, timeout=HARD_TIMEOUT_S)
    for task in pending:
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
    for record in records:
        if record.reply is None and not record.error:
            record.error = "timeout"
    return records


@dataclass
class RungStats:
    rate: float
    sent: int
    ok: int
    failed: int
    within: int
    drain_s: float
    completed_per_s: float
    sustained: bool
    late_s: list[float]
    latencies: list[float]
    iterations: list[float]


def judge(
    record: Sent, oracle: dict[Key, tuple[int, float]], out: Outcome
) -> bool:
    """Count one request; True when it was answered correctly."""
    out.attempted += 1
    reply = record.reply
    if record.error or reply is None or reply.status != STATUS_OK:
        out.failed += 1
        return False
    move, value = oracle[record.key]
    timing_problems = reply.timing.conservation_problems() if reply.timing else ["no timing"]
    if reply.anytime or reply.move_index != move or reply.value != value or timing_problems:
        out.failed += 1
        out.wrong.append(
            f"{record.key}: got move {reply.move_index} value {reply.value} "
            f"(anytime {reply.anytime}, timing {timing_problems}), oracle {move} {value}"
        )
        return False
    return True


def rung_stats(
    rate: float,
    records: list[Sent],
    oracle: dict[Key, tuple[int, float]],
    out: Outcome,
) -> RungStats:
    ok = within = 0
    latencies = []
    iterations = []
    for record in records:
        good = judge(record, oracle, out)
        latency = record.done - record.due if good else HARD_TIMEOUT_S
        latencies.append(latency)
        if good:
            ok += 1
            within += latency <= LATENCY_LIMIT_S
            iterations.append(record.reply.timing.iterations_total_s)
    last_done = max(r.done for r in records)
    drain = last_done - records[-1].due
    return RungStats(
        rate=rate,
        sent=len(records),
        ok=ok,
        failed=len(records) - ok,
        within=within,
        drain_s=drain,
        completed_per_s=ok / (last_done - records[0].due),
        sustained=within >= TAIL_Q / 100.0 * len(records) and drain <= LATENCY_LIMIT_S,
        late_s=[r.sent - r.due for r in records],
        latencies=latencies,
        iterations=iterations,
    )


def serial_seconds(games: dict[str, Any], keys: list[Key]) -> dict[Key, float]:
    """In-process serial engine seconds per position.

    The engine deepens like the service (ER per root move) without its
    pool, wire or caches: what answering the request in-process would cost.
    """
    seconds = {}
    for key in keys:
        game = games[key[0]]
        position = follow_path(game, key[1])
        engine = GameEngine(
            game, EngineConfig(algorithm="er", max_depth=MAX_DEPTH, sort_below_root=0)
        )
        start = time.perf_counter()
        engine.choose(position)
        seconds[key] = time.perf_counter() - start
    return seconds


def simulated_speedup(games: dict[str, Any], keys: list[Key], workers: int) -> float:
    """Serial ER cost over the simulator's makespan at the worker count."""
    cost = makespan = 0.0
    for key in keys:
        game = games[key[0]]
        problem = SearchProblem(RootedGame(game, follow_path(game, key[1])), MAX_DEPTH)
        cost += er_search(problem).stats.cost
        makespan += parallel_er(problem, workers, config=ERConfig()).sim_time
    return cost / makespan


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------


def _pause(
    speed: HostSpeed, wire: HostSpeed, games: dict[str, Any], keys: list[Key]
) -> dict[Key, float]:
    """One break between rungs, with no request in flight: round trips for
    ``wire``, a burst of the reference computation for ``speed``, and right
    after it a serial pass over ``keys``.  The pass is returned at reference
    speed, rescaled by that burst alone: eight passes see only eight
    moments of the machine, too few for the run's mean speed to stand for.
    """
    wire.sample(ECHO_CALLS)
    burst = HostSpeed()
    burst.sample(REFERENCE_CALLS)
    speed.samples.extend(burst.samples)
    return {key: seconds * burst.scale for key, seconds in serial_seconds(games, keys).items()}


async def _warm(host: Host) -> None:
    """Answer one warm-up request per worker, one connection each."""
    arm = await connect(host, itertools.count())
    try:
        warm = [("warm", (index % DEGREE,)) for index in range(host.workers)]
        await asyncio.gather(
            *(c.search(_request(f"warm{i}", key)) for i, (c, key) in enumerate(zip(arm.clients, warm)))
        )
    finally:
        await arm.close()


async def _prefill_session(host: Host, keys: list[Key], ids: Iterator[int]) -> list[Sent]:
    arm = await connect(host, ids)
    try:
        return await prefill(arm, keys)
    finally:
        await arm.close()


async def _rung_session(
    host: Host, requests: list[tuple[float, Key]], ids: Iterator[int]
) -> tuple[list[Sent], float]:
    """One rung on fresh connections; its records and wall seconds."""
    arm = await connect(host, ids)
    try:
        start = time.perf_counter()
        records = await run_rung(arm, requests)
        return records, time.perf_counter() - start
    finally:
        await arm.close()


def _timed_setup(games: dict[str, ServeWorkload], workers: int, traced: bool) -> tuple[float, Host]:
    """Start a service process and warm it; the seconds until it is ready, and the host.

    The host is started outside any event loop (it forks); each session
    with it runs on an event loop of its own.
    """
    start = time.perf_counter()
    host = Host(games, workers, traced)
    try:
        asyncio.run(_warm(host))
    except BaseException:
        host.close()
        raise
    return time.perf_counter() - start, host


def _throwaway_setup(games: dict[str, ServeWorkload], workers: int, traced: bool) -> float:
    seconds, host = _timed_setup(games, workers, traced)
    host.close()
    return seconds


def run_serve(seed: int, seconds: float, trace: bool, smoke: bool, workers: int) -> Outcome:
    out = Outcome()
    games = catalog(seed)
    prefill_keys, rungs = schedule(seed, seconds, smoke)
    local_games = {name: workload.make_game() for name, workload in games.items()}
    keys = set(prefill_keys) | {key for _, requests in rungs for _, key in requests}
    oracle = {key: oracle_answer(local_games[key[0]], key[1], MAX_DEPTH) for key in keys}
    nominal_index = LADDER.index(NOMINAL)
    nominal_keys = sorted({key for _, key in rungs[nominal_index][1]})
    sim_speedup = simulated_speedup(local_games, nominal_keys, workers)
    ids = itertools.count(1)

    untraced_iterations: list[float] = []
    if trace:
        _, host = _timed_setup(games, workers, traced=False)
        try:
            records = asyncio.run(_prefill_session(host, prefill_keys, ids))
            nominal_records, _ = asyncio.run(_rung_session(host, rungs[nominal_index][1], ids))
        finally:
            host.close()
        for record in records:
            judge(record, oracle, out)
        untraced_iterations = rung_stats(NOMINAL, nominal_records, oracle, out).iterations

    setup = SetupSampler(lambda: _throwaway_setup(games, workers, trace), SETUP_REPEATS)
    first, host = _timed_setup(games, workers, trace)
    setup.times.append(first)
    try:
        prefill_records = asyncio.run(_prefill_session(host, prefill_keys, ids))
        before = host.call("counters")
        if trace:
            host.call("trace")
        # Set-up samples, the serial reference and the host's speed are timed
        # between rungs (and between the nominal rung's segments), while no
        # request is in flight, so they see the same machine as the rungs
        # around them.
        speed = HostSpeed()
        serial_runs = []
        rung_records = []
        ladder_wall = 0.0
        with closing(Echo()) as echo:
            wire = HostSpeed(echo.round_trip, ECHO_REFERENCE_S)
            for index, (rate, requests) in enumerate(rungs):
                setup.catch_up(index / len(rungs))
                records = []
                for chunk in segments(requests, NOMINAL_SEGMENTS if rate == NOMINAL else 1):
                    serial_runs.append(_pause(speed, wire, local_games, nominal_keys))
                    chunk_records, wall = asyncio.run(_rung_session(host, chunk, ids))
                    records.extend(chunk_records)
                    ladder_wall += wall
                rung_records.append((rate, records))
            serial_runs.append(_pause(speed, wire, local_games, nominal_keys))
        setup.catch_up(1.0)
    finally:
        final = host.close()
    for record in prefill_records:
        judge(record, oracle, out)
    out.wrong.extend(f"scheduler: {p}" for p in final["problems"])
    # Each position's serial time is its median over the passes.
    serial_s = {key: median([run[key] for run in serial_runs]) for key in nominal_keys}
    iterations_scale = speed.scale

    stats = [rung_stats(rate, records, oracle, out) for rate, records in rung_records]
    nominal = stats[nominal_index]
    nominal_records = rung_records[nominal_index][1]
    top = stats[-1]
    sustained = [s.rate for s in stats if s.sustained]
    # Per request, so the few new positions' searches do not outweigh the
    # rest; both sides at reference speed.
    speedups = [
        serial_s[r.key] / (r.reply.timing.iterations_total_s * iterations_scale)
        for r in nominal_records
        if r.reply is not None and r.reply.timing is not None and r.reply.timing.iterations_total_s
    ]
    raw = {
        "setup_s": median(setup.times),
        "searches_per_s": top.completed_per_s,
        "search_p50_s": percentile(nominal.iterations, 50),
        "search_tail_s": percentile(nominal.iterations, TAIL_Q),
        "speedup_vs_serial": median(speedups),
        "sim_speedup": sim_speedup,
        "latency_p50_s": percentile(nominal.latencies, 50),
        "latency_tail_s": percentile(nominal.latencies, TAIL_Q),
        "goodput_rps": max(sustained) if sustained else 0.0,
        "success_share": 1.0 - ratio(out.failed, out.attempted),
        # This process plus the service process and its workers.
        "peak_rss_mb": PeakRss().mb() + final["rss_mb"],
    }
    out.e2e = wire.rescale(speed.rescale(raw, COMPUTED), WOKEN)
    out.context = {
        "host_speed": speed.context(),
        "round_trip": wire.context(),
        "raw_metrics": raw,
        "setup_times_s": setup.times,
        "tail_percentile": TAIL_Q,
        "latency_limit_s": LATENCY_LIMIT_S,
        "nominal_rps": NOMINAL,
        "rungs": [
            {
                "rate": s.rate,
                "sent": s.sent,
                "succeeded": s.ok,
                "failed": s.failed,
                "within_limit": s.within,
                "drain_s": round(s.drain_s, 4),
                "generator_late_p99_s": round(percentile(s.late_s, 99), 5),
                "sustained": s.sustained,
            }
            for s in stats
        ],
    }
    if trace:
        out.layer = _serve_layers(stats, nominal_records, before, final, ladder_wall, workers)
        out.layer["obs.trace_overhead"] = percentile(nominal.iterations, 50) / percentile(
            untraced_iterations, 50
        )
        out.layer["bench.fail_share"] = ratio(out.failed, out.attempted)
    return out


def _serve_layers(
    stats: list[RungStats],
    nominal_records: list[Sent],
    before: dict[str, float],
    final: dict[str, Any],
    ladder_wall: float,
    workers: int,
) -> dict[str, float]:
    after = final["counters"]
    delta = {name: after[name] - before[name] for name in after}
    requests = sum(s.sent for s in stats)
    layer = zero_layers()
    tasks = delta["tasks_submitted"]
    busy_share = ratio(delta["busy_s"], workers * ladder_wall)
    layer["parallel.tasks_per_search"] = tasks / requests
    layer["parallel.task_useful_ratio"] = ratio(delta["tasks_completed"], tasks)
    layer["parallel.busy_applied_share"] = busy_share
    layer["parallel.starvation_share"] = 1.0 - busy_share
    layer["core.nodes_per_search"] = delta["nodes"] / requests
    layer["core.cutoffs_per_search"] = delta["cutoffs"] / requests
    layer["core.serial_er_s"] = ratio(delta["busy_s"], delta["tasks_completed"])
    layer["cache.tt_probes"] = (delta["coord_probes"] + delta["worker_probes"]) / requests
    layer["cache.tt_hit_ratio"] = ratio(delta["coord_hits"], delta["coord_probes"])
    layer["cache.tt_stores"] = delta["worker_stores"] / requests
    layer["cache.tt_probe_s"] = ratio(sum(final["probe_s"]), len(final["probe_s"]))
    layer["eval.cache_hit_ratio"] = ratio(delta["eval_hits"], delta["eval_probes"])
    layer["serve.tt_short_circuit_ratio"] = ratio(
        delta["short_circuits"], delta["short_circuits"] + tasks
    )
    timings = [r.reply.timing for r in nominal_records if r.reply is not None and r.reply.timing]
    for stage in STAGES:
        values = [t.stage_seconds()[stage] for t in timings]
        layer[f"serve.{stage}_s.p50"] = percentile(values, 50)
        layer[f"serve.{stage}_s.tail"] = percentile(values, TAIL_Q)
    layer["serve.tasks_per_request"] = tasks / requests
    layer["serve.queue_depth_max"] = final["queue_peak"]
    layer["serve.shed"] = final["scheduler"]["shed"]
    layer["serve.evicted"] = final["scheduler"]["evicted"]
    late = [value for s in stats for value in s.late_s]
    layer["bench.generator_late_s"] = percentile(late, 99)
    return layer
