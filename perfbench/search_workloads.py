"""The two search workloads: ``search-cores`` (real processes) and ``sim-sweep``.

``search-cores`` runs ``multiproc_er`` on one persistent pool with one
worker per core and every cache off, on a seeded batch of random trees and
Othello positions, with serial ER on the same positions interleaved as the
speedup base.  ``sim-sweep`` runs ``parallel_er`` on the simulator over the
six reduced Table 3 trees at a fixed processor ladder, in one process.

Both are a closed loop with one caller: each search is due when the one
before it returns, so per-search latency equals search wall time and the
goodput is the rate of searches that finish within the latency limit.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from benchlib import (
    HostSpeed,
    Outcome,
    PeakRss,
    SetupSampler,
    TimedGame,
    Tracer,
    median,
    percentile,
    ratio,
    samples_for_tail,
    zero_layers,
)
from repro import (
    ERConfig,
    SearchProblem,
    alphabeta,
    er_search,
    multiproc_er,
    parallel_er,
    table3_suite,
)
from repro.games import RandomGameTree
from repro.games.othello.game import O1_ROOT, O2_ROOT, O3_ROOT, Othello
from repro.obs.live import TRACE_FULL, TRACE_OFF
from repro.serve import EnginePool

#: A search slower than this misses the goodput limit.
SEARCH_LIMIT_S = 5.0
#: Set-up is timed this many times per run, spread over it, and the median
#: reported.
SETUP_REPEATS = 25
#: The simulator's speedup prediction covers the first positions searched.
SIM_PREDICTED = 24


@dataclass(frozen=True)
class Item:
    name: str
    problem: SearchProblem
    config: ERConfig


@dataclass(frozen=True)
class CoresShape:
    """Sizes of ``search-cores``; ``SMOKE`` keeps the same shape, smaller."""

    positions: int  # half random trees, half Othello; more than a run searches
    random_height: int
    random_serial_depth: int
    othello_depth: int
    othello_serial_depth: int
    tail_q: float
    min_samples: int


CORES = CoresShape(512, 8, 3, 4, 2, 75.0, samples_for_tail(75.0))
CORES_SMOKE = CoresShape(4, 5, 2, 3, 1, 75.0, 4)

#: Processor ladder of the sweep; the paper's largest count is last.
SIM_LADDER = (1, 4, 8, 16)
SIM_LADDER_SMOKE = (1, 16)
SIM_TAIL_Q = 75.0
#: Set-up here takes milliseconds, so each timed sample covers several
#: set-ups (the reported value is per set-up).
SIM_SETUPS_PER_SAMPLE = 20


def _othello_root(rng: random.Random) -> Any:
    """A seeded random walk of one to four plies from one of O1-O3."""
    game = Othello(rng.choice((O1_ROOT, O2_ROOT, O3_ROOT)))
    position = game.root()
    for _ in range(rng.randint(1, 4)):
        children = game.children(position)
        step = children[rng.randrange(len(children))]
        if not game.children(step):
            break
        position = step
    return position


def cores_batch(seed: int, shape: CoresShape) -> list[Item]:
    """Alternating random-tree and Othello positions, all from ``seed``."""
    rng = random.Random(seed)
    random_config = ERConfig(serial_depth=shape.random_serial_depth, max_e_children=1)
    othello_config = ERConfig(serial_depth=shape.othello_serial_depth, max_e_children=1)
    items: list[Item] = []
    for index in range(shape.positions):
        if index % 2 == 0:
            tree_seed = rng.randrange(1 << 31)
            game: Any = RandomGameTree(4, shape.random_height, seed=tree_seed)
            items.append(
                Item(f"random-{tree_seed}", SearchProblem(game, shape.random_height), random_config)
            )
        else:
            problem = SearchProblem(
                Othello(_othello_root(rng)),
                shape.othello_depth,
                sort_below_root=shape.othello_depth - 2,
            )
            items.append(Item(f"othello-{index}", problem, othello_config))
    return items


def _warm_problem() -> SearchProblem:
    return SearchProblem(RandomGameTree(4, 6, seed=0), 6)


def _cores_pool(workers: int, trace_mode: str) -> EnginePool:
    """A persistent pool with every cache off, warmed by one search."""
    pool = EnginePool(workers, tt_mode="off", trace_mode=trace_mode)
    multiproc_er(
        _warm_problem(), workers, config=ERConfig(serial_depth=2, max_e_children=1),
        pool=pool, trace=trace_mode,
    )
    return pool


def _cores_setup(workers: int) -> tuple[float, EnginePool]:
    """Spawn and warm the untraced pool; the seconds it took, and the pool."""
    start = time.perf_counter()
    pool = _cores_pool(workers, TRACE_OFF)
    er_search(_warm_problem())
    return time.perf_counter() - start, pool


def _throwaway_cores_setup(workers: int) -> float:
    seconds, pool = _cores_setup(workers)
    pool.close()
    return seconds


def _coord_wait(result: Any) -> float:
    """Seconds the coordinator spent blocked on futures (traced runs only)."""
    trace = result.trace
    if trace is None:
        return 0.0
    return sum(
        span.duration
        for span in trace.spans
        if span.worker == -1 and span.cat == "heap" and span.name == "wait"
    )


def run_search_cores(
    seed: int, seconds: float, trace: bool, smoke: bool, workers: int
) -> Outcome:
    shape = CORES_SMOKE if smoke else CORES
    batch = cores_batch(seed, shape)
    out = Outcome()
    rss = PeakRss()
    setup = SetupSampler(lambda: _throwaway_cores_setup(workers), SETUP_REPEATS)
    first, pool = _cores_setup(workers)
    setup.times.append(first)
    tracer = Tracer()
    speed = HostSpeed()
    traced_pool: Any = None
    traced: list[Any] = []
    try:
        budget = seconds / 2 if trace else seconds
        samples = _cores_pass(
            batch, workers, pool, budget, shape.min_samples, None, setup=setup, speed=speed
        )
        setup.catch_up(1.0)
        if trace:
            # The same units again on a pool that differs only in trace mode.
            traced_pool = _cores_pool(workers, TRACE_FULL)
            order = [index for index, *_ in samples]
            traced = _cores_pass(batch, workers, traced_pool, 0.0, 0, tracer, order)
        rss.sample()
        # Oracle and simulator prediction for every searched position, on
        # the worker pool after the timed window.
        searched = sorted({index for index, *_ in samples})
        executor = pool.executor
        oracle_futures = {i: executor.submit(alphabeta, batch[i].problem) for i in searched}
        sim_futures = {
            i: executor.submit(parallel_er, batch[i].problem, workers, config=batch[i].config)
            for i in searched[:SIM_PREDICTED]
        }
        oracle = {i: f.result().value for i, f in oracle_futures.items()}
        predicted = {i: f.result() for i, f in sim_futures.items()}
    finally:
        pool.close()
        if traced_pool is not None:
            traced_pool.close()

    serial_walls = [s[1] for s in samples]
    walls = [s[2] for s in samples]
    for index, _, _, serial_value, result, _ in samples + traced:
        out.attempted += 2
        for label, value in (("serial", serial_value), ("multiproc", result.value)):
            if value != oracle[index]:
                out.failed += 1
                out.wrong.append(f"{batch[index].name} {label} {value} != {oracle[index]}")
    within = sum(
        1 for index, _, wall, _, result, _ in samples
        if wall <= SEARCH_LIMIT_S and result.value == oracle[index]
    )
    serial_cost = sum(s[5] for s in samples if s[0] in predicted)
    makespan = sum(predicted[s[0]].sim_time for s in samples if s[0] in predicted)
    p50 = median(walls)
    tail = percentile(walls, shape.tail_q)
    raw = {
        "setup_s": median(setup.times),
        "searches_per_s": len(walls) / sum(walls),
        "search_p50_s": p50,
        "search_tail_s": tail,
        "speedup_vs_serial": sum(serial_walls) / sum(walls),
        "sim_speedup": serial_cost / makespan,
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "goodput_rps": within / sum(walls),
        "success_share": 1.0 - ratio(out.failed, out.attempted),
        "peak_rss_mb": rss.mb(),
    }
    out.e2e = speed.rescale(raw)
    out.context = {
        "host_speed": speed.context(),
        "raw_metrics": raw,
        "setup_times_s": setup.times,
        "searches": len(walls),
        "distinct_positions": len(searched),
        "tail_percentile": shape.tail_q,
        "serial_p50_s": median(serial_walls),
    }
    if trace:
        out.layer = _cores_layers(samples, traced, tracer, out)
    return out


def _span(tracer: Any, name: str) -> Any:
    return tracer.span(name) if tracer is not None else nullcontext()


def _timed(problem: SearchProblem, tracer: Any) -> SearchProblem:
    """``problem`` with its game calls charged to ``tracer`` (if tracing)."""
    if tracer is None:
        return problem
    return SearchProblem(TimedGame(problem.game, tracer), problem.depth, problem.sort_below_root)


def _cores_pass(
    batch: list[Item],
    workers: int,
    pool: EnginePool,
    budget: float,
    min_samples: int,
    tracer: Any,
    order: Any = None,
    setup: SetupSampler | None = None,
    speed: HostSpeed | None = None,
) -> list[tuple[int, float, float, float, Any, float]]:
    """Search positions in batch order until the budget and sample floor are met.

    Each sample is ``(index, serial wall, multiproc wall, serial value,
    multiproc result, serial cost)``.  Serial and multiproc alternate which
    runs first.  With ``order`` the pass replays exactly those indices.  The
    budget counts search time only; between positions, ``setup`` takes the
    set-up samples due so far.  After each serial search, ``speed`` times
    the reference computation once: not after a multiproc search, whose
    workers may still be finishing tasks that no longer matter.
    """
    samples = []
    spent = 0.0
    count = 0
    while order is None or count < len(order):
        index = count % len(batch) if order is None else order[count]
        item = batch[index]
        for leg in ("serial", "multiproc") if count % 2 == 0 else ("multiproc", "serial"):
            t0 = time.perf_counter()
            if leg == "serial":
                with _span(tracer, "core.er_search"):
                    serial = er_search(_timed(item.problem, tracer))
                serial_wall = time.perf_counter() - t0
                if speed is not None:
                    speed.sample()
            else:
                with _span(tracer, "parallel.multiproc_er"):
                    result = multiproc_er(
                        item.problem, workers, config=item.config,
                        pool=pool, trace=pool.trace_mode,
                    )
                wall = time.perf_counter() - t0
        samples.append((index, serial_wall, wall, serial.value, result, serial.stats.cost))
        count += 1
        spent += serial_wall + wall
        if setup is not None:
            setup.catch_up(spent / budget)
        if order is None and spent >= budget and count >= min_samples:
            break
    return samples


def _parallel_layers(results: list[Any]) -> dict[str, float]:
    """The ``parallel.*`` accounting ``MultiprocResult`` keeps on every run."""
    submitted = sum(r.extras["tasks_submitted"] for r in results)
    processor_s = sum(r.processor_seconds for r in results)
    return {
        "parallel.tasks_per_search": submitted / len(results),
        "parallel.task_useful_ratio": ratio(
            sum(r.extras["tasks_applied"] for r in results), submitted
        ),
        "parallel.dispatch_s_per_task": ratio(
            sum(r.interference_seconds for r in results), submitted
        ),
        "parallel.busy_applied_share": ratio(
            sum(r.busy_applied_seconds for r in results), processor_s
        ),
        "parallel.busy_wasted_share": ratio(
            sum(r.busy_wasted_seconds for r in results), processor_s
        ),
        "parallel.starvation_share": ratio(
            sum(r.starvation_seconds for r in results), processor_s
        ),
        "parallel.interference_share": ratio(
            sum(r.interference_seconds for r in results), processor_s
        ),
    }


def _games_layers(tracer: Tracer, searches: int) -> dict[str, float]:
    return {
        "games.children_calls": tracer.calls("games.children") / searches,
        "games.children_s": tracer.total_s("games.children") / searches,
        "games.eval_calls": tracer.calls("games.eval") / searches,
        "games.eval_s": tracer.total_s("games.eval") / searches,
    }


def _cores_layers(
    untraced: list[Any], traced: list[Any], tracer: Tracer, out: Outcome
) -> dict[str, float]:
    layer = zero_layers()
    results = [s[4] for s in untraced]
    layer.update(_parallel_layers(results))
    traced_results = [s[4] for s in traced]
    layer["parallel.coord_wait_share"] = ratio(
        sum(_coord_wait(r) for r in traced_results), sum(r.wall_time for r in traced_results)
    )
    layer["core.nodes_per_search"] = sum(
        r.stats.interior_visits + r.stats.leaf_evals for r in results
    ) / len(results)
    layer["core.cutoffs_per_search"] = sum(r.stats.cutoffs for r in results) / len(results)
    serial_searches = tracer.calls("core.er_search")
    layer["core.serial_er_s"] = tracer.self_s("core.er_search") / serial_searches
    layer.update(_games_layers(tracer, int(serial_searches)))
    untraced_wall = sum(s[1] + s[2] for s in untraced)
    traced_wall = sum(s[1] + s[2] for s in traced)
    layer["obs.trace_overhead"] = traced_wall / untraced_wall
    layer["bench.fail_share"] = ratio(out.failed, out.attempted)
    return layer


# ---------------------------------------------------------------------------
# sim-sweep
# ---------------------------------------------------------------------------


def sim_trees(smoke: bool) -> list[tuple[str, SearchProblem, ERConfig]]:
    suite = table3_suite("reduced")
    names = ("R3", "O2") if smoke else tuple(suite)
    return [
        (name, suite[name].problem(), ERConfig(serial_depth=suite[name].serial_depth))
        for name in names
    ]


def _sim_setup_seconds() -> float:
    """Seconds of one set-up: build the six problems, one warm-up simulation.

    One takes milliseconds, so this is the mean over several.  Samples are
    taken between sweeps, in a heap holding the run's results; collecting
    first keeps a collection pause over that heap out of the set-up's time.
    """
    gc.collect()
    start = time.perf_counter()
    for _ in range(SIM_SETUPS_PER_SAMPLE):
        sim_trees(False)
        parallel_er(SearchProblem(RandomGameTree(3, 4, seed=0), 4), 4, config=ERConfig(serial_depth=2))
    return (time.perf_counter() - start) / SIM_SETUPS_PER_SAMPLE


def _sweep(
    trees: list[tuple[str, SearchProblem, ERConfig]],
    ladder: tuple[int, ...],
    tracer: Any,
    speed: HostSpeed | None = None,
) -> tuple[list[tuple[str, int, float, Any]], dict[str, tuple[float, Any]]]:
    """One sweep: serial ER, then every ladder count, for each tree.

    Before each search, ``speed`` times the reference computation once.
    """
    runs = []
    serial = {}
    for name, problem, config in trees:
        problem = _timed(problem, tracer)
        if speed is not None:
            speed.sample()
        t0 = time.perf_counter()
        with _span(tracer, "core.er_search"):
            base = er_search(problem)
        serial[name] = (time.perf_counter() - t0, base)
        for processors in ladder:
            if speed is not None:
                speed.sample()
            t0 = time.perf_counter()
            with _span(tracer, "sim.parallel_er"):
                result = parallel_er(problem, processors, config=config)
            runs.append((name, processors, time.perf_counter() - t0, result))
    return runs, serial


def _check_sweep(
    runs: list[tuple[str, int, float, Any]],
    serial: dict[str, tuple[float, Any]],
    oracle: dict[str, float],
    out: Outcome,
) -> int:
    """Count one sweep's searches against the oracle; returns how many were
    correct within the latency limit."""
    correct = 0
    checked = [(name, "serial ER", wall, base) for name, (wall, base) in serial.items()]
    checked += [(name, f"P={p}", wall, result) for name, p, wall, result in runs]
    for name, label, wall, result in checked:
        out.attempted += 1
        if result.value != oracle[name]:
            out.failed += 1
            out.wrong.append(f"{name} {label} {result.value} != {oracle[name]}")
        elif wall <= SEARCH_LIMIT_S:
            correct += 1
    return correct


def run_sim_sweep(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    """``seed`` rotates the tree order; the trees themselves are the paper's."""
    out = Outcome()
    rss = PeakRss()
    setup = SetupSampler(_sim_setup_seconds, SETUP_REPEATS)
    setup.catch_up(1 / SETUP_REPEATS)
    trees = sim_trees(smoke)
    shift = seed % len(trees)
    trees = trees[shift:] + trees[:shift]
    ladder = SIM_LADDER_SMOKE if smoke else SIM_LADDER
    oracle = {name: alphabeta(problem).value for name, problem, _ in trees}
    min_samples = 4 if smoke else samples_for_tail(SIM_TAIL_Q)

    # Whole sweeps only, so every run weighs the trees and counts alike; a
    # traced run measures one untraced sweep to compare the traced one with.
    runs: list[tuple[str, int, float, Any]] = []
    serial_walls: list[float] = []
    bases: dict[str, Any] = {}
    correct = 0
    spent = 0.0  # sweep time only; set-up samples are taken between sweeps
    sweeps = 0
    speed = HostSpeed()
    while True:
        start = time.perf_counter()
        sweep_runs, serial = _sweep(trees, ladder, None, speed)
        spent += time.perf_counter() - start
        correct += _check_sweep(sweep_runs, serial, oracle, out)
        runs.extend(sweep_runs)
        sweeps += 1
        serial_walls.append(sum(wall for wall, _ in serial.values()))
        bases.update((name, base) for name, (_, base) in serial.items())
        setup.catch_up(spent / seconds)
        if trace or (spent * (sweeps + 1) / sweeps > seconds and len(runs) >= min_samples):
            break
    setup.catch_up(1.0)
    walls = [wall for _, _, wall, _ in runs]
    top = ladder[-1]
    top_runs = [(name, wall, result) for name, p, wall, result in runs if p == top]
    speedups = {name: bases[name].stats.cost / result.sim_time for name, _, result in top_runs}
    top_wall = sum(wall for _, wall, _ in top_runs) / sweeps
    p50 = median(walls)
    tail = percentile(walls, SIM_TAIL_Q)
    rss.sample()
    raw = {
        "setup_s": median(setup.times),
        "searches_per_s": len(walls) / sum(walls),
        "search_p50_s": p50,
        "search_tail_s": tail,
        "speedup_vs_serial": (sum(serial_walls) / sweeps) / top_wall,
        "sim_speedup": sum(speedups.values()) / len(speedups),
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "goodput_rps": correct / sum(walls),
        "success_share": 1.0 - ratio(out.failed, out.attempted),
        "peak_rss_mb": rss.mb(),
    }
    out.e2e = speed.rescale(raw)
    out.context = {
        "host_speed": speed.context(),
        "raw_metrics": raw,
        "setup_times_s": setup.times,
        "trees": [name for name, _, _ in trees],
        "ladder": list(ladder),
        "sweeps": sweeps,
        "searches": len(walls),
        "tail_percentile": SIM_TAIL_Q,
        f"sim_speedup_P{top}": speedups,
    }
    if trace:
        tracer = Tracer()
        traced_runs, traced_serial = _sweep(trees, ladder, tracer)
        _check_sweep(traced_runs, traced_serial, oracle, out)
        untraced_wall = serial_walls[0] + sum(w for _, _, w, _ in runs[: len(traced_runs)])
        traced_wall = sum(w for w, _ in traced_serial.values()) + sum(
            w for _, _, w, _ in traced_runs
        )
        out.layer = _sim_layers(runs, bases, top, tracer, traced_runs)
        out.layer["obs.trace_overhead"] = traced_wall / untraced_wall
        out.layer["bench.fail_share"] = ratio(out.failed, out.attempted)
    return out


def _sim_layers(
    runs: list[tuple[str, int, float, Any]],
    bases: dict[str, Any],
    top: int,
    tracer: Tracer,
    traced_runs: list[tuple[str, int, float, Any]],
) -> dict[str, float]:
    layer = zero_layers()
    results = [result for _, _, _, result in runs]
    events = sum(r.report.events for r in results)
    layer["sim.events"] = events / len(results)
    traced_events = sum(result.report.events for _, _, _, result in traced_runs)
    layer["sim.wall_per_event_us"] = tracer.self_s("sim.parallel_er") / traced_events * 1e6
    top_results = [(name, result) for name, p, _, result in runs if p == top]
    top_results = top_results[: len(bases)]
    starvation = interference = speculative = 0.0
    for name, result in top_results:
        report = result.report
        capacity = report.makespan * top
        starvation += report.starvation_fraction()
        interference += report.interference_fraction()
        # The remainder of 1 - efficiency: busy time beyond the serial cost.
        speculative += (report.total_busy - bases[name].stats.cost) / capacity
    layer["sim.starvation_share"] = starvation / len(top_results)
    layer["sim.interference_share"] = interference / len(top_results)
    layer["sim.speculative_share"] = speculative / len(top_results)
    layer["core.nodes_per_search"] = sum(
        r.stats.interior_visits + r.stats.leaf_evals for r in results
    ) / len(results)
    layer["core.cutoffs_per_search"] = sum(r.stats.cutoffs for r in results) / len(results)
    serial_searches = tracer.calls("core.er_search")
    layer["core.serial_er_s"] = tracer.self_s("core.er_search") / serial_searches
    layer.update(_games_layers(tracer, int(serial_searches) + len(traced_runs)))
    return layer
