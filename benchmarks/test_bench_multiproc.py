"""Wall-clock scaling of the multiprocess ER backend, P in {1, 2, 4, 8}.

This is the repo's only *real-time* speedup exhibit: the simulator
benchmarks report simulated-clock efficiency, whereas this run measures
actual seconds on actual cores.  The workload is a random tree tuned so
subtree tasks are large relative to one pickle/IPC round-trip and
numerous enough to keep eight workers fed (54+ tasks), with
``max_e_children=1`` keeping total speculative work near the serial node
count.  Serial and parallel sides are timed alike: one untimed warm-up,
then the best of :data:`~repro.parallel.multiproc.TIMING_REPEATS` runs,
each P on its own warmed pool.

Speedup assertions are gated on the machine: a container pinned to one
core cannot show wall-clock speedup no matter how correct the backend
is, so there we only pin correctness, task-flow, and loss accounting.
The measured numbers land in ``results/scaling_multiproc_P{n}.txt``
either way.
"""

from __future__ import annotations

from repro.core.er_parallel import ERConfig
from repro.core.serial_er import er_search
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.parallel.multiproc import available_cores, measure_serial_seconds, scaling_run

WORKER_COUNTS = (1, 2, 4, 8)


def _workload(scale: str) -> tuple[SearchProblem, ERConfig]:
    # Calibrated so one task is ~5-10ms of search (hundreds of pickle
    # round-trips' worth) and P=1 busy time stays within ~10% of serial.
    height = 10 if scale == "paper" else 8
    problem = SearchProblem(RandomGameTree(4, height, seed=101), depth=height)
    config = ERConfig(serial_depth=height - 5, max_e_children=1)
    return problem, config


def test_multiproc_scaling(benchmark, scale, record_scaling, record_ledger):
    problem, config = _workload(scale)
    truth = er_search(problem).value
    serial_seconds = measure_serial_seconds(problem)

    _, points = benchmark.pedantic(
        lambda: scaling_run(
            problem, WORKER_COUNTS, config=config, serial_seconds=serial_seconds
        ),
        rounds=1,
        iterations=1,
    )
    record_scaling("scaling_multiproc", "M1", serial_seconds, points)

    # Freeze the widest run into the observability ledger (and the
    # aggregated BENCH_obs.json) alongside the table files.
    from repro.obs.snapshot import snapshot_from_multiproc

    widest = max(points, key=lambda p: p.n_workers)
    snap = snapshot_from_multiproc(widest.result, workload="M1")
    violations = snap.check_accounting()
    assert violations == [], "\n".join(violations)
    record_ledger(
        snap,
        workload="M1",
        scale=scale,
        seed=101,
        config={"serial_depth": config.serial_depth, "max_e_children": 1},
    )

    cores = available_cores()
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["speedup"] = {
        p.n_workers: round(p.speedup, 2) for p in points
    }
    benchmark.extra_info["losses"] = {
        p.n_workers: {
            "starvation": round(p.result.starvation_fraction, 3),
            "interference": round(p.result.interference_fraction, 3),
            "speculative": round(p.result.speculative_fraction, 3),
        }
        for p in points
    }

    by_count = {p.n_workers: p for p in points}
    # Correctness and accounting hold on any machine.
    for point in points:
        assert point.result.value == truth
        assert point.result.extras["tasks_submitted"] >= 8
        fractions = (
            point.result.starvation_fraction
            + point.result.interference_fraction
            + point.result.speculative_fraction
        )
        assert 0.0 <= fractions <= 1.0 + 1e-9
    # Real-parallelism claims need real cores to test.
    if cores >= 2:
        assert by_count[2].speedup > 1.1, (
            f"P=2 gained nothing on {cores} cores: {by_count[2].speedup:.2f}x"
        )
    if cores >= 4:
        assert by_count[4].speedup > 1.5, (
            f"P=4 speedup {by_count[4].speedup:.2f}x below the 1.5x bar "
            f"on {cores} cores"
        )
