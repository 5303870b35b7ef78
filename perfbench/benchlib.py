"""Shared pieces of the benchmark: metric tables, statistics, tracing, context.

Everything here lives outside the program under test.  The tracer records
spans around calls the benchmark makes into the program's public API; the
program itself is not instrumented by it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics, printed by every untraced run: name -> (unit, better).
E2E = {
    "setup_s": ("s", "lower"),
    "searches_per_s": ("1/s", "higher"),
    "search_p50_s": ("s", "lower"),
    "search_tail_s": ("s", "lower"),
    "speedup_vs_serial": ("ratio", "higher"),
    "sim_speedup": ("ratio", "higher"),
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "goodput_rps": ("1/s", "higher"),
    "success_share": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: End-to-end metrics measured against the clock: times and rates.
CLOCKED = tuple(name for name, (unit, _) in E2E.items() if unit in ("s", "1/s"))

#: Per-layer metrics, printed by every traced run: name -> unit.  A layer a
#: workload bypasses reports 0 (no work done there).
LAYER = {
    "parallel.tasks_per_search": "count",
    "parallel.task_useful_ratio": "ratio",
    "parallel.dispatch_s_per_task": "s",
    "parallel.busy_applied_share": "ratio",
    "parallel.busy_wasted_share": "ratio",
    "parallel.starvation_share": "ratio",
    "parallel.interference_share": "ratio",
    "parallel.coord_wait_share": "ratio",
    "core.nodes_per_search": "count",
    "core.cutoffs_per_search": "count",
    "core.serial_er_s": "s",
    "sim.events": "count",
    "sim.wall_per_event_us": "us",
    "sim.starvation_share": "ratio",
    "sim.interference_share": "ratio",
    "sim.speculative_share": "ratio",
    "games.children_calls": "count",
    "games.children_s": "s",
    "games.eval_calls": "count",
    "games.eval_s": "s",
    "cache.tt_probes": "count",
    "cache.tt_hit_ratio": "ratio",
    "cache.tt_stores": "count",
    "cache.tt_probe_s": "s",
    "eval.cache_hit_ratio": "ratio",
    "serve.tt_short_circuit_ratio": "ratio",
    **{
        f"serve.{stage}_s.{stat}": "s"
        for stage in ("admission", "queue_wait", "iterations", "reply_serialize", "unattributed")
        for stat in ("p50", "tail")
    },
    "serve.tasks_per_request": "count",
    "serve.queue_depth_max": "count",
    "serve.shed": "count",
    "serve.evicted": "count",
    "bench.generator_late_s": "s",
    "bench.fail_share": "ratio",
    "obs.trace_overhead": "ratio",
}


@dataclass
class Outcome:
    """What one workload run measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    context: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.wrong


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def samples_for_tail(q: float) -> int:
    """Fewest samples that leave at least ten beyond the q-th percentile."""
    n = 10
    while n - math.ceil(q / 100.0 * n) < 10:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def zero_layers() -> dict[str, float]:
    """Every per-layer metric at 0, for a workload to fill in its own layers."""
    return {name: 0.0 for name in LAYER}


#: Seconds one :func:`reference_work` call takes on the 2-core machine the
#: benchmark was tuned on, in a quiet spell; timings are reported at it.
REFERENCE_S = 0.012


def _negamax(node: int, depth: int, alpha: int, beta: int) -> int:
    if depth == 0:
        return ((node * 2654435761) >> 7) % 1000 - 500
    best = -(10**9)
    for move in range(4):
        value = -_negamax(node * 4 + move + 1, depth - 1, -beta, -alpha)
        if value > best:
            best = value
            if value > alpha:
                alpha = value
                if alpha >= beta:
                    break
    return best


def reference_work() -> int:
    """A fixed pure-Python alpha-beta over a synthetic 4-ary tree, 9 ply.

    It is the benchmark's own code, not the program's, and exercises the
    interpreter as the searches do (calls, integer arithmetic, cutoffs).
    """
    return _negamax(1, 9, -(10**9), 10**9)


def reference_request() -> int:
    """:func:`reference_work` cut to 5 ply (about 0.25 ms): the Python work
    that one short service request does besides its wake-ups."""
    return _negamax(1, 5, -(10**9), 10**9)


def time_reference() -> float:
    """Seconds one :func:`reference_work` call takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class HostSpeed:
    """How fast the machine ran during a run, against a fixed reference.

    On a shared host the same deterministic simulation's time drifts by up
    to 40% over minutes with other tenants' load, and no statistic of raw
    wall times taken within one run removes a drift that lasts longer than
    the run.  ``measure`` times one unit of reference work of the
    benchmark's own (by default one :func:`reference_work` call) and
    ``reference_s`` is what that takes in a quiet spell.  It is sampled
    between the run's units (never during one), so its samples see the
    moments the units saw.  Their mean tracks the units' drift (IQR/median
    of 24-second windows: 0.11 raw, 0.046 rescaled); their median does not
    (0.16), because one sample is shorter than the host's fast and slow
    spells and falls in one or the other, so only the mean weighs the
    spells as a search does.  :meth:`rescale` reports measured times as
    they would read on a machine where the reference takes ``reference_s``.
    """

    def __init__(
        self, measure: Callable[[], float] = time_reference, reference_s: float = REFERENCE_S
    ) -> None:
        self._measure = measure
        self.reference_s = reference_s
        self.samples: list[float] = []

    def sample(self, calls: int = 1) -> None:
        self.samples.extend(self._measure() for _ in range(calls))

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def scale(self) -> float:
        """Multiply a measured time by this to read it at reference speed."""
        return self.reference_s / self.mean_s

    def rescale(self, e2e: dict[str, float], names: Sequence[str] = CLOCKED) -> dict[str, float]:
        """``e2e`` with the metrics in ``names`` at reference speed: a time
        in seconds is multiplied by :attr:`scale`, a rate in 1/s divided."""
        out = dict(e2e)
        for name in names:
            if E2E[name][0] == "s":
                out[name] = e2e[name] * self.scale
            else:
                out[name] = e2e[name] / self.scale
        return out

    def context(self) -> dict[str, Any]:
        return {
            "reference_s": self.reference_s,
            "mean_s": self.mean_s,
            "samples": len(self.samples),
            "scale": self.scale,
        }


class SetupSampler:
    """Times a set-up ``repeats`` times, spread evenly over a run.

    Other tenants' load on a shared machine drifts over seconds, so set-ups
    timed back to back all see one moment; spread over the run, their median
    sees the same mix of moments as the timed units.  ``setup`` performs
    one throwaway set-up and returns its seconds.
    """

    def __init__(self, setup: Callable[[], float], repeats: int) -> None:
        self._setup = setup
        self.repeats = repeats
        self.times: list[float] = []

    def catch_up(self, progress: float) -> None:
        """Take the samples due once ``progress`` (0 to 1) of the run is done."""
        due = min(self.repeats, math.ceil(progress * self.repeats))
        while len(self.times) < due:
            self.times.append(self._setup())


# ---------------------------------------------------------------------------
# Tracing: spans recorded around the benchmark's own calls.
# ---------------------------------------------------------------------------


class Tracer:
    """Nested spans with self time, aggregated per name in memory.

    ``span`` times a named interval around a call; ``leaf`` charges a
    short call measured inline (game method calls are too many to keep one
    record each) to its layer's totals and to the enclosing span's child
    time.  Self time is a span's duration minus its children's.
    """

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        self._stack: list[list[float]] = []  # [start, child seconds]

    def _add(self, name: str, calls: int, total: float, self_s: float) -> None:
        row = self.totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += self_s

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            self._add(name, 1, duration, duration - frame[1])
            if self._stack:
                self._stack[-1][1] += duration

    def leaf(self, name: str, seconds: float, calls: int = 1) -> None:
        self._add(name, calls, seconds, seconds)
        if self._stack:
            self._stack[-1][1] += seconds

    def calls(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]


class TimedGame:
    """A game view that charges every ``children``/``evaluate`` call to a tracer.

    Forwards ``hash_key`` and ``batch_eval`` so searches behave exactly as
    on the wrapped game.
    """

    def __init__(self, game: Any, tracer: Tracer) -> None:
        self._game = game
        self._tracer = tracer

    def root(self) -> Any:
        return self._game.root()

    def children(self, position: Any) -> Any:
        start = time.perf_counter()
        out = self._game.children(position)
        self._tracer.leaf("games.children", time.perf_counter() - start)
        return out

    def evaluate(self, position: Any) -> float:
        start = time.perf_counter()
        out = self._game.evaluate(position)
        self._tracer.leaf("games.eval", time.perf_counter() - start)
        return out

    def hash_key(self, position: Any) -> int:
        from repro.games.base import hash_key

        return hash_key(self._game, position)

    def batch_eval(self, positions: Sequence[Any]) -> list[float]:
        from repro.games.base import batch_eval

        start = time.perf_counter()
        out = batch_eval(self._game, positions)
        self._tracer.leaf("games.eval", time.perf_counter() - start, calls=len(positions))
        return out


# ---------------------------------------------------------------------------
# Memory and machine context.
# ---------------------------------------------------------------------------


class PeakRss:
    """Peak resident memory of this process plus its live worker children.

    Children are sampled (``VmHWM`` from ``/proc``) whenever :meth:`sample`
    runs; call it while the pools are still up.
    """

    def __init__(self) -> None:
        self._children_kb = 0

    def sample(self) -> None:
        total = 0
        for child in multiprocessing.active_children():
            try:
                with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except (OSError, ValueError):
                continue
        self._children_kb = max(self._children_kb, total)

    def mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + self._children_kb) / 1024.0


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_sha() -> str:
    """HEAD of the checkout read from ``.git``, or ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text(encoding="ascii").strip()
            for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def machine_context(
    workload: str, seed: int, workers: int, busy: int, trace: bool
) -> dict[str, Any]:
    """``busy`` counts the processes a run keeps busy, workers included."""
    cores = cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_affinity": cores,
        "python": platform.python_version(),
        "P": workers,
        "busy_processes": busy,
        "oversubscribed": busy > cores,
        "git_sha": git_sha(),
    }
