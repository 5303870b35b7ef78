"""Smoke tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

Each workload runs briefly on tiny inputs (``--smoke``), traced and
untraced; the result line must name every metric ``BENCHMARK.json``
declares for that mode, with its unit, and nothing else.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_names_and_units() -> None:
    sys.path.insert(0, str(HERE))
    import benchlib

    assert set(WORKLOADS) == {"search-cores", "sim-sweep", "serve-repeat"}
    for section in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in SPEC[section]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(name) for name in names), names
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in benchlib.E2E.items()
    }
    assert {m["name"]: m["better"] for m in SPEC["end_to_end"]} == {
        name: better for name, (_, better) in benchlib.E2E.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == benchlib.LAYER
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


def test_rescale_to_reference_speed() -> None:
    sys.path.insert(0, str(HERE))
    import benchlib

    speed = benchlib.HostSpeed()
    # A machine running at half the reference speed.
    speed.samples = [2 * benchlib.REFERENCE_S] * 3
    raw = {"setup_s": 1.0, "searches_per_s": 10.0, "goodput_rps": 60.0, "sim_speedup": 3.0}
    assert speed.rescale(raw, ("setup_s", "searches_per_s")) == pytest.approx(
        {"setup_s": 0.5, "searches_per_s": 20.0, "goodput_rps": 60.0, "sim_speedup": 3.0}
    )
    assert "sim_speedup" not in benchlib.CLOCKED and "latency_tail_s" in benchlib.CLOCKED
    speed.sample(2)
    assert len(speed.samples) == 5 and speed.samples[-1] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload: str, trace: int) -> None:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    assert context["workload"] == workload and context["seed"] == 3
    assert {"cpu_affinity", "python", "P", "busy_processes", "oversubscribed", "git_sha"} <= set(
        context
    )
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("sim-sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
