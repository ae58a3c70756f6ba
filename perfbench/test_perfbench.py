"""The benchmark's own checks, mostly at the reduced ("small") input size.

    python -m pytest -q perfbench

* every workload is exact: two passes with one seed give identical event
  counts and modelled results, and the reference kernel path
  (``REPRO_SIM_SLOWPATH=1``) gives the same modelled results;
* every metric is the one ``BENCHMARK.json`` names, with its unit, on
  every workload, and the checks pass; the command prints its result as
  the last line;
* without the simulator's source next to it the command fails without
  printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import onepass  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)
SEED = 3


def _modelled(name: str):
    make_inputs, run_pass = workloads.WORKLOADS[name]
    log = run_pass(make_inputs(SEED, "small"))
    assert log.failed == 0 and not log.errors, log.errors
    return log.modelled()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_events_and_modelled_results(name, monkeypatch):
    first = _modelled(name)
    assert first["events"] > 0 and first["op_us"]
    assert _modelled(name) == first

    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    slow = _modelled(name)
    # the reference kernel may process a different number of events (no
    # hop coalescing); what it models must not move
    first.pop("events")
    slow.pop("events")
    assert slow == first


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_metrics_match_benchmark_json(name):
    """The metric builders, fed small passes, give exactly the names and
    units BENCHMARK.json lists; no end-to-end metric reads 0; tracing
    does not move what is modelled."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = onepass.measure(name, SEED, "small", traced=False)
    traced = onepass.measure(name, SEED, "small", traced=True)
    for record in (untraced, traced):
        assert record["failed"] == 0 and not record["errors"], record["errors"]
    assert traced["modelled"] == untraced["modelled"]

    end_to_end = run.end_to_end_metrics([untraced])
    assert run.END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(end_to_end) == set(run.END_TO_END)
    assert all(v > 0 for v in end_to_end.values()), end_to_end
    per_layer = run.per_layer_metrics([untraced], traced)
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(per_layer) == set(run.PER_LAYER)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_last(trace):
    out = _run(ROOT, "--workload", "roce_incast", "--seed", str(SEED),
               "--seconds", "0", "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    assert "provenance" in lines[0] and "detail" in lines[1]
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "paper_p2p", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
