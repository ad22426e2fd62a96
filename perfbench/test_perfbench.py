"""Self-tests of the benchmark harness, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: the gated workloads plus live-open, which runs but is not gated
NAMES = sorted(workloads.WORKLOADS)


def test_benchmark_names_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)


@pytest.fixture
def tiny(monkeypatch):
    """Every workload shrunk to a fraction of a second."""
    for name, value in {
        "KERNEL_NODES": 4096, "KERNEL_SETUPS": 1, "ORACLE_SAMPLE": 16,
        "PAPER_DIMENSION": 4, "PAPER_LOOKUPS": 1000,
        "LIVE_DIMENSION": 4, "LIVE_SETUPS": 1,
        "ROUND_LOOKUPS": 20, "ROUND_PUTS": 10, "OPEN_RATE": 100.0,
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "CALIBRATION_LOOPS", 1000)
    monkeypatch.setattr(workloads, "REF_LOOPS", 1000)


def _run(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.4", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_printed_with_unit(tiny, capsys, workload):
    code, lines, result = _run(capsys, workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(line.startswith("error_rate ") for line in lines)
    machine = json.loads(next(l for l in lines if l.startswith("# machine"))[10:])
    assert set(machine) == {"cpus", "python", "numpy", "calibration_s",
                            "reference_s"}
    assert set(machine["calibration_s"]) == {"before", "after"}
    assert machine["reference_s"]["n"] >= 2


@pytest.mark.parametrize("window, scales", [
    (0.001, (0.025, 0.01)),     # each block: only its own two loops
    (10.0, (0.0175, 0.0175)),   # both blocks: the mean of all four
])
def test_host_clock_scales_by_nearby_reference_loops(monkeypatch, window,
                                                     scales):
    """A block timed while the host runs slow reads as it would on the
    nominal host: wall time x nominal / mean nearby reference loop."""
    refs = iter([0.02, 0.03, 0.01, 0.01])
    monkeypatch.setattr(workloads, "reference", lambda: next(refs))
    monkeypatch.setattr(workloads, "REF_WINDOW_S", window)
    clock = workloads.HostClock()
    timings = []
    for _ in range(2):
        with clock.timed() as timing:
            time.sleep(0.02)
        timings.append(timing)
    clock.settle()
    assert [took for _, took in clock.refs] == [0.02, 0.03, 0.01, 0.01]
    for timing, mean_ref in zip(timings, scales):
        assert timing.raw >= 0.02
        assert timing.scale == pytest.approx(workloads.REF_NOMINAL_S / mean_ref)
        assert timing.scaled == pytest.approx(timing.raw * timing.scale)


def test_traced_run_emits_every_per_layer_metric(tiny, capsys):
    """Each traced run prints every per-layer metric; each metric is
    measured (non-zero) by at least one workload."""
    measured = set()
    for workload in NAMES:
        code, _, result = _run(capsys, workload, 1)
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["per_layer"]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        measured |= {n for n, m in result["metrics"].items() if m["value"]}
        assert (HERE / "out" / f"trace-{workload}-3.jsonl").exists()
    unmeasured = {m["name"] for m in SPEC["per_layer"]} - measured
    # No read repairs or retries happen on a healthy cluster.
    assert unmeasured <= {"server.read_repairs", "client.retries",
                          "server.frames_per_op.fetch"}


def test_stalled_op_raises_latency_of_ops_behind_it():
    """An op that stalls the loop for 200 ms is charged to every op
    scheduled during the stall: latency runs from the due time."""
    ops = [{"index": i, "scheduled": 0.01 * i} for i in range(12)]

    async def drive(stall_at):
        async def send(op):
            if op["index"] == stall_at:
                time.sleep(0.2)  # blocks the loop like a stuck server would
            return {}
        return await workloads.drive_open(ops, send)

    calm, _ = asyncio.run(drive(None))
    stalled, late = asyncio.run(drive(2))
    calm_ms = {op["index"]: ms for op, _, ms, _ in calm}
    stalled_ms = {op["index"]: ms for op, _, ms, _ in stalled}
    assert max(calm_ms.values()) < 100
    for index in range(3, 12):  # due 30..110 ms, stall ends ~220 ms
        assert stalled_ms[index] >= 220 - 10 * index - 30
        assert stalled_ms[index] > calm_ms[index] + 80
    assert max(late) >= 100


def test_oracle_agrees_with_object_owner():
    from repro.dht.bulkbuild import build_columns
    from repro.dht.identifiers import CycloidId

    columns = build_columns("cycloid", 300, dimension=7, seed=5, sampler="fast")
    network = columns.to_network()
    by_linear = {node.id.linear: node for node in network.live_nodes()}
    keys = np.random.default_rng(0).integers(0, columns.space, size=40)
    owners = oracle.brute_force_owners(columns.lin, columns.dimension, keys)
    for key, owner in zip(keys.tolist(), owners.tolist()):
        expected = network.owner_of_id(CycloidId.from_linear(key, 7))
        assert by_linear[int(columns.lin[owner])] is expected


def test_wrong_final_fails_the_run(tiny, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "brute_force_owners",
                        lambda lin, d, keys: np.full(len(keys), -1))
    code, _, result = _run(capsys, "kernel-1m", 0)
    assert code == 1 and not result["correct"]
    assert result["failed"] == workloads.ORACLE_SAMPLE


def test_live_route_mismatch_fails_the_run(tiny, capsys, monkeypatch):
    real = workloads.expected_results

    def skewed(network, ops):
        results = real(network, ops)
        results[0]["hops"] += 1
        return results

    monkeypatch.setattr(workloads, "expected_results", skewed)
    code, _, result = _run(capsys, "live-closed", 0)
    assert code == 1 and result["failed"] >= 1


def test_tracer_restores_every_substitution():
    class Thing:
        def method(self):
            return 1

    thing = Thing()
    module_fn = workloads.drive_open
    class_fn = Thing.__dict__["method"]
    tracer = tracing.Tracer()
    tracer.patch(workloads, "drive_open", "a")
    tracer.patch(Thing, "method", "b")
    tracer.patch(thing, "method", "c")
    assert thing.method() == 1
    (b_id, b, _, _, b_parent, _), (c_id, c, _, _, c_parent, _) = tracer.spans
    assert (b, c, b_parent, c_parent) == ("b", "c", c_id, None)
    tracer.restore()
    assert workloads.drive_open is module_fn
    assert Thing.__dict__["method"] is class_fn
    assert "method" not in vars(thing)


def test_missing_program_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-d8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
