"""Tests of the desk benchmark's own arithmetic and output contract.

    python3 -m pytest deskbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# percentiles


def test_percentile_needs_ten_samples_beyond():
    assert spans.samples_beyond(100, 90) == 10
    assert spans.samples_beyond(99, 90) == 9
    assert spans.samples_beyond(20, 50) == 10
    values = [float(v) for v in range(1, 101)]
    assert spans.percentile(values, 90) == 90.0
    assert spans.percentile(values, 50) == 50.0
    with pytest.raises(ValueError):
        spans.percentile(values[:99], 90)
    with pytest.raises(ValueError):
        spans.percentile(values[:19], 50)
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert spans.percentile(values, 90) == 5.0
    assert spans.percentile(values, 50) == 3.0


# ---------------------------------------------------------------------------
# span arithmetic


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(1.0, 4.0), (3.0, 5.0), (7.0, 8.0)]) == 5.0
    assert spans.union_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,6]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [6.0, 2.0, 1.0, 1.0]
    # self times of a tree partition the root's duration
    assert sum(spans.self_times(starts, ends, parents)) == 10.0


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 4.0, 5.0], [-1, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == 6.0


def _tracer_with(rows):
    """A tracer holding the given (name, start, end, parent, items) spans."""
    tracer = spans.Tracer({})
    for i, (name, start, end, parent, items) in enumerate(rows):
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        if items is not None:
            tracer.items[i] = items
    return tracer


def test_steps_run_from_the_previous_step_end():
    import run

    tracer = _tracer_with([
        ("harness.train", 0.0, 10.0, -1, None),
        ("network.backward", 1.0, 2.0, 0, {"samples": 32}),
        ("network.adam_step", 2.0, 4.0, 0, None),
        ("network.backward", 5.0, 6.0, 0, {"samples": 16}),
        ("network.adam_step", 6.0, 8.0, 0, None),
        ("network.adam_step", 11.0, 12.0, -1, None),  # outside any train call
        ("harness.train", 20.0, 30.0, -1, None),
        ("network.backward", 22.0, 23.0, 6, {"samples": 8}),
        ("network.adam_step", 23.0, 24.0, 6, None),
    ])
    assert run.step_throughputs(tracer, [(0, 9)]) == [8.0, 4.0, 2.0]
    assert run.step_throughputs(tracer, [(6, 9)]) == [2.0]


def test_call_throughput_is_per_call():
    import run

    tracer = _tracer_with([
        ("datasets.load_dataset", 0.0, 2.0, -1, {"samples": 10}),
        ("harness.evaluate", 2.0, 3.0, -1, {"samples": 7}),
        ("datasets.load_dataset", 3.0, 8.0, -1, {"samples": 10}),
    ])
    assert run.call_throughputs(tracer, "datasets.load_dataset", [(0, 3)]) == [5.0, 2.0]
    assert run.call_throughputs(tracer, "datasets.load_dataset", [(1, 2)]) == []


def _fake_package(monkeypatch):
    """fake.low defines g; fake.high imports g by value and calls it from f."""
    pkg = types.ModuleType("fake")
    low = types.ModuleType("fake.low")
    high = types.ModuleType("fake.high")
    exec("def g(x):\n    return x + 1\n", low.__dict__)
    high.g = low.g
    exec("def f(x):\n    return g(x) * 2\n", high.__dict__)
    for mod in (pkg, low, high):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return low, high


def test_tracer_wraps_names_imported_by_value(monkeypatch):
    low, high = _fake_package(monkeypatch)
    g, f = low.g, high.f
    tracer = spans.Tracer({"low.g": g, "high.f": f}, package="fake")
    with tracer.active():
        assert high.f(1) == 4
        assert low.g(1) == 2
    assert high.g is g and low.g is g and high.f is f  # restored
    assert tracer.names == ["high.f", "low.g", "low.g"]
    assert tracer.parents == [-1, 0, -1]
    assert all(e >= s for _, s, e, _ in tracer.spans())
    assert spans.busy_time(tracer, ["low.g"]) <= sum(
        e - s for n, s, e, _ in tracer.spans() if n == "low.g"
    ) + 1e-12


def test_tracer_records_span_when_call_raises(monkeypatch):
    low, _ = _fake_package(monkeypatch)
    tracer = spans.Tracer({"low.g": low.g}, package="fake")
    with tracer.active(), pytest.raises(TypeError):
        low.g(None)
    assert tracer.names == ["low.g"] and tracer.ends[0] >= tracer.starts[0]


# ---------------------------------------------------------------------------
# smoke runs of every workload


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "deskbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace and workload == "desk_quick":
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        assert metrics["harness.legs"] == 14
        assert metrics["harness.distinct_legs"] == 13


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "deskbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "train_grandtest", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
