"""Smoke test of the benchmark harness itself, on shrunk sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import mpcc.baselines  # noqa: E402
import mpcc.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    proc = _bench("--workload", workload, "--seconds", "1", "--trace", str(trace), "--shrink")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {d["name"] for d in declared}
    for d in declared:
        metric = result["metrics"][d["name"]]
        assert metric["unit"] == d["unit"]
        assert isinstance(metric["value"], (int, float)) and metric["value"] != run.ABSENT
        if not trace:
            assert metric["value"] != 0
        assert d["name"] in proc.stderr  # the report prints every metric by name


def _corrupt_coverage(text: str) -> str:
    doc = json.loads(text)
    doc["assignments"][0]["covered"].pop()
    return json.dumps(doc)


def test_solution_failing_check_trips_the_gate(tmp_path, monkeypatch):
    wl = workloads.SolveLarge(shrink=True)
    wl.write_inputs(mpcc.cli, tmp_path, 7)
    assert wl.run_pass(mpcc.cli, tmp_path, 7).failed == {}
    real = mpcc.cli.solution_to_json
    monkeypatch.setattr(mpcc.cli, "solution_to_json",
                        lambda sol, inst: _corrupt_coverage(real(sol, inst)))
    res = wl.run_pass(mpcc.cli, tmp_path, 7)
    assert res.failed == {"mlr": 1, "nca": 1}
    assert res.passed == 0


def test_output_differing_from_reference_trips_the_gate(tmp_path, monkeypatch):
    wl = workloads.SolveLarge(shrink=True)
    wl.write_inputs(mpcc.cli, tmp_path, 7)
    reference = wl.run_pass(mpcc.cli, tmp_path, 7).outputs
    # An informational field changes: `mpcc check` still passes, the bytes do not.
    real = mpcc.cli.solution_to_json
    monkeypatch.setattr(mpcc.cli, "solution_to_json",
                        lambda sol, inst: real(sol, inst).replace('"radius": ', '"radius": 1'))
    res = wl.run_pass(mpcc.cli, tmp_path, 7)
    assert res.failed == {}
    workloads.gate(res, reference)
    assert res.failed == {"mlr": 1, "nca": 1}


def test_direct_solve_differing_from_pass_trips_the_gate(tmp_path):
    wl = workloads.ExactSmall(shrink=True)
    wl.write_inputs(mpcc.cli, tmp_path, 7)
    powers = wl.run_pass(mpcc.cli, tmp_path, 7).powers
    instances = wl.instances(mpcc, tmp_path, 7)
    timed = workloads.time_solves(mpcc, wl, instances, powers)
    assert timed.failed == {}
    assert all(len(timed.kernel_s[a]) == len(instances) for a in wl.algorithms)
    wrong = {**powers, "nca": [p + 1.0 for p in powers["nca"]]}
    assert workloads.time_solves(mpcc, wl, instances, wrong).failed == {"nca": len(instances)}


def test_removed_function_reads_as_absent(monkeypatch):
    monkeypatch.delattr(mpcc.baselines.FlowNetwork, "max_flow")
    layers = run._layers_of_pass(Tracer())
    assert layers["baselines.flow_s"] == run.ABSENT
    assert layers["baselines.flow_calls"] == run.ABSENT
    assert layers["mlr.apply_s"] == 0.0  # present, just not called


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "exact-small", "--seconds", "1", "--shrink", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
