import csv
import importlib
import itertools
import json
import math
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mpcc.cli
import mpcc.experiments
from mpcc import (
    ExperimentConfig,
    ExperimentError,
    Instance,
    Solution,
    disk_geometry,
    generate_instance,
    preset,
    run_experiment,
    utilization_variance,
    validate_instance,
)
from mpcc.experiments import (
    MAX_DISKS,
    MAX_TRIALS,
    ExperimentReport,
    TrialRow,
    config_violations,
    run_sweep,
    solve_timed,
    write_results_csv,
)
from oracles import generate_instance_reference, write_results_csv_reference


def small_cfg(**overrides):
    base = dict(n=12, m=3, k=5, side=40.0, trials=3, seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_generated_instances_validate():
    cfg = ExperimentConfig(n=100, m=4, k=40, side=40.0, trials=1, seed=1)
    inst = generate_instance(cfg, 0)
    assert validate_instance(inst) == []
    assert inst.m == 4 and inst.n == 100


def test_generation_is_deterministic_per_trial():
    cfg = small_cfg()
    assert generate_instance(cfg, 0) == generate_instance(cfg, 0)
    assert generate_instance(cfg, 0) != generate_instance(cfg, 1)
    assert generate_instance(cfg, 0) != generate_instance(small_cfg(seed=100), 0)


def test_generated_coordinates_stay_in_the_square():
    cfg = small_cfg(side=15.0)
    for trial in range(5):
        inst = generate_instance(cfg, trial)
        for xy in (inst.ap_xy, inst.td_xy):
            assert ((0 <= xy) & (xy <= 15)).all()


def test_generation_draws_the_two_draw_stream():
    # One draw of m + n rows, APs first, gives the bytes of the APs' draw
    # followed by the TDs'.
    grid = itertools.product((1, 2, 5, 100), (1, 2, 5, 100), (0, 1729), (0, 7), (0.3, 40.0))
    for n, m, seed, trial, side in grid:
        cfg = ExperimentConfig(n=n, m=m, k=n, side=side, power_alpha=2.5, seed=seed)
        got, want = generate_instance(cfg, trial), generate_instance_reference(cfg, trial)
        for xy, ref, rows in ((got.ap_xy, want.ap_xy, m), (got.td_xy, want.td_xy, n)):
            assert xy.dtype == np.float64 and xy.shape == (rows, 2)
            assert not xy.flags.writeable
            assert xy.tobytes() == ref.tobytes()
        assert (got.k, got.power_c, got.power_alpha) == (want.k, want.power_c, want.power_alpha)
        assert list(map(type, (got.k, got.power_c, got.power_alpha))) == [int, float, float]


def test_generated_instance_memory_is_two_coordinate_arrays():
    # 200 000 TDs take 3.2 MB as a float64 array; per-point objects took
    # about 49 MB here.  The bound leaves room for the draw's temporaries.
    cfg = ExperimentConfig(n=200_000, m=1, k=200_000, side=40.0, trials=1)
    tracemalloc.start()
    try:
        generate_instance(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _solution_with_sizes(inst, sizes):
    selected = {}
    coverage = {}
    next_td = 1
    for a, size in enumerate(sizes, start=1):
        if size:
            tds = list(range(next_td, next_td + size))
            next_td += size
            coverage[a] = frozenset(tds)
            selected[a] = max(tds)
    total = sum(disk_geometry(inst, a, u)[1] for a, u in selected.items())
    return Solution(selected=selected, coverage=coverage, total_power=total)


def test_variance_examples():
    inst = Instance.from_coords(
        aps=[(i, 0) for i in range(4)], tds=[(0, 0)] * 100, k=100
    )
    balanced = _solution_with_sizes(inst, [25, 25, 25, 25])
    assert utilization_variance(balanced, inst) == 0.0
    skewed = _solution_with_sizes(inst, [50, 50, 0, 0])
    assert utilization_variance(skewed, inst) == 625.0

    inst5 = Instance.from_coords(
        aps=[(i, 0) for i in range(5)], tds=[(0, 0)] * 20, k=20
    )
    mixed = _solution_with_sizes(inst5, [4, 4, 5, 2, 5])
    assert abs(utilization_variance(mixed, inst5) - 1.2) <= 1e-12


@given(sizes=st.lists(st.integers(0, 9), min_size=2, max_size=6))
def test_variance_zero_iff_balanced(sizes):
    m = len(sizes)
    n = sum(sizes)
    if n == 0:
        return
    inst = Instance.from_coords(aps=[(i, 0) for i in range(m)],
                                tds=[(0, 0)] * n, k=max(sizes) or 1)
    sol = _solution_with_sizes(inst, sizes)
    var = utilization_variance(sol, inst)
    if all(s * m == n for s in sizes):
        assert var == 0.0
    else:
        assert var > 0.0


def test_single_trial_single_algorithm_report():
    cfg = small_cfg(trials=1, algorithms=("mlr",))
    report = run_experiment(cfg)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.algorithm == "mlr" and row.status == "ok"
    s = report.summary["mlr"]
    assert s.mean_total_power == row.total_power
    assert s.completion_rate == 1.0


def test_report_means_match_raw_rows():
    report = run_experiment(small_cfg())
    for algorithm, s in report.summary.items():
        done = [r for r in report.rows if r.algorithm == algorithm and r.status == "ok"]
        assert s.completed == len(done)
        assert s.mean_total_power == pytest.approx(
            sum(r.total_power for r in done) / len(done)
        )
        assert s.mean_variance == pytest.approx(
            sum(r.variance for r in done) / len(done)
        )


def test_reports_are_deterministic_outside_timing():
    cfg = small_cfg()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    strip = lambda rows: [
        (r.trial, r.algorithm, r.total_power, r.variance, r.status) for r in rows
    ]
    assert strip(a.rows) == strip(b.rows)
    for algorithm in cfg.algorithms:
        assert a.summary[algorithm].mean_total_power == b.summary[algorithm].mean_total_power
        assert a.summary[algorithm].mean_variance == b.summary[algorithm].mean_variance


def test_exact_budget_misses_tracked_in_completion_rate():
    from mpcc import ExactBudget

    cfg = small_cfg(
        n=10, m=3, k=4, trials=2,
        algorithms=("mlr", "exact"),
        exact_budget=ExactBudget(max_nodes=3, max_seconds=600),
    )
    report = run_experiment(cfg)
    s = report.summary["exact"]
    assert s.completed == 0
    assert s.completion_rate == 0.0
    assert s.mean_total_power is None
    assert all(r.status == "budget_exceeded"
               for r in report.rows if r.algorithm == "exact")


def test_budget_missed_exact_rows_have_empty_power_and_variance(tmp_path):
    from mpcc import ExactBudget

    cfg = small_cfg(n=10, m=3, k=4, trials=2, algorithms=("exact", "nca"),
                    exact_budget=ExactBudget(max_nodes=3, max_seconds=600))
    run_sweep([cfg], "custom", tmp_path)
    with open(tmp_path / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    missed = [r for r in rows if r["algorithm"] == "exact"]
    assert len(missed) == 2
    for r in missed:
        assert r["status"] == "budget_exceeded"
        assert r["total_power"] == r["variance"] == ""
        assert float(r["wall_ms"]) >= 0
    assert all(r["total_power"] and r["variance"] for r in rows if r["algorithm"] == "nca")


def test_invalid_config_rejected():
    with pytest.raises(ExperimentError):
        run_experiment(small_cfg(n=50, m=2, k=2))
    assert config_violations(small_cfg(n=50, m=2, k=2))
    assert config_violations(small_cfg(side=0.0))
    # the instance validator's power-law limits, on the square's diagonal
    assert config_violations(small_cfg(side=math.inf))
    assert config_violations(small_cfg(power_c=0.0))
    assert config_violations(small_cfg(power_alpha=-2.0))
    assert config_violations(small_cfg(power_alpha=6.0))
    assert config_violations(small_cfg(side=1e160))
    assert config_violations(small_cfg(algorithms=()))
    assert config_violations(small_cfg(algorithms=("mlr", "nca", "mlr")))
    assert not config_violations(small_cfg())
    with pytest.raises(ValueError, match="unknown algorithm 'greedy'"):
        solve_timed("greedy", generate_instance(small_cfg(), 0), small_cfg().exact_budget)
    with pytest.raises(ValueError, match="unknown preset series 5"):
        preset(5)


def test_power_law_faults_are_reported_whatever_else_is_wrong():
    law = ["power constant c=-1.0 must be positive and finite",
           "attenuation factor alpha=9.0 outside [1, 5]"]
    bad_law = {"power_c": -1.0, "power_alpha": 9.0}
    assert config_violations(small_cfg(n=5, m=4, k=4, side=0.0, **bad_law)) == [
        "side length 0.0 must be positive and finite", *law]
    assert config_violations(small_cfg(n=5000, m=201, k=40, **bad_law)) == [
        "m*n = 1005000 candidate disks must be at most 1000000", *law]
    assert config_violations(small_cfg(n=0, m=4, k=4, side=math.nan, **bad_law)) == [
        "n, m, and k must all be at least 1", "side length nan must be positive and finite", *law]
    assert config_violations(small_cfg(n=5, m=4, k=4, **bad_law)) == law


def test_config_whose_ap_powers_sum_past_the_float_range_is_rejected():
    # each corner disk fits the float range; twenty of them sum past it
    cfg = small_cfg(n=20, m=20, k=1, side=0.7, power_c=1.7e308, trials=1)
    assert config_violations(cfg) == [
        "the largest disks of the 20 APs have a total power beyond the float range"
    ]
    assert config_violations(small_cfg(n=1, m=1, k=1, side=0.7, power_c=1.7e308)) == []


def _drop_one_td(solve):
    """``solve`` with the last TD of its first coverage entry dropped."""
    def broken(inst):
        sol = solve(inst)
        a = min(sol.coverage)
        cov = {**sol.coverage, a: frozenset(sorted(sol.coverage[a])[:-1])}
        return Solution(sol.selected, cov, sol.total_power)
    return broken


def test_infeasible_solver_output_aborts_the_experiment(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mpcc.experiments, "solve_nca",
                        _drop_one_td(mpcc.experiments.solve_nca))
    cfg = small_cfg()
    with pytest.raises(ExperimentError) as info:
        run_experiment(cfg)
    msg = str(info.value)
    assert msg.startswith("infeasible nca output")
    assert "trial=0" in msg and f"seed={cfg.seed}" in msg and "is not covered" in msg
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([{f: getattr(cfg, f)
                                     for f in ("n", "m", "k", "side", "trials", "seed")}]))
    capsys.readouterr()
    code = mpcc.cli.run(["bench", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "out")])
    assert code == mpcc.cli.EXIT_FAILURE
    assert capsys.readouterr().err.startswith("error: infeasible nca output")


def test_config_size_bounds():
    assert config_violations(small_cfg(n=10**30, m=10**30, k=1))
    assert config_violations(small_cfg(n=MAX_DISKS + 1, m=1, k=MAX_DISKS + 1))
    assert config_violations(small_cfg(n=1, m=MAX_DISKS + 1))
    assert config_violations(small_cfg(n=5001, m=200, k=40))
    assert config_violations(small_cfg(trials=MAX_TRIALS + 1))
    for n, m in ((5000, 200), (MAX_DISKS, 1), (1, MAX_DISKS)):
        assert not config_violations(small_cfg(n=n, m=m, k=-(-n // m), trials=MAX_TRIALS))


def test_config_at_the_disk_bound_runs():
    # one of the largest accepted tables; mlr and nca take a few seconds
    cfg = small_cfg(n=5000, m=200, k=40, trials=1)
    assert cfg.n * cfg.m == MAX_DISKS and not config_violations(cfg)
    report = run_experiment(cfg)
    assert [s.completion_rate for s in report.summary.values()] == [1.0, 1.0]


def test_preset_one_ties_ap_count_to_td_count():
    configs = preset(1)
    assert [c.n for c in configs] == [20, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500]
    for c in configs:
        assert c.m == max(1, math.ceil(c.n / 25))
        assert c.k == 40 and c.side == 40.0
        assert c.m * c.k >= c.n
    assert configs[0].m == 1  # the smallest point has a single AP


def test_preset_two_sweeps_capacity():
    configs = preset(2)
    assert [c.k for c in configs] == [25, 50, 75, 100]
    assert all(c.n == 100 and c.m == 4 for c in configs)


def test_preset_three_sweeps_ap_count():
    configs = preset(3)
    assert [c.m for c in configs] == [4, 8, 12, 16, 20]
    assert all(c.n == 100 and c.k == 25 for c in configs)


def test_preset_four_keeps_total_capacity_integral():
    configs = preset(4)
    assert [(c.m, c.k) for c in configs] == [
        (4, 40), (8, 20), (10, 16), (16, 10), (20, 8)
    ]
    assert all(c.m * c.k == 160 for c in configs)
    assert all(c.m * c.k >= c.n for c in configs)


def test_presets_never_enable_the_exact_solver():
    for series in (1, 2, 3, 4):
        for cfg in preset(series):
            assert "exact" not in cfg.algorithms


def test_run_sweep_writes_csvs(tmp_path):
    configs = [small_cfg(trials=2), small_cfg(trials=2, n=16, m=4, k=5)]
    run_sweep(configs, "custom", tmp_path)
    with open(tmp_path / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # configs x trials x algorithms
    assert rows[0]["status"] == "ok"
    assert {r["algorithm"] for r in rows} == {"mlr", "nca"}
    for name in ("mean_total_power.csv", "mean_wall_ms.csv", "mean_variance.csv"):
        with open(tmp_path / name) as fh:
            plot_rows = list(csv.reader(fh))
        assert plot_rows[0] == ["config_id", "mlr", "nca"]
        assert len(plot_rows) == 3


def test_results_csv_bytes_equal_the_row_by_row_writer(tmp_path):
    # wall_ms included, which the golden digests leave out.  One budget
    # miss with its empty cells, a non-integer side and alpha, an integer
    # and a "custom" series.
    configs = [
        small_cfg(n=5, m=2, k=3, side=12.5, power_alpha=2.5, algorithms=("exact", "mlr")),
        small_cfg(n=7, m=3, k=3, side=40.0),
    ]
    rows = [
        [TrialRow(0, "exact", None, 0.1 + 0.2, None, "budget_exceeded"),
         TrialRow(0, "mlr", 208.37500000000003, 1e-05, 0.25, "ok"),
         TrialRow(1, "exact", 97.5, 123456.789, 1 / 3, "ok"),
         TrialRow(1, "mlr", 97.5, 2.0, 1 / 3, "ok")],
        [TrialRow(0, "mlr", 1e300, 0.5, 0.0, "ok"),
         TrialRow(0, "nca", 5e-324, 7.25, 2 / 3, "ok")],
    ]
    reports = [ExperimentReport(cfg, r, {}) for cfg, r in zip(configs, rows)]
    for series in (3, "custom"):
        write_results_csv(tmp_path / "got.csv", series, configs, reports)
        write_results_csv_reference(tmp_path / "want.csv", series, configs, reports)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        lines = got.decode().split("\r\n")
        assert lines[1] == f"{series},0,0,exact,5,2,3,12.5,2.5,,0.30000000000000004,,budget_exceeded"
        assert lines[5] == f"{series},1,0,mlr,7,3,3,40,2,1.0000000000000001e+300,0.5,0,ok"
        assert len(lines) == 8 and lines[-1] == ""


# ---------------------------------------------------------------------------
# the benchmark's bindings
#
# ``perfbench/tracing.py`` binds mpcc functions by name and reports a
# binding it cannot resolve as an absent metric rather than an error, so a
# renamed function would otherwise only show up as a missing per-layer
# figure.  The tracer is run from its source and never modified.

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Bindings to functions that no longer exist under these names; the
# tracer reports their spans as absent.
DEAD_BINDINGS = {
    ("mpcc.cli", "solve_mlr"),
    ("mpcc.cli", "solve_nca"),
    ("mpcc.cli", "solve_exact"),
    ("mpcc.mlr", "build_disk_family"),
    ("mpcc.baselines", "build_disk_family"),
    ("mpcc.mlr", "disk_order_tables"),
}


def test_every_live_benchmark_binding_resolves():
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    bindings = [(mod, attr) for mod, attr, _ in tracing.BINDINGS
                if mod.split(".")[0] == "mpcc"]
    assert len(bindings) > len(DEAD_BINDINGS)
    missing = [b for b in bindings
               if b not in DEAD_BINDINGS and tracing._resolve(*b) is None]
    assert missing == []
    # The exceptions stay exact: each is still bound, and still dead.
    assert DEAD_BINDINGS <= set(bindings)
    assert [b for b in DEAD_BINDINGS if tracing._resolve(*b) is not None] == []


# What `import mpcc` gives: the three solvers, the model, the file formats
# and the experiment sweeps.  MLR's step functions and the NCA pair scan
# are module attributes only, for tests and step-through use.
USER_API = {
    "AlgorithmSummary", "DEFAULT_SEED", "DiskOrder", "ExactBudget", "ExactResult",
    "ExperimentConfig", "ExperimentError", "ExperimentReport", "FormatError",
    "InfeasibleInstanceError", "Instance", "MlrInvariantError", "STATUS_BUDGET_EXCEEDED",
    "STATUS_OPTIMAL", "Solution", "TrialRow", "check_feasible", "disk_geometry",
    "disk_order", "generate_instance", "instance_from_json", "instance_to_json", "preset",
    "run_experiment", "run_sweep", "solution_from_json", "solution_to_json",
    "solution_violations", "solve_exact", "solve_mlr", "solve_nca", "trace_line",
    "utilization_variance", "validate_instance",
}
# Names the package root does not give, each still its module's attribute.
MODULE_ONLY = {
    "mlr": {"SolverState", "init_state", "local_ratio", "select_min_ratio",
            "apply_selection", "assemble_solution"},
    "model": {"power_of"},
    "baselines": {"pair_runs", "_FIRST_RUN", "_MIN_BLOCK"},
}


def test_package_root_exports_only_the_user_api():
    public = {name for name, value in vars(mpcc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == USER_API
    assert mpcc.mlr.__all__ == ["MlrInvariantError", "solve_mlr"]
    assert "pair_runs" not in mpcc.model.__all__ + mpcc.baselines.__all__
    assert not hasattr(mpcc.model, "pair_runs")
    assert {"truncate_sweep", "sweep_parameter"}.isdisjoint(mpcc.experiments.__all__)
    assert not hasattr(mpcc.experiments, "truncate_sweep")
    assert not hasattr(mpcc.experiments, "sweep_parameter")
    for module, names in MODULE_ONLY.items():
        assert [n for n in names if not hasattr(getattr(mpcc, module), n)] == []


@pytest.mark.parametrize("name", ["exact-small", "sweep-small"])
def test_bench_workload_outputs_match_the_benchmark_reference(name, tmp_path, monkeypatch):
    # One pass of the benchmark's own workload through `mpcc bench`, gated
    # on the outputs it records for seed 1729 (solve-large is pinned by the
    # NCA and MLR digest tests).
    monkeypatch.syspath_prepend(str(TRACING.parent))
    workloads = importlib.import_module("workloads")
    wl = workloads.make(name)
    wl.write_inputs(mpcc.cli, tmp_path, 1729)
    result = wl.run_pass(mpcc.cli, tmp_path, 1729)
    assert result.failed == {}, result.messages
    assert result.outputs == workloads.load_reference(name, 1729)
