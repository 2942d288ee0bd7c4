import csv
import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpcc import (
    ExperimentConfig,
    ExperimentError,
    Instance,
    Solution,
    generate_instance,
    make_disk,
    preset,
    run_experiment,
    utilization_variance,
    validate_instance,
)
from mpcc.experiments import MAX_DISKS, MAX_TRIALS, config_violations, run_sweep


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
            selected[a] = make_disk(inst, a, max(tds))
    total = sum(d.power for d in selected.values())
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
    assert not config_violations(small_cfg())


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
