import hashlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mpcc import (
    ExactBudget,
    ExperimentConfig,
    InfeasibleInstanceError,
    Instance,
    Solution,
    STATUS_BUDGET_EXCEEDED,
    STATUS_OPTIMAL,
    assignment_feasible,
    check_feasible,
    disk_order,
    generate_instance,
    solve_exact,
    solve_mlr,
    solve_nca,
    solution_to_json,
)
from mpcc import model
from mpcc.baselines import _choice_list, _flow_assign

from oracles import (
    enumerate_optimal_total,
    exact_reference,
    feasible_small_config,
    key_fields,
    nca_reference,
    pair_order_reference,
    product_assignment_exists,
    random_instance,
)


def test_nca_forced_greedy_sequence():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (2, 0)], k=1)
    sol = solve_nca(inst)
    assert sol.total_power == 65
    assert sol.coverage == {1: frozenset({1}), 2: frozenset({2})}
    res = solve_exact(inst)
    assert res.solution.total_power == 65  # greedy happens to be optimal here


def test_nca_matches_mlr_on_single_ap():
    rng = np.random.default_rng(11)
    for _ in range(10):
        inst = random_instance(rng, m=1, n=6, k=8)
        assert solve_nca(inst) == solve_mlr(inst)


def test_nca_single_td_uses_nearest_ap():
    inst = Instance.from_coords(aps=[(0, 0), (3, 0)], tds=[(2, 0)], k=1)
    sol = solve_nca(inst)
    assert sol.coverage == {2: frozenset({1})}
    assert sol.total_power == 1


def test_nca_outputs_are_feasible():
    rng = np.random.default_rng(5)
    for _ in range(25):
        inst = random_instance(rng, m=4, n=16, k=4)
        assert check_feasible(solve_nca(inst), inst) == []


def test_nca_infeasible_without_validation():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (2, 0)], k=1)
    with pytest.raises(InfeasibleInstanceError):
        solve_nca(inst)


def test_nca_breaks_key_ties_by_td_then_ap():
    # TD 4 is nearest; the other pairs all tie on the disk key (coincident
    # APs, coincident TDs), so only the TD-then-AP order places them.
    inst = Instance.from_coords(aps=[(0, 0), (0, 0)],
                                tds=[(3, 4), (3, 4), (3, 4), (1, 0)], k=2)
    sol = solve_nca(inst)
    assert sol.coverage == {1: frozenset({1, 4}), 2: frozenset({2, 3})}
    assert sol.selected == {1: 1, 2: 3}
    assert sol.total_power == 50


def test_nca_does_not_build_the_disk_order(monkeypatch):
    def refuse(inst):
        raise AssertionError("solve_nca built the full disk order")

    monkeypatch.setattr("mpcc.baselines.disk_order", refuse)
    inst = random_instance(np.random.default_rng(8), m=5, n=60, k=12)
    assert check_feasible(solve_nca(inst), inst) == []


def _nca_differential_instances():
    rng = np.random.default_rng(6174)
    for i in range(480):
        m = int(rng.integers(1, 9))
        if i % 3 == 0:
            n = int(rng.integers(1, 41))
            k = int(rng.integers(n, 2 * n + 1))
        elif i % 3 == 1:
            k = int(rng.integers(1, 6))
            n = m * k
        else:
            n = int(rng.integers(1, 41))
            lo = -(-n // m)
            k = int(rng.integers(lo, lo + 4))
        params = dict(k=k, power_c=float(rng.choice([0.3, 1.0, 7.0])),
                      power_alpha=float(rng.choice([1.0, 2.0, 2.5, 3.7, 4.0])))
        if i % 2:
            # integer grids force coincident points and exact radius ties
            aps = rng.integers(0, 5, (m, 2)).tolist()
            tds = rng.integers(0, 5, (n, 2)).tolist()
        else:
            aps = (rng.random((m, 2)) * 40).tolist()
            tds = (rng.random((n, 2)) * 40).tolist()
        if i % 5 == 0:
            # coincident APs, coincident TDs and an AP on a TD, also in floats
            aps[-1] = aps[0]
            tds[-1] = tds[0]
            tds[n // 2] = aps[m // 2]
        yield Instance.from_coords(aps=aps, tds=tds, **params)
    for n, m, k in ((300, 12, 25), (300, 12, 40), (280, 4, 300), (310, 13, 24)):
        yield random_instance(rng, m=m, n=n, k=k)
        yield Instance.from_coords(aps=rng.integers(0, 12, (m, 2)).tolist(),
                                   tds=rng.integers(0, 12, (n, 2)).tolist(), k=k)
    for inst in _multi_run_instances().values():
        yield inst


def _multi_run_instances():
    """Instances whose pair order spans more than one run of ``pair_runs``."""
    rng = np.random.default_rng(2718)
    return {
        "random": random_instance(rng, m=40, n=1000, k=40),
        # 18 000 pairs over a few hundred integer radii
        "grid": Instance.from_coords(aps=rng.integers(0, 12, (30, 2)).tolist(),
                                     tds=rng.integers(0, 12, (600, 2)).tolist(), k=25),
        # every radius is 0, so all runs but the last are empty
        "coincident": Instance.from_coords(aps=[(3.5, -2.0)] * 20,
                                           tds=[(3.5, -2.0)] * 1000, k=50),
        "tight": random_instance(rng, m=40, n=1000, k=25),  # m*k = n
    }


def _run_bounds(size):
    """The pair ranks at which ``pair_runs`` ends its runs before the last."""
    bounds, s = [], model._FIRST_RUN
    while s < size:
        bounds.append(s)
        s *= 2
    return bounds


def _flat_pairs(inst):
    """``pair_runs`` as its runs of flat pair indices ``u0 * m + a0``."""
    return [np.array(u0, dtype=np.int64) * inst.m + np.array(a0, dtype=np.int64)
            for u0, a0 in model.pair_runs(inst)]


def _count_runs(monkeypatch):
    """The sizes of the runs ``solve_nca`` draws, recorded as it draws them."""
    drawn = []

    def counting(inst):
        for run in model.pair_runs(inst):
            drawn.append(len(run[0]))
            yield run

    monkeypatch.setattr("mpcc.baselines.pair_runs", counting)
    return drawn


def test_nca_matches_disk_order_reference_bytes():
    ties = []
    for inst in _nca_differential_instances():
        expected = solution_to_json(nca_reference(inst), inst)
        assert solution_to_json(solve_nca(inst), inst) == expected, inst
        rsq = key_fields(inst)[0]
        ties.append(np.unique(rsq).size < rsq.size)
    assert len(ties) >= 480
    # both branches of the pair sort: radii alone, and the tie fallback
    assert len(ties) - sum(ties) >= 50
    assert sum(ties) >= 50


def test_nca_matches_solve_large_reference_digests():
    # The benchmark's solve-large instances, built as `mpcc gen` builds them.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())["solve-large"]
    assert len(reference) == 51
    for seed, outputs in reference.items():
        cfg = ExperimentConfig(n=1000, m=40, k=40, side=40.0, trials=1, seed=int(seed))
        inst = generate_instance(cfg, 0)
        digest = hashlib.sha256(solution_to_json(solve_nca(inst), inst).encode()).hexdigest()
        assert digest == outputs["nca"]["sha256"], seed


def test_pair_runs_concatenate_to_the_one_shot_order():
    multi = 0
    for inst in _nca_differential_instances():
        runs = _flat_pairs(inst)
        assert np.array_equal(np.concatenate(runs), pair_order_reference(inst)), inst
        assert len(runs) == len(_run_bounds(inst.m * inst.n)) + 1
        multi += len(runs) > 1
    assert multi == len(_multi_run_instances())


def test_pair_run_bound_can_split_equal_radii():
    # A run ends before every pair of its bound's radius, so a bound that
    # falls inside a run of equal radii ends the run below its rank.
    inst = _multi_run_instances()["grid"]
    rsq = key_fields(inst)[0]
    ranked = np.sort(rsq, axis=None)
    bounds = _run_bounds(rsq.size)
    ends = np.cumsum([len(run) for run in _flat_pairs(inst)])[:-1]
    assert ends.tolist() == [np.count_nonzero(rsq < ranked[s]) for s in bounds]
    assert any(end < s for end, s in zip(ends, bounds))


def test_pair_runs_of_coincident_points_are_all_in_the_last_run():
    inst = _multi_run_instances()["coincident"]
    sizes = [len(run) for run in _flat_pairs(inst)]
    assert sizes == [0] * len(_run_bounds(inst.m * inst.n)) + [inst.m * inst.n]
    assert len(sizes) > 1


@pytest.mark.parametrize("nan_aps", [0, 20, 30])
def test_pair_runs_permute_all_pairs_with_nan_coordinates(nan_aps):
    # Validation skipped: NaN radii sort last, and a NaN bound ends the
    # bounded runs early (30 of 40 APs: the first bound; 20: the third).
    rng = np.random.default_rng(nan_aps)
    aps = rng.random((40, 2)) * 40
    tds = rng.random((300 if nan_aps == 30 else 1000, 2)) * 40
    aps[:nan_aps, 1] = np.nan
    tds[7, 0] = np.nan
    inst = Instance.from_coords(aps=aps, tds=tds, k=40)
    runs = _flat_pairs(inst)
    assert np.array_equal(np.sort(np.concatenate(runs)), np.arange(inst.m * inst.n))
    assert len(runs) == {0: 4, 20: 3, 30: 1}[nan_aps]


def test_nca_stops_drawing_runs_once_every_td_is_covered(monkeypatch):
    cfg = ExperimentConfig(n=1000, m=40, k=40, side=40.0, trials=1, seed=1729)
    inst = generate_instance(cfg, 0)
    drawn = _count_runs(monkeypatch)
    sol = solve_nca(inst)
    assert check_feasible(sol, inst) == []
    # The scan covers the last TD at pair 9 140 of 40 000, in the second
    # of four runs, and draws no run after it.
    assert drawn == [8192, 8192]
    assert len(_flat_pairs(inst)) == 4


def test_nca_tight_capacity_reaches_the_last_run(monkeypatch):
    inst = _multi_run_instances()["tight"]
    drawn = _count_runs(monkeypatch)
    expected = solution_to_json(nca_reference(inst), inst)
    assert solution_to_json(solve_nca(inst), inst) == expected
    assert len(drawn) == len(_run_bounds(inst.m * inst.n)) + 1


def test_nca_infeasible_after_every_run_without_validation(monkeypatch):
    inst = random_instance(np.random.default_rng(31), m=40, n=1000, k=20)  # m*k < n
    drawn = _count_runs(monkeypatch)
    with pytest.raises(InfeasibleInstanceError):
        solve_nca(inst)
    assert sum(drawn) == inst.m * inst.n
    assert len(drawn) == len(_run_bounds(inst.m * inst.n)) + 1


def test_nca_without_aps_or_tds():
    with pytest.raises(InfeasibleInstanceError):
        solve_nca(Instance.from_coords(aps=[], tds=[(1, 0)], k=1))
    for aps in ([(0, 0)], []):
        inst = Instance.from_coords(aps=aps, tds=[], k=1)
        assert solve_nca(inst) == Solution({}, {}, 0.0)
        assert list(model.pair_runs(inst)) == [([], [])]


# ---------------------------------------------------------------------------
# flow feasibility


def test_shared_pair_splits_one_each():
    inst = Instance.from_coords(aps=[(0, 0), (2, 0)], tds=[(1, 0), (1, 1)], k=1)
    chosen = {1: 2, 2: 2}
    assignment = assignment_feasible(chosen, inst)
    assert assignment is not None
    sizes = sorted(len(s) for s in assignment.values())
    assert sizes == [1, 1]


def test_capacity_bound_blocks_assignment():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (0, 1), (-1, 0)], k=2)
    chosen = {1: 1}  # contains all three TDs
    assert assignment_feasible(chosen, inst) is None


def test_uncovered_td_blocks_assignment():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0)], k=2)
    chosen = {1: 1, 2: None}
    assert assignment_feasible(chosen, inst) is None


def _random_chosen(rng, inst):
    chosen = {}
    for a in range(1, inst.m + 1):
        pick = int(rng.integers(0, inst.n + 1))
        chosen[a] = None if pick == 0 else pick
    return chosen


def test_flow_agrees_with_product_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        inst = random_instance(rng, m=m, n=n, k=k)
        chosen = _random_chosen(rng, inst)
        assignment = assignment_feasible(chosen, inst)
        assert (assignment is not None) == product_assignment_exists(chosen, inst)
        if assignment is not None:
            seen = [u for tds in assignment.values() for u in tds]
            assert sorted(seen) == list(range(1, n + 1))
            for a, tds in assignment.items():
                assert len(tds) <= k
                for u in tds:
                    assert chosen[a] is not None
                    assert u in range(1, n + 1)


# ---------------------------------------------------------------------------
# exact oracle


def test_exact_single_ap_pays_for_farthest():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 1), (3, 0), (0, 2)], k=5)
    res = solve_exact(inst)
    assert res.status == STATUS_OPTIMAL
    assert res.solution.total_power == 9


def test_exact_two_ap_example():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0)], k=1)
    res = solve_exact(inst)
    assert res.status == STATUS_OPTIMAL
    assert res.solution.total_power == 2
    assert check_feasible(res.solution, inst) == []


def test_exact_matches_independent_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(30):
        m, n, k = feasible_small_config(rng, max_m=3, max_n=6)
        inst = random_instance(rng, m=m, n=n, k=k)
        res = solve_exact(inst)
        assert res.status == STATUS_OPTIMAL
        expected = enumerate_optimal_total(inst)
        assert math.isclose(res.solution.total_power, expected, rel_tol=1e-12)
        assert check_feasible(res.solution, inst) == []


def test_exact_dominates_heuristics():
    rng = np.random.default_rng(37)
    for _ in range(20):
        m, n, k = feasible_small_config(rng)
        inst = random_instance(rng, m=m, n=n, k=k)
        opt = solve_exact(inst).solution.total_power
        tol = 1e-9 * max(1.0, opt)
        assert opt <= solve_mlr(inst).total_power + tol
        assert opt <= solve_nca(inst).total_power + tol


def test_exact_is_label_invariant():
    rng = np.random.default_rng(41)
    inst = random_instance(rng, m=3, n=6, k=2)
    base = solve_exact(inst).solution.total_power
    for perm in itertools.islice(itertools.permutations(range(inst.n)), 5):
        shuffled = Instance.from_coords(
            aps=inst.ap_xy,
            tds=inst.td_xy[list(perm)],
            k=inst.k,
        )
        assert math.isclose(solve_exact(shuffled).solution.total_power, base,
                            rel_tol=1e-12)
    ap_flip = Instance.from_coords(
        aps=inst.ap_xy[::-1],
        tds=inst.td_xy,
        k=inst.k,
    )
    assert math.isclose(solve_exact(ap_flip).solution.total_power, base, rel_tol=1e-12)


def _exact_differential_instances():
    rng = np.random.default_rng(1597)
    for i in range(330):
        m = int(rng.integers(1, 5))
        if i % 3 == 0:
            n = int(rng.integers(1, 7))
            k = int(rng.integers(n, n + 3))
        elif i % 3 == 1:
            k = int(rng.integers(1, 6 // m + 1))
            n = m * k
        else:
            n = int(rng.integers(1, 7))
            lo = -(-n // m)
            k = int(rng.integers(lo, lo + 2))
        params = dict(k=k, power_c=float(rng.choice([0.3, 1.0, 7.0])),
                      power_alpha=float(rng.choice([1.0, 2.0, 2.5, 4.0])))
        if i % 2:
            # integer grids force coincident points and exact radius ties
            aps = rng.integers(0, 4, (m, 2)).tolist()
            tds = rng.integers(0, 4, (n, 2)).tolist()
        else:
            aps = (rng.random((m, 2)) * 40).tolist()
            tds = (rng.random((n, 2)) * 40).tolist()
        if i % 5 == 0:
            tds[-1] = tds[0]
            tds[n // 2] = aps[m // 2]
        yield Instance.from_coords(aps=aps, tds=tds, **params)


def _exact_outcome(res, inst):
    sol = None if res.solution is None else solution_to_json(res.solution, inst)
    return res.status, res.nodes_explored, sol


def test_exact_matches_rerun_reference_bytes():
    shapes = set()
    incumbents = 0
    for i, inst in enumerate(_exact_differential_instances()):
        expected = _exact_outcome(exact_reference(inst), inst)
        assert _exact_outcome(solve_exact(inst), inst) == expected, inst
        assert expected[0] == STATUS_OPTIMAL
        shapes.add((inst.k >= inst.n, inst.m * inst.k == inst.n))
        if i % 3:
            continue
        # Budget hits midway and one node short of the end keep whatever
        # incumbent the search had reached.
        for max_nodes in (expected[1] // 2, expected[1] - 1):
            budget = ExactBudget(max_nodes=max_nodes, max_seconds=600)
            hit = _exact_outcome(exact_reference(inst, budget), inst)
            assert _exact_outcome(solve_exact(inst, budget), inst) == hit, inst
            assert hit[0] == STATUS_BUDGET_EXCEEDED
            incumbents += hit[2] is not None
    assert i + 1 >= 300
    assert {(True, False), (False, True), (False, False)} <= shapes
    assert incumbents >= 50


EXACT_BYTES_SHA256 = {
    (8, 3, 3): "6cdb0aca5195c6290306478a752315b65ed59ed4c6690b294eafef83257994a8",
    (6, 2, 4): "97ce91847ddfe3b2bbd3f37d669e94ce1140f01132ea09e40be284a9a0e7512c",
    (6, 3, 2): "4218c49b80facd90cbc8a9d4cb39adfa24aa85974f77bda48a4d3cb2acab6afc",
}


@pytest.mark.parametrize("shape", list(EXACT_BYTES_SHA256), ids=str)
def test_exact_solution_bytes_match_pinned_digests(shape):
    # Pins exact's solution files, coverage sets included, independently
    # of the max flow that exact_reference shares: the arc order decides
    # which optimal assignment the flow returns.
    n, m, k = shape
    cfg = ExperimentConfig(n=n, m=m, k=k, side=40.0, seed=1729)
    digest = hashlib.sha256()
    for trial in range(100):
        inst = generate_instance(cfg, trial)
        digest.update(solution_to_json(solve_exact(inst).solution, inst).encode())
    assert digest.hexdigest() == EXACT_BYTES_SHA256[shape]


def test_exact_mask_screen_rejects_only_flow_infeasible_leaves():
    # solve_exact skips a leaf's max flow when its disks' TD masks miss a
    # TD or their servable counts sum below n.  Random choice vectors on
    # the differential shapes: a rejected vector must be flow-infeasible,
    # and a passed one goes to the same flow as assignment_feasible.
    rng = np.random.default_rng(2024)
    rejected = passed = passed_feasible = tight_feasible = 0
    for inst in _exact_differential_instances():
        m, n, k = inst.m, inst.n, inst.k
        table = disk_order(inst)
        ranks = table.rank.tolist()
        choices = [
            {u0: (mask, servable) for u0, _, mask, servable in _choice_list(p, o, k)}
            for p, o in zip(table.power.tolist(), table.order.tolist())
        ]
        for a0 in range(m):
            for u0 in range(n):
                row = ranks[a0]
                inside = sum(1 << v0 for v0, r in enumerate(row) if r <= row[u0])
                assert choices[a0][u0][0] == inside
        for _ in range(6):
            vector = [None if rng.random() < 0.2 else int(rng.integers(n)) for _ in range(m)]
            union = cap = 0
            for a0, u0 in enumerate(vector):
                union |= choices[a0][u0][0]
                cap += choices[a0][u0][1]
            aps = [a0 + 1 for a0, u0 in enumerate(vector) if u0 is not None]
            flow = _flow_assign(aps, [choices[a - 1][vector[a - 1]][0] for a in aps], k, n)
            if union != (1 << n) - 1 or cap < n:
                rejected += 1
                assert flow is None, (inst, vector)
                continue
            passed += 1
            chosen = {a: vector[a - 1] + 1 for a in aps}
            assert flow == assignment_feasible(chosen, inst), (inst, vector)
            passed_feasible += flow is not None
            tight_feasible += flow is not None and cap == n
    assert rejected >= 100 and passed >= 100
    assert passed_feasible >= 50 and tight_feasible >= 10


def _power_rank_order(table, a0):
    """AP a0's TD indices sorted by (power, rank), the choice order's spec."""
    power, rank = table.power[a0].tolist(), table.rank[a0].tolist()
    return sorted(range(len(power)), key=lambda u0: (power[u0], rank[u0]))


def _choice_order(table, a0, k):
    return [u0 for u0, *_ in _choice_list(table.power[a0].tolist(),
                                          table.order[a0].tolist(), k)]


def test_choice_list_breaks_power_ties_by_rank():
    rng = np.random.default_rng(4242)
    ties = 0
    for _ in range(40):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 31))
        inst = Instance.from_coords(aps=rng.integers(0, 4, (m, 2)).tolist(),
                                    tds=rng.integers(0, 4, (n, 2)).tolist(), k=3)
        table = disk_order(inst)
        for a0 in range(m):
            assert _choice_order(table, a0, 3) == [None, *_power_rank_order(table, a0)]
            ties += n - np.unique(table.power[a0]).size
    assert ties >= 200  # integer grids repeat radii, so powers tie often


def test_choice_list_follows_power_where_it_falls_along_rank(monkeypatch):
    # pow is not promised monotone; a row whose powers fall along rank,
    # and one that falls in tied steps, must still be searched in
    # (power, rank) order, as the reference orders them
    inst = random_instance(np.random.default_rng(77), m=3, n=6, k=3)
    table = disk_order(inst)
    power = table.power.copy()
    power[1, table.order[1]] = power[1, table.order[1]][::-1]
    power[2, table.order[2]] = [30.0, 30.0, 20.0, 20.0, 10.0, 10.0]
    patched = table._replace(power=power)
    for a0 in range(inst.m):
        assert _choice_order(patched, a0, inst.k) == [None, *_power_rank_order(patched, a0)]
    assert _choice_order(patched, 1, inst.k)[1:] == table.order[1].tolist()[::-1]
    monkeypatch.setattr("mpcc.baselines.disk_order", lambda _: patched)
    monkeypatch.setattr("oracles.disk_order", lambda _: patched)
    assert _exact_outcome(solve_exact(inst), inst) == _exact_outcome(exact_reference(inst), inst)


def test_exact_setup_memory_is_linear_in_disks():
    # The search holds one TD bitmask per disk, not a TD id list per disk
    # (about 33 MB at this size); one node is enough to measure the set-up.
    cfg = ExperimentConfig(n=400, m=20, k=40, side=40.0, seed=1729)
    inst = generate_instance(cfg, 0)
    tracemalloc.start()
    try:
        res = solve_exact(inst, ExactBudget(max_nodes=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == STATUS_BUDGET_EXCEEDED
    assert peak <= 4e6


def test_exact_node_budget_is_reported_not_silent():
    rng = np.random.default_rng(43)
    inst = random_instance(rng, m=4, n=10, k=3)
    res = solve_exact(inst, ExactBudget(max_nodes=5, max_seconds=600))
    assert res.status == STATUS_BUDGET_EXCEEDED
    assert res.nodes_explored >= 5


def test_exact_time_budget():
    rng = np.random.default_rng(47)
    inst = random_instance(rng, m=5, n=14, k=3)
    res = solve_exact(inst, ExactBudget(max_nodes=10**12, max_seconds=0.0))
    assert res.status == STATUS_BUDGET_EXCEEDED


def test_exact_infeasible_instance_raises():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (2, 0)], k=1)
    with pytest.raises(InfeasibleInstanceError):
        solve_exact(inst)
