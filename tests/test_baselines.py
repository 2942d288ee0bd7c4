import itertools
import math

import numpy as np
import pytest

from mpcc import (
    ExactBudget,
    InfeasibleInstanceError,
    Instance,
    STATUS_BUDGET_EXCEEDED,
    STATUS_OPTIMAL,
    assignment_feasible,
    check_feasible,
    make_disk,
    solve_exact,
    solve_mlr,
    solve_nca,
    solution_to_json,
)
from mpcc.model import _ARGSORT_MIN_DISKS

from oracles import (
    enumerate_optimal_total,
    exact_reference,
    feasible_small_config,
    nca_reference,
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
    assert {a: d.td_id for a, d in sol.selected.items()} == {1: 1, 2: 3}
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


def test_nca_matches_disk_order_reference_bytes():
    sizes = []
    for inst in _nca_differential_instances():
        expected = solution_to_json(nca_reference(inst), inst)
        assert solution_to_json(solve_nca(inst), inst) == expected, inst
        sizes.append(inst.m * inst.n)
    assert len(sizes) >= 480
    assert min(sizes) < _ARGSORT_MIN_DISKS <= max(sizes)
    assert sum(s >= _ARGSORT_MIN_DISKS for s in sizes) >= 50


# ---------------------------------------------------------------------------
# flow feasibility


def test_shared_pair_splits_one_each():
    inst = Instance.from_coords(aps=[(0, 0), (2, 0)], tds=[(1, 0), (1, 1)], k=1)
    chosen = {1: make_disk(inst, 1, 2), 2: make_disk(inst, 2, 2)}
    assignment = assignment_feasible(chosen, inst)
    assert assignment is not None
    sizes = sorted(len(s) for s in assignment.values())
    assert sizes == [1, 1]


def test_capacity_bound_blocks_assignment():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (0, 1), (-1, 0)], k=2)
    chosen = {1: make_disk(inst, 1, 1)}  # contains all three TDs
    assert assignment_feasible(chosen, inst) is None


def test_uncovered_td_blocks_assignment():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0)], k=2)
    chosen = {1: make_disk(inst, 1, 1), 2: None}
    assert assignment_feasible(chosen, inst) is None


def _random_chosen(rng, inst):
    chosen = {}
    for a in range(1, inst.m + 1):
        pick = int(rng.integers(0, inst.n + 1))
        chosen[a] = None if pick == 0 else make_disk(inst, a, pick)
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
