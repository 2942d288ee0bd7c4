import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcc import (
    InfeasibleInstanceError,
    Instance,
    MlrInvariantError,
    apply_selection,
    assemble_solution,
    check_feasible,
    init_state,
    local_ratio,
    select_min_ratio,
    solution_to_json,
    solve_mlr,
)

from oracles import mlr_reference, random_instance


def disk_ids(state, i):
    """(AP id, TD id) of the disk at flat state index i."""
    ap0, u0 = divmod(int(i), state.inst.n)
    return ap0 + 1, u0 + 1


def two_td_line():
    return Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (2, 0)], k=2)


def test_local_ratio_values():
    assert local_ratio(8, 5, 2) == 4
    assert local_ratio(0, 1, 1) == 0
    assert local_ratio(9, 2, 5) == 4.5


def test_local_ratio_rejects_degenerate_divisor():
    with pytest.raises(MlrInvariantError):
        local_ratio(1.0, 0, 3)


def test_single_ap_forced_solution():
    trace = []
    sol = solve_mlr(two_td_line(), trace=trace)
    assert sol.total_power == 4
    assert sol.coverage[1] == frozenset({1, 2})
    assert [(r.ap_id, r.td_id) for r in trace] == [(1, 1), (1, 2)]
    assert [r.ratio for r in trace] == [1.0, 2.0]


def test_residual_power_update_after_first_round():
    inst = two_td_line()
    state = init_state(inst)
    i = select_min_ratio(state)
    assert disk_ids(state, i) == (1, 1)
    e, covered, removed = apply_selection(state, i)
    assert e == 1.0
    assert covered == (1,)
    assert removed == ((1, 1),)
    # the surviving larger disk was charged e * min(k_hat, d) = 1 * 2
    assert state.p_hat[1] == 2.0
    assert state.k_hat[0] == 1
    assert state.d_count[1] == 1
    assert list(state.live_disk) == [False, True]


def test_full_capacity_pick_clears_the_center():
    # both TDs inside the chosen disk and k = 2, so d = k_hat retires
    # every disk of that AP
    inst = Instance.from_coords(
        aps=[(0, 0), (50, 50)], tds=[(1, 0), (-1, 0)], k=2
    )
    state = init_state(inst)
    i = select_min_ratio(state)
    assert disk_ids(state, i)[0] == 1
    assert state.d_count[i] == 2 == state.k_hat[0]
    apply_selection(state, i)
    assert not state.live_disk[: inst.n].any()


def test_partial_pick_keeps_larger_disks_with_less_capacity():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (5, 0)], k=3)
    state = init_state(inst)
    i = select_min_ratio(state)
    assert disk_ids(state, i) == (1, 1)
    assert state.d_count[i] == 1 < state.k_hat[0]
    apply_selection(state, i)
    assert list(state.live_disk) == [False, True]
    assert state.k_hat[0] == 2


def test_min_ratio_prefers_smaller_ratio():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (1, 1)], k=1)
    state = init_state(inst)
    i = select_min_ratio(state)
    # ratios are 1 (d=1 disk) and 2 (rsq 2, capacity-limited divisor 1)
    assert disk_ids(state, i) == (1, 1)


def test_min_ratio_tie_breaks_to_lowest_ap():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0)], k=2)
    state = init_state(inst)
    i = select_min_ratio(state)
    assert disk_ids(state, i)[0] == 1


def test_each_ap_takes_its_near_td():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0)], k=1)
    sol = solve_mlr(inst)
    assert sol.total_power == 2
    assert sol.coverage == {1: frozenset({1}), 2: frozenset({2})}


def test_zero_radius_disks_go_first():
    inst = Instance.from_coords(aps=[(5, 5)], tds=[(5, 5), (6, 5)], k=2)
    trace = []
    sol = solve_mlr(inst, trace=trace)
    assert trace[0].td_id == 1
    assert trace[0].ratio == 0.0
    assert sol.total_power == 1.0


def test_determinism_bytes():
    rng = np.random.default_rng(42)
    inst = random_instance(rng, m=3, n=14, k=5)
    a = solve_mlr(inst)
    b = solve_mlr(inst)
    assert a == b
    assert solution_to_json(a, inst) == solution_to_json(b, inst)


def test_infeasible_without_validation_raises():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (2, 0), (3, 0)], k=1)
    with pytest.raises(InfeasibleInstanceError):
        solve_mlr(inst)


def _step_through(inst):
    """Drive the solver loop op by op, asserting the state invariants."""
    state = init_state(inst)
    rounds = 0
    last_rank = {}
    while state.live_td.any():
        assert state.live_disk.any()
        rounds += 1
        assert rounds <= inst.n  # progress: every round covers a TD
        live = np.flatnonzero(state.live_disk)
        assert (state.d_count[live] >= 1).all()
        assert (state.k_hat[state.ap_of[live]] >= 1).all()
        i = select_min_ratio(state)
        ap_id, _ = disk_ids(state, i)
        assert state.d_count[i] <= state.k_hat[state.ap_of[i]]
        if ap_id in last_rank:
            assert last_rank[ap_id] < state.rank_in_ap[i]  # l_a only ever grows
        last_rank[ap_id] = state.rank_in_ap[i]
        apply_selection(state, i)
        live = state.live_disk
        slack = state.p_hat[live] + 1e-9 * state.powers[live]
        assert (slack >= 0).all()  # residual powers stay non-negative
    return assemble_solution(state)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 4),
    n=st.integers(1, 12),
    k=st.integers(1, 6),
    alpha=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_solver_invariants_on_random_instances(seed, m, n, k, alpha):
    if m * k < n:
        n = m * k
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, m=m, n=n, k=k, power_alpha=alpha)
    sol = _step_through(inst)
    assert check_feasible(sol, inst) == []
    assert sol == solve_mlr(inst)


def test_coverage_never_exceeds_capacity_on_tight_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        inst = random_instance(rng, m=4, n=12, k=3)  # m*k == n, fully tight
        sol = solve_mlr(inst)
        assert check_feasible(sol, inst) == []
        assert all(len(c) <= 3 for c in sol.coverage.values())


def test_matches_reference_transcription():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        n = int(rng.integers(1, min(18, m * k) + 1))
        inst = random_instance(rng, m=m, n=n, k=k,
                               power_alpha=float(rng.choice([1.0, 2.0, 3.0])))
        assert solve_mlr(inst) == mlr_reference(inst)


def test_matches_reference_transcription_under_exact_ties():
    # integer grids force coincident points and exact radius ties
    rng = np.random.default_rng(3141)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, min(14, m * k) + 1))
        inst = Instance.from_coords(
            aps=rng.integers(0, 4, (m, 2)).tolist(),
            tds=rng.integers(0, 4, (n, 2)).tolist(),
            k=k,
        )
        assert solve_mlr(inst) == mlr_reference(inst)
