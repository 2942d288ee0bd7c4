import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcc import (
    ExperimentConfig,
    InfeasibleInstanceError,
    Instance,
    MlrInvariantError,
    Solution,
    apply_selection,
    assemble_solution,
    check_feasible,
    generate_instance,
    init_state,
    local_ratio,
    select_min_ratio,
    solution_to_json,
    solve_mlr,
)
from mpcc import mlr
from mpcc.experiments import override_configs, preset

from oracles import mlr_flat_reference, mlr_reference, random_instance


def disk_ids(state, pick):
    """(AP id, TD id) of the disk at state position (AP index, column)."""
    a0, r = pick
    return a0 + 1, int(state.order[a0, r]) + 1


def live_mask(state):
    """(m, width) bool: which columns of the state are live disks."""
    return np.arange(state.width) >= state.first_live[:, None]


def table_ranks(state, first):
    """Table rank of each AP's column ``first``, n past its last column."""
    width = state.width
    rows = np.arange(state.inst.m)
    td = state.order[rows, np.minimum(first, width - 1)]
    return np.where(first < width, state.table.rank[rows, td], state.inst.n)


def two_td_line():
    return Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (2, 0)], k=2)


# ``_SCALAR_MAX_DISKS`` values that send every table to one path of solve_mlr
PATHS = {"array": 0, "scalar": 10**12}


def _on_path(monkeypatch, path):
    """Send every solve_mlr call to the array or the scalar rounds."""
    monkeypatch.setattr(mlr, "_SCALAR_MAX_DISKS", PATHS[path])


def _each_path(monkeypatch):
    """Yield each path's name while solve_mlr is sent to it."""
    for path in PATHS:
        _on_path(monkeypatch, path)
        yield path


def test_local_ratio_values():
    assert local_ratio(8, 5, 2) == 4
    assert local_ratio(0, 1, 1) == 0
    assert local_ratio(9, 2, 5) == 4.5


def test_local_ratio_rejects_degenerate_divisor():
    with pytest.raises(MlrInvariantError):
        local_ratio(1.0, 0, 3)


@pytest.mark.parametrize("field, message", [
    ("live_ap", "select_min_ratio called with no live disks"),
    ("k_hat", "live disk with degenerate ratio divisor"),
    ("first_live", "selected retired disk of AP {ap}"),
    ("d", "selected disk has d=6 above k_hat=5"),
])
def test_select_min_ratio_invariant_checks_fire(field, message):
    inst = random_instance(np.random.default_rng(12), m=3, n=12, k=5)
    state = init_state(inst)
    a0, r = select_min_ratio(state)
    assert r + 1 < state.hi
    if field == "live_ap":
        state.live_ap = state.live_ap[:0]
    elif field == "k_hat":
        state.k_hat[:] = 0
    elif field == "first_live":
        state.first_live[a0] = r + 1  # the argmin now lies below the live ranks
    else:
        state.d[a0, r] = state.k_hat[a0] + 1
    with pytest.raises(MlrInvariantError, match=f"^{message.format(ap=a0 + 1)}$"):
        select_min_ratio(state)


@pytest.mark.parametrize("stub, message", [
    ("apply_selection", "more rounds than TDs"),
    ("assemble_solution", "non-finite total power"),
])
def test_solve_mlr_invariant_checks_fire(monkeypatch, stub, message):
    # the stubs replace functions of the array rounds, which a table this
    # small reaches only with the scalar rounds off
    _on_path(monkeypatch, "array")
    stubs = {
        "apply_selection": lambda state, pick: (0.0, (), None),  # covers nothing
        "assemble_solution": lambda state: Solution({}, {}, math.inf),
    }
    monkeypatch.setattr(mlr, stub, stubs[stub])
    with pytest.raises(MlrInvariantError, match=f"^{message}$"):
        solve_mlr(two_td_line())


def test_scalar_rounds_report_a_non_finite_total(monkeypatch):
    class NoTotal(Solution):
        @classmethod
        def from_picks(cls, inst, picks, coverage):
            return Solution({}, {}, math.inf)

    _on_path(monkeypatch, "scalar")
    monkeypatch.setattr(mlr, "Solution", NoTotal)
    with pytest.raises(MlrInvariantError, match="^non-finite total power$"):
        solve_mlr(two_td_line())


def test_pick_above_capacity_fires_on_both_paths(monkeypatch):
    # pow is not promised monotone: with the farther disk the cheaper one
    # and k = 1, the least ratio lies at d = 2 > k_hat, which only a bug or
    # a broken table can bring about
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (2, 0)], k=1)
    table = mlr.disk_order(inst)
    patched = dataclasses.replace(table, power=table.power[:, ::-1].copy())
    assert patched.power[0, 1] < patched.power[0, 0]
    monkeypatch.setattr(mlr, "disk_order", lambda _: patched)
    for _ in _each_path(monkeypatch):
        with pytest.raises(MlrInvariantError, match="^selected disk has d=2 above k_hat=1$"):
            solve_mlr(inst)


def test_scalar_rounds_leave_non_finite_and_negative_powers_to_the_arrays(monkeypatch):
    # the scalar argmin compares with a strict <, which agrees with
    # np.argmin only while every ratio is finite
    inst = random_instance(np.random.default_rng(3), m=2, n=6, k=3)
    table = mlr.disk_order(inst)
    calls = []

    def array_rounds(inst, trace, real=mlr._array_rounds):
        calls.append(inst)
        return real(inst, trace)

    monkeypatch.setattr(mlr, "_array_rounds", array_rounds)
    for value in (math.inf, math.nan, -1.0, 1e308):
        power = table.power.copy()
        power[1, table.rank[1, 2]] = value  # the disk with boundary TD 3
        monkeypatch.setattr(mlr, "disk_order",
                            lambda _, power=power: dataclasses.replace(table, power=power))
        results = []
        for _ in _each_path(monkeypatch):
            trace = []
            try:
                results.append((solve_mlr(inst, trace.append), trace))
            except MlrInvariantError as exc:
                results.append((str(exc), trace))
        assert results[0] == results[1], value
    assert len(calls) == 8


def test_single_ap_forced_solution():
    trace = []
    sol = solve_mlr(two_td_line(), trace=trace.append)
    assert sol.total_power == 4
    assert sol.coverage[1] == frozenset({1, 2})
    assert [tuple(doc["disk"]) for doc in trace] == [(1, 1), (1, 2)]
    assert [doc["ratio"] for doc in trace] == [1.0, 2.0]


def test_residual_power_update_after_first_round():
    inst = two_td_line()
    state = init_state(inst)
    i = select_min_ratio(state)
    assert disk_ids(state, i) == (1, 1)
    e, covered, retired = apply_selection(state, i)
    assert e == 1.0
    assert covered == (1,)
    assert len(retired) == 1
    assert retired.indices().tolist() == [0]  # disk (1, 1)
    # the surviving larger disk was charged e * min(k_hat, d) = 1 * 2
    assert state.p_hat[0, 1] == 2.0
    assert state.k_hat[0] == 1
    assert state.d[0, 1] == 1
    assert live_mask(state).tolist() == [[False, True]]


def test_full_capacity_pick_clears_the_center():
    # both TDs inside the chosen disk and k = 2, so d = k_hat retires
    # every disk of that AP
    inst = Instance.from_coords(
        aps=[(0, 0), (50, 50)], tds=[(1, 0), (-1, 0)], k=2
    )
    state = init_state(inst)
    i = select_min_ratio(state)
    assert disk_ids(state, i)[0] == 1
    assert state.d[i] == 2 == state.k_hat[0]
    apply_selection(state, i)
    assert not live_mask(state)[0].any()


def test_partial_pick_keeps_larger_disks_with_less_capacity():
    # k <= n, so the residual capacity starts at k itself
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (5, 0), (9, 0)], k=3)
    state = init_state(inst)
    i = select_min_ratio(state)
    assert disk_ids(state, i) == (1, 1)
    assert state.d[i] == 1 < state.k_hat[0]
    apply_selection(state, i)
    assert live_mask(state).tolist() == [[False, True, True]]
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
    sol = solve_mlr(inst, trace=trace.append)
    assert trace[0]["disk"][1] == 1
    assert trace[0]["ratio"] == 0.0
    assert sol.total_power == 1.0


def test_determinism_bytes():
    rng = np.random.default_rng(42)
    inst = random_instance(rng, m=3, n=14, k=5)
    a = solve_mlr(inst)
    b = solve_mlr(inst)
    assert a == b
    assert solution_to_json(a, inst) == solution_to_json(b, inst)


def test_infeasible_without_validation_raises(monkeypatch):
    for _ in _each_path(monkeypatch):
        inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (2, 0), (3, 0)], k=1)
        with pytest.raises(InfeasibleInstanceError):
            solve_mlr(inst)
        # each AP spends its capacity on its near TD in its own round, so the
        # live APs run out mid-solve with the middle TD still uncovered
        inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0), (5, 0)], k=1)
        with pytest.raises(InfeasibleInstanceError):
            solve_mlr(inst)


def _window_on_every_table(monkeypatch):
    """Let tables of any size use the head window (see ``init_state``)."""
    monkeypatch.setattr(mlr, "_WINDOW_MIN_DISKS", 0)


def _bookkeeping_instances():
    rng = np.random.default_rng(31)
    for i in range(60):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 8))
        n = m * k if i % 2 else int(rng.integers(1, m * k + 1))
        if i % 3:
            yield random_instance(rng, m=m, n=n, k=k)
        else:
            # integer grids force coincident points and exact radius ties
            yield Instance.from_coords(aps=rng.integers(0, 5, (m, 2)).tolist(),
                                       tds=rng.integers(0, 5, (n, 2)).tolist(), k=k)


@pytest.mark.parametrize("window", [False, True], ids=["full", "window"])
def test_live_aps_and_uncovered_count_track_the_state(monkeypatch, window):
    # solve_mlr counts the uncovered TDs from each round's covered list,
    # and apply_selection refreshes live_ap only when an AP retires wholly
    if window:
        _window_on_every_table(monkeypatch)
    narrow = shrank = 0
    for inst in _bookkeeping_instances():
        state = init_state(inst)
        n = left = inst.n
        narrow += state.hi < n
        while left:
            live = state.live_ap.size
            _, covered, _ = apply_selection(state, select_min_ratio(state))
            left -= len(covered)
            assert left == state.live_td.sum()
            if left:
                live_ap = np.flatnonzero(state.first_live < state.width)
                assert np.array_equal(state.live_ap, live_ap)
                shrank += state.live_ap.size < live
    # APs retire wholly while TDs remain, so the refresh is exercised
    assert shrank >= 20
    assert (narrow >= 20) if window else narrow == 0


def _step_through(inst):
    """Drive the solver loop op by op, asserting the state invariants.

    The state works on columns of its own ``order``, which a windowed
    solve compacts to the disks that can still be picked.  ``shadow``
    holds every disk's residual power in rank space, charged here each
    round, so the assertions also reach the disks the columns dropped.
    """
    state = init_state(inst)
    table = state.table
    rows = np.arange(inst.m)[:, None]
    power = table.power  # full disk powers in rank space
    shadow = power.copy()
    ranks = np.arange(inst.n)
    rounds = 0
    last_rank = {}
    last_order, last_hi = state.order, state.hi
    while state.live_td.any():
        live = live_mask(state)
        assert live.any()
        rounds += 1
        assert rounds <= inst.n  # progress: every round covers a TD
        order, width, hi = state.order, state.width, state.hi
        col_rank = table.rank[rows, order]  # table rank of each column's disk
        d_rank = np.cumsum(state.live_td[table.order], axis=1)  # every disk's d
        live_rank = ranks >= table_ranks(state, state.first_live)[:, None]
        assert (live_rank.sum(axis=1) >= live.sum(axis=1)).all()
        assert (np.diff(col_rank, axis=1)[live[:, :-1]] > 0).all()  # columns ascend in rank
        if order is last_order:
            assert last_hi <= hi  # the window only grows between compactions
        last_order, last_hi = order, hi
        d = np.cumsum(state.live_td[order], axis=1)  # the columns' full live counts
        assert (d[live] == d_rank[rows, col_rank][live]).all()
        assert (state.d == d[:, :hi]).all()
        assert (d[live] >= 1).all() and (d_rank[live_rank] >= 1).all()
        assert (np.broadcast_to(state.k_hat[:, None], live.shape)[live] >= 1).all()
        assert (np.broadcast_to(state.k_hat[:, None], live_rank.shape)[live_rank] >= 1).all()
        # The live columns hold the shadow powers of their disks, and every
        # live disk they dropped has a kept disk of its AP with the same d,
        # a lower rank and no greater power, so it is never the argmin.
        p_hat = state.p_hat
        assert (p_hat[live] == shadow[rows, col_rank][live]).all()
        kept = np.zeros_like(live_rank)
        kept[np.nonzero(live)[0], col_rank[live]] = True
        best = np.where(kept, shadow, np.inf)
        carry = np.full(inst.m, np.inf)  # least kept power earlier in the run
        for t in range(1, inst.n):
            run = live_rank[:, t] & (d_rank[:, t] == d_rank[:, t - 1])
            carry = np.where(run, np.minimum(carry, best[:, t - 1]), np.inf)
            missing = live_rank[:, t] & ~kept[:, t]
            assert (carry[missing] <= shadow[missing, t]).all()
        # From column hi - 1 on (column hi at full width), every live AP's
        # disks are suffix disks, d >= k_hat, with p_hat nondecreasing.
        live_ap = state.first_live < width
        lo = hi - 1 if hi < width else hi
        assert (d[live_ap, lo:] >= state.k_hat[live_ap, None]).all()
        assert (np.diff(p_hat[live_ap, lo:], axis=1) >= 0).all()
        # The window's pick is the row-major argmin over every live disk.
        div = np.minimum(state.k_hat[:, None], d_rank)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(live_rank, shadow / div, np.inf)
        a0, r = select_min_ratio(state)
        assert (a0, col_rank[a0, r]) == divmod(int(ratio.argmin()), inst.n)
        assert state.d[a0, r] <= state.k_hat[a0]
        if a0 in last_rank:
            assert last_rank[a0] < col_rank[a0, r]  # l_a only ever grows
        last_rank[a0] = col_rank[a0, r]
        e, _, _ = apply_selection(state, (a0, r))
        shadow -= e * div  # the charge, with the pre-round divisors
        # residual powers stay non-negative, in the columns and in rank space
        live = live_mask(state)
        col_power = power[rows, table.rank[rows, state.order]]
        assert (state.p_hat[live] + 1e-9 * col_power[live] >= 0).all()
        live_rank = ranks >= table_ranks(state, state.first_live)[:, None]
        assert (shadow[live_rank] + 1e-9 * power[live_rank] >= 0).all()
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
    with pytest.MonkeyPatch.context() as mp:
        _window_on_every_table(mp)
        sol = _step_through(inst)
    assert check_feasible(sol, inst) == []
    assert sol == solve_mlr(inst)  # at full width: tables this small skip the window


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


def test_matches_reference_transcription_under_exact_ties(monkeypatch):
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
        ref = mlr_reference(inst)
        for path in _each_path(monkeypatch):
            assert solve_mlr(inst) == ref, path


def _solve_bytes(inst):
    """Solution JSON and trace JSON of one traced MLR solve."""
    trace = []
    sol = solve_mlr(inst, trace=trace.append)
    return solution_to_json(sol, inst), json.dumps(trace)


def _differential_instances():
    rng = np.random.default_rng(4242)
    for i in range(520):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 31))
        # every third instance has k >= n; the rest sit within 3 of the
        # smallest k with m*k >= n
        lo = -(-n // m)
        k = int(rng.integers(n, 2 * n + 1)) if i % 3 == 0 else int(rng.integers(lo, lo + 4))
        params = dict(k=k, power_c=float(rng.choice([0.3, 1.0, 7.0])),
                      power_alpha=float(rng.choice([1.0, 2.0, 2.5, 3.0, 3.7, 4.0])))
        if i % 2:
            # integer grids force coincident points and exact radius ties
            yield Instance.from_coords(aps=rng.integers(0, 5, (m, 2)).tolist(),
                                       tds=rng.integers(0, 5, (n, 2)).tolist(), **params)
        else:
            yield random_instance(rng, m=m, n=n, **params)
    for n, m, k in ((300, 12, 25), (300, 12, 40), (280, 4, 300), (310, 13, 24)):
        yield random_instance(rng, m=m, n=n, k=k)


def test_matches_flat_array_reference_bytes(monkeypatch):
    count = 0
    for inst in _differential_instances():
        ref, docs = mlr_flat_reference(inst)
        expected = (solution_to_json(ref, inst), json.dumps(docs))
        for path in _each_path(monkeypatch):
            assert _solve_bytes(inst) == expected, (path, inst)
        count += 1
    assert count >= 500


@pytest.mark.parametrize("seed", range(6))
def test_capacity_beyond_int64_matches_k_equals_n(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    inst = random_instance(rng, m=int(rng.integers(1, 4)), n=n, k=n)
    huge = Instance.from_coords(aps=inst.ap_xy, tds=inst.td_xy, k=10**30)
    outputs = [(_solve_bytes(huge), _solve_bytes(inst)) for _ in _each_path(monkeypatch)]
    assert outputs[0][0] == outputs[0][1] == outputs[1][0] == outputs[1][1]


def test_benchmark_shapes_keep_their_path(monkeypatch):
    # a change of _SCALAR_MAX_DISKS must not quietly move a benchmark
    # workload: exact-small's tables and preset 1's two smallest points
    # run the scalar rounds, preset 3's smallest table (and so sweep-small
    # and solve-large, all larger) the array rounds
    ran = []
    for name in ("_scalar_rounds", "_array_rounds"):
        def recording(inst, trace, real=getattr(mlr, name), name=name):
            ran.append(name)
            return real(inst, trace)
        monkeypatch.setattr(mlr, name, recording)
    exact_small = ExperimentConfig(n=5, m=4, k=4, side=40.0)
    expected = [
        (exact_small, (5, 4), ["_scalar_rounds"]),
        (preset(1)[0], (20, 1), ["_scalar_rounds"]),
        (preset(1)[1], (50, 2), ["_scalar_rounds"]),
        (preset(3)[0], (100, 4), ["_array_rounds"]),
    ]
    for cfg, shape, path in expected:
        assert (cfg.n, cfg.m) == shape
        ran.clear()
        solve_mlr(generate_instance(cfg, 0))
        assert ran == path, shape


def _window_widths(inst):
    """The window width ``hi`` and the column count at the start of every
    round of a solve, as an (rounds, 2) array."""
    state = init_state(inst)
    widths = []
    while state.live_td.any():
        widths.append((state.hi, state.width))
        apply_selection(state, select_min_ratio(state))
    return np.array(widths)


def _narrow_window_instances():
    rng = np.random.default_rng(5150)
    for i in range(20):
        n = int(rng.integers(150, 601))
        k = int(rng.integers(8, 26))
        m = -(-n // k) + int(rng.integers(0, 4))
        params = dict(k=k, power_alpha=float((1.0, 2.5, 3.7)[i % 3]))
        if i % 2:
            # integer grids force coincident points and exact radius ties
            yield Instance.from_coords(aps=rng.integers(0, 12, (m, 2)).tolist(),
                                       tds=rng.integers(0, 12, (n, 2)).tolist(), **params)
        else:
            yield random_instance(rng, m=m, n=n, **params)


def _counting_compactions(monkeypatch):
    """List the uncovered TDs at each ``_compact`` call, and count the
    calls that kept a live disk whose boundary TD is covered: a head disk
    that is not its run's first."""
    counts = {"left": [], "kept_inner": 0}
    compact = mlr._compact

    def counting(state):
        left = np.count_nonzero(state.live_td)
        assert state.left == left
        counts["left"].append(left)
        compact(state)
        counts["kept_inner"] += (live_mask(state) & ~state.live_td[state.order]).any()

    monkeypatch.setattr(mlr, "_compact", counting)
    return counts


def _assert_halving(lefts, n):
    """A solve compacts each time its uncovered TDs have halved: first at
    n // 2 or fewer, then at half the last call's count or fewer, so at
    most ``n.bit_length()`` times."""
    for bound, left in zip([n] + lefts, lefts):
        assert 0 < left <= bound // 2
    assert len(lefts) <= n.bit_length()


def test_narrow_window_matches_flat_array_reference_bytes(monkeypatch):
    _window_on_every_table(monkeypatch)
    counts = _counting_compactions(monkeypatch)
    rounds = narrow = compacted = 0
    for i, inst in enumerate(_narrow_window_instances()):
        ref, docs = mlr_flat_reference(inst)
        expected = (solution_to_json(ref, inst), json.dumps(docs))
        calls = len(counts["left"])
        assert _solve_bytes(inst) == expected, inst
        compacted += len(counts["left"]) > calls
        _assert_halving(counts["left"][calls:], inst.n)
        hi, width = _window_widths(inst).T
        rounds += hi.size
        narrow += (hi < width).sum()
        if i < 4:
            assert _step_through(inst) == ref
    # the window is narrower than n in most rounds, so the test reaches it
    assert narrow > rounds / 2
    # and some rounds of a solve that started narrow run with the window
    # grown to every column
    assert narrow < rounds
    # most solves compact their columns, and some compaction keeps a head
    # disk for its power below its run's first disk's
    assert compacted > (i + 1) / 2
    assert counts["kept_inner"] >= 1


@pytest.mark.parametrize("window", [False, True], ids=["full", "window"])
def test_retired_count_matches_the_trace(monkeypatch, window):
    # perfbench counts retired disks as len() of apply_selection's third
    # value; each round's must be its trace line's, and a solve retires
    # every disk
    _on_path(monkeypatch, "array")  # the scalar rounds call no apply_selection
    if window:
        _window_on_every_table(monkeypatch)
    counts = []

    def counting(state, pick):
        result = apply_selection(state, pick)
        counts.append(len(result[2]))
        return result

    monkeypatch.setattr(mlr, "apply_selection", counting)
    narrow = 0
    for inst in _bookkeeping_instances():
        counts.clear()
        trace = []
        solve_mlr(inst, trace=trace.append)
        assert counts == [len(doc["removed"]) for doc in trace]
        assert sum(counts) == inst.m * inst.n
        narrow += init_state(inst).hi < inst.n
    assert (narrow >= 20) if window else narrow == 0


def test_one_td_many_aps_retires_without_a_call_per_ap(monkeypatch):
    # at n=1 one round retires every disk: the pick's AP by one call,
    # the rest by one mask
    inst = random_instance(np.random.default_rng(8), m=20_000, n=1, k=1)
    calls = []
    retire = mlr._retire

    def counting(state, a0):
        calls.append(a0)
        retire(state, a0)

    monkeypatch.setattr(mlr, "_retire", counting)
    ref, docs = mlr_flat_reference(inst)
    assert _solve_bytes(inst) == (solution_to_json(ref, inst), json.dumps(docs))
    assert len(calls) <= 1
    assert len(docs[0]["removed"]) == inst.m


def test_mlr_matches_solve_large_reference_digests():
    # The benchmark's solve-large instances, built as `mpcc gen` builds them.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())["solve-large"]
    assert len(reference) == 51
    for seed, outputs in reference.items():
        cfg = ExperimentConfig(n=1000, m=40, k=40, side=40.0, trials=1, seed=int(seed))
        inst = generate_instance(cfg, 0)
        digest = hashlib.sha256(solution_to_json(solve_mlr(inst), inst).encode()).hexdigest()
        assert digest == outputs["mlr"]["sha256"], seed


def test_non_monotone_power_row_starts_at_full_width(monkeypatch):
    # pow is not promised monotone; a row whose powers fall along rank
    # must turn the window off and leave the output unchanged
    inst = random_instance(np.random.default_rng(99), m=6, n=120, k=25)
    table = mlr.disk_order(inst)
    power = table.power.copy()
    power[2, 1] = 0.5 * power[2, 0]
    patched = dataclasses.replace(table, power=power)
    assert power[2, 1] < power[2, 0]
    monkeypatch.setattr(mlr, "disk_order", lambda _: patched)
    monkeypatch.setattr("oracles.disk_order", lambda _: patched)
    _window_on_every_table(monkeypatch)
    assert init_state(inst).hi == inst.n
    ref, docs = mlr_flat_reference(inst)
    assert _solve_bytes(inst) == (solution_to_json(ref, inst), json.dumps(docs))


def test_only_windowed_tables_compact(monkeypatch):
    # preset 3's tables run at full width and never compact; the
    # benchmark's n=1000, m=40 instances do, each time their uncovered
    # TDs halve
    counts = _counting_compactions(monkeypatch)
    for cfg in override_configs(preset(3), trials=10):
        for t in range(cfg.trials):
            solve_mlr(generate_instance(cfg, t))
    assert counts["left"] == []
    for seed in (1729, 7, 42, 11):
        calls = len(counts["left"])
        solve_mlr(generate_instance(ExperimentConfig(n=1000, m=40, k=40, side=40.0, seed=seed), 0))
        assert len(counts["left"]) > calls
        _assert_halving(counts["left"][calls:], 1000)


def test_window_stays_narrow_on_the_solve_large_instance():
    # the benchmark's n=1000, m=40 instance; a silent fall-back to
    # full-width rounds would read 1
    inst = generate_instance(ExperimentConfig(n=1000, m=40, k=40, side=40.0, seed=1729), 0)
    hi, width = _window_widths(inst).T
    assert np.mean(hi / width) < 0.5


def test_compaction_memory_rise_is_bounded(monkeypatch):
    # The first compaction of this solve raised traced memory by 4.8 MB
    # (30 bytes a disk) when it joined the residual powers into one
    # (m, width) array and built int64 index arrays for every kept disk.
    # Gathering each part by its own indices and scattering by masks of
    # runs takes about 2.0 MB (12 bytes a disk).
    inst = generate_instance(ExperimentConfig(n=2000, m=80, k=40, side=40.0, seed=1729), 0)
    rises = []
    compact = mlr._compact

    def measured(state):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        compact(state)
        rises.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(mlr, "_compact", measured)
    tracemalloc.start()
    try:
        solve_mlr(inst)
    finally:
        tracemalloc.stop()
    assert rises and max(rises) <= 16 * inst.m * inst.n, rises


def test_streamed_trace_keeps_no_rounds():
    # a sink that drops each round's document leaves the solve's memory
    # peak near the untraced one; a list of every round reads about
    # 2.9 MB above it on this instance, the benchmark's n=1000, m=40
    inst = generate_instance(ExperimentConfig(n=1000, m=40, k=40, side=40.0, seed=1729), 0)
    peaks = []
    for trace in (None, lambda doc: None):
        tracemalloc.start()
        try:
            solve_mlr(inst, trace)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1_000_000, peaks
