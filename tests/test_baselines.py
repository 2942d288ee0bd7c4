import dataclasses
import hashlib
import itertools
import json
import math
import sys
import time
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
    check_feasible,
    disk_order,
    generate_instance,
    solve_exact,
    solve_mlr,
    solve_nca,
    solution_to_json,
)
from mpcc import baselines
from mpcc.baselines import FlowNetwork, _choice_list, _hall_feasible

from oracles import (
    FlowNetworkReference,
    assignment_feasible,
    enumerate_optimal_total,
    exact_reference,
    feasible_small_config,
    flow_assign_reference,
    key_fields,
    max_flow_reference,
    nca_reference,
    pair_order_reference,
    pair_runs_reference,
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
        # every radius is 0, so one run holds every pair
        "coincident": Instance.from_coords(aps=[(3.5, -2.0)] * 20,
                                           tds=[(3.5, -2.0)] * 1000, k=50),
        "tight": random_instance(rng, m=40, n=1000, k=25),  # m*k = n
    }


def _block_sizes(inst, runs):
    """The block sizes of ``pair_runs`` with no TD flagged, from its runs:
    each run in blocks of max(n, 1024) pairs; a table of at most 8192
    pairs is one block."""
    if inst.m * inst.n <= baselines._FIRST_RUN:
        return [inst.m * inst.n]
    block = max(inst.n, baselines._MIN_BLOCK)
    sizes = []
    for run in runs:
        full, rest = divmod(len(run), block)
        sizes += [block] * full + ([rest] if rest else [])
    return sizes


def _assert_radius_bands(inst, runs):
    """No run is empty, each run's radii lie below every radius of the
    next run, and only the last run holds NaN radii."""
    rsq = key_fields(inst)[0].T.ravel()  # by flat pair index u0 * m + a0
    assert all(len(run) for run in runs)
    for run, after in zip(runs, runs[1:]):
        radii, later = rsq[run], rsq[after]
        assert not np.isnan(radii).any()
        assert (radii.max() < later[~np.isnan(later)]).all()


def _flat_pairs(inst):
    """``pair_runs`` with no TD flagged, as its blocks of flat pair indices
    ``u0 * m + a0``."""
    return [np.array(u0, dtype=np.int64) * inst.m + np.array(a0, dtype=np.int64)
            for u0, a0 in baselines.pair_runs(inst)[1]]


def _flat_runs(inst, monkeypatch):
    """``_flat_pairs`` with blocks too long to split a run: one per run."""
    with monkeypatch.context() as patch:
        patch.setattr(baselines, "_MIN_BLOCK", inst.m * inst.n + 1)
        return _flat_pairs(inst)


def _record_blocks(monkeypatch, flagged=None):
    """The blocks ``(u0 list, a0 list)`` that ``solve_nca`` draws, recorded
    as it draws them; ``flagged`` receives the TDs flagged as each block
    was drawn."""
    drawn = []

    def recording(inst, real=baselines.pair_runs):
        covered, blocks = real(inst)

        def record():
            for block in blocks:
                drawn.append(block)
                if flagged is not None:
                    flagged.append({u0 for u0, flag in enumerate(covered) if flag})
                yield block

        return covered, record()

    monkeypatch.setattr("mpcc.baselines.pair_runs", recording)
    return drawn


def _sizes(drawn):
    return [len(u0) for u0, _ in drawn]


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


def test_pair_runs_concatenate_to_the_one_shot_order(monkeypatch):
    multi = 0
    for inst in _nca_differential_instances():
        blocks = _flat_pairs(inst)
        assert np.array_equal(np.concatenate(blocks), pair_order_reference(inst)), inst
        runs = _flat_runs(inst, monkeypatch)
        assert [len(b) for b in blocks] == _block_sizes(inst, runs)
        _assert_radius_bands(inst, runs)
        multi += len(blocks) > 1
    assert multi == len(_multi_run_instances())
    # a 40 000-pair table: runs of 8191, 16 673 and 15 136 pairs, in
    # 8, 17 and 15 blocks of 1024 or fewer
    runs = _flat_runs(_multi_run_instances()["random"], monkeypatch)
    assert [len(run) for run in runs] == [8191, 16_673, 15_136]
    sizes = _block_sizes(_multi_run_instances()["random"], runs)
    assert len(sizes) == 40 and sum(sizes) == 40_000


def test_pair_runs_flag_types_follow_the_table_size():
    # At most 8192 pairs: one listed block, and flags in a list, whose reads
    # are the fastest; beyond: a generator over a bytearray the blocks view.
    rng = np.random.default_rng(12)
    small = random_instance(rng, m=8, n=1024, k=128)
    covered, blocks = baselines.pair_runs(small)
    assert type(covered) is list and type(blocks) is list and len(blocks) == 1
    covered, blocks = baselines.pair_runs(random_instance(rng, m=8, n=1025, k=129))
    assert type(covered) is bytearray and not isinstance(blocks, list)


def _pair_runs_edge_instances():
    """Tables of exactly one run and of one pair more, and the NaN
    instances with an infinite TD coordinate added."""
    rng = np.random.default_rng(8193)
    for m, n in ((8, 1024), (3, 2731)):
        assert m * n in (baselines._FIRST_RUN, baselines._FIRST_RUN + 1)
        yield random_instance(rng, m=m, n=n, k=n)
        yield Instance.from_coords(aps=rng.integers(0, 12, (m, 2)).tolist(),
                                   tds=rng.integers(0, 12, (n, 2)).tolist(), k=n)
    for nan_aps in (0, 20, 30):
        inst = _nan_instance(nan_aps)
        yield inst
        tds = inst.td_xy.copy()
        tds[3] = (np.inf, -np.inf)
        yield Instance.from_coords(aps=inst.ap_xy, tds=tds, k=inst.k)
        yield Instance.from_coords(aps=inst.ap_xy[:2], tds=tds[:8], k=4)  # one block


def _joined(blocks):
    """A stream of blocks as one ``(u0 list, a0 list)``."""
    u0s, a0s = [], []
    for u0, a0 in blocks:
        u0s += u0
        a0s += a0
    return u0s, a0s


def _scan(inst, covered, blocks):
    """The pairs ``(u0, a0)`` that NCA's scan assigns, in order, replayed
    over one stream of blocks and the flags it consults."""
    spare = [inst.k] * inst.m
    assigned = []
    for u0s, a0s in blocks:
        for u0, a0 in zip(u0s, a0s):
            if covered[u0] or spare[a0] == 0:
                continue
            covered[u0] = True
            spare[a0] -= 1
            assigned.append((u0, a0))
            if len(assigned) == inst.n:
                return assigned
    return assigned


def test_pair_runs_match_the_one_row_table_reference():
    # NCA's flat rows give the order and flag types of the (1, N) tables
    # they replaced, ties, NaN and inf radii included: block for block on a
    # table of one block.  A larger table draws its runs by other bounds,
    # so there the unflagged blocks match as one concatenation, and the
    # pairs NCA's scan assigns from each stream match.
    sizes = set()
    with np.errstate(invalid="ignore"):
        for inst in itertools.chain(_nca_differential_instances(), _pair_runs_edge_instances()):
            covered, blocks = baselines.pair_runs(inst)
            ref_covered, ref_blocks = pair_runs_reference(inst)
            assert type(covered) is type(ref_covered) and type(blocks) is type(ref_blocks)
            assert covered == ref_covered
            blocks, ref_blocks = list(blocks), list(ref_blocks)
            if inst.m * inst.n <= baselines._FIRST_RUN:
                assert blocks == ref_blocks, inst
            else:
                assert _joined(blocks) == _joined(ref_blocks), inst
                assert _scan(inst, *baselines.pair_runs(inst)) == \
                    _scan(inst, *pair_runs_reference(inst)), inst
            sizes.add(inst.m * inst.n)
    assert {baselines._FIRST_RUN, baselines._FIRST_RUN + 1} <= sizes


def test_pair_run_bound_can_split_equal_radii(monkeypatch):
    # A run closes with every pair of its bound's radius, so on a grid of
    # integer radii a bound falls on a radius that many pairs share, and
    # the run ends with all of them.
    inst = _multi_run_instances()["grid"]
    ranked = np.sort(key_fields(inst)[0], axis=None)
    ends = np.cumsum([len(run) for run in _flat_runs(inst, monkeypatch)])[:-1]
    assert ends.tolist() == [8542]
    assert (ranked[ends - 1] < ranked[ends]).all()
    assert (ranked[ends - 2] == ranked[ends - 1]).all()


def test_pair_runs_of_coincident_points_are_all_in_the_last_run(monkeypatch):
    # Every radius is 0, so the first bound is 0 and its run, the only one,
    # holds every pair.
    inst = _multi_run_instances()["coincident"]
    sizes = [len(run) for run in _flat_runs(inst, monkeypatch)]
    assert sizes == [inst.m * inst.n]


def test_pair_run_bound_at_a_tied_least_radius_takes_the_tied_pairs(monkeypatch):
    # Half the 40 000 radii are 0, so the first bound is 0: the first run
    # is exactly the pairs of radius 0.
    rng = np.random.default_rng(1729)
    inst = Instance.from_coords(aps=[(3.5, -2.0)] * 20 + rng.uniform(-9, 9, (20, 2)).tolist(),
                                tds=[(3.5, -2.0)] * 1000, k=50)
    runs = _flat_runs(inst, monkeypatch)
    rsq = key_fields(inst)[0].T.ravel()
    assert np.array_equal(np.sort(runs[0]), np.flatnonzero(rsq == 0))
    assert len(runs) > 1
    _assert_radius_bands(inst, runs)


@pytest.mark.parametrize("nan_aps", [0, 20, 30])
def test_pair_runs_permute_all_pairs_with_nan_coordinates(nan_aps, monkeypatch):
    # Validation skipped: the samples drop NaN radii, so once a bound's rank
    # falls past the finite ones sampled, one run holds every pair left, the
    # NaN ones last (30 of 40 APs: the first run; 20: the second).
    inst = _nan_instance(nan_aps)
    runs = _flat_runs(inst, monkeypatch)
    assert np.array_equal(np.sort(np.concatenate(runs)), np.arange(inst.m * inst.n))
    assert len(runs) == {0: 3, 20: 2, 30: 1}[nan_aps]
    with np.errstate(invalid="ignore"):
        _assert_radius_bands(inst, runs)


def _nan_instance(nan_aps, k=40):
    rng = np.random.default_rng(nan_aps)
    aps = rng.random((40, 2)) * 40
    tds = rng.random((300 if nan_aps == 30 else 1000, 2)) * 40
    aps[:nan_aps, 1] = np.nan
    tds[7, 0] = np.nan
    return Instance.from_coords(aps=aps, tds=tds, k=k)


@pytest.mark.parametrize("nan_aps", [0, 20, 30])
def test_nca_matches_reference_with_nan_coordinates(nan_aps):
    # Validation skipped: NaN radii take the stable key sort, so pairs of
    # NaN radius keep their (TD, AP) order however a run is cut.
    for k in (40, 300):
        inst = _nan_instance(nan_aps, k)
        sol, expected = solve_nca(inst), nca_reference(inst)
        assert sol.selected == expected.selected
        assert sol.coverage == expected.coverage
        assert repr(sol.total_power) == repr(expected.total_power)


def _assert_unflagged_when_drawn(drawn, flagged):
    """Each block holds only pairs of TDs unflagged when it was drawn."""
    assert len(drawn) == len(flagged)
    for (u0s, _), done in zip(drawn, flagged):
        assert done.isdisjoint(u0s)


def test_nca_stops_drawing_runs_once_every_td_is_covered(monkeypatch):
    cfg = ExperimentConfig(n=1000, m=40, k=40, side=40.0, trials=1, seed=1729)
    inst = generate_instance(cfg, 0)
    flagged = []
    drawn = _record_blocks(monkeypatch, flagged)
    sol = solve_nca(inst)
    assert check_feasible(sol, inst) == []
    # The first run's pairs come in 9 blocks of at most 1024, each after
    # the first cut to the TDs still uncovered; the last 3 TDs take the
    # second run, their 75 pairs left, and the scan draws no other run.
    assert _sizes(drawn) == [1024, 396, 139, 71, 36, 12, 8, 1, 1, 75]
    assert sum(_sizes(drawn)) == 1763
    _assert_unflagged_when_drawn(drawn, flagged)
    runs = _record_blocks(monkeypatch)
    monkeypatch.setattr(baselines, "_MIN_BLOCK", inst.m * inst.n + 1)
    assert solve_nca(inst) == sol
    assert len(runs) == 2
    assert len(_flat_runs(inst, monkeypatch)) == 3


def test_nca_skips_no_pair_it_needs_in_later_blocks_and_runs(monkeypatch):
    # TDs whose nearest AP filled before their first pair was reached are
    # assigned by a pair of a later block of the same run, or of a later
    # run, and the solutions match the one-shot order.  Each pair is
    # labelled by the run it was drawn in, recorded with blocks too long
    # to split a run.
    cfg = ExperimentConfig(n=1000, m=40, k=40, side=40.0, trials=1, seed=1729)
    counts = []
    for inst in (generate_instance(cfg, 0), _multi_run_instances()["tight"]):
        with monkeypatch.context() as patch:
            patch.setattr(baselines, "_MIN_BLOCK", inst.m * inst.n + 1)
            runs = _record_blocks(patch)
            sol = solve_nca(inst)
        run_of = {pair: r for r, (u0s, a0s) in enumerate(runs) for pair in zip(u0s, a0s)}
        later = {"block": 0, "run": 0}
        drawn = _record_blocks(monkeypatch)
        assert solve_nca(inst) == sol
        assert solution_to_json(sol, inst) == solution_to_json(nca_reference(inst), inst)
        where, first = {}, {}
        for j, (u0s, a0s) in enumerate(drawn):
            for u0, a0 in zip(u0s, a0s):
                where[u0, a0] = j
                first.setdefault(u0, (j, a0))
        for ap_id, tds in sol.coverage.items():
            for u in tds:
                # AP a0 was full when the TD's first pair came in block j
                j, a0 = first[u - 1]
                if a0 != ap_id - 1 and where[u - 1, ap_id - 1] > j:
                    later_run = run_of[u - 1, ap_id - 1] > run_of[u - 1, a0]
                    later["run" if later_run else "block"] += 1
        counts.append(later)
    assert counts == [{"block": 26, "run": 2}, {"block": 96, "run": 127}]


def test_nca_tight_capacity_reaches_the_last_run(monkeypatch):
    inst = _multi_run_instances()["tight"]  # m*k = n
    drawn = _record_blocks(monkeypatch)
    expected = solution_to_json(nca_reference(inst), inst)
    assert solution_to_json(solve_nca(inst), inst) == expected
    # a first run of 8 blocks, then the last, drawn from the TDs still
    # uncovered, of 5
    assert _sizes(drawn) == [1024, 409, 228, 169, 173, 148, 100, 68, 1024, 303, 211, 111, 48]
    flagged = []
    runs = _record_blocks(monkeypatch, flagged)
    monkeypatch.setattr(baselines, "_MIN_BLOCK", inst.m * inst.n + 1)
    assert solution_to_json(solve_nca(inst), inst) == expected
    assert len(runs) == 2
    _assert_unflagged_when_drawn(runs, flagged)


def test_nca_with_capacity_of_every_td(monkeypatch):
    inst = random_instance(np.random.default_rng(41), m=40, n=1000, k=1000)  # k >= n
    drawn = _record_blocks(monkeypatch)
    expected = solution_to_json(nca_reference(inst), inst)
    assert solution_to_json(solve_nca(inst), inst) == expected
    assert _sizes(drawn) == [1024, 364, 114, 48, 8, 7]


def test_nca_on_coincident_points_reaches_the_last_run(monkeypatch):
    inst = _multi_run_instances()["coincident"]
    drawn = _record_blocks(monkeypatch)
    expected = solution_to_json(nca_reference(inst), inst)
    assert solution_to_json(solve_nca(inst), inst) == expected
    # every radius is 0, so the first run, the last that holds pairs, is
    # every pair
    assert _sizes(drawn) == [1024, 1008, 1012, 1016, 1020, 1024, 1024, 1012, 1016,
                             1020, 1024, 1024, 1024, 1024, 1020, 1024, 1024, 1024, 1024, 544]


def test_nca_infeasible_after_every_run_without_validation(monkeypatch):
    inst = random_instance(np.random.default_rng(31), m=40, n=1000, k=20)  # m*k < n
    drawn = _record_blocks(monkeypatch)
    with pytest.raises(InfeasibleInstanceError):
        solve_nca(inst)
    # both runs are drawn: the first in 9 blocks, then the last, drawn from
    # the TDs still uncovered, in 8, each cut again
    assert _sizes(drawn) == [1024, 436, 296, 232, 207, 186, 168, 160, 25,
                             1024, 950, 977, 977, 994, 997, 1008, 135]
    assert sum(_sizes(drawn)) == 9796  # of 40 000
    flagged = []
    runs = _record_blocks(monkeypatch, flagged)
    monkeypatch.setattr(baselines, "_MIN_BLOCK", inst.m * inst.n + 1)
    with pytest.raises(InfeasibleInstanceError):
        solve_nca(inst)
    assert len(runs) == 2
    _assert_unflagged_when_drawn(runs, flagged)


def test_nca_memory_stays_below_24_bytes_a_pair():
    # 2 000 000 pairs: the table of squared radii takes 8 bytes a pair, and
    # a run after the first is drawn from the uncovered TDs' rows alone.
    cfg = ExperimentConfig(n=10_000, m=200, k=60, side=40.0, trials=1, seed=1729)
    inst = generate_instance(cfg, 0)
    tracemalloc.start()
    try:
        sol = solve_nca(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check_feasible(sol, inst) == []
    assert peak < 24 * inst.m * inst.n


def test_nca_without_aps_or_tds():
    with pytest.raises(InfeasibleInstanceError):
        solve_nca(Instance.from_coords(aps=[], tds=[(1, 0)], k=1))
    for aps in ([(0, 0)], []):
        inst = Instance.from_coords(aps=aps, tds=[], k=1)
        assert solve_nca(inst) == Solution({}, {}, 0.0)
        assert baselines.pair_runs(inst) == ([], [([], [])])


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


def test_max_flow_matches_recursive_reference():
    # The arc-stack augmentation must route every unit along the same
    # arcs as the recursive form: equal flow and equal residual arcs, on
    # AP/TD networks and on random digraphs with larger capacities.
    rng = np.random.default_rng(31)
    for trial in range(300):
        nodes = int(rng.integers(2, 12))
        arcs = []
        if trial % 2:
            q, n, k = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
            nodes = q + n + 2
            arcs += [(0, 1 + j, k) for j in range(q)]
            arcs += [(1 + j, 1 + q + u, 1) for j in range(q) for u in range(n) if rng.random() < 0.5]
            arcs += [(1 + q + u, nodes - 1, 1) for u in range(n)]
        else:
            for _ in range(int(rng.integers(1, 4 * nodes))):
                u, v = (int(x) for x in rng.integers(0, nodes, 2))
                arcs.append((u, v, int(rng.integers(0, 5))))
        nets = [FlowNetworkReference(nodes), FlowNetworkReference(nodes)]
        for net in nets:
            for arc in arcs:
                net.add_edge(*arc)
        flow = nets[0].max_flow(0, nodes - 1)
        assert flow == max_flow_reference(nets[1], 0, nodes - 1), arcs
        assert nets[0].cap == nets[1].cap, arcs


def _flow_against_reference(masks, k, n):
    """Run FlowNetwork on one mask set and check it against the arc-list
    reference: equal verdicts, and the reference's assignment as
    ``owner`` when it is feasible.  Returns the verdict."""
    net = FlowNetwork(masks, k, n)
    flow = net.max_flow()
    reference = flow_assign_reference(list(range(len(masks))), masks, k, n)
    assert (flow == n) == (reference is not None), (masks, k, n)
    held = [0] * len(masks)
    for u0, j in enumerate(net.owner):
        if j >= 0:
            assert masks[j] >> u0 & 1
            held[j] += 1
    assert held == net.load and max(held, default=0) <= k and sum(held) == flow
    if reference is not None:
        expected = [-1] * n
        for j, tds in reference.items():
            for u in tds:
                expected[u - 1] = j
        assert net.owner == expected, (masks, k, n)
    return flow == n


def test_flow_network_matches_the_arc_list_reference():
    # The owner/load Dinic must make the arc-list network's augmentations:
    # exact's solution bytes are read from the owners it leaves.
    rng = np.random.default_rng(4096)
    verdicts = {True: 0, False: 0}
    hall_bound = 0  # infeasible with every TD inside and q·k >= n
    for i in range(2400):
        q, n = int(rng.integers(0, 41)), int(rng.integers(0, 201))
        # every other case sets k near n / q, where Hall's condition binds
        tight = -(-n // max(q, 1)) + int(rng.integers(0, 3))
        k = int(rng.integers(1, 31)) if i % 2 else min(max(tight, 1), 30)
        if i % 4 < 2:
            inside = rng.random((q, n)) < rng.random()
        else:  # disks: AP j holds the TDs within a random radius of it
            dist = np.hypot(*(rng.random((2, q, 1)) - rng.random((2, 1, n))))
            inside = dist <= rng.random((q, 1)) * 0.6
        masks = [sum(1 << u0 for u0 in np.flatnonzero(row).tolist()) for row in inside]
        feasible = _flow_against_reference(masks, k, n)
        verdicts[feasible] += 1
        hall_bound += not feasible and inside.any(axis=0).all() and q * k >= n
    assert min(verdicts.values()) >= 1000 and hall_bound >= 100, (verdicts, hall_bound)
    # the prefix masks that exact's leaves and final flow receive
    verdicts = {True: 0, False: 0}
    for inst in itertools.chain(_exact_differential_instances(), _hall_shape_instances()):
        table = disk_order(inst)
        choices = [_choice_list(p, o, inst.k)
                   for p, o in zip(table.power.tolist(), table.order.tolist())]
        for _ in range(6):
            masks = [c[int(rng.integers(len(c)))][2] for c in choices]
            verdicts[_flow_against_reference([m for m in masks if m], inst.k, inst.n)] += 1
    assert min(verdicts.values()) >= 1000, verdicts


def test_flow_network_augments_past_the_recursion_limit(monkeypatch):
    # AP j < q - 1 holds TDs j and j + 1, AP q - 1 only TD 0, k = 1.  The
    # first phase gives each AP j < q - 1 TD j; the one augmenting path
    # of the second runs from AP q - 1 through every AP to TD q - 1.
    q = sys.getrecursionlimit() + 1
    masks = [3 << j for j in range(q - 1)] + [1]
    assert _flow_against_reference(masks, 1, q)
    net = FlowNetwork(masks, 1, q)
    assert net.max_flow() == q
    assert net.owner == [q - 1, *range(q - 1)]
    # a recursive walk cannot follow that path
    monkeypatch.setattr(FlowNetworkReference, "max_flow", max_flow_reference)
    with pytest.raises(RecursionError):
        flow_assign_reference(list(range(q)), masks, 1, q)


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


@pytest.mark.parametrize("hall_max_aps", [baselines._HALL_MAX_APS, 0], ids=["hall", "flow"])
def test_exact_matches_rerun_reference_bytes(monkeypatch, hall_max_aps):
    # Both sides of the leaf test's selection: Hall's condition up to the
    # real bound, and max flow at every leaf when the bound is 0.
    monkeypatch.setattr(baselines, "_HALL_MAX_APS", hall_max_aps)
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


def _budget_sweep_instances():
    """Small instances with m = 1 to 5 APs, a few of each: every node
    budget of theirs is cheap to run."""
    rng = np.random.default_rng(2029)
    for i in range(25):
        m = i % 5 + 1
        n = int(rng.integers(1, 5))
        k = int(rng.integers(-(-n // m), n + 1))
        if i % 2:
            aps, tds = rng.integers(0, 3, (m, 2)).tolist(), rng.integers(0, 3, (n, 2)).tolist()
        else:
            aps, tds = (rng.random((m, 2)) * 40).tolist(), (rng.random((n, 2)) * 40).tolist()
        yield Instance.from_coords(aps=aps, tds=tds, k=k,
                                   power_alpha=float(rng.choice([1.0, 2.0, 4.0])))


@pytest.mark.parametrize("hall_max_aps", [baselines._HALL_MAX_APS, 0], ids=["hall", "flow"])
def test_exact_matches_reference_at_every_node_budget(monkeypatch, hall_max_aps):
    # Every budget from 0 to one past the full count, so budget hits fall
    # at every depth, inside the scan of the last two APs included, and
    # each keeps the incumbent the reference holds there.
    monkeypatch.setattr(baselines, "_HALL_MAX_APS", hall_max_aps)
    aps_seen, cases, incumbents = set(), 0, 0
    for inst in _budget_sweep_instances():
        full = solve_exact(inst).nodes_explored
        for max_nodes in range(full + 2):
            budget = ExactBudget(max_nodes=max_nodes, max_seconds=600)
            expected = _exact_outcome(exact_reference(inst, budget), inst)
            assert _exact_outcome(solve_exact(inst, budget), inst) == expected, (inst, max_nodes)
            assert (expected[0] == STATUS_OPTIMAL) == (max_nodes >= full)
            cases += 1
            incumbents += expected[0] == STATUS_BUDGET_EXCEEDED and expected[2] is not None
        aps_seen.add(inst.m)
    assert aps_seen == {1, 2, 3, 4, 5}
    assert cases >= 500 and incumbents >= 100, (cases, incumbents)


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


def _hall_shape_instances():
    """Instances with up to ``_HALL_MAX_APS`` APs and few TDs, so that
    Hall's condition runs at its largest number of chosen disks."""
    rng = np.random.default_rng(808)
    for i in range(60):
        m = int(rng.integers(5, baselines._HALL_MAX_APS + 1)) if i % 2 else baselines._HALL_MAX_APS
        n = int(rng.integers(1, m + 3))
        k = -(-n // m)
        grid = 4 if i % 3 else 40
        yield Instance.from_coords(aps=(rng.random((m, 2)) * grid).tolist(),
                                   tds=(rng.random((n, 2)) * grid).tolist(), k=k)


def test_exact_mask_screen_rejects_only_flow_infeasible_leaves():
    # solve_exact skips a leaf when its disks' TD masks miss a TD or
    # their servable counts sum below n.  Random choice vectors on the
    # differential shapes and on shapes with up to _HALL_MAX_APS APs: a
    # rejected vector must be flow-infeasible, a passed one goes to the
    # same flow as assignment_feasible, and Hall's verdict equals the
    # flow's on every vector.
    rng = np.random.default_rng(2024)
    rejected = passed = passed_feasible = tight_feasible = 0
    largest_q = {True: 0, False: 0}  # Hall's verdicts at q = _HALL_MAX_APS
    for inst in itertools.chain(_exact_differential_instances(), _hall_shape_instances()):
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
            p_none = 0.2 if m <= 4 else 0.05
            vector = [None if rng.random() < p_none else int(rng.integers(n)) for _ in range(m)]
            union = cap = 0
            for a0, u0 in enumerate(vector):
                union |= choices[a0][u0][0]
                cap += choices[a0][u0][1]
            aps = [a0 + 1 for a0, u0 in enumerate(vector) if u0 is not None]
            masks = [choices[a - 1][vector[a - 1]][0] for a in aps]
            flow = flow_assign_reference(aps, masks, k, n)
            hall = _hall_feasible(masks, k, n)
            assert hall == (flow is not None), (inst, vector)
            if len(aps) == baselines._HALL_MAX_APS:
                largest_q[hall] += 1
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
    assert min(largest_q.values()) >= 10, largest_q


def test_exact_runs_one_max_flow_per_solution(monkeypatch):
    # Leaves are decided by Hall's condition; only the final incumbent's
    # assignment is built by max flow, once per solve that returns one.
    calls = [0]
    max_flow = FlowNetwork.max_flow

    def counted(self, *args):
        calls[0] += 1
        return max_flow(self, *args)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    solved = empty = 0
    for i, inst in enumerate(_exact_differential_instances()):
        budgets = [None]
        if i % 3 == 0:
            full = solve_exact(inst).nodes_explored
            budgets += [ExactBudget(max_nodes=b, max_seconds=600) for b in (full // 2, 0)]
        for budget in budgets:
            calls[0] = 0
            res = solve_exact(inst, budget)
            assert calls[0] == (res.solution is not None), (inst, budget)
            solved += res.solution is not None
            empty += res.solution is None
    assert solved >= 300 and empty >= 100


def _far_apart_aps_instance():
    # 1500 APs and one TD: the search descends 1500 levels before its
    # first leaf, past the interpreter's default recursion limit.
    rng = np.random.default_rng(3)
    return Instance.from_coords(aps=(rng.random((1500, 2)) * 40).tolist(),
                                tds=[(20.0, 20.0)], k=1)


def test_exact_search_depth_is_not_bounded_by_recursion():
    inst = _far_apart_aps_instance()
    hit = solve_exact(inst, ExactBudget(max_nodes=5000))
    assert (hit.status, hit.nodes_explored) == (STATUS_BUDGET_EXCEEDED, 5001)
    assert check_feasible(hit.solution, inst) == []
    res = solve_exact(inst)
    assert res.status == STATUS_OPTIMAL
    assert res.solution.total_power == disk_order(inst).power.min()
    assert hit.solution.total_power > res.solution.total_power


def test_exact_refuses_a_set_up_past_its_byte_limit(monkeypatch):
    # One AP and 10^6 TDs, within MAX_DISKS: the TD bitmasks would take
    # about 62 GB, so solve_exact reports the budget exceeded at once.
    rng = np.random.default_rng(1729)
    inst = Instance.from_coords(aps=rng.random((1, 2)) * 40, tds=rng.random((10**6, 2)) * 40,
                                k=10**6)
    t0 = time.perf_counter()
    res = solve_exact(inst)
    assert time.perf_counter() - t0 < 0.5
    assert (res.status, res.solution, res.nodes_explored) == (STATUS_BUDGET_EXCEEDED, None, 0)
    # The limit compares m·n²/8 bytes, rounded down, with _MAX_SETUP_BYTES.
    small = random_instance(rng, m=4, n=5, k=2)
    monkeypatch.setattr(baselines, "_MAX_SETUP_BYTES", 4 * 5**2 // 8)
    assert solve_exact(small).status == STATUS_OPTIMAL
    monkeypatch.setattr(baselines, "_MAX_SETUP_BYTES", 4 * 5**2 // 8 - 1)
    assert solve_exact(small).nodes_explored == 0


def _power_rank_order(table, a0):
    """AP a0's TD indices sorted by (power, rank), the choice order's spec."""
    order, power = table.order[a0].tolist(), table.power[a0].tolist()
    return [order[r] for r in sorted(range(len(power)), key=lambda r: (power[r], r))]


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
    power[1] = power[1, ::-1]
    power[2] = [30.0, 30.0, 20.0, 20.0, 10.0, 10.0]
    patched = dataclasses.replace(table, power=power)
    for a0 in range(inst.m):
        assert _choice_order(patched, a0, inst.k) == [None, *_power_rank_order(patched, a0)]
    assert _choice_order(patched, 1, inst.k)[1:] == table.order[1].tolist()[::-1]
    monkeypatch.setattr("mpcc.baselines.disk_order", lambda _: patched)
    monkeypatch.setattr("oracles.disk_order", lambda _: patched)
    assert _exact_outcome(solve_exact(inst), inst) == _exact_outcome(exact_reference(inst), inst)


def test_choice_list_equals_the_stable_sort_by_power():
    # A row whose powers never fall skips the sort; every kind of row must
    # still equal the plain stable sort of its rank walk by power.  NaN
    # fails the <= test, so a row holding one is sorted, NaN's order too.
    order, k = [3, 0, 4, 1, 2], 2
    rows = {
        "equal": [2.5] * 5,
        "rising": [1.0, 2.0, 3.5, 3.75, 9.0],
        "falling": [9.0, 3.75, 3.5, 2.0, 1.0],
        "nan": [3.0, math.nan, 2.0, 1.0, math.nan],
    }
    moved = set()
    for name, power in rows.items():
        walk, mask = [], 0
        for r, (u0, p) in enumerate(zip(order, power)):
            mask |= 1 << u0
            walk.append((u0, p, mask, min(k, r + 1)))
        expected = [(None, 0.0, 0, 0), *sorted(walk, key=lambda choice: choice[1])]
        assert repr(_choice_list(power, order, k)) == repr(expected), name
        if expected[1:] != walk:
            moved.add(name)
    assert moved == {"falling", "nan"}


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


def test_exact_without_aps_or_tds():
    # Unvalidated corner shapes: with no AP the root is the only leaf.
    with pytest.raises(InfeasibleInstanceError):
        solve_exact(Instance.from_coords(aps=[], tds=[(1, 0)], k=1))
    for aps in ([], [(0, 0)], [(0, 0), (1, 1)]):
        inst = Instance.from_coords(aps=aps, tds=[], k=1)
        res = solve_exact(inst)
        assert (res.status, res.nodes_explored) == (STATUS_OPTIMAL, len(aps) + 1)
        assert res.solution == Solution({}, {}, 0.0)
        res = solve_exact(inst, ExactBudget(max_nodes=0))
        assert (res.status, res.nodes_explored, res.solution) == (STATUS_BUDGET_EXCEEDED, 1, None)


def test_exact_infeasible_instance_raises():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (2, 0)], k=1)
    with pytest.raises(InfeasibleInstanceError):
        solve_exact(inst)
