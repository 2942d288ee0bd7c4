import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcc import (
    DiskOrder,
    ExperimentConfig,
    Instance,
    Solution,
    check_feasible,
    disk_geometry,
    disk_order,
    generate_instance,
    solve_exact,
    solve_mlr,
    solve_nca,
    validate_instance,
)
from mpcc import model
from mpcc.model import power_of

from oracles import (
    check_feasible_reference,
    contains,
    disk_key,
    key_fields,
    outside_reference,
    validate_reference,
)

# Integer coordinates keep squared distances and translations exact in
# floating point, so order and invariance properties can be asserted
# without tolerances.
coord = st.integers(min_value=-200, max_value=200)
int_point = st.tuples(coord, coord)


def inst_around(ap, tds, k=100, power_c=1.0, power_alpha=2.0):
    return Instance.from_coords(aps=[ap], tds=tds, k=k,
                                power_c=power_c, power_alpha=power_alpha)


def test_distance_sq_examples():
    def rsq(p, q):
        return disk_geometry(Instance.from_coords(aps=[p], tds=[q], k=1), 1, 1)[0]

    assert rsq((0, 0), (3, 4)) == 25
    assert rsq((1, 1), (1, 1)) == 0
    assert rsq((0, 0), (1, 1)) == 2


def test_power_of_examples():
    assert power_of(25, 1, 2) == 25
    assert power_of(0, 7, 3) == 0
    assert power_of(4, 1, 3) == 8


def inside(table, ap_id, disk_td, td_id) -> bool:
    """Rank containment: disk (ap_id, disk_td) contains TD td_id."""
    rank = table.rank[ap_id - 1]
    return bool(rank[td_id - 1] <= rank[disk_td - 1])


def test_family_size_and_order():
    inst = Instance.from_coords(
        aps=[(0, 0), (5, 5)], tds=[(1, 0), (2, 2), (3, 1)], k=3
    )
    table = disk_order(inst)
    rsq = key_fields(inst)[0]
    for arr in (table.order, table.power, table.rank, rsq):
        assert arr.shape == (2, 3)
    for a in (1, 2):
        assert sorted(table.order[a - 1]) == [0, 1, 2]
        for u in (1, 2, 3):
            # disk (a, u) is row a - 1's rank-r entry, and rsq's column u - 1
            r = table.rank[a - 1, u - 1]
            assert (rsq[a - 1, u - 1], table.power[a - 1, r]) == disk_geometry(inst, a, u)
            assert table.order[a - 1, r] == u - 1


@pytest.mark.parametrize("ap_id, td_id, name", [
    (0, 1, "AP 0"), (-1, 1, "AP -1"), (3, 1, "AP 3"),
    (1, 0, "TD 0"), (2, -2, "TD -2"), (1, 4, "TD 4"),
])
def test_disk_geometry_refuses_ids_outside_the_instance(ap_id, td_id, name):
    # A zero or negative id would read another row through negative
    # indexing, and an id past the end would raise a bare IndexError.
    inst = Instance.from_coords(aps=[(0, 0), (5, 5)], tds=[(1, 0), (2, 2), (3, 1)], k=3)
    with pytest.raises(ValueError, match=f"^unknown {name}$"):
        disk_geometry(inst, ap_id, td_id)


def test_single_pair_disk_power():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(3, 4)], k=1)
    table = disk_order(inst)
    assert table.power[0, 0] == 25
    assert key_fields(inst)[0][0, 0] == 25


def test_mirror_x_pair_gets_distinct_keys():
    inst = inst_around((0, 0), [(1, 0), (-1, 0)])
    table = disk_order(inst)
    rsq, cos, _ = key_fields(inst)
    assert rsq[0, 0] == rsq[0, 1] == 1
    assert cos[0, 0] == 1.0
    assert cos[0, 1] == -1.0
    assert table.rank[0, 1] < table.rank[0, 0]


def test_contains_equal_radius_ordering():
    table = disk_order(inst_around((0, 0), [(1, 0), (-1, 0)]))
    assert inside(table, 1, 1, 2)       # the greater-keyed disk takes both
    assert not inside(table, 1, 2, 1)   # the lesser only its own boundary
    assert inside(table, 1, 1, 1)
    assert inside(table, 1, 2, 2)


def test_validate_accepts_experiment_scale():
    import numpy as np

    rng = np.random.default_rng(3)
    inst = Instance.from_coords(
        aps=(rng.random((4, 2)) * 40).tolist(),
        tds=(rng.random((100, 2)) * 40).tolist(),
        k=25,
    )
    assert validate_instance(inst) == []


def test_validate_reports_capacity_shortfall():
    inst = Instance.from_coords(aps=[(0, 0), (1, 1)], tds=[(0, 0)] * 5, k=2)
    assert any("m*k" in v for v in validate_instance(inst))


def test_validate_reports_empty_sets_and_bad_constants():
    inst = Instance.from_coords(aps=[(0.0, 0.0)], tds=[], k=0, power_c=-1.0,
                                power_alpha=9.0)
    violations = validate_instance(inst)
    assert any("no TDs" in v for v in violations)
    assert any("k=0" in v for v in violations)
    assert any("c=-1" in v for v in violations)
    assert any("alpha=9" in v for v in violations)


def test_validate_reports_nonfinite_coordinates():
    inst = Instance.from_coords(aps=[(math.nan, 0.0)], tds=[(0.0, 0.0)], k=1)
    assert any("non-finite" in v for v in validate_instance(inst))


def test_validate_lists_nonfinite_points_aps_first_in_id_order():
    inst = Instance.from_coords(aps=[(0.0, 0.0), (math.nan, 1.0)],
                                tds=[(math.inf, 0.0), (1.0, 1.0), (2.0, -math.inf)],
                                k=2)
    assert validate_instance(inst) == [
        "AP 2 has non-finite coordinates",
        "TD 1 has non-finite coordinates",
        "TD 3 has non-finite coordinates",
    ]


def test_validate_reports_summed_power_beyond_the_float_range():
    # each disk fits the float range; the two APs' largest disks sum past it
    def two_aps(c):
        return Instance.from_coords(aps=[(0, 0), (0, 0)], tds=[(1, 0), (-1, 0)], k=1,
                                    power_c=c)

    assert validate_instance(two_aps(1e308)) == [
        "the largest disks of the 2 APs have a total power beyond the float range"
    ]
    assert validate_instance(two_aps(5e307)) == []


def _validation_cases():
    """The instances of the validation tests, then instances at the float
    range's edge: coordinates of 1e153 to 1e155, whose squared radii and
    powers overflow for some pairs or only for the bounding boxes'
    diagonal."""
    rng = np.random.default_rng(3)
    yield Instance.from_coords(aps=rng.random((4, 2)) * 40, tds=rng.random((100, 2)) * 40,
                               k=25)
    yield Instance.from_coords(aps=[(0, 0), (1, 1)], tds=[(0, 0)] * 5, k=2)
    yield Instance.from_coords(aps=[(0.0, 0.0)], tds=[], k=0, power_c=-1.0, power_alpha=9.0)
    yield Instance.from_coords(aps=[(math.nan, 0.0)], tds=[(0.0, 0.0)], k=1)
    yield Instance.from_coords(aps=[(0.0, 0.0), (math.nan, 1.0)],
                               tds=[(math.inf, 0.0), (1.0, 1.0), (2.0, -math.inf)], k=2)
    for c in (1e308, 5e307):
        yield Instance.from_coords(aps=[(0, 0), (0, 0)], tds=[(1, 0), (-1, 0)], k=1,
                                   power_c=c)
    yield Instance.from_coords(aps=[(0, 0)], tds=[(1e200, 0), (1, 0)], k=2)
    for m in (1, 20):
        yield Instance.from_coords(aps=np.zeros((m, 2)), tds=[(0.7, 0.7)], k=1,
                                   power_c=1.7e308)
    # The boxes' diagonal overflows, yet no pair is that far apart.
    yield Instance.from_coords(aps=[(1e154, 0), (0, 1e154)], tds=[(0, 0)], k=1)
    for scale in (1e153, 4e153, 1e154, 7e154, 1e155):
        for alpha in (1.0, 2.0, 2.5, 5.0):
            for c in (1e-300, 0.3, 1e150, 1e300):
                for m in (1, 2, 40, 1000):
                    aps = (rng.random((m, 2)) - 0.5) * scale
                    tds = (rng.random((3, 2)) - 0.5) * scale
                    yield Instance.from_coords(aps=aps, tds=tds, k=3, power_c=c,
                                               power_alpha=alpha)


def test_validate_matches_the_full_pass_reference(monkeypatch):
    full_passes = []
    real = model._boundary_vectors
    monkeypatch.setattr(model, "_boundary_vectors",
                        lambda inst: full_passes.append(inst) or real(inst))
    tally = {}
    for inst in _validation_cases():
        expected = validate_reference(inst)
        before = len(full_passes)
        assert validate_instance(inst) == expected, inst
        outcome = expected[-1].split(" (")[0] if expected else "valid"
        if "largest" in outcome or outcome == "valid":
            key = (outcome.replace("the largest ", ""), len(full_passes) > before)
            tally[key] = tally.get(key, 0) + 1
    # (outcome, whether the full pass ran): valid instances whose boxes'
    # diagonal overflows take the full pass, and every refusal comes from it
    assert tally == {
        ("valid", False): 56,
        ("valid", True): 3,
        ("candidate disk", True): 261,
        **{(f"disks of the {m} APs have a total power beyond the float range", True): count
           for m, count in ((2, 2), (20, 1), (40, 1), (1000, 3))},
    }


def test_validate_skips_the_full_pass_when_the_box_fits(monkeypatch):
    def refuse(inst):
        raise AssertionError("validate_instance built every boundary vector")

    monkeypatch.setattr(model, "_boundary_vectors", refuse)
    rng = np.random.default_rng(5)
    inst = Instance.from_coords(aps=rng.random((40, 2)) * 40, tds=rng.random((1000, 2)) * 40,
                                k=40)
    assert validate_instance(inst) == []


def test_instance_coordinates_are_read_only_float64_rows():
    inst = Instance.from_coords(aps=[(0, 1)], tds=[(2, 3), (4, 5)], k=2)
    assert inst.ap_xy.dtype == inst.td_xy.dtype == np.float64
    assert inst.ap_xy.tolist() == [[0.0, 1.0]]
    assert inst.td_xy.tolist() == [[2.0, 3.0], [4.0, 5.0]]
    with pytest.raises(ValueError):
        inst.ap_xy[0, 0] = 9.0
    with pytest.raises(ValueError):
        inst.td_xy[1] = (9.0, 9.0)


def test_from_coords_copies_its_input():
    aps = np.array([[0.0, 1.0]])
    tds = np.array([[2.0, 3.0]])
    inst = Instance.from_coords(aps=aps, tds=tds, k=1)
    aps[0, 0] = tds[0, 1] = 99.0
    assert inst == Instance.from_coords(aps=[(0, 1)], tds=[(2, 3)], k=1)


@pytest.mark.parametrize("points", [
    [(1, 2, 3)],
    [(1, 2, 3, 4)],
    [(1,), (2,)],
    [(1, 2), (3,)],
    [1, 2],
])
def test_from_coords_rejects_anything_but_xy_pairs(points):
    with pytest.raises(ValueError):
        Instance.from_coords(aps=points, tds=[(0, 0)], k=1)
    with pytest.raises(ValueError):
        Instance.from_coords(aps=[(0, 0)], tds=points, k=1)


def test_from_coords_empty_list_has_no_rows():
    inst = Instance.from_coords(aps=[], tds=[], k=1)
    assert inst.ap_xy.shape == inst.td_xy.shape == (0, 2)
    assert inst.m == inst.n == 0


@pytest.mark.parametrize("x", [2**53 + 1, 2**63, 2**64 + 12345, 10**30, -2**63 - 5])
def test_from_coords_converts_huge_integers_as_float(x):
    inst = Instance.from_coords(aps=[(x, 0)], tds=[(0, x)], k=1)
    assert inst.ap_xy[0, 0] == inst.td_xy[0, 1] == float(x)


def test_instance_equality_compares_values_and_instances_are_unhashable():
    a = Instance.from_coords(aps=[(0, 1)], tds=[(2, 3)], k=1)
    assert a == Instance.from_coords(aps=[(0.0, 1.0)], tds=[(2.0, 3.0)], k=1)
    assert a != Instance.from_coords(aps=[(0, 1)], tds=[(2, 4)], k=1)
    assert a != Instance.from_coords(aps=[(0, 1)], tds=[(2, 3), (2, 3)], k=1)
    assert a != Instance.from_coords(aps=[(0, 1)], tds=[(2, 3)], k=2)
    assert a != Instance.from_coords(aps=[(0, 1)], tds=[(2, 3)], k=1, power_c=2.0)
    assert a != Instance.from_coords(aps=[(0, 1)], tds=[(2, 3)], k=1, power_alpha=3.0)
    assert a != "instance"
    with pytest.raises(TypeError):
        hash(a)


def _valid_two_ap_solution():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0)], k=1)
    sol = Solution(
        selected={1: 1, 2: 2},
        coverage={1: frozenset({1}), 2: frozenset({2})},
        total_power=2.0,
    )
    return inst, sol


def test_from_picks_builds_in_ascending_ap_order():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0), (0.1, 0.2)],
                                tds=[(1, 0), (9, 0), (0.3, 0.1)], k=1)
    sol = Solution.from_picks(inst, {3: 3, 2: 2, 1: 1}, {2: [2], 3: (3,), 1: {1}})
    assert list(sol.selected) == list(sol.coverage) == [1, 2, 3]
    assert sol.selected == {1: 1, 2: 2, 3: 3}
    assert sol.coverage == {a: frozenset({a}) for a in (1, 2, 3)}
    total = 0.0
    for a in (1, 2, 3):
        total += disk_geometry(inst, a, a)[1]
    assert sol.total_power == total
    assert check_feasible(sol, inst) == []


def test_check_feasible_accepts_valid_solution():
    inst, sol = _valid_two_ap_solution()
    assert check_feasible(sol, inst) == []


def test_check_feasible_flags_capacity_excess():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (2, 0), (3, 0)], k=2)
    sol = Solution(
        selected={1: 3},
        coverage={1: frozenset({1, 2, 3})},
        total_power=9.0,
    )
    # feasibility needs m*k >= n, so this instance is invalid, but the
    # checker still pinpoints the capacity fault
    assert any("capacity" in v for v in check_feasible(sol, inst))


def test_check_feasible_flags_missing_td():
    inst, sol = _valid_two_ap_solution()
    broken = Solution(
        selected=dict(sol.selected),
        coverage={1: frozenset({1}), 2: frozenset()},
        total_power=sol.total_power,
    )
    assert any("TD 2 is not covered" in v for v in check_feasible(broken, inst))


def test_check_feasible_flags_double_coverage():
    inst, sol = _valid_two_ap_solution()
    broken = Solution(
        selected={1: 2, 2: 2},
        coverage={1: frozenset({1, 2}), 2: frozenset({2})},
        total_power=disk_geometry(inst, 1, 2)[1] + disk_geometry(inst, 2, 2)[1],
    )
    assert any("covered by both" in v for v in check_feasible(broken, inst))


def test_check_feasible_flags_outside_disk():
    inst, sol = _valid_two_ap_solution()
    broken = Solution(
        selected={1: 1, 2: 2},
        coverage={1: frozenset({1, 2}), 2: frozenset()},
        total_power=2.0,
    )
    assert any("outside" in v for v in check_feasible(broken, inst))


def test_check_feasible_flags_total_power_mismatch():
    inst, sol = _valid_two_ap_solution()
    broken = Solution(sol.selected, sol.coverage, total_power=3.5)
    assert any("total_power" in v for v in check_feasible(broken, inst))


def test_check_feasible_compares_small_totals_by_relative_tolerance():
    # An absolute tolerance of 1e-12 accepted any stated total below it
    # whatever the disks' powers; here they sum to 9e-20.
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (0, 2), (3, 0)], k=5,
                                power_c=1e-20)
    sol = solve_mlr(inst)
    assert sol.total_power == pytest.approx(9e-20, rel=1e-15)
    for check in (check_feasible, check_feasible_reference):
        assert check(sol, inst) == []
        broken = Solution(sol.selected, sol.coverage, total_power=5e-13)
        assert check(broken, inst) == ["stated total_power 5e-13 disagrees with "
                                       f"selected disks ({sol.total_power!r})"]
    # disks of radius 0 have power 0, and a stated 0 matches it exactly
    inst = Instance.from_coords(aps=[(0, 0), (1, 1)], tds=[(0, 0), (1, 1)], k=1)
    zero = Solution({1: 1, 2: 2}, {1: frozenset({1}), 2: frozenset({2})}, 0.0)
    assert check_feasible(zero, inst) == check_feasible_reference(zero, inst) == []


def test_check_feasible_flags_coverage_without_disk():
    inst, sol = _valid_two_ap_solution()
    broken = Solution(
        selected={1: 1},
        coverage={1: frozenset({1}), 2: frozenset({2})},
        total_power=1.0,
    )
    assert any("selected no disk" in v for v in check_feasible(broken, inst))


# ---------------------------------------------------------------------------
# order and invariance properties


@given(ap=int_point, tds=st.lists(int_point, min_size=2, max_size=8))
def test_key_order_is_strict_and_total(ap, tds):
    inst = inst_around(ap, tds)
    keys = [disk_key(inst, 1, u) for u in range(1, inst.n + 1)]
    rank = disk_order(inst).rank[0]
    assert sorted(rank) == list(range(inst.n))  # strict: no two disks share a rank
    for i in range(len(keys)):
        for j in range(len(keys)):
            if i == j:
                continue
            assert (keys[i] < keys[j]) != (keys[j] < keys[i])  # total, antisymmetric
            assert (keys[i] < keys[j]) == (rank[i] < rank[j])
    for a in keys:
        for b in keys:
            for c in keys:
                if a < b and b < c:
                    assert a < c


@given(ap=int_point, td=int_point)
def test_mirrored_pairs_order_by_y_sign(ap, td):
    ax, ay = ap
    ux, uy = td
    if uy == ay:
        return
    mirrored = (ux, 2 * ay - uy)
    inst = inst_around(ap, [td, mirrored])
    table = disk_order(inst)
    rsq, cos, _ = key_fields(inst)
    assert rsq[0, 0] == rsq[0, 1]
    assert cos[0, 0] == cos[0, 1]
    if uy > ay:
        assert table.rank[0, 0] < table.rank[0, 1]  # non-negative y ranks below negative y
    else:
        assert table.rank[0, 1] < table.rank[0, 0]


@given(ap=int_point, tds=st.lists(int_point, min_size=1, max_size=7))
def test_containment_is_monotone_and_reflexive(ap, tds):
    inst = inst_around(ap, tds)
    table = disk_order(inst)
    tds_ids = range(1, inst.n + 1)
    for w in tds_ids:
        assert inside(table, 1, w, w)
    for w1 in tds_ids:
        for w2 in tds_ids:
            if table.rank[0, w1 - 1] <= table.rank[0, w2 - 1]:
                inside1 = {u for u in tds_ids if inside(table, 1, w1, u)}
                inside2 = {u for u in tds_ids if inside(table, 1, w2, u)}
                assert inside1 <= inside2


@given(
    ap=int_point,
    tds=st.lists(int_point, min_size=2, max_size=6),
    t=st.sampled_from([0.5, 2.0, 3.0, 4.0]),
    alpha=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_scaling_preserves_order_and_scales_power(ap, tds, t, alpha):
    inst = inst_around(ap, tds, power_alpha=alpha)
    scaled = inst_around(
        (ap[0] * t, ap[1] * t), [(x * t, y * t) for x, y in tds], power_alpha=alpha
    )
    table = disk_order(inst)
    table_s = disk_order(scaled)
    assert (table.rank == table_s.rank).all()
    factor = t ** alpha
    for p, ps in zip(table.power[0], table_s.power[0]):
        assert ps == pytest.approx(factor * p, rel=1e-12, abs=1e-300)


@given(
    ap=int_point,
    tds=st.lists(int_point, min_size=1, max_size=6),
    shift=int_point,
)
def test_translation_leaves_keys_unchanged(ap, tds, shift):
    sx, sy = shift
    inst = inst_around(ap, tds)
    moved = inst_around((ap[0] + sx, ap[1] + sy), [(x + sx, y + sy) for x, y in tds])
    for f, g in zip(key_fields(inst), key_fields(moved)):
        assert (f == g).all()
    assert (disk_order(inst).rank == disk_order(moved).rank).all()


@settings(max_examples=30)
@given(
    aps=st.lists(int_point, min_size=1, max_size=3),
    tds=st.lists(int_point, min_size=1, max_size=6),
)
def test_cross_center_containment_consistency(aps, tds):
    # the rank tables the solvers use agree with the scalar key's containment
    inst = Instance.from_coords(aps=aps, tds=tds, k=len(tds))
    table = disk_order(inst)
    for a in range(1, inst.m + 1):
        for w in range(1, inst.n + 1):
            for u in range(1, inst.n + 1):
                assert inside(table, a, w, u) == contains((a, w), u, inst)


def _grid_instance(rng, m, n, span):
    """Integer-grid instance with mirrored, coincident and equal-radius TDs."""
    aps = rng.integers(-span, span + 1, (m, 2)).tolist()
    tds = rng.integers(-span, span + 1, (n, 2)).tolist()
    ax, ay = aps[0]
    for x, y in tds[: n // 4]:
        tds.append([x, 2 * ay - y])      # mirror across the AP's x-direction line
        tds.append([2 * ax - x, y])      # mirror across its y-direction line
        tds.append([y - ay + ax, x - ax + ay])  # same radius, rotated a quarter turn
        tds.append([x, y])               # coincident
    tds.append(list(aps[-1]))            # a TD on top of an AP
    return aps, tds


@pytest.mark.parametrize("alpha", [1.0, 2.0, 2.5, 3.7, 4.0])
def test_disk_order_equals_scalar_key_and_power_bits(alpha):
    rng = np.random.default_rng(int(alpha * 10))
    for trial in range(12):
        aps, tds = _grid_instance(rng, m=3, n=24, span=6 if trial % 2 else 40)
        inst = Instance.from_coords(aps=aps, tds=tds, k=len(tds),
                                    power_c=1.7, power_alpha=alpha)
        table = disk_order(inst)
        row = key_fields(inst)
        for a in range(1, inst.m + 1):
            keys = [disk_key(inst, a, u) for u in range(1, inst.n + 1)]
            for u0, key in enumerate(keys):
                assert tuple(f[a - 1, u0] for f in row) + (u0 + 1,) == key
            by_key = sorted(range(inst.n), key=keys.__getitem__)
            assert table.order[a - 1].tolist() == by_key
            assert table.rank[a - 1].tolist() == sorted(range(inst.n), key=by_key.__getitem__)
        _assert_power_bits_along_order(inst, table)
    # Powers must match the scalar formula bit for bit, on many radii.
    tds = np.random.default_rng(5).random((40_000, 2)) * 40
    inst = Instance.from_coords(aps=[(0.0, 0.0)], tds=tds.tolist(), k=1,
                                power_c=1.7, power_alpha=alpha)
    table = disk_order(inst)
    _assert_power_bits_along_order(inst, table)
    expected = [power_of(r, 1.7, alpha) for r in key_fields(inst)[0].ravel().tolist()]
    by_td = np.take_along_axis(table.power, table.rank, axis=1)
    assert (by_td.ravel().view(np.uint64) == np.array(expected).view(np.uint64)).all()


def _assert_power_bits_along_order(inst, table):
    """``power[a0, r]`` is, bit for bit, the power that ``disk_geometry``
    gives the disk of AP a0 + 1 whose boundary TD is ``order[a0, r]``."""
    expected = [[disk_geometry(inst, a0 + 1, u0 + 1)[1] for u0 in row]
                for a0, row in enumerate(table.order.tolist())]
    assert (table.power.view(np.uint64) == np.array(expected).view(np.uint64)).all()


@pytest.mark.parametrize("row", ["rising", "repeated", "nan"])
def test_key_order_of_a_flat_row_equals_its_one_row_table(row):
    rng = np.random.default_rng(30)
    dx, dy = rng.random(40) * 40 - 20, rng.random(40) * 40 - 20
    if row == "repeated":  # mirrored vectors tie on the radius; the y sign ranks them
        dx[9], dy[9], dy[4] = dx[4], -abs(dy[4]), abs(dy[4])
    elif row == "nan":
        dx[6] = np.nan
    rsq = dx * dx + dy * dy
    ranked = np.sort(rsq)
    assert (ranked[1:] > ranked[:-1]).all() == (row == "rising")
    order, radii = model._key_order(rsq, lambda: (dx, dy))
    table_order, table_radii = model._key_order(rsq[None], lambda: (dx[None], dy[None]))
    assert order.shape == radii.shape == rsq.shape
    assert np.array_equal(order, table_order[0])
    assert (radii.view(np.uint64) == table_radii[0].view(np.uint64)).all()


@pytest.mark.parametrize("n", [5, 48, 300])
def test_disk_order_with_distinct_radii_equals_scalar_key_order(n):
    # no radius repeats within a row, so from 4 * 48 disks on the order
    # comes from the radii alone; one mirrored TD then forces the full
    # key sort
    rng = np.random.default_rng(n)
    aps = (rng.random((4, 2)) * 40).tolist()
    tds = (rng.random((n, 2)) * 40).tolist()
    for extra in ([], [[2 * aps[1][0] - tds[0][0], tds[0][1]]]):
        inst = Instance.from_coords(aps=aps, tds=tds + extra, k=n + 1)
        table = disk_order(inst)
        for a in range(1, inst.m + 1):
            keys = [disk_key(inst, a, u) for u in range(1, inst.n + 1)]
            assert table.order[a - 1].tolist() == sorted(range(inst.n), key=keys.__getitem__)


def test_disk_order_memory_peak_is_bounded():
    # Holding the boundary vectors through the sort and building the rank
    # inverse with every table peaked at 48 bytes a disk here; the order,
    # the radii and the powers along the order take about 32.
    inst = generate_instance(ExperimentConfig(n=2000, m=80, k=40, side=40.0, seed=1729), 0)
    tracemalloc.start()
    try:
        disk_order(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * inst.m * inst.n, peak / (inst.m * inst.n)


def _counting_rank_builds(monkeypatch):
    """The tables whose ``rank`` is built from now on, one entry a build."""
    builds = []
    build = DiskOrder.rank.func

    def counted(table):
        builds.append(table)
        return build(table)

    prop = functools.cached_property(counted)
    prop.__set_name__(DiskOrder, "rank")
    monkeypatch.setattr(DiskOrder, "rank", prop)
    return builds


def test_rank_is_built_only_when_a_trace_reads_it(monkeypatch):
    # n=1000, m=40 runs the windowed rounds and compacts; n=5, m=4 runs
    # the scalar rounds and the exact search
    builds = _counting_rank_builds(monkeypatch)
    large = generate_instance(ExperimentConfig(n=1000, m=40, k=40, side=40.0, seed=1729), 0)
    small = generate_instance(ExperimentConfig(n=5, m=4, k=4, side=40.0, seed=1729), 0)
    solve_mlr(large)
    solve_mlr(small)
    solve_exact(small)
    assert builds == []
    rounds = []
    solve_mlr(large, rounds.append)
    assert len(builds) == 1 and len(rounds) > 1
    assert len(builds[0].rank) == large.m  # cached on the table: no second build
    assert len(builds) == 1


def _mutations(rng, inst, sol, moves=None):
    """Solutions derived from ``sol`` that break it in chosen ways."""
    n = inst.n
    # a TD moved between APs, for the first ``moves`` pairs of APs
    pairs = [(a, b) for a, tds in sol.coverage.items() if tds
             for b in sol.selected if b != a]
    for a, b in pairs[:moves]:
        tds = sol.coverage[a]
        u = int(rng.choice(sorted(tds)))
        cov = dict(sol.coverage)
        cov[a], cov[b] = tds - {u}, cov.get(b, frozenset()) | {u}
        yield Solution(sol.selected, cov, sol.total_power)
    # a disk swapped for another of the same radius: a mirrored tie
    for a, w in sol.selected.items():
        radius_sq = disk_geometry(inst, a, w)[0]
        for v in range(1, n + 1):
            if v != w and disk_geometry(inst, a, v)[0] == radius_sq:
                yield Solution({**sol.selected, a: v}, sol.coverage, sol.total_power)
    # faults in the ids: an unknown AP, an unknown boundary TD, coverage by
    # an unknown AP; then no claims at all
    a, w = next(iter(sol.selected.items()))
    yield Solution({**sol.selected, inst.m + 1: w}, sol.coverage, sol.total_power)
    yield Solution({**sol.selected, a: n + 1}, sol.coverage, sol.total_power)
    yield Solution(sol.selected, {**sol.coverage, 0: frozenset({1})}, sol.total_power)
    yield Solution(sol.selected, {b: frozenset() for b in sol.coverage}, sol.total_power)
    # unknown TDs 0, n + 1 and 8(n + 1) beside a TD outside the AP's disk.
    # 8(n + 1) goes in first and takes the set's slot 0, so the set does not
    # iterate in id order.
    for a, w in sol.selected.items():
        out = [u for u in range(1, n + 1) if disk_key(inst, a, u) > disk_key(inst, a, w)]
        if out:
            tds = frozenset((8 * (n + 1), 0, out[0], n + 1))
            assert list(tds) != sorted(tds)
            yield Solution(sol.selected, {**sol.coverage, a: tds}, sol.total_power)
            break
    # random disks and random owners
    for _ in range(4):
        selected = {a: int(rng.integers(1, n + 1)) for a in range(1, inst.m + 1)}
        owner = rng.integers(1, inst.m + 1, n)
        coverage = {a: frozenset(u + 1 for u in np.flatnonzero(owner == a).tolist())
                    for a in selected}
        total = 0.0
        for a in sorted(selected):
            total += disk_geometry(inst, a, selected[a])[1]
        yield Solution(selected, coverage, total)


def _outside_pairs(violations) -> set[tuple[int, int]]:
    """The ``(ap_id, td_id)`` pairs that violations report outside a disk."""
    hits = (re.fullmatch(r"TD (\d+) lies outside the selected disk of AP (\d+)", v)
            for v in violations)
    return {(int(h[2]), int(h[1])) for h in hits if h}


def _claims(sol, inst):
    """``outside_reference``'s claims: each AP with a known disk, its
    boundary TD and its known covered TDs."""
    return [(a, sol.selected[a], sorted(u for u in sol.coverage[a] if 1 <= u <= inst.n))
            for a in sorted(sol.coverage)
            if 1 <= a <= inst.m and 1 <= sol.selected.get(a, 0) <= inst.n]


def _feasibility_corpus(rng):
    """``(instance, solution, moves)`` triples: integer grids with mirrored,
    coincident and on-AP TDs, the exact-small shape, one n=1000 draw and
    equal radii at opposite y signs around an AP that a TD sits on."""
    for trial in range(40):
        aps, tds = _grid_instance(rng, m=3, n=12, span=4 if trial % 2 else 30)
        inst = Instance.from_coords(aps=aps, tds=tds, k=len(tds),
                                    power_alpha=float(rng.choice([1.0, 2.5, 4.0])))
        yield inst, solve_mlr(inst), None
    small = ExperimentConfig(n=5, m=4, k=4, side=40.0, trials=10)
    for trial in range(small.trials):
        inst = generate_instance(small, trial)
        yield inst, solve_mlr(inst), None
    inst = generate_instance(ExperimentConfig(n=1000, m=40, k=40, side=40.0, trials=1), 0)
    yield inst, solve_mlr(inst), 12
    tds = [(0, 0), (0, 0), (3, 4), (3, -4), (-3, 4), (-3, -4), (5, 0), (0, -5), (1, 1)]
    inst = Instance.from_coords(aps=[(0, 0), (9, 9)], tds=tds, k=len(tds))
    yield inst, solve_mlr(inst), None


def test_check_feasible_equals_pairwise_contains_checker():
    rng = np.random.default_rng(77)
    outside = 0
    reached = set()
    # (radius is 0, index of the key field that decides) over the claims
    # whose radius equals their disk's: the scalar pass's tie branch
    ties = set()
    for inst, sol, moves in _feasibility_corpus(rng):
        assert check_feasible(sol, inst) == check_feasible_reference(sol, inst) == []
        for broken in _mutations(rng, inst, sol, moves):
            expected = check_feasible_reference(broken, inst)
            got = check_feasible(broken, inst)
            assert got == expected
            assert _outside_pairs(got) == outside_reference(inst, _claims(broken, inst))
            outside += any("outside" in v for v in expected)
            reached.update(expected)
            for a, b, us in _claims(broken, inst):
                kb = disk_key(inst, a, b)
                for u in us:
                    ku = disk_key(inst, a, u)
                    if u != b and ku[0] == kb[0]:
                        ties.add((ku[0] == 0.0, next(i for i in (1, 2, 3) if ku[i] != kb[i])))
    assert outside >= 100  # the mutations reach the containment test
    for fault in ("selected disk references unknown AP", "has unknown boundary TD",
                  "coverage references unknown AP", "references unknown TD"):
        assert any(fault in v for v in reached), fault
    # ties decided by cosine, by y sign and by TD id, and at radius 0
    assert {(False, 1), (False, 2), (False, 3), (True, 3)} <= ties


def test_check_feasible_ranks_non_finite_keys_as_disk_order():
    # The AP-to-TD differences overflow: TDs 1 and 2 have infinite radii
    # and NaN (inf/inf) cosines, TD 3 an infinite radius and cosine 0.
    # TD 4's radius is NaN.  disk_order ranks TD 2 above TD 1 on its y
    # sign, NaN cosines above TD 3's and the NaN radius last.
    tds = [(1e308, 0.0), (1e308, -1.0), (0.0, 1e308), (math.nan, 0.0)]
    inst = Instance.from_coords(aps=[(-1e308, 0.0)], tds=tds, k=4)
    with np.errstate(over="ignore", invalid="ignore"):
        rank = disk_order(inst).rank[0].tolist()
    assert rank == [1, 2, 0, 3]
    for b in (1, 3):
        sol = Solution({1: b}, {1: frozenset({1, 2, 3, 4})}, disk_geometry(inst, 1, b)[1])
        expected = [f"TD {u} lies outside the selected disk of AP 1"
                    for u in range(1, 5) if rank[u - 1] > rank[b - 1]]
        assert check_feasible_reference(sol, inst) == expected
        assert check_feasible(sol, inst) == expected


def test_check_feasible_memory_is_not_per_claim_objects():
    # 200 000 claimed containments at one AP; a Python tuple and key per
    # claim end peaked at about 118 MB here, the scalar pass with its TD
    # coordinate lists, owner dict and sorted claims at 30 MB, and one
    # flat coordinate list with an owner list indexed by TD id at 14 MB.
    cfg = ExperimentConfig(n=200_000, m=1, k=200_000, side=40.0, trials=1)
    inst = generate_instance(cfg, 0)
    sol = solve_nca(inst)
    tracemalloc.start()
    try:
        violations = check_feasible(sol, inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == []
    assert peak < 64e6
