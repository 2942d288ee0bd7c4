import json
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpcc import (
    FormatError,
    Instance,
    Solution,
    check_feasible,
    generate_instance,
    instance_from_json,
    instance_to_json,
    solution_from_json,
    solution_to_json,
    solution_violations,
    solve_mlr,
    solve_nca,
    trace_line,
)
from mpcc.experiments import ExperimentConfig, override_configs, preset
from oracles import (
    dump_reference,
    instance_doc_reference,
    point_list_reference,
    solution_doc_reference,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
HUGE = [2**53 + 1, 2**63, 2**64 + 12345, 10**30, -2**63 - 5]


@given(
    aps=st.lists(st.tuples(finite, finite), min_size=1, max_size=4),
    tds=st.lists(st.tuples(finite, finite), min_size=1, max_size=6),
    k=st.integers(1, 50),
    c=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    alpha=st.floats(min_value=1, max_value=5, allow_nan=False),
)
def test_instance_round_trip_is_exact(aps, tds, k, c, alpha):
    inst = Instance.from_coords(aps=aps, tds=tds, k=k, power_c=c, power_alpha=alpha)
    again = instance_from_json(instance_to_json(inst))
    assert again == inst


@pytest.mark.parametrize("x", HUGE)
def test_huge_integer_coordinates_parse_as_float(x):
    text = f'{{"c": 1, "alpha": 2, "k": 1, "aps": [[{x}, 0]], "tds": [[0, {x}]]}}'
    inst = instance_from_json(text)
    assert inst.ap_xy[0, 0] == inst.td_xy[0, 1] == float(x)
    assert inst == Instance.from_coords(aps=[(x, 0)], tds=[(0, x)], k=1)


def _parse(text):
    """``instance_from_json`` as its result or its FormatError text."""
    try:
        return instance_from_json(text)
    except FormatError as exc:
        return str(exc)


def _parse_reference(text):
    """The same through the point-at-a-time parser."""
    doc = json.loads(text)
    try:
        aps, tds = point_list_reference(doc, "aps"), point_list_reference(doc, "tds")
    except FormatError as exc:
        return str(exc)
    return Instance.from_coords(aps=aps, tds=tds, k=doc["k"],
                                power_c=doc["c"], power_alpha=doc["alpha"])


BAD_POINTS = ["true", '"1"', "null", "[1]", "[1, 2, 3]", "[[1, 2], 3]", "[1, [2]]",
              '{"x": 1, "y": 2}', "[true, 1]", "[1, false]", "[1, null]", '[1, "2"]',
              "[]", "5", "[10" + "0" * 400 + ", 1]", "[1, -1" + "0" * 309 + "]"]


def test_parse_matches_point_at_a_time_reference():
    for field, other in (("aps", "tds"), ("tds", "aps")):
        for bad in BAD_POINTS + [f"[{x}, 1]" for x in HUGE]:
            for at in (0, 7, 9):
                pts = [f"[{i}, {i + 0.5}]" for i in range(10)]
                pts[at] = bad
                text = (f'{{"c": 1, "alpha": 2, "k": 3, "{field}": [{", ".join(pts)}], '
                        f'"{other}": [[1, 2], [0.25, -3]]}}')
                assert _parse(text) == _parse_reference(text), text


point = st.one_of(
    st.tuples(finite, finite).map(list),
    st.tuples(st.integers(-(2**1100), 2**1100), st.integers(-(2**70), 2**70)).map(list),
    st.sampled_from([True, None, "x", [1], [1, 2, 3], [[1, 2], 3], {"x": 1}, [1, False]]),
)


@given(aps=st.lists(point, max_size=5), tds=st.lists(point, max_size=12))
def test_parse_matches_reference_on_random_points(aps, tds):
    text = json.dumps({"c": 1.5, "alpha": 2, "k": 2, "aps": aps, "tds": tds})
    got, want = _parse(text), _parse_reference(text)
    assert type(got) is type(want) and got == want


def _reference_cases():
    """The preset-3 corpus at 10 trials a config, and the solve-large
    instance: (instance, MLR solution, NCA solution, MLR trace)."""
    instances = [generate_instance(cfg, t)
                 for cfg in override_configs(preset(3), trials=10) for t in range(cfg.trials)]
    instances.append(generate_instance(
        ExperimentConfig(n=1000, m=40, k=40, side=40.0, trials=1, seed=1729), 0))
    for inst in instances:
        trace = []
        yield inst, solve_mlr(inst, trace.append), solve_nca(inst), trace


def test_serialisation_matches_per_element_reference():
    lines = 0
    for inst, mlr, nca, trace in _reference_cases():
        assert instance_to_json(inst) == dump_reference(instance_doc_reference(inst)) + "\n"
        for sol in (mlr, nca):
            assert solution_to_json(sol, inst) == (
                dump_reference(solution_doc_reference(sol, inst)) + "\n")
        for doc in trace:
            assert trace_line(doc) == dump_reference(doc) + "\n"
        lines += len(trace)
    assert lines > 1000  # the trace lines are compared, not skipped


def _trace_doc(**fields):
    return {"iter": 3, "disk": [2, 5], "ratio": 2.5, "covered": [5, 7],
            "removed": [[2, 5]], **fields}


def _ints_in_pairs(doc) -> bool:
    """Whether the round number and every id of a trace document are ints
    and every disk an [ap, td] pair, tested element by element."""
    disks = [doc["disk"], *doc["removed"]]
    if not all(isinstance(d, (list, tuple)) and len(d) == 2 for d in disks):
        return False
    return all(type(u) is int for u in [doc["iter"], *doc["covered"], *chain.from_iterable(disks)])


# The generic writer's value cases, each written in the trace field that
# holds its kind of value: a dict as fields, a list of pairs as "removed",
# any other list as "covered".  The reference writes any number there;
# trace_line refuses ids that are not ints and disks that are not pairs.
@pytest.mark.parametrize("value", [[], [1, 2, -3], (4, 5), [1, True], [True], [1, 2.5],
                                   [1, "a"], [[1, 2], [3]], {"covered": [7, 1]}, [2**70],
                                   [(1, 2), [3, 2**70]], [(1, True)], [(1, 2.5)], [[], (7,)],
                                   [(1, 2), 3], {"removed": [(4, 1), (4, 3)]},
                                   {"removed": []}, {"disk": (4, 5)}, {"disk": [2**70, 1]},
                                   {"iter": 2**70}, {"ratio": 1}, {"ratio": -0.0},
                                   {"disk": [True, 1]}, {"iter": True}, {"disk": [1, 2, 3]},
                                   {"disk": 1}])
def test_dump_matches_per_element_reference(value):
    if isinstance(value, dict):
        doc = _trace_doc(**value)
    elif value and isinstance(value[0], (list, tuple)):
        doc = _trace_doc(removed=value)
    else:
        doc = _trace_doc(covered=value)
    if _ints_in_pairs(doc):
        assert trace_line(doc) == dump_reference(doc) + "\n"
    else:
        with pytest.raises(FormatError):
            trace_line(doc)


def test_trace_line_writes_the_documented_field_order():
    doc = _trace_doc()
    shuffled = {f: doc[f] for f in ("removed", "ratio", "iter", "covered", "disk")}
    assert trace_line(shuffled) == trace_line(doc) == (
        '{"iter": 3, "disk": [2, 5], "ratio": 2.5, "covered": [5, 7], "removed": [[2, 5]]}\n')
    for fields in ({**doc, "extra": 1}, {f: doc[f] for f in ("iter", "disk", "ratio", "covered")}):
        with pytest.raises(FormatError):
            trace_line(fields)


def test_solution_writer_matches_reference_on_odd_ids():
    # Covered ids past 2**64 and bools (written as ints), and an AP whose
    # coverage is empty or absent.
    inst = Instance.from_coords(aps=[(0, 0), (5, 5), (9, 9)], tds=[(1, 0), (2, 0)], k=2)
    for coverage in ({1: frozenset({2**70, 2, 1})}, {1: frozenset({True, 2})},
                     {1: frozenset(), 2: frozenset([1, 2])}, {}):
        sol = Solution({1: 2, 2: 1, 3: 1}, coverage, 7.0)
        assert solution_to_json(sol, inst) == (
            dump_reference(solution_doc_reference(sol, inst)) + "\n")
    sol = Solution({2: 1}, {}, 41.0)
    assert solution_to_json(sol, inst) == (
        '{"total_power": 41, "assignments": [{"ap": 2, "disk_td": 1, '
        '"radius": 6.4031242374328485, "power": 41, "covered": []}]}\n')
    assert solution_to_json(Solution({}, {}, 0.0), inst) == (
        '{"total_power": 0, "assignments": []}\n')


def test_empty_point_list_parses_to_no_rows():
    inst = instance_from_json('{"c": 1, "alpha": 2, "k": 1, "aps": [[0, 0]], "tds": []}')
    assert inst.td_xy.shape == (0, 2) and inst.td_xy.dtype == np.float64
    assert inst.ap_xy.shape == (1, 2)


def test_round_trip_keeps_value_equality_not_hashability():
    inst = Instance.from_coords(aps=[(0.1, 2)], tds=[(1 / 3, -7), (5, 5)], k=2,
                                power_c=1.5, power_alpha=2.5)
    again = instance_from_json(instance_to_json(inst))
    assert again == inst and again is not inst
    with pytest.raises(TypeError):
        hash(again)


def test_instance_serialization_is_deterministic():
    inst = Instance.from_coords(aps=[(0.1, 0.2)], tds=[(1 / 3, 2 / 7)], k=3)
    assert instance_to_json(inst) == instance_to_json(inst)


def test_reals_survive_seventeen_digit_round_trip():
    x = 0.1 + 0.2  # 0.30000000000000004
    inst = Instance.from_coords(aps=[(x, -x)], tds=[(math.pi, math.e)], k=1)
    again = instance_from_json(instance_to_json(inst))
    assert again.ap_xy[0, 0] == x
    assert again.td_xy[0, 0] == math.pi


def test_solution_round_trip():
    inst = Instance.from_coords(
        aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0), (8.5, 0.25)], k=2
    )
    sol = solve_mlr(inst)
    text = solution_to_json(sol, inst)
    again = solution_from_json(text, inst)
    assert again == sol
    assert solution_to_json(again, inst) == text


@pytest.mark.parametrize("selected, name", [({0: 1}, "AP 0"), ({1: 4}, "TD 4")])
def test_solution_to_json_refuses_ids_outside_the_instance(selected, name):
    # AP 0 would be written with the last AP's geometry, TD n + 1 would
    # end in an IndexError; check_feasible reports both as before.
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0), (8, 0)], k=2)
    sol = Solution(selected, {}, 0.0)
    with pytest.raises(ValueError, match=f"^unknown {name}$"):
        solution_to_json(sol, inst)
    expected = ("selected disk references unknown AP 0" if name == "AP 0"
                else "disk of AP 1 has unknown boundary TD 4")
    assert expected in check_feasible(sol, inst)


def test_solution_radius_field_is_square_root():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(3, 4)], k=1)
    doc = json.loads(solution_to_json(solve_mlr(inst), inst))
    assert doc["assignments"][0]["radius"] == 5.0
    assert doc["assignments"][0]["power"] == 25.0


def test_instance_parse_errors():
    with pytest.raises(FormatError):
        instance_from_json("{not json")
    with pytest.raises(FormatError):
        instance_from_json('{"c": 1, "alpha": 2, "aps": [], "tds": []}')  # no k
    with pytest.raises(FormatError):
        instance_from_json('{"c": 1, "alpha": 2, "k": 2, "aps": [[0]], "tds": []}')
    with pytest.raises(FormatError):
        instance_from_json('{"c": 1, "alpha": 2, "k": true, "aps": [], "tds": []}')


def test_solution_parse_errors():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0)], k=1)
    with pytest.raises(FormatError):
        solution_from_json("[]", inst)
    with pytest.raises(FormatError):
        solution_from_json('{"total_power": 1}', inst)
    with pytest.raises(FormatError):
        solution_from_json(
            '{"total_power": 1, "assignments": [{"ap": 1, "covered": []}]}', inst
        )
    with pytest.raises(FormatError, match=r"ids \(9, 1\) outside the instance"):
        solution_from_json(
            '{"total_power": 1, "assignments": [{"ap": 9, "disk_td": 1, "covered": [1]}]}',
            inst,
        )


@pytest.mark.parametrize("covered", ["[1, true]", "[false]", "[1, 2.0]", "[1, null]", '"1"',
                                     "[[1]]"])
def test_covered_must_be_a_list_of_integers(covered):
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0)], k=1)
    text = ('{"total_power": 1, "assignments": [{"ap": 1, "disk_td": 1, "covered": '
            + covered + "}]}")
    with pytest.raises(FormatError, match="'covered' must be a list of integers"):
        solution_violations(text, inst)


@pytest.mark.parametrize("ap, td", [("true", "1"), ("1", "true"), ("1", "1.0")])
def test_assignment_ids_must_be_exact_integers(ap, td):
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(3, 4)], k=1)
    text = ('{"total_power": 25, "assignments": [{"ap": ' + ap + ', "disk_td": '
            + td + ', "covered": [1]}]}')
    for parse in (solution_from_json, solution_violations):
        with pytest.raises(FormatError, match="ids must be integers"):
            parse(text, inst)


def test_solution_from_json_keeps_stated_total_in_ap_order():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0)], k=1)
    text = ('{"total_power": 7.5, "assignments": ['
            '{"ap": 2, "disk_td": 2, "covered": [2]},'
            '{"ap": 1, "disk_td": 1, "covered": [1]}]}')
    sol = solution_from_json(text, inst)
    assert list(sol.selected) == list(sol.coverage) == [1, 2]
    assert sol.coverage == {1: frozenset({1}), 2: frozenset({2})}
    assert sol.total_power == 7.5
    assert any("stated total_power 7.5" in v for v in solution_violations(text, inst))


def test_duplicate_ap_is_a_violation_not_a_parse_error():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0)], k=2)
    text = (
        '{"total_power": 2, "assignments": ['
        '{"ap": 1, "disk_td": 1, "covered": [1]},'
        '{"ap": 1, "disk_td": 1, "covered": []}]}'
    )
    assert any("more than one disk" in v for v in solution_violations(text, inst))
    with pytest.raises(FormatError):
        solution_from_json(text, inst)


@pytest.mark.parametrize("ap, td", [(7, 9), (0, 1), (-1, 1), (1, 0), (1, -1)],
                         ids=["ap7-td9", "ap0", "ap-1", "td0", "td-1"])
def test_unknown_ids_are_violations(ap, td):
    # Ids 0 and -1 would index the last row of a coordinate array, so they
    # must be refused before any geometry is computed from them.
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0)], k=1)
    text = json.dumps({"total_power": 1,
                       "assignments": [{"ap": ap, "disk_td": td, "covered": [1]}]})
    expected = []
    if ap != 1:
        expected.append(f"assignment references unknown AP {ap}")
    if td != 1:
        expected.append(f"assignment of AP {ap} references unknown TD {td}")
    assert solution_violations(text, inst) == expected
    with pytest.raises(FormatError, match="outside the instance"):
        solution_from_json(text, inst)


def test_valid_document_has_no_violations():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0)], k=1)
    sol = solve_mlr(inst)
    assert solution_violations(solution_to_json(sol, inst), inst) == []


def test_dropped_td_is_reported():
    inst = Instance.from_coords(aps=[(0, 0), (10, 0)], tds=[(1, 0), (9, 0)], k=1)
    text = '{"total_power": 1, "assignments": [{"ap": 1, "disk_td": 1, "covered": [1]}]}'
    assert any("TD 2 is not covered" in v for v in solution_violations(text, inst))


def test_trace_jsonl_parses_line_by_line():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0), (2, 0)], k=2)
    trace = []
    solve_mlr(inst, trace=trace.append)
    lines = "".join(map(trace_line, trace)).splitlines()
    assert len(lines) == len(trace) == 2
    first = json.loads(lines[0])
    assert first["disk"] == [1, 1]
    assert first["ratio"] == 1.0
    assert first["covered"] == [1]


def test_non_finite_reals_refused():
    # by every writer, in each of its real fields
    good = dict(aps=[(0.0, 0.0)], tds=[(1.0, 0.0)], k=1)
    strong = Instance.from_coords(**{**good, "tds": [(2.0, 0.0)]}, power_c=1e308)
    for bad in (math.inf, -math.inf, math.nan):
        for inst in (Instance.from_coords(**good, power_c=bad),
                     Instance.from_coords(**good, power_alpha=bad),
                     Instance.from_coords(**{**good, "aps": [(bad, 0.0)]}),
                     Instance.from_coords(**{**good, "tds": [(0.0, bad)]})):
            with pytest.raises(FormatError, match="non-finite"):
                instance_to_json(inst)
        picks = ({1: 1}, {1: frozenset({1})})
        far = Instance.from_coords(**{**good, "tds": [(bad, 0.0)]})
        for sol, inst in ((Solution(*picks, bad), Instance.from_coords(**good)),  # total_power
                          (Solution(*picks, 1.0), far),  # radius and power
                          (Solution(*picks, 1.0), strong)):  # a finite radius, power past range
            with pytest.raises(FormatError, match="non-finite"):
                solution_to_json(sol, inst)
        with pytest.raises(FormatError, match="non-finite"):
            trace_line(_trace_doc(ratio=bad))
