import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpcc import (
    FormatError,
    Instance,
    instance_from_json,
    instance_to_json,
    solution_from_json,
    solution_to_json,
    solution_violations,
    solve_mlr,
    trace_to_jsonl,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


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


@pytest.mark.parametrize("x", [2**53 + 1, 2**63, 2**64 + 12345, 10**30, -2**63 - 5])
def test_huge_integer_coordinates_parse_as_float(x):
    text = f'{{"c": 1, "alpha": 2, "k": 1, "aps": [[{x}, 0]], "tds": [[0, {x}]]}}'
    inst = instance_from_json(text)
    assert inst.ap_xy[0, 0] == inst.td_xy[0, 1] == float(x)
    assert inst == Instance.from_coords(aps=[(x, 0)], tds=[(0, x)], k=1)


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


def test_unknown_ids_are_violations():
    inst = Instance.from_coords(aps=[(0, 0)], tds=[(1, 0)], k=1)
    text = '{"total_power": 1, "assignments": [{"ap": 7, "disk_td": 9, "covered": [1]}]}'
    violations = solution_violations(text, inst)
    assert any("unknown AP 7" in v for v in violations)
    assert any("unknown TD 9" in v for v in violations)


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
    solve_mlr(inst, trace=trace)
    lines = trace_to_jsonl(trace).splitlines()
    assert len(lines) == len(trace) == 2
    first = json.loads(lines[0])
    assert first["disk"] == [1, 1]
    assert first["ratio"] == 1.0
    assert first["covered"] == [1]


def test_non_finite_reals_refused():
    inst = Instance.from_coords(aps=[(math.inf, 0.0)], tds=[(0.0, 0.0)], k=1)
    with pytest.raises(FormatError):
        instance_to_json(inst)
