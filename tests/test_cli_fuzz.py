"""Fuzz of the command line: every input document ends in a documented exit
code (0 or 3-6), never in a Python exception.

Documents are small (at most 8 APs, TDs and trials) so each example runs in
milliseconds; capacities reach beyond int64 on purpose.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mpcc import cli

DOCUMENTED = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION,
              cli.EXIT_INFEASIBLE, cli.EXIT_BUDGET}
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

small_int = st.integers(-2, 8)
huge_int = st.sampled_from([2**63 - 1, 2**63, 2**64, 10**30])
real = st.floats(allow_nan=True, allow_infinity=True)
scalar = st.one_of(st.none(), st.booleans(), small_int, huge_int, real, st.text(max_size=3))
json_value = st.recursive(
    scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

coord = st.one_of(st.integers(-4, 4), st.floats(-50, 50))
points = st.lists(st.lists(coord, min_size=2, max_size=2), min_size=1, max_size=8)
instance_doc = st.fixed_dictionaries({
    "c": st.sampled_from([0.3, 1, 7, 5e-324]),
    "alpha": st.sampled_from([1, 2, 2.5, 3.7, 4, 5]),
    "k": st.one_of(st.integers(1, 8), huge_int),
    "aps": points,
    "tds": points,
})
config_doc = st.fixed_dictionaries({
    "n": st.integers(1, 8),
    "m": st.integers(1, 8),
    "k": st.one_of(st.integers(1, 8), huge_int),
    "side": st.sampled_from([1e-320, 1, 40, 1e150]),
    "trials": st.integers(1, 2),
    "seed": st.one_of(small_int, huge_int),
    "c": st.sampled_from([0.3, 1, 7]),
    "alpha": st.sampled_from([1, 2.5, 5]),
    "algorithms": st.lists(st.sampled_from(["mlr", "nca", "exact"]), max_size=3),
})
# what a mutation puts in place of a field: any JSON value, or an edge value
replacement = st.one_of(json_value, st.sampled_from([0, -1, 1e308, 6, "mlr", []]))


@st.composite
def mutated(draw, base):
    """A document from ``base`` with at most one field dropped or replaced."""
    doc = draw(base)
    if isinstance(doc, dict) and doc and draw(st.booleans()):
        field = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[field]
        else:
            doc[field] = draw(replacement)
    return doc


@st.composite
def broken_solution(draw, sol):
    """A solver's solution document with one semantic or structural fault."""
    assignments = sol["assignments"]
    i = draw(st.integers(0, len(assignments) - 1))
    j = draw(st.integers(0, len(assignments) - 1))
    fault = draw(st.sampled_from(["none", "move", "disk", "total", "repeat", "field"]))
    if fault == "move" and assignments[i]["covered"]:
        assignments[j]["covered"].append(assignments[i]["covered"].pop())
    elif fault == "disk":
        assignments[i]["disk_td"] = draw(small_int)
    elif fault == "total":
        sol["total_power"] = draw(st.one_of(real, small_int))
    elif fault == "repeat":
        assignments[i]["covered"] += assignments[j]["covered"][:1]
    elif fault == "field":
        assignments[i] = draw(mutated(st.just(assignments[i])))
    return draw(mutated(st.just(sol))) if fault == "none" else sol


def run_cli(argv):
    """Exit code of one in-process command, checked to be documented and to
    leave no traceback; an exception escaping the command fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.run([str(a) for a in argv])
    assert code in DOCUMENTED, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def write(path: Path, doc) -> Path:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


@FUZZ
@given(doc=st.one_of(mutated(instance_doc), mutated(instance_doc), json_value, st.text(max_size=12)),
       alg=st.sampled_from(["mlr", "nca"]))
@example(doc={"c": 1, "alpha": 2, "k": 10**30, "aps": [[0, 0]], "tds": [[1, 0]]}, alg="mlr")
def test_solve_ends_in_a_documented_exit_code(doc, alg):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trace = ["--trace", tmp / "t.jsonl"] if alg == "mlr" else []
        run_cli(["solve", "--alg", alg, "--in", write(tmp / "i.json", doc),
                 "--out", tmp / "s.json", *trace])


@FUZZ
@given(inst=mutated(instance_doc), data=st.data())
def test_check_ends_in_a_documented_exit_code(inst, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inst_path = write(tmp / "i.json", inst)
        sol_path = tmp / "s.json"
        if run_cli(["solve", "--alg", "nca", "--in", inst_path, "--out", sol_path]) == 0:
            sol = data.draw(broken_solution(json.loads(sol_path.read_text())))
        else:
            sol = data.draw(st.one_of(json_value, st.text(max_size=12)))
        run_cli(["check", "--instance", inst_path, "--solution", write(sol_path, sol)])


@FUZZ
@given(configs=st.one_of(st.lists(mutated(config_doc), min_size=1, max_size=2), json_value))
@example(configs=[{"n": 3, "m": 2, "k": 10**30, "side": 40, "trials": 1}])
def test_bench_config_ends_in_a_documented_exit_code(configs):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        run_cli(["bench", "--config", write(tmp / "c.json", configs), "--out-dir", tmp / "out"])
