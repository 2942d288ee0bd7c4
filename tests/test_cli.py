import csv
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpcc import cli, experiments, formats, instance_from_json, mlr, solution_violations


def run_cli(*argv):
    return cli.run(list(argv))


def gen_instance(tmp_path, n=10, m=2, k=6, seed=7):
    path = tmp_path / "instance.json"
    code = run_cli(
        "gen", "--n", str(n), "--m", str(m), "--k", str(k),
        "--side", "40", "--seed", str(seed), "--out", str(path),
    )
    assert code == cli.EXIT_OK
    return path


def test_gen_writes_valid_instance(tmp_path, capsys):
    path = gen_instance(tmp_path)
    out = capsys.readouterr().out
    assert "seed=7" in out
    inst = instance_from_json(path.read_text())
    assert inst.n == 10 and inst.m == 2 and inst.k == 6


def test_gen_is_reproducible(tmp_path):
    a = gen_instance(tmp_path, seed=3)
    text_a = a.read_text()
    b_path = tmp_path / "again.json"
    run_cli("gen", "--n", "10", "--m", "2", "--k", "6", "--side", "40",
            "--seed", "3", "--out", str(b_path))
    assert b_path.read_text() == text_a


def test_gen_rejects_capacity_shortfall(tmp_path, capsys):
    code = run_cli("gen", "--n", "5", "--m", "1", "--k", "4",
                   "--out", str(tmp_path / "x.json"))
    assert code == cli.EXIT_VALIDATION
    assert "m*k" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["mlr", "nca"])
def test_solve_then_check_round_trip(tmp_path, capsys, alg):
    inst_path = gen_instance(tmp_path)
    sol_path = tmp_path / "solution.json"
    code = run_cli("solve", "--alg", alg, "--in", str(inst_path),
                   "--out", str(sol_path))
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "total_power=" in out and "variance=" in out
    code = run_cli("check", "--instance", str(inst_path),
                   "--solution", str(sol_path))
    assert code == cli.EXIT_OK


def test_solve_known_instance_total(tmp_path, capsys):
    inst_path = tmp_path / "tiny.json"
    inst_path.write_text(
        '{"c": 1, "alpha": 2, "k": 2, "aps": [[0, 0]], "tds": [[1, 0], [2, 0]]}'
    )
    code = run_cli("solve", "--alg", "mlr", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"))
    assert code == cli.EXIT_OK
    assert "total_power=4" in capsys.readouterr().out


def test_solve_writes_trace(tmp_path):
    inst_path = gen_instance(tmp_path)
    trace_path = tmp_path / "trace.jsonl"
    code = run_cli("solve", "--alg", "mlr", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"), "--trace", str(trace_path))
    assert code == cli.EXIT_OK
    lines = trace_path.read_text().splitlines()
    assert 1 <= len(lines) <= 10
    assert all({"iter", "disk", "ratio", "covered", "removed"} <= set(json.loads(l))
               for l in lines)


def test_trace_requires_mlr(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    code = run_cli("solve", "--alg", "nca", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"), "--trace", str(tmp_path / "t"))
    assert code == cli.EXIT_USAGE


def test_solve_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = run_cli("solve", "--alg", "mlr", "--in", str(bad),
                   "--out", str(tmp_path / "sol.json"))
    assert code == cli.EXIT_PARSE


@pytest.mark.parametrize("doc, message", [
    ('{"c": 1, "alpha": 2, "k": 1, "aps": [[0, 0]], "tds": [[1, 0], [2, 0]]}',
     "total capacity m*k = 1 cannot cover n = 2 TDs"),
    ('{"c": 1, "alpha": 2, "k": 1, "aps": [], "tds": [[1, 0]]}', "instance has no APs"),
], ids=["capacity-shortfall", "no-aps"])
def test_solve_validation_exit_code(tmp_path, capsys, doc, message):
    bad = tmp_path / "invalid.json"
    bad.write_text(doc)
    code = run_cli("solve", "--alg", "mlr", "--in", str(bad),
                   "--out", str(tmp_path / "sol.json"))
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


def test_exact_budget_exit_code(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, n=12, m=3, k=4)
    capsys.readouterr()
    code = run_cli("solve", "--alg", "exact", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"), "--max-nodes", "4")
    assert code == cli.EXIT_BUDGET
    captured = capsys.readouterr()
    # The fifth node exceeds a budget of four.
    assert re.fullmatch(r"budget exceeded after \d+\.\d{3}s and 5 nodes; "
                        r"no solution written\n", captured.err)
    assert captured.out == ""
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("max_nodes, code", [("5000", cli.EXIT_BUDGET), ("2000000", cli.EXIT_OK)])
def test_exact_solves_past_the_recursion_limit(tmp_path, capsys, max_nodes, code):
    # 1500 APs put the first leaf 1500 levels down; the search still ends
    # in an answer or the budget exit code, not a traceback.
    rng = np.random.default_rng(3)
    inst_path = tmp_path / "wide.json"
    inst_path.write_text(json.dumps({"c": 1, "alpha": 2, "k": 1, "tds": [[20.0, 20.0]],
                                     "aps": (rng.random((1500, 2)) * 40).tolist()}))
    assert run_cli("solve", "--alg", "exact", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"), "--max-nodes", max_nodes) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (tmp_path / "sol.json").exists() == (code == cli.EXIT_OK)


def test_exact_solves_small_instance(tmp_path, capsys):
    inst_path = tmp_path / "tiny.json"
    inst_path.write_text(
        '{"c": 1, "alpha": 2, "k": 1, "aps": [[0, 0], [10, 0]], '
        '"tds": [[1, 0], [9, 0]]}'
    )
    code = run_cli("solve", "--alg", "exact", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"))
    assert code == cli.EXIT_OK
    assert "total_power=2" in capsys.readouterr().out


def test_check_flags_dropped_td(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    sol_path = tmp_path / "solution.json"
    run_cli("solve", "--alg", "mlr", "--in", str(inst_path), "--out", str(sol_path))
    doc = json.loads(sol_path.read_text())
    victim = doc["assignments"][0]["covered"].pop()
    sol_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli("check", "--instance", str(inst_path), "--solution", str(sol_path))
    assert code == cli.EXIT_INFEASIBLE
    assert f"TD {victim} is not covered" in capsys.readouterr().out


def test_check_flags_duplicate_ap(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    sol_path = tmp_path / "solution.json"
    run_cli("solve", "--alg", "mlr", "--in", str(inst_path), "--out", str(sol_path))
    doc = json.loads(sol_path.read_text())
    doc["assignments"].append(dict(doc["assignments"][0], covered=[]))
    sol_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli("check", "--instance", str(inst_path), "--solution", str(sol_path))
    assert code == cli.EXIT_INFEASIBLE
    assert "more than one disk" in capsys.readouterr().out


def test_check_flags_a_small_stated_total_off_by_orders_of_magnitude(tmp_path, capsys):
    # the disks sum to 9e-20; a stated 5e-13 lies within no relative
    # tolerance of it, however small both are
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps({"c": 1e-20, "alpha": 2, "k": 5, "aps": [[0, 0]],
                                     "tds": [[1, 0], [0, 2], [3, 0]]}))
    sol_path = tmp_path / "solution.json"
    assert run_cli("solve", "--alg", "mlr", "--in", str(inst_path),
                   "--out", str(sol_path)) == cli.EXIT_OK
    doc = json.loads(sol_path.read_text())
    assert doc["total_power"] == pytest.approx(9e-20, rel=1e-15)
    doc["total_power"] = 5e-13
    sol_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli("check", "--instance", str(inst_path), "--solution", str(sol_path))
    assert code == cli.EXIT_INFEASIBLE
    assert "stated total_power 5e-13 disagrees" in capsys.readouterr().out


def test_check_distinguishes_parse_errors(tmp_path):
    inst_path = gen_instance(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"total_power": []}')
    assert run_cli("check", "--instance", str(inst_path),
                   "--solution", str(bad)) == cli.EXIT_PARSE


def _strip_wall_ms(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r.pop("wall_ms")
    return rows


def test_bench_preset_truncated_and_reproducible(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        code = run_cli("bench", "--preset", "1", "--max-n", "50",
                       "--trials", "2", "--out-dir", str(out))
        assert code == cli.EXIT_OK
    # identical modulo the timing column, which necessarily jitters
    assert _strip_wall_ms(out1 / "results.csv") == _strip_wall_ms(out2 / "results.csv")
    rows = _strip_wall_ms(out1 / "results.csv")
    assert {r["n"] for r in rows} == {"20", "50"}
    assert len(rows) == 2 * 2 * 2
    for name in ("mean_total_power.csv", "mean_variance.csv"):
        a = (out1 / name).read_text()
        assert a == (out2 / name).read_text()
        assert a.splitlines()[0] == "n,mlr,nca"


def test_bench_config_file(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([
        {"n": 10, "m": 2, "k": 6, "side": 40, "trials": 2, "seed": 5},
        {"n": 14, "m": 3, "k": 6, "side": 40, "trials": 2, "seed": 5},
    ]))
    out = tmp_path / "out"
    assert run_cli("bench", "--config", str(cfg_path),
                   "--out-dir", str(out)) == cli.EXIT_OK
    rows = _strip_wall_ms(out / "results.csv")
    assert len(rows) == 2 * 2 * 2


def test_bench_rejects_invalid_config(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([{"n": 10, "m": 1, "k": 2, "side": 40}]))
    assert run_cli("bench", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out")) == cli.EXIT_VALIDATION


def test_bench_rejects_sizes_beyond_its_bounds(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([{"n": 10**30, "m": 10**30, "k": 1, "side": 40,
                                     "trials": 1}]))
    assert run_cli("bench", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out")) == cli.EXIT_VALIDATION
    assert "at most" in capsys.readouterr().err


def test_solution_files_match_library_checker(tmp_path):
    inst_path = gen_instance(tmp_path)
    sol_path = tmp_path / "solution.json"
    run_cli("solve", "--alg", "nca", "--in", str(inst_path), "--out", str(sol_path))
    inst = instance_from_json(inst_path.read_text())
    assert solution_violations(sol_path.read_text(), inst) == []


def test_check_flags_repeated_td(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    sol_path = tmp_path / "solution.json"
    run_cli("solve", "--alg", "mlr", "--in", str(inst_path), "--out", str(sol_path))
    doc = json.loads(sol_path.read_text())
    covered = doc["assignments"][0]["covered"]
    covered.append(covered[0])
    sol_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli("check", "--instance", str(inst_path), "--solution", str(sol_path))
    assert code == cli.EXIT_INFEASIBLE
    assert f"lists TD {covered[0]} 2 times" in capsys.readouterr().out


def test_bench_into_unwritable_out_dir_is_reported_without_traceback(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run_cli("bench", "--preset", "1", "--max-n", "20", "--trials", "1",
                   "--out-dir", str(blocker / "out"))
    assert code == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert list(tmp_path.rglob("results.csv")) == []


def test_coordinate_beyond_float_range_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"c": 1, "alpha": 2, "k": 1, "aps": [[1' + "0" * 400 + ', 0]], '
                    '"tds": [[1, 0]]}')
    code = run_cli("solve", "--alg", "mlr", "--in", str(path),
                   "--out", str(tmp_path / "sol.json"))
    assert code == cli.EXIT_PARSE
    assert "float range" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["mlr", "nca"])
def test_overflowing_distance_is_a_validation_error(tmp_path, capsys, alg):
    path = tmp_path / "far.json"
    path.write_text('{"c": 1, "alpha": 2, "k": 2, "aps": [[0, 0]], '
                    '"tds": [[1e200, 0], [1, 0]]}')
    code = run_cli("solve", "--alg", alg, "--in", str(path),
                   "--out", str(tmp_path / "sol.json"))
    assert code == cli.EXIT_VALIDATION
    assert "beyond the float range" in capsys.readouterr().err


def test_overflowing_power_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text('{"c": 1, "alpha": 5, "k": 1, "aps": [[0, 0]], "tds": [[1e100, 0]]}')
    code = run_cli("solve", "--alg", "nca", "--in", str(path),
                   "--out", str(tmp_path / "sol.json"))
    assert code == cli.EXIT_VALIDATION
    assert "power" in capsys.readouterr().err


POWER_SUM_OVERFLOW = {"c": 1e308, "alpha": 2, "k": 1, "aps": [[0, 0], [0, 0]],
                      "tds": [[1, 0], [-1, 0]]}


@pytest.mark.parametrize("alg", ["mlr", "nca", "exact"])
def test_power_summed_past_the_float_range_is_a_validation_error(tmp_path, capsys, alg):
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(POWER_SUM_OVERFLOW))
    out = tmp_path / "sol.json"
    assert run_cli("solve", "--alg", alg, "--in", str(path),
                   "--out", str(out)) == cli.EXIT_VALIDATION
    assert "total power beyond the float range" in capsys.readouterr().err
    assert not out.exists()
    out.write_text(json.dumps({"total_power": 1e308, "assignments": []}))
    assert run_cli("check", "--instance", str(path),
                   "--solution", str(out)) == cli.EXIT_VALIDATION
    assert "total power beyond the float range" in capsys.readouterr().err


@pytest.mark.parametrize("algorithms", [["mlr", "nca"], ["nca"]])
def test_bench_refuses_powers_summed_past_the_float_range(tmp_path, capsys, algorithms):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([{"n": 20, "m": 20, "k": 1, "side": 0.7, "c": 1.7e308,
                                     "trials": 1, "algorithms": algorithms}]))
    out = tmp_path / "out"
    assert run_cli("bench", "--config", str(cfg_path), "--out-dir", str(out)) == cli.EXIT_VALIDATION
    assert "total power beyond the float range" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("alg", ["mlr", "nca"])
def test_capacity_beyond_int64_solves(tmp_path, capsys, alg):
    path = tmp_path / "big_k.json"
    path.write_text('{"c": 1, "alpha": 2, "k": ' + str(10**30)
                    + ', "aps": [[0, 0]], "tds": [[3, 4]]}')
    code = run_cli("solve", "--alg", alg, "--in", str(path),
                   "--out", str(tmp_path / "sol.json"))
    assert code == cli.EXIT_OK
    assert "total_power=25 " in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [("n", "5"), ("trials", 2.0), ("side", None),
                                          ("alpha", 10**400), ("algorithms", "mlr")],
                         ids=["n-string", "trials-real", "side-null", "alpha-huge",
                              "algorithms-string"])
def test_bench_rejects_mistyped_config_field(tmp_path, capsys, field, value):
    entry = {"n": 5, "m": 2, "k": 3, "side": 40, "trials": 1}
    entry[field] = value
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([entry]))
    assert run_cli("bench", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out")) == cli.EXIT_PARSE
    assert f"'{field}'" in capsys.readouterr().err


def test_unwritable_out_is_reported_without_traceback(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    code = run_cli("gen", "--n", "4", "--m", "1", "--k", "4",
                   "--out", str(missing / "inst.json"))
    assert code == cli.EXIT_FAILURE
    assert capsys.readouterr().err.startswith("error: cannot write")
    inst_path = gen_instance(tmp_path)
    code = run_cli("solve", "--alg", "mlr", "--in", str(inst_path),
                   "--out", str(missing / "sol.json"))
    assert code == cli.EXIT_FAILURE
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_module_entry_point_runs_the_cli(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mpcc.cli", "gen", "--n", "4", "--m", "1", "--k", "4",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert instance_from_json(out.read_text()).n == 4


def test_gen_reports_power_law_faults_beside_side_and_size_faults(tmp_path, capsys):
    for size, first in ((["--n", "5", "--m", "4", "--k", "4", "--side", "0"],
                         "side length 0.0 must be positive and finite"),
                        (["--n", "5000", "--m", "201", "--k", "40"],
                         "m*n = 1005000 candidate disks must be at most 1000000")):
        code = run_cli("gen", *size, "--c", "-1", "--alpha", "9",
                       "--out", str(tmp_path / "x.json"))
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {first}\n"
            "error: power constant c=-1.0 must be positive and finite\n"
            "error: attenuation factor alpha=9.0 outside [1, 5]\n"
        )
    assert not (tmp_path / "x.json").exists()


def test_gen_rejects_negative_trial(tmp_path, capsys):
    code = run_cli("gen", "--n", "5", "--m", "2", "--k", "3", "--trial", "-1",
                   "--out", str(tmp_path / "x.json"))
    assert code == cli.EXIT_VALIDATION
    assert "error: trial must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_check_rejects_boolean_disk_td(tmp_path, capsys):
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(
        {"c": 1, "alpha": 2, "k": 1, "aps": [[0, 0]], "tds": [[3, 4]]}))
    sol_path = tmp_path / "solution.json"
    sol_path.write_text(json.dumps({"total_power": 25, "assignments": [
        {"ap": 1, "disk_td": True, "covered": [1]}]}))
    assert run_cli("check", "--instance", str(inst_path),
                   "--solution", str(sol_path)) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert "ids must be integers" in captured.err and "ok" not in captured.out


def test_config_entry_keeps_dataclass_defaults(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([{"n": 10, "m": 2, "k": 6, "side": 40}]))
    assert formats.configs_from_json(cfg_path.read_text()) == [
        experiments.ExperimentConfig(10, 2, 6, 40)]


def test_config_entry_missing_side_is_a_parse_error(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([{"n": 10, "m": 2, "k": 6}]))
    assert run_cli("bench", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out")) == cli.EXIT_PARSE
    assert "config 0 missing field 'side'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--max-nodes", "-5"), ("--max-seconds", "nan"),
                                         ("--max-seconds", "-1")],
                         ids=["nodes-negative", "seconds-nan", "seconds-negative"])
def test_solve_rejects_bad_exact_budget(tmp_path, capsys, flag, value):
    inst_path = gen_instance(tmp_path, n=5, m=2, k=3)
    code = run_cli("solve", "--alg", "exact", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"), flag, value)
    assert code == cli.EXIT_VALIDATION
    assert f"error: {flag} must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "sol.json").exists()


def test_solve_accepts_unbounded_exact_seconds(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, n=5, m=2, k=3)
    code = run_cli("solve", "--alg", "exact", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"), "--max-seconds", "inf")
    assert code == cli.EXIT_OK


def test_trace_into_missing_directory_is_reported_without_traceback(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    capsys.readouterr()
    code = run_cli("solve", "--alg", "mlr", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"),
                   "--trace", str(tmp_path / "no-such-dir" / "trace.jsonl"))
    assert code == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_trace_lines_are_written_as_the_rounds_end(tmp_path, monkeypatch):
    inst_path = gen_instance(tmp_path, n=40, m=4, k=12)
    written, lines_before_round = [], []

    def line(doc, real=cli.trace_line):
        written.append(real(doc))
        return written[-1]

    def select(state, real=mlr.select_min_ratio):
        lines_before_round.append(len(written))
        return real(state)

    monkeypatch.setattr(cli, "trace_line", line)
    monkeypatch.setattr(mlr, "select_min_ratio", select)
    trace_path = tmp_path / "trace.jsonl"
    code = run_cli("solve", "--alg", "mlr", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"), "--trace", str(trace_path))
    assert code == cli.EXIT_OK
    # round i starts once the lines of the i rounds before it are written
    assert lines_before_round == list(range(len(written))) and len(written) > 1
    assert trace_path.read_text() == "".join(written)


@pytest.mark.parametrize("doc, message", [
    ([], "instance document must be a JSON object"),
    ({"c": "1", "alpha": 2, "k": 1, "aps": [[0, 0]], "tds": [[1, 0]]}, "'c' must be a number"),
    ({"c": 1, "alpha": True, "k": 1, "aps": [[0, 0]], "tds": [[1, 0]]},
     "'alpha' must be a number"),
    ({"c": 1, "alpha": 2, "k": 1, "aps": 5, "tds": [[1, 0]]},
     "'aps' must be a list of [x, y] pairs"),
    ({"c": 1, "alpha": 2, "k": 1, "aps": [[0, 0]], "tds": {}},
     "'tds' must be a list of [x, y] pairs"),
], ids=["list", "c-string", "alpha-boolean", "aps-number", "tds-object"])
def test_solve_rejects_malformed_instance_document(tmp_path, capsys, doc, message):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert run_cli("solve", "--alg", "mlr", "--in", str(path),
                   "--out", str(tmp_path / "sol.json")) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_into_a_broken_stdout_is_reported_without_traceback(tmp_path, capsys,
                                                                  monkeypatch):
    inst_path = gen_instance(tmp_path)
    sol_path = tmp_path / "solution.json"
    run_cli("solve", "--alg", "mlr", "--in", str(inst_path), "--out", str(sol_path))
    capsys.readouterr()

    class BrokenPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    code = run_cli("check", "--instance", str(inst_path), "--solution", str(sol_path))
    assert code == cli.EXIT_FAILURE
    assert capsys.readouterr().err == "error: cannot write: [Errno 32] Broken pipe\n"


def test_solve_missing_instance_file_is_a_parse_error(tmp_path, capsys):
    code = run_cli("solve", "--alg", "mlr", "--in", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "sol.json"))
    assert code == cli.EXIT_PARSE
    assert "cannot read" in capsys.readouterr().err


def test_bench_config_that_is_not_json_is_a_parse_error(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text("[{n: 5}]")
    assert run_cli("bench", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out")) == cli.EXIT_PARSE
    assert "invalid config file" in capsys.readouterr().err


DECODING_FAULTS = {
    "not-utf8": b'{"c": "\xff"}',
    "deep-nesting": b"[" * (sys.getrecursionlimit() + 1) + b"]" * (sys.getrecursionlimit() + 1),
    "long-integer": b"[" + b"9" * 5000 + b"]",
}


@pytest.mark.parametrize("fault", DECODING_FAULTS)
@pytest.mark.parametrize("document", ["instance", "solution", "config"])
def test_undecodable_input_file_is_a_parse_error(tmp_path, capsys, document, fault):
    bad = tmp_path / "bad.json"
    bad.write_bytes(DECODING_FAULTS[fault])
    argv = {
        "instance": ["solve", "--alg", "mlr", "--in", str(bad), "--out", str(tmp_path / "s.json")],
        "solution": ["check", "--instance", str(gen_instance(tmp_path)), "--solution", str(bad)],
        "config": ["bench", "--config", str(bad), "--out-dir", str(tmp_path / "out")],
    }[document]
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_out_of_memory_is_a_failure_without_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(inst):
        raise MemoryError("cannot allocate the pair table")

    monkeypatch.setattr(experiments, "solve_nca", exhausted)
    inst_path = gen_instance(tmp_path)
    capsys.readouterr()
    code = run_cli("solve", "--alg", "nca", "--in", str(inst_path),
                   "--out", str(tmp_path / "sol.json"))
    assert code == cli.EXIT_FAILURE
    assert capsys.readouterr().err == "error: out of memory: cannot allocate the pair table\n"
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("doc, message", [
    ({"total_power": "25", "assignments": []}, "'total_power' must be a number"),
    ({"total_power": 25, "assignments": {"ap": 1}}, "'assignments' must be a list"),
    ({"total_power": 25, "assignments": [1]}, "assignment 0 is not an object"),
], ids=["total-string", "assignments-object", "assignment-number"])
def test_check_rejects_malformed_solution_shape(tmp_path, capsys, doc, message):
    inst_path = gen_instance(tmp_path)
    sol_path = tmp_path / "solution.json"
    sol_path.write_text(json.dumps(doc))
    assert run_cli("check", "--instance", str(inst_path),
                   "--solution", str(sol_path)) == cli.EXIT_PARSE
    assert message in capsys.readouterr().err


def test_check_flags_covered_td_beyond_the_instance(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    sol_path = tmp_path / "solution.json"
    run_cli("solve", "--alg", "mlr", "--in", str(inst_path), "--out", str(sol_path))
    doc = json.loads(sol_path.read_text())
    doc["assignments"][0]["covered"].append(11)
    sol_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli("check", "--instance", str(inst_path), "--solution", str(sol_path))
    assert code == cli.EXIT_INFEASIBLE
    assert "references unknown TD 11" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [("n", 0), ("seed", -1), ("algorithms", ["foo"]),
                                          ("algorithms", []), ("algorithms", ["mlr", "mlr"])],
                         ids=["n-zero", "seed-negative", "algorithms-unknown",
                              "algorithms-empty", "algorithms-repeated"])
def test_bench_rejects_config_that_cannot_run(tmp_path, capsys, field, value):
    entry = {"n": 5, "m": 2, "k": 3, "side": 40, "trials": 2}
    entry[field] = value
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([entry]))
    out = tmp_path / "out"
    assert run_cli("bench", "--config", str(cfg_path), "--out-dir", str(out)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "results.csv").exists()


def test_bench_rejects_unknown_config_field(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([{"n": 5, "m": 2, "k": 3, "side": 40, "trails": 2}]))
    out = tmp_path / "out"
    assert run_cli("bench", "--config", str(cfg_path), "--out-dir", str(out)) == cli.EXIT_PARSE
    assert "config 0 has unknown field 'trails'" in capsys.readouterr().err
    assert not (out / "results.csv").exists()
