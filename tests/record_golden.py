"""Record the golden digests that tests/test_golden.py checks.

Run from the repository root:

    PYTHONPATH=src python3 tests/record_golden.py

For every instance of the corpus it writes the SHA-256 of the mlr and nca
solution files and of MLR's joined trace lines to tests/golden.json, and
under ``EXACT_SMALL`` the SHA-256 of exact's statuses and solution files
and of the results.csv of one ``mpcc bench`` config.
Re-record only in a change that means to change solver outputs, and say
so in that change's CHANGES.md entry; a change made for speed keeps the
file as it is.
"""

import csv
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from mpcc import (
    ExperimentConfig,
    Instance,
    generate_instance,
    solution_to_json,
    solve_exact,
    solve_mlr,
    solve_nca,
)
from mpcc.experiments import override_configs, preset, run_sweep
from mpcc.formats import trace_line

GOLDEN = Path(__file__).with_name("golden.json")
# The benchmark's exact-small config: the one corpus that exact solves.
EXACT_SMALL = ExperimentConfig(n=5, m=4, k=4, side=40.0, trials=600, seed=1729,
                               algorithms=("exact", "mlr", "nca"))


def corpus():
    """``(name, Instance)`` for every instance the digests cover: preset 3
    (seed 1729, 10 trials), n=1000 m=40 at seeds 1729 and 7, small
    configs under non-default power laws, and integer grids, whose
    repeated radii and directions reach every tie-break of the disk key
    and of MLR's ratios."""
    for cfg in override_configs(preset(3), trials=10):
        for t in range(cfg.trials):
            yield f"preset 3 m={cfg.m} trial {t}", generate_instance(cfg, t)
    for seed in (1729, 7):
        cfg = ExperimentConfig(n=1000, m=40, k=40, side=40.0, trials=1, seed=seed)
        yield f"n=1000 m=40 seed {seed}", generate_instance(cfg, 0)
    for alpha in (1.0, 2.5, 3.7, 4.0):
        for c in (0.3, 7.0):
            cfg = ExperimentConfig(n=40, m=5, k=10, side=40.0, power_c=c, power_alpha=alpha,
                                   trials=3)
            for t in range(cfg.trials):
                yield f"alpha={alpha} c={c} trial {t}", generate_instance(cfg, t)
    rng = np.random.default_rng(1729)
    for t in range(4):
        for k in (6, 24):  # m*k = n, and k >= n
            yield f"grid n=24 m=4 k={k} #{t}", Instance.from_coords(
                rng.integers(0, 6, (4, 2)), rng.integers(0, 6, (24, 2)), k)
    for t in range(2):  # 18 000 pairs: NCA draws them in runs
        yield f"grid n=600 m=30 k=25 #{t}", Instance.from_coords(
            rng.integers(0, 12, (30, 2)), rng.integers(0, 12, (600, 2)), 25)
    # NCA shapes of many runs: 300 000 pairs at m*k = n; 40 000 integer
    # radii, so every run bound is a radius many pairs share; one radius.
    cfg = ExperimentConfig(n=3000, m=100, k=30, side=40.0, trials=1, seed=1729)
    yield "n=3000 m=100 k=30 seed 1729", generate_instance(cfg, 0)
    yield "grid n=1000 m=40 k=25", Instance.from_coords(
        rng.integers(0, 12, (40, 2)), rng.integers(0, 12, (1000, 2)), 25)
    yield "coincident n=1000 m=20 k=50", Instance.from_coords(
        [(3.5, -2.0)] * 20, [(3.5, -2.0)] * 1000, 50)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(inst) -> dict[str, str]:
    """The digests of one instance's mlr and nca solution files and of
    MLR's joined trace lines."""
    trace = []
    mlr = solve_mlr(inst, trace.append)
    return {
        "mlr": _sha256(solution_to_json(mlr, inst)),
        "mlr_trace": _sha256("".join(map(trace_line, trace))),
        "nca": _sha256(solution_to_json(solve_nca(inst), inst)),
    }


def exact_digests() -> dict[str, str]:
    """The digests of exact's status and solution file on every trial of
    ``EXACT_SMALL``, joined, and of that config's results.csv without its
    wall_ms column."""
    cfg = EXACT_SMALL
    files = []
    for t in range(cfg.trials):
        inst = generate_instance(cfg, t)
        res = solve_exact(inst, cfg.exact_budget)
        files.append(f"{res.status}\n{solution_to_json(res.solution, inst)}")
    with tempfile.TemporaryDirectory() as out:
        run_sweep([cfg], "custom", out)
        with open(Path(out) / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
    wall = rows[0].index("wall_ms")
    table = "".join(",".join(row[:wall] + row[wall + 1:]) + "\n" for row in rows)
    return {"exact": _sha256("".join(files)), "results_csv": _sha256(table)}


def recorded() -> dict[str, dict[str, str]]:
    """Every digest that golden.json holds, by name."""
    doc = {name: digests(inst) for name, inst in corpus()}
    doc[f"exact-small seed {EXACT_SMALL.seed}"] = exact_digests()
    return doc


if __name__ == "__main__":
    doc = recorded()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(doc)} entries -> {GOLDEN}")
