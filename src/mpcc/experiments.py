"""Random-instance generation, load-balance metric, and benchmark sweeps.

Instances are drawn uniformly over a square with a portable seeded
generator (PCG64 keyed by ``SeedSequence([seed, trial_index])``, APs
drawn before TDs), so every trial is reproducible from its config.  Each
experiment runs a config for a number of trials, times the solve calls,
and averages total power, wall time, and the coverage-balance variance
``sum_a (|C_a| - n/m)^2 / m``.
"""

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .baselines import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_OPTIMAL,
    ExactBudget,
    solve_exact,
    solve_nca,
)
from .model import Instance, Solution, check_feasible, validate_instance
from .mlr import solve_mlr

__all__ = [
    "ALGORITHMS",
    "DEFAULT_SEED",
    "MAX_DISKS",
    "MAX_TRIALS",
    "ExperimentConfig",
    "TrialRow",
    "AlgorithmSummary",
    "ExperimentReport",
    "ExperimentError",
    "config_violations",
    "generate_instance",
    "utilization_variance",
    "solve_timed",
    "run_experiment",
    "preset",
    "run_sweep",
    "override_configs",
    "write_results_csv",
    "write_plot_csvs",
    "RESULT_COLUMNS",
]

ALGORITHMS = ("mlr", "nca", "exact")
DEFAULT_SEED = 1729

# Upper bounds on a runnable config (see ``config_violations``).  Every
# shape of 10**6 disks tried (n x m = 5000 x 200, 1000 x 1000, 10**5 x 10,
# 10**6 x 1, 1 x 10**6) runs one mlr and nca trial in under a minute and
# 1 GB on a 2-vCPU machine.  That promise covers mlr and nca only: exact
# builds a TD bitmask per disk before its first node, about m·n²/8 bytes,
# and reports budget_exceeded after 0 nodes where m·n² > 4·10^9
# (``baselines._MAX_SETUP_BYTES``); with a 10-node budget it reached a
# maxrss of 128 MB at n x m = 2000 x 100 and 509 MB at 60 000 x 1.
MAX_DISKS = 10**6
MAX_TRIALS = 10**6

RESULT_COLUMNS = [
    "series",
    "config_id",
    "trial",
    "algorithm",
    "n",
    "m",
    "k",
    "side",
    "alpha",
    "total_power",
    "wall_ms",
    "variance",
    "status",
]


class ExperimentError(RuntimeError):
    """An experiment cannot run or went wrong: its config is invalid, or a
    trial produced an infeasible solution, reported with the offending
    (config, trial, seed) triple for reproduction."""


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    m: int
    k: int
    side: float
    power_c: float = 1.0
    power_alpha: float = 2.0
    trials: int = 50
    seed: int = DEFAULT_SEED
    algorithms: tuple[str, ...] = ("mlr", "nca")
    exact_budget: ExactBudget = ExactBudget()


@dataclass(frozen=True)
class TrialRow:
    trial: int
    algorithm: str
    total_power: float | None
    wall_ms: float
    variance: float | None
    status: str


@dataclass(frozen=True)
class AlgorithmSummary:
    algorithm: str
    mean_total_power: float | None
    mean_wall_ms: float | None
    mean_variance: float | None
    completed: int
    trials: int

    @property
    def completion_rate(self) -> float:
        return self.completed / self.trials


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[TrialRow]
    summary: dict[str, AlgorithmSummary]


def config_violations(cfg: ExperimentConfig) -> list[str]:
    """Every reason the config cannot run; empty list means it can.

    Besides the instance invariants, m * n (the number of candidate disks
    every solver tabulates) is at most ``MAX_DISKS`` and trials at most
    ``MAX_TRIALS``.
    """
    v = []
    if cfg.n < 1 or cfg.m < 1 or cfg.k < 1:
        v.append("n, m, and k must all be at least 1")
    elif cfg.m * cfg.k < cfg.n:
        v.append(f"total capacity m*k = {cfg.m * cfg.k} cannot cover n = {cfg.n} TDs")
    if cfg.n * cfg.m > MAX_DISKS:
        v.append(f"m*n = {cfg.m * cfg.n} candidate disks must be at most {MAX_DISKS}")
    if not (cfg.side > 0 and math.isfinite(cfg.side)):
        v.append(f"side length {cfg.side} must be positive and finite")
    elif min(cfg.n, cfg.m) >= 1 and cfg.n * cfg.m <= MAX_DISKS:
        # Every AP-TD distance in a generated instance is below the square's
        # diagonal, so the power law is checked on m disks that wide.
        corner = Instance.from_coords(aps=np.zeros((cfg.m, 2)), tds=[(cfg.side, cfg.side)],
                                      k=1, power_c=cfg.power_c, power_alpha=cfg.power_alpha)
        v.extend(validate_instance(corner))
    if not 1 <= cfg.trials <= MAX_TRIALS:
        v.append(f"trials must be between 1 and {MAX_TRIALS}")
    if cfg.seed < 0:
        v.append("seed must be non-negative")
    unknown = [a for a in cfg.algorithms if a not in ALGORITHMS]
    if unknown:
        v.append(f"unknown algorithms {unknown}")
    if not cfg.algorithms or len(set(cfg.algorithms)) < len(cfg.algorithms):
        v.append(f"algorithms {list(cfg.algorithms)} must be one or more distinct solvers")
    return v


def generate_instance(cfg: ExperimentConfig, trial_index: int) -> Instance:
    """Uniform random instance for one trial, reproducible from
    (seed, trial_index, n, m, side)."""
    gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([cfg.seed, trial_index]))
    )
    # One draw of m + n rows is the same stream as the APs' draw followed
    # by the TDs'.  The instance holds the two views of this fresh array,
    # so it shares it with no caller.
    xy = gen.random((cfg.m + cfg.n, 2))
    xy *= cfg.side
    xy.flags.writeable = False
    return Instance(xy[:cfg.m], xy[cfg.m:], int(cfg.k), float(cfg.power_c),
                    float(cfg.power_alpha))


def utilization_variance(sol: Solution, inst: Instance) -> float:
    """Variance of per-AP coverage counts around the balanced load n/m.

    APs that cover nothing count with size zero; the value is zero
    exactly when every AP covers n/m TDs.
    """
    m = inst.m
    target = inst.n / m
    get = sol.coverage.get
    acc = 0.0
    for ap_id in range(1, m + 1):
        diff = len(get(ap_id, ())) - target
        acc += diff * diff
    return acc / m


def solve_timed(
    algorithm: str,
    inst: Instance,
    budget: ExactBudget,
    trace: Callable[[dict], object] | None = None,
):
    """Run one solver by name; returns (solution_or_None, wall_ms, status, nodes).

    ``budget`` bounds the exact solver, whose budget miss comes back as
    ``(None, wall_ms, "budget_exceeded", nodes)``.  ``nodes`` is the exact
    search's node count, None for the other solvers.  ``trace`` is MLR's
    round sink (see ``solve_mlr``), called inside the timed call; other
    solvers ignore it.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    t0 = perf_counter()
    nodes = None
    if algorithm == "mlr":
        sol = solve_mlr(inst, trace=trace)
    elif algorithm == "nca":
        sol = solve_nca(inst)
    else:
        res = solve_exact(inst, budget)
        sol = res.solution if res.status == STATUS_OPTIMAL else None
        nodes = res.nodes_explored
    wall_ms = (perf_counter() - t0) * 1e3
    return sol, wall_ms, "ok" if sol is not None else STATUS_BUDGET_EXCEEDED, nodes


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every configured algorithm over all trials and aggregate.

    Budget misses of the exact solver are excluded from its means and
    show up in the completion rate.  An infeasible solver output aborts
    the experiment with the offending trial's details.
    """
    problems = config_violations(cfg)
    if problems:
        raise ExperimentError(f"invalid config {cfg}: " + "; ".join(problems))
    rows: list[TrialRow] = []
    done = {algorithm: [] for algorithm in cfg.algorithms}  # each solver's "ok" rows
    for trial in range(cfg.trials):
        inst = generate_instance(cfg, trial)
        for algorithm in cfg.algorithms:
            sol, wall_ms, status, _ = solve_timed(algorithm, inst, cfg.exact_budget)
            if sol is None:
                rows.append(TrialRow(trial, algorithm, None, wall_ms, None, status))
                continue
            violations = check_feasible(sol, inst)
            if violations:
                raise ExperimentError(
                    f"infeasible {algorithm} output at config={cfg}, "
                    f"trial={trial}, seed={cfg.seed}: {violations}"
                )
            row = TrialRow(trial, algorithm, sol.total_power, wall_ms,
                           utilization_variance(sol, inst), status)
            rows.append(row)
            done[algorithm].append(row)
    summary = {
        algorithm: AlgorithmSummary(
            algorithm=algorithm,
            mean_total_power=_mean([r.total_power for r in ok]),
            mean_wall_ms=_mean([r.wall_ms for r in ok]),
            mean_variance=_mean([r.variance for r in ok]),
            completed=len(ok),
            trials=cfg.trials,
        )
        for algorithm, ok in done.items()
    }
    return ExperimentReport(config=cfg, rows=rows, summary=summary)


def _mean(values: list[float]) -> float | None:
    """``values`` summed in order over their count; None if there are none."""
    return sum(values) / len(values) if values else None


def preset(series: int) -> list[ExperimentConfig]:
    """Benchmark sweeps.

    1: n grows with m = ceil(n/25), k = 40.
    2: capacity sweep k in {25, 50, 75, 100} at n = 100, m = 4.
    3: AP sweep m in {4, 8, 12, 16, 20} at n = 100, k = 25.
    4: AP sweep under a fixed capacity budget of 160, so m is limited to
       values where k = 160/m is integral.

    All presets use a side-40 square, alpha = 2, c = 1, and 50 trials.
    The exact solver is omitted.  m sets its reach, not n: at seed 1729
    on a 2-vCPU VM it solves preset 1's n = 20, m = 1 and n = 50, m = 2
    points in under 0.4 ms (22 and 1681-1965 nodes, trials 0-2), but
    spends its 2M-node budget in about 0.19 s at n = 100, m = 4, every
    other point's least m.
    """
    if series == 1:
        return [
            ExperimentConfig(n=n, m=max(1, math.ceil(n / 25)), k=40, side=40.0)
            for n in (20, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500)
        ]
    if series == 2:
        return [ExperimentConfig(n=100, m=4, k=k, side=40.0) for k in (25, 50, 75, 100)]
    if series == 3:
        return [ExperimentConfig(n=100, m=m, k=25, side=40.0) for m in (4, 8, 12, 16, 20)]
    if series == 4:
        return [
            ExperimentConfig(n=100, m=m, k=160 // m, side=40.0)
            for m in (4, 8, 10, 16, 20)
        ]
    raise ValueError(f"unknown preset series {series!r}")


def run_sweep(
    configs: list[ExperimentConfig],
    series,
    out_dir: str | Path,
    progress=None,
) -> list[ExperimentReport]:
    """Run a config list, writing raw rows and per-metric plot CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for config_id, cfg in enumerate(configs):
        report = run_experiment(cfg)
        reports.append(report)
        if progress is not None:
            parts = [f"series={series}", f"config={config_id}",
                     f"n={cfg.n}", f"m={cfg.m}", f"k={cfg.k}"]
            for algorithm, s in report.summary.items():
                if s.mean_total_power is not None:
                    parts.append(f"{algorithm}_mean={s.mean_total_power:.6g}")
            progress(" ".join(parts))
    write_results_csv(out / "results.csv", series, configs, reports)
    write_plot_csvs(out, series, configs, reports)
    return reports


def _csv_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_results_csv(path, series, configs, reports) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for config_id, (cfg, report) in enumerate(zip(configs, reports)):
            # The cells every row of a config shares are formatted once.
            head = _csv_value(series), _csv_value(config_id)
            shape = tuple(map(_csv_value, (cfg.n, cfg.m, cfg.k, cfg.side, cfg.power_alpha)))
            writer.writerows(
                (*head, _csv_value(row.trial), row.algorithm, *shape,
                 _csv_value(row.total_power), _csv_value(row.wall_ms),
                 _csv_value(row.variance), row.status)
                for row in report.rows
            )


def write_plot_csvs(out_dir, series, configs, reports) -> None:
    """One CSV per figure axis: sweep value then per-algorithm means."""
    out = Path(out_dir)
    param = {1: "n", 2: "k", 3: "m", 4: "m"}.get(series, "config_id")
    algorithms: list[str] = []
    for cfg in configs:
        for a in cfg.algorithms:
            if a not in algorithms:
                algorithms.append(a)
    metrics = {
        "mean_total_power.csv": "mean_total_power",
        "mean_wall_ms.csv": "mean_wall_ms",
        "mean_variance.csv": "mean_variance",
    }
    for filename, attr in metrics.items():
        with open(out / filename, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([param, *algorithms])
            for config_id, (cfg, report) in enumerate(zip(configs, reports)):
                value = {
                    "n": cfg.n, "k": cfg.k, "m": cfg.m, "config_id": config_id
                }[param]
                cells = [_csv_value(value)]
                for a in algorithms:
                    s = report.summary.get(a)
                    cells.append(_csv_value(getattr(s, attr) if s else None))
                writer.writerow(cells)


def override_configs(
    configs: list[ExperimentConfig],
    trials: int | None = None,
    seed: int | None = None,
) -> list[ExperimentConfig]:
    out = []
    for cfg in configs:
        updates = {}
        if trials is not None:
            updates["trials"] = trials
        if seed is not None:
            updates["seed"] = seed
        out.append(replace(cfg, **updates) if updates else cfg)
    return out
