"""Command-line interface: gen, solve, check, and bench subcommands.

Exit codes: 0 success, 2 bad command line (argparse), 3 unreadable or
malformed input file, 4 invalid instance or parameters, 5 infeasible
solution, 6 exact-solver budget exceeded, 1 other runtime failure.
"""

import argparse
import functools
import sys
from contextlib import nullcontext
from pathlib import Path

from . import experiments
from .baselines import ExactBudget
from .formats import (
    FormatError,
    configs_from_json,
    instance_from_json,
    instance_to_json,
    solution_to_json,
    solution_violations,
    trace_line,
)
from .model import validate_instance

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_INFEASIBLE = 5
EXIT_BUDGET = 6

__all__ = [
    "main",
    "run",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "EXIT_PARSE",
    "EXIT_VALIDATION",
    "EXIT_INFEASIBLE",
    "EXIT_BUDGET",
]


@functools.cache  # parsing leaves the parser as it was, so a process needs one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpcc",
        description=(
            "Minimum-power capacitated cover toolkit: generate instances, "
            "solve them with mlr/nca/exact, check solutions, and run "
            "benchmark sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--n", type=int, required=True, help="number of TDs")
    gen.add_argument("--m", type=int, required=True, help="number of APs")
    gen.add_argument("--k", type=int, required=True, help="AP capacity")
    gen.add_argument("--side", type=float, default=40.0, help="square side length")
    gen.add_argument("--c", type=float, default=1.0, help="power constant c")
    gen.add_argument("--alpha", type=float, default=2.0, help="attenuation factor")
    gen.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
    gen.add_argument("--trial", type=int, default=0, help="trial index under the seed")
    gen.add_argument("--out", required=True, help="instance JSON path")

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--alg", choices=experiments.ALGORITHMS, required=True)
    solve.add_argument("--in", dest="instance", required=True, help="instance JSON path")
    solve.add_argument("--out", required=True, help="solution JSON path")
    solve.add_argument("--trace", help="write the mlr iteration trace (JSON lines)")
    solve.add_argument("--max-nodes", type=int, default=ExactBudget.max_nodes,
                       help="exact-solver node budget")
    solve.add_argument("--max-seconds", type=float, default=ExactBudget.max_seconds,
                       help="exact-solver wall-clock budget")

    check = sub.add_parser("check", help="check a solution against an instance")
    check.add_argument("--instance", required=True)
    check.add_argument("--solution", required=True)

    bench = sub.add_parser("bench", help="run a benchmark sweep")
    source = bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", type=int, choices=(1, 2, 3, 4))
    source.add_argument("--config", help="JSON file with a list of config objects")
    bench.add_argument("--out-dir", required=True)
    bench.add_argument("--trials", type=int, help="override trials per config")
    bench.add_argument("--seed", type=int, help="override the base seed")
    bench.add_argument("--max-n", type=int, help="drop sweep points with n above this")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _error(code: int, *messages) -> int:
    """Print each message as an ``error:`` line and return ``code``."""
    for msg in messages:
        print(f"error: {msg}", file=sys.stderr)
    return code


def _cmd_gen(args) -> int:
    cfg = experiments.ExperimentConfig(
        n=args.n, m=args.m, k=args.k, side=args.side,
        power_c=args.c, power_alpha=args.alpha, trials=1, seed=args.seed,
    )
    problems = experiments.config_violations(cfg)
    if args.trial < 0:
        problems.append("trial must be non-negative")
    if problems:
        return _error(EXIT_VALIDATION, *problems)
    inst = experiments.generate_instance(cfg, args.trial)
    Path(args.out).write_text(instance_to_json(inst))
    print(f"seed={args.seed} trial={args.trial} n={args.n} m={args.m} "
          f"k={args.k} side={args.side:g} -> {args.out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.trace and args.alg != "mlr":
        return _error(EXIT_USAGE, "--trace is only available for --alg mlr")
    inst = instance_from_json(_read(args.instance))
    problems = validate_instance(inst)
    for flag, value in (("--max-nodes", args.max_nodes), ("--max-seconds", args.max_seconds)):
        if not value >= 0:  # refuses nan too; an inf --max-seconds means no limit
            problems.append(f"{flag} must be non-negative, not {value}")
    if problems:
        return _error(EXIT_VALIDATION, *problems)

    budget = ExactBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    # Each round's line is written as the round ends; no rounds are kept.
    with open(args.trace, "w") if args.trace else nullcontext() as fh:
        trace = None if fh is None else (lambda doc: fh.write(trace_line(doc)))
        sol, wall_ms, _, nodes = experiments.solve_timed(args.alg, inst, budget, trace)
    if sol is None:
        print(f"budget exceeded after {wall_ms / 1e3:.3f}s and {nodes} nodes; "
              "no solution written", file=sys.stderr)
        return EXIT_BUDGET
    Path(args.out).write_text(solution_to_json(sol, inst))
    variance = experiments.utilization_variance(sol, inst)
    print(f"total_power={sol.total_power:.17g} wall_ms={wall_ms:.3f} "
          f"variance={variance:.17g}")
    return EXIT_OK


def _cmd_check(args) -> int:
    inst = instance_from_json(_read(args.instance))
    solution_text = _read(args.solution)
    problems = validate_instance(inst)
    if problems:
        return _error(EXIT_VALIDATION, *problems)
    violations = solution_violations(solution_text, inst)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return EXIT_INFEASIBLE
    print("ok")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.preset is not None:
        series = args.preset
        configs = experiments.preset(series)
    else:
        series = "custom"
        configs = configs_from_json(_read(args.config))
    if args.max_n is not None:
        configs = [cfg for cfg in configs if cfg.n <= args.max_n]
    configs = experiments.override_configs(configs, trials=args.trials, seed=args.seed)
    if not configs:
        return _error(EXIT_VALIDATION, "sweep is empty after truncation")
    for cfg in configs:
        problems = experiments.config_violations(cfg)
        if problems:
            return _error(EXIT_VALIDATION, *problems)
    experiments.run_sweep(configs, series, args.out_dir, progress=print)
    print(f"wrote {Path(args.out_dir) / 'results.csv'}")
    return EXIT_OK


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "check": _cmd_check,
        "bench": _cmd_bench,
    }[args.command]
    # Exit codes of what a command raises; _read makes read failures FormatErrors.
    try:
        return handler(args)
    except FormatError as exc:
        return _error(EXIT_PARSE, exc)
    except experiments.ExperimentError as exc:
        return _error(EXIT_FAILURE, exc)
    except OSError as exc:
        return _error(EXIT_FAILURE, f"cannot write: {exc}")
    except MemoryError as exc:
        return _error(EXIT_FAILURE, f"out of memory: {exc}" if str(exc) else "out of memory")


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
