"""Benchmark harness for mpcc: end-to-end and per-layer metrics per workload.

Run from the repository root:

    python3 perfbench/run.py --workload solve-large [--seed 1729] [--seconds 30] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, untraced then traced

Each workload runs in its own process.  The run times the set-up step
(a fresh interpreter writing the inputs), then repeats rounds until
``--seconds`` is used up: a pass through ``mpcc.cli.run``, gated against
the outputs recorded from the seed commit; a solver pass that calls each
solver directly on the same instances, timing every call next to a fixed
calibration kernel (calibration.py); and another timed set-up.  End-to-end
times are scaled by the kernel's time beside them, so that the machine's
slow spells cancel out.  ``--trace 1`` alternates untraced and traced
passes and reports per-layer numbers from the traced ones.  Every
metric is printed to stderr by name with its unit; the last line of
stdout is one JSON object with the metrics that BENCHMARK.json names.  See perfbench/README.md.
"""

import os
import sys

# Pinned before numpy loads; PYTHONHASHSEED only takes effect at start-up,
# so the process re-executes itself once with the pinned environment.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, write_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
ABSENT = -1.0  # value of a layer metric whose function no longer exists
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples beyond it
BRACKET_CALLS = 500  # calibration kernel calls (about 20 ms) either side of a set-up or pass


def import_program():
    """Import mpcc from this checkout's src/, never from elsewhere."""
    if not (SRC / "mpcc" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'mpcc'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mpcc
    import mpcc.cli
    import mpcc.experiments
    import mpcc.formats
    import mpcc.mlr

    if SRC not in Path(mpcc.__file__).resolve().parents:
        sys.exit(f"error: mpcc imported from {mpcc.__file__}, not from {SRC}")
    return mpcc


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **{k: os.environ.get(k) for k in PINNED_ENV},
    }


def _time_setup(name: str, seed: int, work: Path, shrink: bool) -> float:
    cmd = [sys.executable, str(HERE / "make_inputs.py"), name, str(seed), str(work)]
    if shrink:
        cmd.append("--shrink")
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"error: set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def _bracketed(fn):
    """``fn()``, and the calibration kernel's time in slots either side of it."""
    before = calibration.slot(BRACKET_CALLS)
    value = fn()
    return value, (before + calibration.slot(BRACKET_CALLS)) / 2


def _quantile90(xs: list[float]) -> float | None:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= P90_MIN_SAMPLES else None


def fastest_per_solve(passes, alg: str) -> list[float]:
    """Each solve's fastest time over the passes, in solve order.

    The passes repeat the same solves, so a solve's fastest repetition is
    its least disturbed one.  Passes with a failed solve are left out,
    since their samples no longer line up.
    """
    full = [p.wall_s[alg] for p in passes if not p.failed.get(alg) and alg in p.wall_s]
    return [min(reps) for reps in zip(*full)]


def scaled_per_solve(solver_passes, alg: str) -> list[float]:
    """Each solve's time in seconds at the kernel's reference speed, in solve order.

    Per repetition, the solve's time over the kernel's time beside it;
    the median over the solver passes; times ``REFERENCE_S``.  A ratio
    taken call by call cancels the machine's slow spells, and its median
    is steadier on solve-large's long solves than fastest time over
    fastest kernel (coefficient of variation 3% against 7%).
    """
    full = [list(zip(s.wall_s[alg], s.kernel_s[alg]))
            for s in solver_passes if not s.failed.get(alg) and alg in s.wall_s]
    return [calibration.REFERENCE_S * statistics.median(t / k for t, k in reps)
            for reps in zip(*full)]


def end_to_end(wl, passes, pass_kernel, solver_passes, setups) -> dict:
    """Metrics a user sees, from the untraced CLI and solver passes: name -> (value, unit).

    Every time is divided by the calibration kernel's time beside it and
    multiplied by ``REFERENCE_S`` (see calibration.py), then the median is
    taken over its repetitions: solver calls against the kernel slots of
    their solver passes, set-ups and CLI passes against the slots either
    side of them.  ``*_raw`` are the same figures unscaled.
    """
    ref = calibration.REFERENCE_S
    attempted = sum(sum(p.attempted.values()) for p in passes + solver_passes)
    failed = sum(sum(p.failed.values()) for p in passes + solver_passes)
    passed = sum(p.passed for p in passes) / len(passes)
    m = {
        "setup_s": (statistics.median(t * ref / k for t, k in setups), "s"),
        "setup_s_raw": (statistics.median(t for t, _ in setups), "s"),
    }
    # A CLI pass is its solver calls plus the rest (CLI, parsing,
    # generation, checking, serialising, CSV writes).  Solver calls are
    # taken from the solver passes, the rest from the CLI passes.
    rests = [p.seconds - sum(sum(xs) for xs in p.wall_s.values()) for p in passes]
    solver_s, solver_raw_s = 0.0, 0.0
    for a in wl.algorithms:
        xs = scaled_per_solve(solver_passes, a)
        raw = fastest_per_solve(solver_passes, a)
        solver_s += sum(xs)
        solver_raw_s += sum(raw)
        m[f"{a}_s_mean"] = (statistics.fmean(xs) if xs else None, "s")
        m[f"{a}_s_mean_raw"] = (statistics.fmean(raw) if raw else None, "s")
        m[f"{a}_s_p50"] = (statistics.median(xs) if xs else None, "s")
        m[f"{a}_s_p90"] = (_quantile90(xs), "s")
        m[f"{a}_s_samples"] = (len(xs), "count")
    rest_s = statistics.median(r * ref / k for r, k in zip(rests, pass_kernel))
    m.update({
        "solves_per_s": (passed / (rest_s + solver_s), "1/s"),
        "solves_per_s_raw": (passed / (statistics.median(rests) + solver_raw_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
        "passes": (len(passes), "count"),
        "kernel_s": (statistics.median(pass_kernel), "s"),
    })
    powers = {a: passes[0].powers.get(a, []) for a in wl.algorithms}
    for a in wl.algorithms:
        m[f"{a}_power_mean"] = (statistics.fmean(powers[a]) if powers[a] else None, "power")
    if "exact" in wl.algorithms and len(powers["exact"]) == len(powers["mlr"]) > 0:
        ratios = [x / opt for x, opt in zip(powers["mlr"], powers["exact"])]
        m["mlr_opt_ratio"] = (statistics.fmean(ratios), "ratio")
    return m


def _layers_of_pass(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass: name -> value."""
    summary = tracer.summary()

    def part(span: str, key: str):
        if span not in tracer.present:
            return ABSENT
        return summary.get(span, {}).get(key, 0.0)

    def count(name: str, span: str):
        if span not in tracer.present or any(u.startswith(span) for u in tracer.unreadable):
            return ABSENT
        return tracer.counts[name]

    solve = summary.get("mlr.solve_mlr")
    calls = tracer.counts["baselines.flow_calls"]
    return {
        "model.build_disk_family_s": part("model.build_disk_family", "self_s"),
        "model.disk_order_tables_s": part("model.disk_order_tables", "self_s"),
        "model.check_feasible_s": part("model.check_feasible", "self_s"),
        "model.validate_instance_s": part("model.validate_instance", "self_s"),
        "mlr.init_state_s": part("mlr.init_state", "self_s"),
        "mlr.select_s": part("mlr.select", "self_s"),
        "mlr.apply_s": part("mlr.apply", "self_s"),
        "mlr.assemble_s": part("mlr.assemble", "self_s"),
        "mlr.solve_s": part("mlr.solve_mlr", "total_s"),
        "mlr.unsplit_frac": (
            solve["self_s"] / solve["total_s"] if solve and solve["total_s"] > 0 else ABSENT
        ),
        "mlr.rounds": count("mlr.rounds", "mlr.select"),
        "mlr.disks_retired": count("mlr.disks_retired", "mlr.apply"),
        "baselines.nca_self_s": part("baselines.solve_nca", "self_s"),
        "baselines.exact_self_s": part("baselines.solve_exact", "self_s"),
        "baselines.flow_s": part("baselines.max_flow", "total_s"),
        "baselines.exact_nodes": count("baselines.exact_nodes", "baselines.solve_exact"),
        "baselines.flow_calls": count("baselines.flow_calls", "baselines.max_flow"),
        "baselines.flow_feasible_frac": (
            ABSENT if count("baselines.flow_feasible", "baselines.solve_exact") == ABSENT
            else tracer.counts["baselines.flow_feasible"] / calls if calls else 0.0
        ),
        "formats.instance_from_json_s": part("formats.instance_from_json", "self_s"),
        "formats.solution_to_json_s": part("formats.solution_to_json", "self_s"),
        "formats.solution_violations_s": part("formats.solution_violations", "self_s"),
        "experiments.generate_instance_s": part("experiments.generate_instance", "self_s"),
        "experiments.write_csv_s": part("experiments.write_csv", "self_s"),
        "cli.self_s": part("cli.run", "self_s"),
    }


def _tables_peak_mb(mpcc, wl, work: Path, seed: int) -> float:
    """tracemalloc peak around one ``init_state`` on the workload's largest instance."""
    init_state = getattr(getattr(mpcc, "mlr", None), "init_state", None)
    if init_state is None:
        return ABSENT
    inst = wl.probe_instance(mpcc, work, seed)
    tracemalloc.start()
    try:
        init_state(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def per_layer(mpcc, wl, work, seed, layer_passes, untraced, traced) -> dict:
    """Per-layer metrics, the least over the traced passes: name -> (value, unit)."""
    m = {}
    for name in layer_passes[0]:
        values = [lp[name] for lp in layer_passes]
        value = ABSENT if ABSENT in values else min(values)
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_frac") else "count"
        m[name] = (value, unit)
    m["mlr.tables_peak_mb"] = (_tables_peak_mb(mpcc, wl, work, seed), "MB")
    m["trace.overhead_s"] = (
        min(p.seconds for p in traced) - min(p.seconds for p in untraced), "s"
    )
    return m


def run_one(args) -> int:
    mpcc = import_program()
    wl = workloads.make(args.workload, args.shrink)
    run_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)

    # One set-up writes the inputs; the others, one after each pass, go to a
    # spare directory, so that set-up is sampled across the run.
    setups = [_bracketed(lambda: _time_setup(wl.name, args.seed, work, args.shrink))]
    spare = run_dir / "setup"
    reference = None if args.shrink else workloads.load_reference(wl.name, args.seed)
    instances = wl.instances(mpcc, work, args.seed)

    tracer = Tracer() if args.trace else None
    untraced, pass_kernel, solver_passes, traced, layer_passes, span_log = [], [], [], [], [], []
    t_start = perf_counter()
    while True:
        if tracer is not None and len(traced) < len(untraced):
            tracer.reset()
            with tracer.patched():
                res = wl.run_pass(mpcc.cli, work, args.seed)
            layer_passes.append(_layers_of_pass(tracer))
            span_log.append(tracer.spans())
            traced.append(res)
        else:
            res, kernel = _bracketed(lambda: wl.run_pass(mpcc.cli, work, args.seed))
            untraced.append(res)
            pass_kernel.append(kernel)
        first = untraced[0].outputs
        workloads.gate(res, reference if reference is not None else first)
        if res is untraced[-1]:
            for _ in range(wl.solver_passes_per_round):
                solver_passes.append(workloads.time_solves(mpcc, wl, instances, untraced[0].powers))
        setups.append(_bracketed(lambda: _time_setup(wl.name, args.seed, spare, args.shrink)))
        elapsed = perf_counter() - t_start
        typical = statistics.median(p.seconds for p in untraced + traced)
        typical += statistics.median(s.seconds for s in solver_passes) * wl.solver_passes_per_round
        if (tracer is None or traced) and elapsed + typical > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(_bracketed(lambda: _time_setup(wl.name, args.seed, spare, args.shrink)))
    if tracer is not None:
        write_spans(run_dir / "spans.csv.gz", span_log)
    passes = untraced + traced + solver_passes

    e2e = end_to_end(wl, untraced, pass_kernel, solver_passes, setups)
    metrics = (
        per_layer(mpcc, wl, work, args.seed, layer_passes, untraced, traced)
        if tracer is not None else e2e
    )
    attempted = sum(sum(p.attempted.values()) for p in passes)
    failed = sum(sum(p.failed.values()) for p in passes)
    messages = [msg for p in passes for msg in p.messages]
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "shrink": args.shrink,
        "environment": _environment(),
        "reference": "recorded" if reference is not None else
                     "none for this seed: passes checked against the first pass",
        "passes": [{"traced": traced_pass, "seconds": p.seconds, "passed": p.passed}
                   for group, traced_pass in ((untraced, False), (traced, True))
                   for p in group],
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:20],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }
    if tracer is not None:
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["absent_layers"] = sorted(k for k, (v, _) in metrics.items() if v == ABSENT)
        report["unreadable_counters"] = sorted(tracer.unreadable)
    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    _print_report(report)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [d["name"] for d in benchmark["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0] if metrics[name][0] is not None else 0.0,
                   "unit": metrics[name][1]}
            for name in declared
        },
    }))
    return 0


def _print_report(report: dict) -> None:
    err = sys.stderr
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']}", file=err)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in report["environment"].items()),
          file=err)
    print(f"reference: {report['reference']}", file=err)
    for traced in (False, True):
        secs = [p["seconds"] for p in report["passes"] if p["traced"] == traced]
        if secs:
            print(f"{'traced' if traced else 'untraced'} passes: {len(secs)}, median "
                  f"{statistics.median(secs):.3f} s, range {min(secs):.3f}-{max(secs):.3f} s",
                  file=err)
    print(f"gate: {report['failed']} of {report['attempted']} solves failed", file=err)
    for msg in report["failures"]:
        print(f"  FAIL {msg}", file=err)
    sections = ["end_to_end"] + (["per_layer"] if "per_layer" in report else [])
    for section in sections:
        for name, m in report[section].items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:34s} {value:>14s} {m['unit']}", file=err)
    if report.get("absent_layers"):
        print("absent layers (reported as -1): " + ", ".join(report["absent_layers"]), file=err)


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--shrink"] if args.shrink else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            results[f"{name}/trace{trace}"] = result
            if result is None or not result["correct"]:
                status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", action="store_true",
                        help="tiny sizes, for testing the harness itself")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
