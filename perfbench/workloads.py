"""The benchmark's three workloads: inputs, one timed CLI pass, one timed
solver pass of direct solver calls, and the gate.

Every pass goes through ``mpcc.cli.run`` in-process, exactly as a user's
``mpcc`` command would, with the command's stdout and stderr captured.
A pass repeats the same inputs, so the solver outputs of every pass must
be byte-identical to the reference recorded for the seed (see
``reference.json``) or, for a seed without one, to the first pass.  A
solver pass (``time_solves``) calls the same solvers on the same instances
through their public functions, with the calibration kernel between the
calls, and every solution's power must equal the pass's.

Why each workload exists (sizes and the reasons for them: README.md):

* ``solve-large``: one n=1000, m=40 instance through ``mpcc solve`` with
  mlr then nca, each followed by ``mpcc check``.  The memory and
  array-kernel regime: the (m*n x n) containment matrix, the order tables
  and MLR's per-round array work carry the time.
* ``sweep-small``: ``mpcc bench --preset 3 --trials 10``, 50 instances of
  n=100 times {mlr, nca}.  The per-call fixed-cost regime (disk objects,
  set-up per solve) and the paper's m-sweep path.
* ``exact-small``: ``mpcc bench --config`` on 600 instances of n=5, m=4
  with {exact, mlr, nca}.  The only workload where branch-and-bound and
  the max-flow checker carry the time, and where MLR's distance from the
  optimum is measurable.  MLR and geometry-table changes should leave it
  unchanged.
"""

import csv
import hashlib
import io
import json
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibration

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

_SOLVE_LINE = re.compile(r"total_power=(\S+) wall_ms=(\S+)")


@dataclass
class PassResult:
    """What one pass did, per algorithm."""

    seconds: float
    attempted: dict[str, int]
    failed: dict[str, int] = field(default_factory=dict)
    wall_s: dict[str, list[float]] = field(default_factory=dict)
    powers: dict[str, list[float]] = field(default_factory=dict)
    outputs: dict[str, dict] = field(default_factory=dict)
    kernel_s: dict[str, list[float]] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    def fail(self, alg: str, count: int, message: str) -> None:
        self.failed[alg] = min(self.attempted[alg], self.failed.get(alg, 0) + count)
        self.messages.append(f"{alg}: {message}")

    @property
    def passed(self) -> int:
        return sum(self.attempted.values()) - sum(self.failed.values())


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``mpcc <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, never a lost run
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(workload: str, seed: int) -> dict | None:
    """Outputs recorded from the seed commit for this workload and seed."""
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload, {}).get(str(seed))


def gate(result: PassResult, expected: dict) -> None:
    """Count every solve whose output differs from ``expected`` as failed."""
    for alg, want in expected.items():
        got = result.outputs.get(alg)
        if got != want:
            result.fail(alg, result.attempted.get(alg, 0),
                        f"output {got} differs from reference {want}")


def _solve(mpcc, alg: str, inst):
    """One direct solver call; returns its solution, or None on an exact budget miss."""
    if alg == "mlr":
        return mpcc.mlr.solve_mlr(inst)
    if alg == "nca":
        return mpcc.baselines.solve_nca(inst)
    res = mpcc.baselines.solve_exact(inst)
    return res.solution if res.status == mpcc.baselines.STATUS_OPTIMAL else None


def time_solves(mpcc, wl, instances: list, expected_powers: dict) -> PassResult:
    """Call each solver of ``wl`` directly on every instance, in pass order.

    Each call is timed, followed by ``wl.kernel_calls`` calibration kernel
    calls, and its ``kernel_s`` is the mean of the kernel slots on either
    side.  A solution whose power differs from the gated CLI pass
    (``expected_powers``), or that the solver does not return, fails.
    """
    res = PassResult(seconds=0.0, attempted={alg: len(instances) for alg in wl.algorithms})
    t0 = perf_counter()
    before = calibration.slot(wl.kernel_calls)
    for i, inst in enumerate(instances):
        for alg in wl.algorithms:
            start = perf_counter()
            sol = _solve(mpcc, alg, inst)
            elapsed = perf_counter() - start
            after = calibration.slot(wl.kernel_calls)
            res.wall_s.setdefault(alg, []).append(elapsed)
            res.kernel_s.setdefault(alg, []).append((before + after) / 2)
            before = after
            want = expected_powers.get(alg, [])
            power = None if sol is None else sol.total_power
            if i >= len(want) or power != want[i]:
                res.fail(alg, 1, f"direct solve {i}: power {power}, CLI gave "
                                 f"{want[i] if i < len(want) else None}")
    res.seconds = perf_counter() - t0
    return res


class SolveLarge:
    name = "solve-large"
    algorithms = ("mlr", "nca")
    kernel_calls = 1250  # calibration kernel calls after each direct solve
    # Its two solves take 0.4-0.6 s each and need more repetitions than
    # the small ones to give a steady median; CLI passes add none.
    solver_passes_per_round = 2

    def __init__(self, shrink: bool = False):
        self.n, self.m = (120, 6) if shrink else (1000, 40)

    def instance_path(self, work: Path) -> Path:
        return work / "instance.json"

    def write_inputs(self, cli, work: Path, seed: int) -> None:
        rc, _, err = run_cli(cli, [
            "gen", "--n", str(self.n), "--m", str(self.m), "--k", "40",
            "--side", "40", "--seed", str(seed), "--trial", "0",
            "--out", str(self.instance_path(work)),
        ])
        if rc != 0:
            raise RuntimeError(f"mpcc gen exited {rc}: {err.strip()}")

    def probe_instance(self, mpcc, work: Path, seed: int):
        return mpcc.formats.instance_from_json(self.instance_path(work).read_text())

    def instances(self, mpcc, work: Path, seed: int) -> list:
        """The instances a pass solves, in its order."""
        return [self.probe_instance(mpcc, work, seed)]

    def run_pass(self, cli, work: Path, seed: int) -> PassResult:
        inst = str(self.instance_path(work))
        res = PassResult(seconds=0.0, attempted={alg: 1 for alg in self.algorithms})
        t0 = perf_counter()
        for alg in self.algorithms:
            sol = work / f"{alg}.json"
            rc, out, err = run_cli(cli, ["solve", "--alg", alg, "--in", inst, "--out", str(sol)])
            match = _SOLVE_LINE.search(out)
            if rc != 0 or match is None:
                res.fail(alg, 1, f"solve exited {rc}: {err.strip()[-500:]}")
                continue
            check_rc, check_out, _ = run_cli(
                cli, ["check", "--instance", inst, "--solution", str(sol)]
            )
            res.wall_s.setdefault(alg, []).append(float(match.group(2)) / 1e3)
            res.outputs[alg] = {
                "sha256": sha256_text(sol.read_text()),
                "total_power": match.group(1),
            }
            if check_rc != 0 or check_out.strip() != "ok":
                res.fail(alg, 1, f"check exited {check_rc}: {check_out.strip()[:500]}")
                continue
            res.powers.setdefault(alg, []).append(float(match.group(1)))
        res.seconds = perf_counter() - t0
        return res


class BenchSweep:
    """A workload that is one ``mpcc bench`` sweep."""

    solver_passes_per_round = 1

    def __init__(self, name: str, algorithms: tuple[str, ...], solves_per_alg: int):
        self.name = name
        self.algorithms = algorithms
        self.solves_per_alg = solves_per_alg

    def bench_args(self, work: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def configs(self, mpcc, seed: int) -> list:
        raise NotImplementedError

    def instances(self, mpcc, work: Path, seed: int) -> list:
        """The instances a pass solves, in the order of its ``results.csv`` rows."""
        return [mpcc.experiments.generate_instance(cfg, trial)
                for cfg in self.configs(mpcc, seed) for trial in range(cfg.trials)]

    def run_pass(self, cli, work: Path, seed: int) -> PassResult:
        out_dir = work / "bench"
        res = PassResult(
            seconds=0.0, attempted={alg: self.solves_per_alg for alg in self.algorithms}
        )
        t0 = perf_counter()
        rc, _, err = run_cli(cli, ["bench", *self.bench_args(work, seed),
                                   "--out-dir", str(out_dir)])
        res.seconds = perf_counter() - t0
        if rc != 0:
            for alg in self.algorithms:
                res.fail(alg, self.solves_per_alg, f"bench exited {rc}: {err.strip()[-500:]}")
            return res
        with open(out_dir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for alg in self.algorithms:
            mine = [r for r in rows if r["algorithm"] == alg]
            if len(mine) != self.solves_per_alg:
                res.fail(alg, self.solves_per_alg,
                         f"{len(mine)} result rows, expected {self.solves_per_alg}")
            bad = [r for r in mine if r["status"] != "ok"]
            if bad:
                res.fail(alg, len(bad), f"{len(bad)} rows with status {bad[0]['status']}")
            ok = [r for r in mine if r["status"] == "ok"]
            res.wall_s[alg] = [float(r["wall_ms"]) / 1e3 for r in ok]
            res.powers[alg] = [float(r["total_power"]) for r in ok]
            # wall_ms is the only column that may differ between runs.
            canonical = "\n".join(
                ",".join(v for k, v in r.items() if k != "wall_ms") for r in mine
            )
            power_sum = sum(float(r["total_power"]) for r in ok)
            res.outputs[alg] = {
                "sha256": sha256_text(canonical),
                "total_power": repr(power_sum),
            }
        return res


class SweepSmall(BenchSweep):
    kernel_calls = 20

    def __init__(self, shrink: bool = False):
        self.trials = 2 if shrink else 10
        super().__init__("sweep-small", ("mlr", "nca"), 5 * self.trials)

    def write_inputs(self, cli, work: Path, seed: int) -> None:
        """Preset 3 needs no input file; set-up is importing the program."""

    def bench_args(self, work: Path, seed: int) -> list[str]:
        return ["--preset", "3", "--seed", str(seed), "--trials", str(self.trials)]

    def configs(self, mpcc, seed: int) -> list:
        return mpcc.experiments.override_configs(
            mpcc.experiments.preset(3), trials=self.trials, seed=seed
        )

    def probe_instance(self, mpcc, work: Path, seed: int):
        return mpcc.experiments.generate_instance(self.configs(mpcc, seed)[-1], 0)


class ExactSmall(BenchSweep):
    kernel_calls = 2

    def __init__(self, shrink: bool = False):
        self.config = (
            {"n": 6, "m": 3, "k": 3, "side": 40, "trials": 3}
            if shrink
            else {"n": 5, "m": 4, "k": 4, "side": 40, "trials": 600}
        )
        super().__init__("exact-small", ("exact", "mlr", "nca"), self.config["trials"])

    def config_path(self, work: Path) -> Path:
        return work / "config.json"

    def write_inputs(self, cli, work: Path, seed: int) -> None:
        doc = [dict(self.config, seed=seed, algorithms=list(self.algorithms))]
        self.config_path(work).write_text(json.dumps(doc) + "\n")

    def bench_args(self, work: Path, seed: int) -> list[str]:
        return ["--config", str(self.config_path(work))]

    def configs(self, mpcc, seed: int) -> list:
        c = self.config
        return [mpcc.experiments.ExperimentConfig(
            n=c["n"], m=c["m"], k=c["k"], side=float(c["side"]), trials=c["trials"], seed=seed
        )]

    def probe_instance(self, mpcc, work: Path, seed: int):
        return mpcc.experiments.generate_instance(self.configs(mpcc, seed)[0], 0)


WORKLOADS = {
    "solve-large": SolveLarge,
    "sweep-small": SweepSmall,
    "exact-small": ExactSmall,
}


def make(name: str, shrink: bool = False):
    return WORKLOADS[name](shrink)
