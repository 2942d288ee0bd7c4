"""Spans around calls into mpcc's public functions, recorded from outside.

The tracer patches each function at the name its caller looks it up by:
``mpcc.mlr.build_disk_family`` and ``mpcc.baselines.build_disk_family``
are separate bindings of one function, ``FlowNetwork.max_flow`` is
patched on the class, and ``mpcc.cli`` and ``mpcc.experiments`` each hold
their own binding of every solver.  Patches are installed only for a
traced pass and removed after it, so untraced passes run unmodified code.

Spans live in memory as (name, start, end, parent) and are written out at
the end of a run.  A layer's self time is its span's duration minus the
time covered by its child spans.  A binding that no longer exists (a
later change may delete ``build_disk_family``, say) is reported as
absent; it never crashes the run and never reads as zero.
"""

import gzip
import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  Several bindings may share one span name.
BINDINGS = [
    ("mpcc.cli", "run", "cli.run"),
    ("mpcc.cli", "solve_mlr", "mlr.solve_mlr"),
    ("mpcc.experiments", "solve_mlr", "mlr.solve_mlr"),
    ("mpcc.mlr", "init_state", "mlr.init_state"),
    ("mpcc.mlr", "select_min_ratio", "mlr.select"),
    ("mpcc.mlr", "apply_selection", "mlr.apply"),
    ("mpcc.mlr", "assemble_solution", "mlr.assemble"),
    ("mpcc.mlr", "build_disk_family", "model.build_disk_family"),
    ("mpcc.baselines", "build_disk_family", "model.build_disk_family"),
    ("mpcc.mlr", "disk_order_tables", "model.disk_order_tables"),
    ("mpcc.cli", "solve_nca", "baselines.solve_nca"),
    ("mpcc.experiments", "solve_nca", "baselines.solve_nca"),
    ("mpcc.cli", "solve_exact", "baselines.solve_exact"),
    ("mpcc.experiments", "solve_exact", "baselines.solve_exact"),
    ("mpcc.baselines", "FlowNetwork.max_flow", "baselines.max_flow"),
    ("mpcc.experiments", "check_feasible", "model.check_feasible"),
    ("mpcc.formats", "check_feasible", "model.check_feasible"),
    ("mpcc.cli", "validate_instance", "model.validate_instance"),
    ("mpcc.cli", "instance_from_json", "formats.instance_from_json"),
    ("mpcc.cli", "solution_to_json", "formats.solution_to_json"),
    ("mpcc.cli", "solution_violations", "formats.solution_violations"),
    ("mpcc.experiments", "generate_instance", "experiments.generate_instance"),
    ("mpcc.experiments", "write_results_csv", "experiments.write_csv"),
    ("mpcc.experiments", "write_plot_csvs", "experiments.write_csv"),
]


def _resolve(module: str, attr: str):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.present = {span for mod, attr, span in BINDINGS if _resolve(mod, attr)}
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts = {
            "mlr.rounds": 0,
            "mlr.disks_retired": 0,
            "baselines.exact_nodes": 0,
            "baselines.flow_calls": 0,
            "baselines.flow_feasible": 0,
        }
        self.unreadable: set[str] = set()
        self._flows: list[int] = []

    def _count(self, span: str, args, result) -> None:
        """Counters read from arguments and results at the span boundary."""
        c = self.counts
        try:
            if span == "mlr.select":
                c["mlr.rounds"] += 1
            elif span == "mlr.apply":
                c["mlr.disks_retired"] += len(result[2])
            elif span == "baselines.max_flow":
                c["baselines.flow_calls"] += 1
                self._flows.append(result)
            elif span == "baselines.solve_exact":
                c["baselines.exact_nodes"] += result.nodes_explored
                # A flow problem is feasible when it routes one unit per TD.
                n = args[0].n
                c["baselines.flow_feasible"] += sum(f == n for f in self._flows)
                self._flows.clear()
        except (AttributeError, IndexError, TypeError) as exc:
            self.unreadable.add(f"{span}: {exc}")

    def _wrap(self, span: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(span)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(0.0)
            self.stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self.stack.pop()
            self._count(span, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install every present binding's wrapper; restore on exit."""
        saved = []
        try:
            for mod, attr, span in BINDINGS:
                found = _resolve(mod, attr)
                if found is None:
                    continue
                owner, name, fn = found
                saved.append((owner, name, fn))
                setattr(owner, name, self._wrap(span, fn))
            yield self
        finally:
            for owner, name, fn in reversed(saved):
                setattr(owner, name, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total span time and self time (seconds)."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[i]
        return out

    def spans(self) -> tuple[list, list, list, list]:
        """The recorded spans: names, starts, ends and parent indices."""
        return self.names, self.starts, self.ends, self.parents


def write_spans(path, passes) -> None:
    """Gzipped CSV of every traced pass's spans: pass, id, name, start, end, parent."""
    with gzip.open(path, "wt") as fh:
        fh.write("pass,id,name,start_s,end_s,parent\n")
        for k, (names, starts, ends, parents) in enumerate(passes):
            for i, name in enumerate(names):
                fh.write(f"{k},{i},{name},{starts[i]!r},{ends[i]!r},{parents[i]}\n")
