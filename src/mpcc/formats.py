"""Stable JSON file formats for instances, solutions, solver traces, and
``bench`` sweep configs.

Instance document::

    {"c": real, "alpha": real, "k": int, "aps": [[x, y], ...], "tds": [[x, y], ...]}

Solution document::

    {"total_power": real,
     "assignments": [{"ap": id, "disk_td": id, "radius": real,
                      "power": real, "covered": [id, ...]}, ...]}

Trace line, one per MLR round in round order::

    {"iter": int, "disk": [ap, td], "ratio": real,
     "covered": [id, ...], "removed": [[ap, td], ...]}

``covered`` (the TDs assigned) and ``removed`` (the disks retired) ascend.

Config document, read only::

    [{"n": int, "m": int, "k": int, "side": real, "c": real, "alpha": real,
      "trials": int, "seed": int, "algorithms": [name, ...]}, ...]

``n``, ``m``, ``k`` and ``side`` are required; an absent field keeps
``ExperimentConfig``'s default, and any other field is an error.

Ids are 1-based positions in the instance arrays.  Reals are written with
up to 17 significant digits so parsing recovers the exact double; the
``radius`` and ``power`` fields of an assignment are informational on
output and recomputed from the ids on input.  Serialization is
deterministic: equal values produce byte-identical documents.
"""

import json
import math
import sys
from collections import Counter
from dataclasses import replace
from itertools import chain

import numpy as np

from .experiments import ExperimentConfig
from .model import Instance, Solution, check_feasible, disk_geometry

__all__ = [
    "FormatError",
    "instance_to_json",
    "instance_from_json",
    "solution_to_json",
    "solution_from_json",
    "solution_violations",
    "trace_line",
]


class FormatError(ValueError):
    """A document does not match the expected file format."""


def _fmt_real(x: float) -> str:
    if not math.isfinite(x):
        raise FormatError(f"cannot serialize non-finite real {x!r}")
    return format(float(x), ".17g")


def _dump(value) -> str:
    if isinstance(value, bool):
        raise FormatError("no boolean fields in these formats")
    if isinstance(value, float):
        return _fmt_real(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        types = set(map(type, value))
        if types <= {int}:  # id lists: no per-element dispatch
            return "[" + ", ".join(map(str, value)) + "]"
        if types <= {list, tuple} and set(map(type, chain.from_iterable(value))) <= {int}:
            return json.dumps(value)  # id-pair lists; json's default separators match
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    raise FormatError(f"cannot serialize {type(value).__name__}")


def instance_to_json(inst: Instance) -> str:
    doc = {
        "c": float(inst.power_c),
        "alpha": float(inst.power_alpha),
        "k": int(inst.k),
        "aps": inst.ap_xy.tolist(),
        "tds": inst.td_xy.tolist(),
    }
    return _dump(doc) + "\n"


def _load(text: str, what: str = "JSON"):
    """``text`` decoded; FormatError for text that is not JSON, an integer
    past Python's digit limit, or nesting past the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid {what}: {exc}") from exc


def _real(value, what: str) -> float:
    """A JSON number as a float; FormatError beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{what} is beyond the float range") from None


def _point_list(doc, field: str):
    """The ``[x, y]`` pairs of ``doc[field]`` as coordinates for ``Instance.from_coords``."""
    pts = doc.get(field)
    if not isinstance(pts, list):
        raise FormatError(f"'{field}' must be a list of [x, y] pairs")
    # JSON gives exact types, and bool is a type of its own.  np.array
    # converts ints as float() does, OverflowError included.
    if (set(map(type, pts)) <= {list} and set(map(len, pts)) <= {2}
            and set(map(type, chain.from_iterable(pts))) <= {float, int}):
        try:
            return np.array(pts, dtype=np.float64)
        except OverflowError:
            pass
    # Some point is bad, or an int overflowed: name the first such point.
    for i, p in enumerate(pts):
        if (
            not isinstance(p, list)
            or len(p) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in p)
        ):
            raise FormatError(f"'{field}'[{i}] is not an [x, y] pair of numbers")
        _real(p[0], f"'{field}'[{i}]")
        _real(p[1], f"'{field}'[{i}]")


def instance_from_json(text: str) -> Instance:
    doc = _load(text)
    if not isinstance(doc, dict):
        raise FormatError("instance document must be a JSON object")
    missing = [f for f in ("c", "alpha", "k", "aps", "tds") if f not in doc]
    if missing:
        raise FormatError(f"instance document missing fields {missing}")
    for f in ("c", "alpha"):
        if not isinstance(doc[f], (int, float)) or isinstance(doc[f], bool):
            raise FormatError(f"'{f}' must be a number")
    if not isinstance(doc["k"], int) or isinstance(doc["k"], bool):
        raise FormatError("'k' must be an integer")
    return Instance.from_coords(
        aps=_point_list(doc, "aps"),
        tds=_point_list(doc, "tds"),
        k=doc["k"],
        power_c=_real(doc["c"], "'c'"),
        power_alpha=_real(doc["alpha"], "'alpha'"),
    )


def solution_to_json(sol: Solution, inst: Instance) -> str:
    assignments = []
    for ap_id in sorted(sol.selected):
        td_id = sol.selected[ap_id]
        radius_sq, power = disk_geometry(inst, ap_id, td_id)
        assignments.append(
            {
                "ap": int(ap_id),
                "disk_td": int(td_id),
                "radius": math.sqrt(radius_sq),
                "power": power,
                "covered": sorted(map(int, sol.coverage.get(ap_id, ()))),
            }
        )
    doc = {"total_power": float(sol.total_power), "assignments": assignments}
    return _dump(doc) + "\n"


def _solution_parts(text: str):
    """Shape-check a solution document; returns (total_power, assignment
    triples).  Structural problems raise FormatError; semantic problems
    (bad ids, duplicate APs) are left to the caller."""
    doc = _load(text)
    if not isinstance(doc, dict):
        raise FormatError("solution document must be a JSON object")
    if "total_power" not in doc or "assignments" not in doc:
        raise FormatError("solution document needs 'total_power' and 'assignments'")
    total = doc["total_power"]
    if not isinstance(total, (int, float)) or isinstance(total, bool):
        raise FormatError("'total_power' must be a number")
    raw = doc["assignments"]
    if not isinstance(raw, list):
        raise FormatError("'assignments' must be a list")
    triples = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise FormatError(f"assignment {i} is not an object")
        for f in ("ap", "disk_td", "covered"):
            if f not in entry:
                raise FormatError(f"assignment {i} missing '{f}'")
        ap, td, covered = entry["ap"], entry["disk_td"], entry["covered"]
        if type(ap) is not int or type(td) is not int:
            raise FormatError(f"assignment {i} ids must be integers")
        if not isinstance(covered, list) or not set(map(type, covered)) <= {int}:
            raise FormatError(f"assignment {i} 'covered' must be a list of integers")
        triples.append((ap, td, covered))
    return _real(total, "'total_power'"), triples


def solution_from_json(text: str, inst: Instance) -> Solution:
    """Strict parse used for round-trips; only the ids of each disk are read."""
    total, triples = _solution_parts(text)
    picks = {}
    for ap, td, _ in triples:
        if ap in picks:
            raise FormatError(f"duplicate assignment for AP {ap}")
        if not 1 <= ap <= inst.m or not 1 <= td <= inst.n:
            raise FormatError(f"assignment ids ({ap}, {td}) outside the instance")
        picks[ap] = td
    coverage = {ap: covered for ap, _, covered in triples}
    return replace(Solution.from_picks(inst, picks, coverage), total_power=total)


def solution_violations(text: str, inst: Instance) -> list[str]:
    """Feasibility report for a solution document.

    Structural problems raise FormatError; everything semantic (duplicate
    AP assignments, TDs listed twice, unknown ids, coverage or capacity
    faults, power mismatches) comes back as violation strings.
    """
    total, triples = _solution_parts(text)
    violations = []
    seen = set()
    for ap, _, covered in triples:
        if ap in seen:
            violations.append(f"more than one disk selected for AP {ap}")
        seen.add(ap)
        if len(set(covered)) < len(covered):
            for u, times in sorted(Counter(covered).items()):
                if times > 1:
                    violations.append(f"coverage of AP {ap} lists TD {u} {times} times")
    for ap, td, _ in triples:
        if not 1 <= ap <= inst.m:
            violations.append(f"assignment references unknown AP {ap}")
        if not 1 <= td <= inst.n:
            violations.append(f"assignment of AP {ap} references unknown TD {td}")
    if violations:
        return violations
    # check_feasible reports by AP id, and by TD id within an AP, itself.
    sol = Solution({ap: td for ap, td, _ in triples},
                   {ap: frozenset(covered) for ap, _, covered in triples}, total)
    return check_feasible(sol, inst)


def configs_from_json(text: str) -> list[ExperimentConfig]:
    """The configs of a config document; FormatError for an unknown,
    mistyped or missing field, so that a misspelt one cannot fall back to
    its default."""
    doc = _load(text, "config file")
    if not isinstance(doc, list):
        raise FormatError("config file must hold a JSON list of config objects")
    configs = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise FormatError(f"config {i} is not an object")
        fields = {}
        for f, value in entry.items():
            if f in ("n", "m", "k", "trials", "seed"):
                ok = type(value) is int
            elif f in ("side", "c", "alpha"):
                ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
            elif f == "algorithms":
                ok = isinstance(value, list) and all(isinstance(a, str) for a in value)
            else:
                raise FormatError(f"config {i} has unknown field '{f}'")
            if not ok:
                raise FormatError(f"config {i} field '{f}' has the wrong type or value")
            name = {"c": "power_c", "alpha": "power_alpha"}.get(f, f)
            fields[name] = tuple(value) if f == "algorithms" else value
        for f in ("n", "m", "k", "side"):
            if f not in fields:
                raise FormatError(f"config {i} missing field '{f}'")
        configs.append(ExperimentConfig(**fields))
    return configs


def trace_line(doc: dict) -> str:
    """One trace document as one line, newline included."""
    return _dump(doc) + "\n"
