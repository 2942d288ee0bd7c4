"""Core model: plane geometry, the candidate disk family, and feasibility.

An instance places m access points (APs) and n terminal devices (TDs) in
the plane, held as two read-only float64 coordinate arrays ``ap_xy``
``(m, 2)`` and ``td_xy`` ``(n, 2)`` whose row i is id i + 1.  Every AP
has the same integer service capacity k, and serving out to radius r
costs ``power_c * r ** power_alpha``.  Each (AP, TD) pair induces one
candidate disk centered at the AP with that TD on its boundary, so an
instance has exactly m*n candidate disks.  A solution selects at most
one disk per AP and assigns every TD to exactly one AP whose selected
disk contains it, minimising the total selected power.

Disks sharing a center are strictly totally ordered by their key: radius
first, then the cosine of the angle between the boundary vector and the
x-axis (larger cosine means larger disk), then the sign of the boundary
vector's y component (non-negative ranks below negative), then the
boundary TD id.  Containment is defined through this order: disk D
contains TD v exactly when v's own disk at the same center does not rank
above D.  Equal-radius boundary ties therefore resolve deterministically,
and of two same-radius disks at one AP the greater-keyed one contains
both boundary TDs while the lesser contains only its own.  ``disk_order``
builds this order for every AP at once as rank tables, from which MLR
and the exact solver read containment; ``pair_runs`` yields all (AP, TD)
pairs in the same key order for NCA, in runs sorted only when drawn.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "Instance",
    "DiskOrder",
    "Solution",
    "InfeasibleInstanceError",
    "power_of",
    "disk_geometry",
    "disk_order",
    "pair_runs",
    "validate_instance",
    "check_feasible",
]


class InfeasibleInstanceError(RuntimeError):
    """Raised by solvers when the TDs cannot all be covered.

    Only reachable when ``validate_instance`` was skipped: an instance
    with m*k >= n always admits a full cover.
    """


def _xy(points) -> np.ndarray:
    """A read-only float64 copy of ``points`` with shape ``(N, 2)``."""
    xy = np.array(points, dtype=np.float64)
    if xy.shape == (0,):
        xy = xy.reshape(0, 2)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"expected a list of (x, y) points, got shape {xy.shape}")
    xy.flags.writeable = False
    return xy


@dataclass(frozen=True, eq=False)
class Instance:
    """A capacitated coverage instance.

    Row i of the read-only float64 arrays ``ap_xy`` ``(m, 2)`` and
    ``td_xy`` ``(n, 2)`` holds AP (TD) id i + 1.  All APs share the
    capacity ``k``; coverage power follows ``power_c * r ** power_alpha``
    for service radius r.  Build instances with ``from_coords``, which
    copies its input.  Instances are immutable and safe to share across
    threads.  Two are equal when k, the power law and both arrays are
    equal; like their arrays, instances are unhashable.
    """

    ap_xy: np.ndarray
    td_xy: np.ndarray
    k: int
    power_c: float = 1.0
    power_alpha: float = 2.0

    @property
    def m(self) -> int:
        return len(self.ap_xy)

    @property
    def n(self) -> int:
        return len(self.td_xy)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.k == other.k and self.power_c == other.power_c
                and self.power_alpha == other.power_alpha
                and np.array_equal(self.ap_xy, other.ap_xy)
                and np.array_equal(self.td_xy, other.td_xy))

    @classmethod
    def from_coords(cls, aps, tds, k, power_c=1.0, power_alpha=2.0) -> "Instance":
        return cls(_xy(aps), _xy(tds), int(k), float(power_c), float(power_alpha))


class DiskOrder(NamedTuple):
    """The disk order of every AP as ``(m, n)`` arrays.

    Row ``a0`` belongs to AP ``a0 + 1`` and column ``u0`` to TD ``u0 + 1``;
    ``power`` is the power of disk (a0, u0).  ``order[a0]`` lists AP a0's
    TDs in ascending key order and ``rank`` is its inverse, so disk
    (a0, u0) contains TD v0 exactly when ``rank[a0, v0] <= rank[a0, u0]``.
    """

    power: np.ndarray
    order: np.ndarray
    rank: np.ndarray


@dataclass
class Solution:
    """One selected disk per active AP plus the TD sets each AP covers.

    ``selected`` maps AP id to the id of the TD on its disk's boundary;
    APs without a disk are absent.  ``disk_geometry`` gives a disk's
    radius and power from the two ids.  ``coverage`` holds the covered TD
    ids per AP.  ``total_power`` is the sum of selected disk powers.
    """

    selected: dict[int, int]
    coverage: dict[int, frozenset[int]]
    total_power: float

    @classmethod
    def from_picks(cls, inst: Instance, picks, coverage) -> "Solution":
        """The solution in which AP a powers the disk with boundary TD
        ``picks[a]`` and serves the TD ids ``coverage[a]``.

        Both maps are rebuilt in ascending AP order, and the total power
        is summed in that order.  Every id must be in the instance.
        """
        selected = {a: picks[a] for a in sorted(picks)}
        total = 0.0
        for a, u in selected.items():
            total += disk_geometry(inst, a, u)[1]
        return cls(selected, {a: frozenset(coverage[a]) for a in sorted(coverage)}, total)


def power_of(radius_sq: float, c: float, alpha: float) -> float:
    """Power needed for a disk of squared radius ``radius_sq``.

    Computed as ``c * radius_sq ** (alpha / 2)`` so non-integer alpha
    avoids a square root followed by a second rounding step.
    """
    return c * radius_sq ** (alpha / 2.0)


def disk_geometry(inst: Instance, ap_id: int, td_id: int) -> tuple[float, float]:
    """``(radius_sq, power)`` of the disk of AP ``ap_id`` with TD ``td_id``
    on its boundary.  Both ids must already be known to be in range: a
    negative or zero id reads another row without complaint."""
    # ``item`` yields Python floats, so the power is the scalar ``**``.
    a, u = ap_id - 1, td_id - 1
    dx = inst.ap_xy.item(a, 0) - inst.td_xy.item(u, 0)
    dy = inst.ap_xy.item(a, 1) - inst.td_xy.item(u, 1)
    rsq = dx * dx + dy * dy
    return rsq, power_of(rsq, inst.power_c, inst.power_alpha)


def _boundary_vectors(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """``(dx, dy)`` of every AP-to-TD vector as ``(m, n)`` arrays."""
    ap, td = inst.ap_xy, inst.td_xy
    return td[:, 0] - ap[:, 0, None], td[:, 1] - ap[:, 1, None]


def _key_fields(dx: np.ndarray, dy: np.ndarray, rsq: np.ndarray):
    """Key fields ``(cos, y_sign)`` after the squared radius ``rsq`` of
    boundary vectors, elementwise."""
    # A zero-length boundary vector takes a fixed direction (cos 1, y sign
    # 0), so coincident TDs are ordered by id alone.
    degenerate = rsq == 0.0
    cos = np.ones_like(rsq)
    np.divide(dx, np.sqrt(rsq), out=cos, where=~degenerate)
    # sqrt rounding can push the quotient a hair past 1 in magnitude.
    cos = np.minimum(1.0, np.maximum(-1.0, cos))
    y_sign = ((dy < 0.0) & ~degenerate).astype(np.int64)
    return cos, y_sign


def _key_order(dx, dy, rsq) -> np.ndarray:
    """Each row's column indices in ascending key order, for boundary
    vectors ``(dx, dy)`` of squared radii ``rsq``.  A row holds one AP's
    TDs in ``disk_order`` and one run of (TD, AP) pairs in ``pair_runs``."""
    # Distinct radii decide the order alone; the other key fields are
    # computed only for a table that repeats a radius.
    order = np.argsort(rsq, axis=-1)
    ranked = rsq[np.arange(rsq.shape[0])[:, None], order]
    if not (ranked[:, 1:] == ranked[:, :-1]).any():
        return order
    # np.lexsort is stable, so column indices break the remaining ties.
    cos, y_sign = _key_fields(dx, dy, rsq)
    return np.lexsort((y_sign, cos, rsq), axis=-1)


def disk_order(inst: Instance) -> DiskOrder:
    """Build the key order of all m*n candidate disks at once."""
    dx, dy = _boundary_vectors(inst)
    rsq = dx * dx + dy * dy
    order = _key_order(dx, dy, rsq)
    rows = np.arange(inst.m)[:, None]
    rank = np.empty_like(order)
    rank[rows, order] = np.arange(inst.n)
    # Scalar pow per element, as ``**`` in ``power_of``: numpy's vectorised
    # power may differ from it in the last bits for non-integer exponents.
    c, e = inst.power_c, inst.power_alpha / 2.0
    if e == 1.0:  # pow(x, 1) is x exactly
        return DiskOrder(rsq * c, order, rank)
    power = np.fromiter(map(math.pow, rsq.ravel().tolist(), repeat(e)),
                        dtype=np.float64, count=rsq.size)
    power *= c
    return DiskOrder(power.reshape(rsq.shape), order, rank)


_FIRST_RUN = 8192  # pairs in pair_runs' first run; each later bound doubles


def pair_runs(inst: Instance) -> Iterable[tuple[list[int], list[int]]]:
    """All m*n (AP, TD) pairs in ascending (disk key, TD id, AP id) order,
    as consecutive runs of TD and AP indices ``(u0 list, a0 list)``.

    Pair (a0, u0) is the flat index ``u0 * m + a0``, so the stable key
    sort breaks disk-key ties by TD, then AP.  The radius leads the key,
    so the pairs of radius in ``[lo, v)`` form a run: the bounds are the
    radii of rank 8192, 16384, ..., and the last run holds the rest, NaN
    radii included.  A run is sorted only when drawn, so a caller that
    stops early sorts no further; a table of at most 8192 pairs is one run.
    """
    m = inst.m
    ap, td = inst.ap_xy, inst.td_xy
    dx = (td[:, 0, None] - ap[:, 0]).reshape(1, -1)
    dy = (td[:, 1, None] - ap[:, 1]).reshape(1, -1)
    rsq = dx * dx + dy * dy
    if rsq.size <= _FIRST_RUN:
        # A list, not a generator: on the smallest tables a generator's
        # set-up and close cost more than the sort.
        u0, a0 = np.divmod(_key_order(dx, dy, rsq)[0], m)
        return [(u0.tolist(), a0.tolist())]
    return _bounded_runs(dx, dy, rsq, m)


def _bounded_runs(dx, dy, rsq, m) -> Iterator[tuple[list[int], list[int]]]:
    """``pair_runs`` of a table of more than one run, each sorted when drawn."""

    def run(idx):
        order = _key_order(dx[:, idx], dy[:, idx], rsq[:, idx])[0]
        u0, a0 = np.divmod(idx[order], m)
        return u0.tolist(), a0.tolist()

    flat = rsq[0]
    lo, s = -np.inf, _FIRST_RUN
    while s < flat.size:
        v = np.partition(flat, s)[s]
        if v != v:  # NaN sorts last, so no later bound is a number either
            break
        yield run(np.flatnonzero((flat < v) & (flat >= lo)))
        lo, s = v, 2 * s
    yield run(np.flatnonzero(~(flat < lo)))


def validate_instance(inst: Instance) -> list[str]:
    """Report every violated instance invariant; empty list means valid."""
    v = []
    if inst.m < 1:
        v.append("instance has no APs")
    if inst.n < 1:
        v.append("instance has no TDs")
    if inst.k < 1:
        v.append(f"capacity k={inst.k} is below 1")
    elif inst.m >= 1 and inst.m * inst.k < inst.n:
        v.append(
            f"total capacity m*k = {inst.m * inst.k} cannot cover n = {inst.n} TDs"
        )
    for label, xy in (("AP", inst.ap_xy), ("TD", inst.td_xy)):
        finite = np.isfinite(xy)
        if not finite.all():
            bad = np.flatnonzero(~finite.all(axis=1)) + 1
            v.extend(f"{label} {i} has non-finite coordinates" for i in bad.tolist())
    if not (inst.power_c > 0 and math.isfinite(inst.power_c)):
        v.append(f"power constant c={inst.power_c} must be positive and finite")
    if not (1.0 <= inst.power_alpha <= 5.0):
        v.append(f"attenuation factor alpha={inst.power_alpha} outside [1, 5]")
    if not v:
        # Power grows with the radius, so the largest disk decides.
        with np.errstate(over="ignore"):
            dx, dy = _boundary_vectors(inst)
            rsq = dx * dx + dy * dy
        top_rsq = float(rsq.max())
        try:
            top = power_of(top_rsq, inst.power_c, inst.power_alpha)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            v.append(f"the largest candidate disk (squared radius {top_rsq!r}) "
                     "has a power beyond the float range")
        elif not math.isfinite(2 * inst.m * top):
            # A solver adds at most one power per AP, in ascending AP order,
            # and rounding is monotone, so the APs' largest disks summed that
            # way bound its total; 2*m*top bounds that sum, rounding included.
            total = 0.0
            for r in rsq.max(axis=1).tolist():
                total += power_of(r, inst.power_c, inst.power_alpha)
            if not math.isfinite(total):
                v.append(f"the largest disks of the {inst.m} APs have a total power "
                         "beyond the float range")
    return v


def _outside(inst: Instance, claims) -> set[tuple[int, int]]:
    """The ``(ap_id, td_id)`` pairs, among the claims ``(ap_id, disk_td_id,
    td_ids)`` of each AP, whose TD ranks above the disk's boundary TD in
    that AP's disk order, i.e. lies outside the disk."""
    sizes = [len(tds) for _, _, tds in claims]
    c = sum(sizes)
    if not c:
        return set()
    # One column per claim, one row each for the claimed TD, the boundary
    # TD of its AP's disk and the AP.
    rows = (chain.from_iterable(tds for _, _, tds in claims),
            chain.from_iterable(repeat(b, s) for (_, b, _), s in zip(claims, sizes)),
            chain.from_iterable(repeat(a, s) for (a, _, _), s in zip(claims, sizes)))
    idx = np.fromiter(chain(*rows), dtype=np.int64, count=3 * c).reshape(3, c) - 1
    ends, ap = idx[:2], idx[2]
    vec = inst.td_xy[ends] - inst.ap_xy[ap]
    dx, dy = vec[..., 0], vec[..., 1]
    rsq = dx * dx + dy * dy  # as in _key_order
    # Keys compare as (rsq, cos, y_sign, TD id), so only equal radii of
    # two distinct TDs need the fields after the first.
    out = rsq[0] > rsq[1]
    tie = np.flatnonzero((rsq[0] == rsq[1]) & (ends[0] != ends[1]))
    if tie.size:
        (cu, cb), (yu, yb) = _key_fields(dx[:, tie], dy[:, tie], rsq[:, tie])
        tu, tb = ends[:, tie]
        out[tie] = (cu > cb) | (cu == cb) & ((yu > yb) | (yu == yb) & (tu > tb))
    hit = np.flatnonzero(out)
    return set(zip((ap[hit] + 1).tolist(), (ends[0, hit] + 1).tolist()))


def check_feasible(sol: Solution, inst: Instance) -> list[str]:
    """Verify a Solution against its instance; returns violations.

    Checks exactly-once coverage of every TD, per-AP capacity, presence
    of a selected disk wherever coverage is claimed, order-based
    containment of each covered TD in its AP's disk, and consistency of
    the stated total power with the selected disks.  Empty list means
    feasible.
    """
    v = []
    m, n, k = inst.m, inst.n, inst.k

    valid = set()
    for ap_id in sorted(sol.selected):
        td_id = sol.selected[ap_id]
        if not 1 <= ap_id <= m:
            v.append(f"selected disk references unknown AP {ap_id}")
        elif not 1 <= td_id <= n:
            v.append(f"disk of AP {ap_id} has unknown boundary TD {td_id}")
        else:
            valid.add(ap_id)

    covered = {ap_id: sorted(sol.coverage[ap_id]) for ap_id in sorted(sol.coverage)}
    # Only the containments actually claimed need their disks' keys.
    outside = _outside(inst, [
        (ap_id, sol.selected[ap_id], tds[bisect_left(tds, 1):bisect_right(tds, n)])
        for ap_id, tds in covered.items() if ap_id in valid
    ])
    owner: dict[int, int] = {}
    for ap_id, tds in covered.items():
        if not 1 <= ap_id <= m:
            v.append(f"coverage references unknown AP {ap_id}")
            continue
        if tds and ap_id not in sol.selected:
            v.append(f"AP {ap_id} covers TDs but selected no disk")
        if len(tds) > k:
            v.append(f"AP {ap_id} covers {len(tds)} TDs, capacity is {k}")
        for u in tds:
            if not 1 <= u <= n:
                v.append(f"coverage of AP {ap_id} references unknown TD {u}")
                continue
            if u in owner:
                v.append(f"TD {u} covered by both AP {owner[u]} and AP {ap_id}")
            else:
                owner[u] = ap_id
            if (ap_id, u) in outside:
                v.append(f"TD {u} lies outside the selected disk of AP {ap_id}")
    for u in range(1, n + 1):
        if u not in owner:
            v.append(f"TD {u} is not covered")

    derived = 0.0
    for ap_id in sorted(valid):
        derived += disk_geometry(inst, ap_id, sol.selected[ap_id])[1]
    if not math.isclose(sol.total_power, derived, rel_tol=1e-9, abs_tol=1e-12):
        v.append(
            f"stated total_power {sol.total_power!r} disagrees with "
            f"selected disks ({derived!r})"
        )
    return v
