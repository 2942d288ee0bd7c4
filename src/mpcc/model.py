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
builds this order for every AP at once, with the powers along it; MLR
and the exact solver read containment from it, as an AP's disk of rank r
holds the TDs of its order's prefix up to r.  ``pair_runs`` yields all
(AP, TD) pairs in the same key order for NCA, in runs sorted only when
drawn, each as one flat row of pairs, and blocks that leave out the TDs
its caller has covered.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, MutableSequence

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


@dataclass(frozen=True, eq=False)
class DiskOrder:
    """The disk order of every AP as ``(m, n)`` arrays.

    Row ``a0`` belongs to AP ``a0 + 1``.  ``order[a0]`` lists AP a0's TD
    indices in ascending key order, so the disk of rank r has boundary TD
    ``order[a0, r]`` and contains exactly the TDs of ``order[a0, :r + 1]``.
    ``power[a0, r]`` is that disk's power: powers run along the order,
    not by TD.  ``rank``, the inverse of ``order`` (TD u0 is AP a0's
    ``rank[a0, u0]``-th disk), is built on its first read and kept.
    """

    order: np.ndarray
    power: np.ndarray

    @cached_property
    def rank(self) -> np.ndarray:
        rank = np.empty_like(self.order)
        np.put_along_axis(rank, self.order, np.arange(self.order.shape[1]), axis=1)
        return rank


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
    on its boundary.  An AP id outside 1..m or a TD id outside 1..n
    raises ValueError."""
    if not 1 <= ap_id <= inst.m:
        raise ValueError(f"unknown AP {ap_id}")
    if not 1 <= td_id <= inst.n:
        raise ValueError(f"unknown TD {td_id}")
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


def _key_order(rsq, boundary) -> tuple[np.ndarray, np.ndarray]:
    """Column indices in ascending key order, and the squared radii along
    them, of a row of squared radii ``rsq`` or of each row of a table of
    them; ``boundary()`` returns their boundary vectors ``(dx, dy)`` in the
    same shape.  ``disk_order`` passes a table with one AP's TDs a row;
    ``pair_runs`` passes each run of (TD, AP) pairs as a flat row."""
    # Strictly rising radii decide the order alone; the other key fields
    # are computed only for radii that repeat or hold a NaN, which
    # compares false with everything.
    order = rsq.argsort()
    if rsq.ndim == 1:
        ranked = rsq.take(order)
        rising = ranked[1:] > ranked[:-1]
    else:
        rows = np.arange(len(rsq))[:, None]
        ranked = rsq[rows, order]
        rising = ranked[:, 1:] > ranked[:, :-1]
    if rising.all():
        return order, ranked
    # np.lexsort is stable, so column indices break the remaining ties.
    cos, y_sign = _key_fields(*boundary(), rsq)
    order = np.lexsort((y_sign, cos, rsq), axis=-1)
    return order, rsq.take(order) if rsq.ndim == 1 else rsq[rows, order]


def disk_order(inst: Instance) -> DiskOrder:
    """Build the key order of all m*n candidate disks at once, with the
    powers along it."""
    dx, dy = _boundary_vectors(inst)
    rsq = dx * dx + dy * dy
    del dx, dy  # a table that repeats a radius recomputes them
    order, power = _key_order(rsq, lambda: _boundary_vectors(inst))
    del rsq
    # Scalar pow per element, as ``**`` in ``power_of``: numpy's vectorised
    # power may differ from it in the last bits for non-integer exponents.
    c, e = inst.power_c, inst.power_alpha / 2.0
    if e != 1.0:  # pow(x, 1) is x exactly
        power = np.fromiter(map(math.pow, power.ravel().tolist(), repeat(e)),
                            dtype=np.float64, count=power.size).reshape(power.shape)
    power *= c
    return DiskOrder(order, power)


_FIRST_RUN = 8192  # pairs in pair_runs' first run; each later bound doubles
_MIN_BLOCK = 1024  # least pairs in a block of a multi-run table


_Block = tuple[list[int], list[int]]


def pair_runs(inst: Instance) -> tuple[MutableSequence, Iterable[_Block]]:
    """All m*n (AP, TD) pairs in ascending (disk key, TD id, AP id) order,
    as consecutive blocks of TD and AP indices ``(u0 list, a0 list)``,
    with the n TD flags ``covered`` that the blocks consult.

    ``covered`` starts all false; the caller sets ``covered[u0]`` once it
    wants no more pairs of TD u0, and later blocks leave those pairs out.
    Pair (a0, u0) is the flat index ``u0 * m + a0``, so the stable key
    sort breaks disk-key ties by TD, then AP.  A table of at most 8192
    pairs is sorted as one flat row into one block, and its flags are a
    list.  A larger table is drawn in runs: the radius leads the key, so
    the pairs of radius in ``[lo, v)`` form a run, the bounds are the
    radii of rank 8192, 16384, ..., and the last run holds the rest, NaN
    radii included.  A run is drawn only when the caller reaches it, so
    a caller that stops early sorts no further.  Each run is sorted as a
    flat row too, and a run after the first is first cut to the pairs of
    TDs not yet flagged.  Each run is handed out in blocks of max(n,
    1024) pairs, and every block after a run's first drops the pairs of
    TDs flagged since.  With no TD flagged, the blocks hold every pair in
    order.
    """
    m = inst.m
    ap, td = inst.ap_xy, inst.td_xy
    if m * inst.n <= _FIRST_RUN:
        dx = (td[:, 0, None] - ap[:, 0]).ravel()
        dy = (td[:, 1, None] - ap[:, 1]).ravel()
        rsq = dx * dx + dy * dy
        # A list, not a generator: on the smallest tables a generator's
        # set-up and close cost more than the sort.  A list's flags also
        # read faster than a bytearray's.
        order, _ = _key_order(rsq, lambda: (dx, dy))
        u0, a0 = np.divmod(order, m)
        return [False] * inst.n, [(u0.tolist(), a0.tolist())]
    covered = bytearray(inst.n)
    return covered, _bounded_runs(inst, np.frombuffer(covered, dtype=np.bool_))


def _bounded_runs(inst: Instance, covered: np.ndarray) -> Iterator[_Block]:
    """``pair_runs`` of a table of more than one run; ``covered`` is a
    live boolean view of the caller's flags."""
    m = inst.m
    ap, td = inst.ap_xy, inst.td_xy
    # Only the squared radii span the whole table, rounded as dx*dx + dy*dy
    # everywhere else; the key's later fields are computed per run, and
    # only for a run that repeats a radius.  The second buffer then takes
    # a copy of the radii, which each bound's partition reorders in place.
    flat = td[:, 0, None] - ap[:, 0]
    flat *= flat
    ranked = td[:, 1, None] - ap[:, 1]
    ranked *= ranked
    flat += ranked
    flat, ranked = flat.reshape(-1), ranked.reshape(-1)
    ranked[:] = flat
    block = max(inst.n, _MIN_BLOCK)

    def run(idx, later):
        u0 = idx // m
        if later:  # a run after the first drops the TDs flagged so far
            keep = ~covered[u0]
            idx, u0 = idx[keep], u0[keep]
        a0 = idx - u0 * m
        order, _ = _key_order(flat[idx], lambda: (td[u0, 0] - ap[a0, 0], td[u0, 1] - ap[a0, 1]))
        u0, a0 = u0[order], a0[order]
        yield u0[:block].tolist(), a0[:block].tolist()
        for s in range(block, u0.size, block):
            u, a = u0[s:s + block], a0[s:s + block]
            keep = ~covered[u]
            yield u[keep].tolist(), a[keep].tolist()

    lo, start, s = -np.inf, 0, _FIRST_RUN
    while s < flat.size:
        # ranked[:start] holds the start smallest radii, so a partition of
        # the rest puts the radius of rank s at ranked[s].
        ranked[start:].partition(s - start)
        v = ranked[s]
        if v != v:  # NaN sorts last, so no later bound is a number either
            break
        below = flat < v
        if start:
            below &= flat >= lo
        yield from run(np.flatnonzero(below), start)
        lo, start, s = v, s, 2 * s
    yield from run(np.flatnonzero(~(flat < lo)), start)


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
        def power(rsq):  # inf where the float range ends
            try:
                return power_of(rsq, inst.power_c, inst.power_alpha)
            except OverflowError:
                return math.inf

        # Power grows with the radius, so the largest disk decides.  Each
        # |dx| is at most the bounding boxes' widest x gap, and rounding is
        # monotone, so the boxes' squared diagonal bounds every squared
        # radius as computed: the pass over all m*n disks runs only when
        # the diagonal's power may leave the float range.
        (ax, ay), (tx, ty) = inst.ap_xy.min(axis=0).tolist(), inst.td_xy.min(axis=0).tolist()
        (bx, by), (ux, uy) = inst.ap_xy.max(axis=0).tolist(), inst.td_xy.max(axis=0).tolist()
        gx, gy = max(bx - tx, ux - ax), max(by - ty, uy - ay)
        if math.isfinite(2 * inst.m * power(gx * gx + gy * gy)):
            return v
        with np.errstate(over="ignore"):
            dx, dy = _boundary_vectors(inst)
            rsq = dx * dx + dy * dy
        top_rsq = float(rsq.max())
        top = power(top_rsq)
        if not math.isfinite(top):
            v.append(f"the largest candidate disk (squared radius {top_rsq!r}) "
                     "has a power beyond the float range")
        elif not math.isfinite(2 * inst.m * top):
            # A solver adds at most one power per AP, in ascending AP order,
            # and rounding is monotone, so the APs' largest disks summed that
            # way bound its total; 2*m*top bounds that sum, rounding included.
            total = 0.0
            for r in rsq.max(axis=1).tolist():
                total += power(r)
            if not math.isfinite(total):
                v.append(f"the largest disks of the {inst.m} APs have a total power "
                         "beyond the float range")
    return v


def _key_tail(dx: float, dy: float, rsq: float, td_id: int) -> tuple[float, int, int]:
    """One boundary vector's key fields after its squared radius ``rsq``,
    as ``_key_fields`` gives them, and the TD id that breaks the last tie."""
    if rsq == 0.0:
        return 1.0, 0, td_id
    # Clamped in this order, an inf/inf quotient (NaN) becomes 1.0.  Every
    # other cosine at an infinite radius is +-0, so NaN ranks last there,
    # as np.lexsort puts it in _key_order.
    return max(-1.0, min(1.0, dx / math.sqrt(rsq))), int(dy < 0.0), td_id


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
    # Containment compares keys in each AP's disk order, the squared
    # radius first, computed in scalar floats as in _key_order.
    tx, ty = inst.td_xy[:, 0].tolist(), inst.td_xy[:, 1].tolist()
    aps = inst.ap_xy.tolist()

    disks = {}  # AP id -> its position, boundary TD id, vector and squared radius
    derived = 0.0
    for ap_id in sorted(sol.selected):
        b = sol.selected[ap_id]
        if not 1 <= ap_id <= m:
            v.append(f"selected disk references unknown AP {ap_id}")
        elif not 1 <= b <= n:
            v.append(f"disk of AP {ap_id} has unknown boundary TD {b}")
        else:
            ax, ay = aps[ap_id - 1]
            bx, by = tx[b - 1] - ax, ty[b - 1] - ay
            rb = bx * bx + by * by
            disks[ap_id] = ax, ay, b, bx, by, rb
            derived += power_of(rb, inst.power_c, inst.power_alpha)

    owner: dict[int, int] = {}
    for ap_id in sorted(sol.coverage):
        tds = sorted(sol.coverage[ap_id])
        if not 1 <= ap_id <= m:
            v.append(f"coverage references unknown AP {ap_id}")
            continue
        if tds and ap_id not in sol.selected:
            v.append(f"AP {ap_id} covers TDs but selected no disk")
        if len(tds) > k:
            v.append(f"AP {ap_id} covers {len(tds)} TDs, capacity is {k}")
        disk = disks.get(ap_id)
        if disk:
            ax, ay, b, bx, by, rb = disk
        for u in tds:
            if not 1 <= u <= n:
                v.append(f"coverage of AP {ap_id} references unknown TD {u}")
                continue
            if u in owner:
                v.append(f"TD {u} covered by both AP {owner[u]} and AP {ap_id}")
            else:
                owner[u] = ap_id
            if not disk:
                continue
            dx, dy = tx[u - 1] - ax, ty[u - 1] - ay
            r = dx * dx + dy * dy
            # A NaN radius compares false both ways and so lies outside.
            if not r <= rb or r == rb and u != b and (
                    _key_tail(dx, dy, r, u) > _key_tail(bx, by, rb, b)):
                v.append(f"TD {u} lies outside the selected disk of AP {ap_id}")
    for u in range(1, n + 1):
        if u not in owner:
            v.append(f"TD {u} is not covered")

    if not math.isclose(sol.total_power, derived, rel_tol=1e-9):
        v.append(
            f"stated total_power {sol.total_power!r} disagrees with "
            f"selected disks ({derived!r})"
        )
    return v
