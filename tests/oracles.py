"""Independent reference implementations used only by the tests.

These deliberately avoid the package's max-flow and branch-and-bound
code: feasibility is decided by raw enumeration or per-TD backtracking,
so they can serve as oracles for the production paths.  The exceptions
are the earlier forms of rewritten solvers, orders, the containment
test, the max flow, instance generation, the results CSV writer and
the generic document writer, kept for differential tests.  The max flow here is the package's
earlier general Dinic on an arc-list network, which the package's
owner/load form must match augmentation for augmentation.
The disk order is specified here one pair at a time by the scalar
``disk_key``, against which the package's array-built ``disk_order`` is
tested.
"""

import csv
import itertools
import json
import math
from itertools import chain, repeat
from time import perf_counter

import numpy as np

from mpcc import (
    InfeasibleInstanceError,
    Instance,
    Solution,
    disk_geometry,
    disk_order,
)
from mpcc import baselines, model
from mpcc.baselines import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_OPTIMAL,
    ExactBudget,
    ExactResult,
)
from mpcc.experiments import RESULT_COLUMNS
from mpcc.formats import FormatError, _fmt_real, _real


def disk_key(inst, ap_id, td_id) -> tuple[float, float, int, int]:
    """Sort key of disk (ap_id, td_id) in its AP's strict total order:
    ``(radius_sq, cos_angle, y_sign_rank, td_id)``.

    ``cos_angle`` is the cosine of the boundary vector's angle with the
    x-axis; ``y_sign_rank`` is 0 for boundary vectors with y >= 0 and 1
    otherwise, and the TD id breaks the remaining ties.
    """
    ax, ay = inst.ap_xy[ap_id - 1].tolist()
    ux, uy = inst.td_xy[td_id - 1].tolist()
    dx = ux - ax
    dy = uy - ay
    rsq = dx * dx + dy * dy
    if rsq == 0.0:
        # Degenerate boundary vector; direction fields take a fixed value
        # and coincident TDs are ordered by id alone.
        return (0.0, 1.0, 0, td_id)
    cos = dx / math.sqrt(rsq)
    # sqrt rounding can push the quotient a hair past 1 in magnitude.
    cos = max(-1.0, min(1.0, cos))
    return (rsq, cos, 0 if dy >= 0.0 else 1, td_id)


def key_fields(inst):
    """The package's vectorised key fields ``(rsq, cos, y_sign)`` of every
    disk as ``(m, n)`` arrays, the ones ``disk_order`` sorts by."""
    dx, dy = model._boundary_vectors(inst)
    rsq = dx * dx + dy * dy
    return (rsq, *model._key_fields(dx, dy, rsq))


def contains(disk, td_id, inst) -> bool:
    """Order-based containment: disk D = ``(ap_id, disk_td)`` contains v
    iff key(D_{a,v}) <= key(D)."""
    ap_id, disk_td = disk
    return disk_key(inst, ap_id, td_id) <= disk_key(inst, ap_id, disk_td)


def disk_family(inst):
    """All m*n candidate disks as ``(ap_id, td_id)`` pairs, AP id major and
    TD id minor."""
    return [(a, u) for a in range(1, inst.m + 1) for u in range(1, inst.n + 1)]


def check_feasible_reference(sol, inst) -> list[str]:
    """``check_feasible`` with containment decided pair by pair through
    ``contains`` and powers through ``disk_geometry``; same messages, same
    order."""
    v = []
    m, n, k = inst.m, inst.n, inst.k
    for ap_id in sorted(sol.selected):
        td_id = sol.selected[ap_id]
        if not 1 <= ap_id <= m:
            v.append(f"selected disk references unknown AP {ap_id}")
            continue
        if not 1 <= td_id <= n:
            v.append(f"disk of AP {ap_id} has unknown boundary TD {td_id}")
    owner = {}
    for ap_id in sorted(sol.coverage):
        if not 1 <= ap_id <= m:
            v.append(f"coverage references unknown AP {ap_id}")
            continue
        tds = sol.coverage[ap_id]
        if tds and ap_id not in sol.selected:
            v.append(f"AP {ap_id} covers TDs but selected no disk")
        if len(tds) > k:
            v.append(f"AP {ap_id} covers {len(tds)} TDs, capacity is {k}")
        disk_td = sol.selected.get(ap_id)
        for u in sorted(tds):
            if not 1 <= u <= n:
                v.append(f"coverage of AP {ap_id} references unknown TD {u}")
                continue
            if u in owner:
                v.append(f"TD {u} covered by both AP {owner[u]} and AP {ap_id}")
            else:
                owner[u] = ap_id
            valid = disk_td is not None and 1 <= disk_td <= n
            if valid and not contains((ap_id, disk_td), u, inst):
                v.append(f"TD {u} lies outside the selected disk of AP {ap_id}")
    v.extend(f"TD {u} is not covered" for u in range(1, n + 1) if u not in owner)
    derived = 0.0
    for ap_id in sorted(sol.selected):
        td_id = sol.selected[ap_id]
        if 1 <= ap_id <= m and 1 <= td_id <= n:
            derived += disk_geometry(inst, ap_id, td_id)[1]
    if not math.isclose(sol.total_power, derived, rel_tol=1e-9):
        v.append(f"stated total_power {sol.total_power!r} disagrees with "
                 f"selected disks ({derived!r})")
    return v


def outside_reference(inst: Instance, claims) -> set[tuple[int, int]]:
    """The ``(ap_id, td_id)`` pairs, among the claims ``(ap_id, disk_td_id,
    td_ids)`` of each AP, whose TD ranks above the disk's boundary TD in
    that AP's disk order, i.e. lies outside the disk.

    The package's earlier array form of ``check_feasible``'s containment
    test, exact on instances whose AP-to-TD differences stay finite."""
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
        (cu, cb), (yu, yb) = model._key_fields(dx[:, tie], dy[:, tie], rsq[:, tie])
        tu, tb = ends[:, tie]
        out[tie] = (cu > cb) | (cu == cb) & ((yu > yb) | (yu == yb) & (tu > tb))
    hit = np.flatnonzero(out)
    return set(zip((ap[hit] + 1).tolist(), (ends[0, hit] + 1).tolist()))


def point_list_reference(doc, field: str) -> list[tuple[float, float]]:
    """The instance parser's point list, checked and converted one point
    at a time: the first bad point raises."""
    pts = doc.get(field)
    if not isinstance(pts, list):
        raise FormatError(f"'{field}' must be a list of [x, y] pairs")
    out = []
    for i, p in enumerate(pts):
        if (
            not isinstance(p, list)
            or len(p) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in p)
        ):
            raise FormatError(f"'{field}'[{i}] is not an [x, y] pair of numbers")
        out.append((_real(p[0], f"'{field}'[{i}]"), _real(p[1], f"'{field}'[{i}]")))
    return out


def dump_reference(value) -> str:
    """The document writer with one type dispatch per element."""
    if isinstance(value, bool):
        raise FormatError("no boolean fields in these formats")
    if isinstance(value, float):
        return _fmt_real(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {dump_reference(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(dump_reference(v) for v in value) + "]"
    raise FormatError(f"cannot serialize {type(value).__name__}")


def instance_doc_reference(inst: Instance) -> dict:
    """An instance document as a dict, for ``dump_reference``."""
    return {
        "c": float(inst.power_c),
        "alpha": float(inst.power_alpha),
        "k": int(inst.k),
        "aps": inst.ap_xy.tolist(),
        "tds": inst.td_xy.tolist(),
    }


def solution_doc_reference(sol: Solution, inst: Instance) -> dict:
    """A solution document as a dict, for ``dump_reference``."""
    assignments = []
    for ap_id in sorted(sol.selected):
        td_id = sol.selected[ap_id]
        radius_sq, power = disk_geometry(inst, ap_id, td_id)
        assignments.append({
            "ap": int(ap_id),
            "disk_td": int(td_id),
            "radius": math.sqrt(radius_sq),
            "power": power,
            "covered": sorted(map(int, sol.coverage.get(ap_id, ()))),
        })
    return {"total_power": float(sol.total_power), "assignments": assignments}


def generate_instance_reference(cfg, trial_index: int) -> Instance:
    """``generate_instance`` drawing the APs' rows and then the TDs' in
    two calls, both copied by ``Instance.from_coords``."""
    gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([cfg.seed, trial_index]))
    )
    ap_xy = gen.random((cfg.m, 2)) * cfg.side
    td_xy = gen.random((cfg.n, 2)) * cfg.side
    return Instance.from_coords(ap_xy, td_xy, cfg.k, cfg.power_c, cfg.power_alpha)


def _csv_cell_reference(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_results_csv_reference(path, series, configs, reports) -> None:
    """``write_results_csv`` formatting all 13 cells of every row, one
    ``writerow`` a row."""
    cell = _csv_cell_reference
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for config_id, (cfg, report) in enumerate(zip(configs, reports)):
            for row in report.rows:
                writer.writerow([
                    cell(series), cell(config_id), cell(row.trial), row.algorithm,
                    cell(cfg.n), cell(cfg.m), cell(cfg.k), cell(cfg.side),
                    cell(cfg.power_alpha), cell(row.total_power), cell(row.wall_ms),
                    cell(row.variance), row.status,
                ])


def random_instance(rng, m, n, k, side=40.0, power_c=1.0, power_alpha=2.0) -> Instance:
    aps = rng.random((m, 2)) * side
    tds = rng.random((n, 2)) * side
    return Instance.from_coords(aps=aps, tds=tds, k=k,
                                power_c=power_c, power_alpha=power_alpha)


def product_assignment_exists(chosen, inst) -> bool:
    """Enumerate every TD -> AP map over the choosing APs (tiny n only).

    ``chosen`` maps AP id to its disk's boundary TD id, or None."""
    aps = sorted(a for a, u in chosen.items() if u is not None)
    if not aps:
        return inst.n == 0
    for combo in itertools.product(aps, repeat=inst.n):
        loads = dict.fromkeys(aps, 0)
        ok = True
        for u, a in enumerate(combo, start=1):
            if not contains((a, chosen[a]), u, inst):
                ok = False
                break
            loads[a] += 1
            if loads[a] > inst.k:
                ok = False
                break
        if ok:
            return True
    return False


def _backtracking_assignment(candidates, caps) -> bool:
    """candidates[i] = AP ids able to take TD i; caps is consumed."""
    def rec(i):
        if i == len(candidates):
            return True
        for a in candidates[i]:
            if caps[a] > 0:
                caps[a] -= 1
                if rec(i + 1):
                    return True
                caps[a] += 1
        return False

    return rec(0)


def enumerate_optimal_total(inst) -> float:
    """Minimum total power over all per-AP disk choices, by enumeration.

    Returns +inf when no choice vector covers all TDs.
    """
    disks = disk_family(inst)
    options = [None, *range(1, inst.n + 1)]
    best = math.inf
    for vector in itertools.product(options, repeat=inst.m):
        chosen = {}
        total = 0.0
        for a0, td in enumerate(vector):
            if td is not None:
                d = disks[a0 * inst.n + td - 1]
                chosen[a0 + 1] = d
                total += disk_geometry(inst, *d)[1]
        if total >= best or not chosen:
            continue
        candidates = []
        coverable = True
        for u in range(1, inst.n + 1):
            cands = [a for a in sorted(chosen) if contains(chosen[a], u, inst)]
            if not cands:
                coverable = False
                break
            candidates.append(cands)
        if not coverable:
            continue
        if _backtracking_assignment(candidates, dict.fromkeys(chosen, inst.k)):
            best = total
    return best


def feasible_small_config(rng, max_m=3, max_n=8, k_choices=(2, 3)):
    """Random (m, n, k) with m*k >= n inside the oracle's practical range."""
    m = int(rng.integers(1, max_m + 1))
    k = int(rng.choice(k_choices))
    n = int(rng.integers(1, min(max_n, m * k) + 1))
    return m, n, k


def mlr_reference(inst):
    """Dict-and-set transcription of the minimum-local-ratio rounds.

    Kept deliberately naive (no arrays, no incremental bookkeeping
    shortcuts) as a differential oracle for the vectorized solver.
    """
    disks = disk_family(inst)
    key = [disk_key(inst, *d) for d in disks]
    contained = {
        i: {u for u in range(1, inst.n + 1) if contains(disks[i], u, inst)}
        for i in range(len(disks))
    }
    live = set(range(len(disks)))
    p_hat = {i: disk_geometry(inst, *disks[i])[1] for i in live}
    k_hat = {i: inst.k for i in live}
    uncovered = set(range(1, inst.n + 1))
    latest, covered_by = {}, {}
    while uncovered:
        assert live, "capacity exhausted with TDs uncovered"
        ratio = {i: p_hat[i] / min(k_hat[i], len(contained[i])) for i in live}
        best = min(ratio.values())
        i_star = min(
            (i for i in live if ratio[i] == best),
            key=lambda i: (disks[i][0], key[i]),
        )
        a_star = disks[i_star][0]
        taken = set(contained[i_star])
        latest[a_star] = i_star
        covered_by.setdefault(a_star, set()).update(taken)
        if len(contained[i_star]) == k_hat[i_star]:
            gone = {i for i in live if disks[i][0] == a_star}
        else:
            gone = {
                i for i in live
                if disks[i][0] == a_star and key[i] < key[i_star]
            } | {i_star}
        live -= gone
        for i in live:
            p_hat[i] -= best * min(k_hat[i], len(contained[i]))
        for u in taken:
            uncovered.discard(u)
            for i in live:
                contained[i].discard(u)
                if disks[i][0] == a_star:
                    k_hat[i] -= 1
        live -= {i for i in live if not contained[i] or k_hat[i] == 0}
    selected = {a: disks[i][1] for a, i in sorted(latest.items())}
    total = 0.0
    for a in sorted(selected):
        total += disk_geometry(inst, a, selected[a])[1]
    return Solution(
        selected=selected,
        coverage={a: frozenset(covered_by[a]) for a in sorted(covered_by)},
        total_power=total,
    )


def mlr_flat_reference(inst):
    """The minimum-local-ratio rounds over flat ``(m*n,)`` disk arrays.

    The array solver as it stood before its state moved to rank space:
    disk (a0, u0) sits at index ``a0 * n + u0``, every round gathers the
    live disks by mask and breaks ratio ties with a Python ``min`` over
    (AP, rank).  Returns ``(Solution, trace docs)`` so that both the
    solution and every round's record can be compared byte for byte.
    Needs k below 2**63.
    """
    table = disk_order(inst)
    m, n = inst.m, inst.n
    ap_of = np.repeat(np.arange(m, dtype=np.int64), n)
    rank_in_ap = table.rank.ravel()
    live_disk = np.ones(m * n, dtype=bool)
    live_td = np.ones(n, dtype=bool)
    d_count = rank_in_ap + 1
    k_hat = np.full(m, inst.k, dtype=np.int64)
    p_hat = np.take_along_axis(table.power, table.rank, axis=1).ravel()  # by TD
    selected, covered_by, docs = {}, {}, []
    while live_td.any():
        if not live_disk.any():
            raise RuntimeError("no live disks with TDs uncovered")
        idx = np.flatnonzero(live_disk)
        div = np.minimum(k_hat[ap_of[idx]], d_count[idx])
        ratios = p_hat[idx] / div
        cand = idx[ratios == ratios.min()]
        i_star = int(min(cand, key=lambda i: (ap_of[i], rank_in_ap[i])))
        ap0, u0 = divmod(i_star, n)
        e_star = float(p_hat[i_star]) / min(int(k_hat[ap0]), int(d_count[i_star]))
        covered_mask = live_td & (table.rank[ap0] <= table.rank[ap0, u0])
        covered0 = np.flatnonzero(covered_mask)
        selected[ap0 + 1] = i_star
        covered_by.setdefault(ap0 + 1, []).extend(int(u) + 1 for u in covered0)
        same_ap_live = live_disk & (ap_of == ap0)
        if d_count[i_star] == k_hat[ap0]:
            removed_step = same_ap_live
        else:
            removed_step = same_ap_live & (rank_in_ap <= rank_in_ap[i_star])
        live_disk &= ~removed_step
        live = live_disk
        div_all = np.minimum(k_hat[ap_of], d_count)
        p_hat[live] -= e_star * div_all[live]
        live_td &= ~covered_mask
        if covered0.size:
            prefix = np.cumsum(live_td[table.order], axis=1)
            d_count[:] = prefix[ap_of, rank_in_ap]
        k_hat[ap0] -= covered0.size
        dead = live & ((d_count <= 0) | (k_hat[ap_of] <= 0))
        live_disk &= ~dead
        docs.append({
            "iter": len(docs) + 1,
            "disk": [ap0 + 1, u0 + 1],
            "ratio": e_star,
            "covered": [int(u) + 1 for u in covered0],
            "removed": [[int(i) // n + 1, int(i) % n + 1]
                        for i in np.flatnonzero(removed_step | dead)],
        })
    sel = {a: i % n + 1 for a, i in sorted(selected.items())}
    total = 0.0
    for a in sorted(sel):
        total += disk_geometry(inst, a, sel[a])[1]
    coverage = {a: frozenset(covered_by[a]) for a in sorted(covered_by)}
    return Solution(selected=sel, coverage=coverage, total_power=total), docs


def nca_reference(inst):
    """The nearest-capable-access greedy over the full disk order.

    The NCA solver as it stood before it sorted the (TD, AP) pairs on its
    own: a five-key ``np.lexsort`` of the ``disk_order`` fields, then TD,
    then AP, and each AP's disk the assigned TD of largest rank.
    """
    table = disk_order(inst)
    rsq, cos, y_sign = key_fields(inst)
    m, n = inst.m, inst.n
    ap_index, td_index = np.divmod(np.arange(m * n), n)
    # np.lexsort sorts by its last key first: the disk key, then the AP.
    keys = (ap_index, td_index, y_sign.ravel(), cos.ravel(), rsq.ravel())
    spare = [inst.k] * m
    covered = [False] * n
    assigned: dict[int, list[int]] = {}
    remaining = n
    for i in np.lexsort(keys).tolist():
        if remaining == 0:
            break
        a0, u0 = divmod(i, n)
        if covered[u0] or spare[a0] == 0:
            continue
        covered[u0] = True
        spare[a0] -= 1
        assigned.setdefault(a0 + 1, []).append(u0 + 1)
        remaining -= 1
    if remaining:
        raise InfeasibleInstanceError(
            "NCA exhausted all capacity with TDs uncovered; "
            "the instance violates m*k >= n"
        )

    selected = {}
    coverage = {}
    total = 0.0
    for ap_id in sorted(assigned):
        tds = assigned[ap_id]
        largest = max(tds, key=lambda u: table.rank[ap_id - 1, u - 1])
        selected[ap_id] = largest
        coverage[ap_id] = frozenset(tds)
        total += disk_geometry(inst, ap_id, largest)[1]
    return Solution(selected=selected, coverage=coverage, total_power=total)


def pair_order_reference(inst) -> np.ndarray:
    """All m*n (AP, TD) pairs as flat indices ``u0 * m + a0`` in ascending
    (disk key, TD id, AP id) order.

    The pair order as it stood before NCA drew it in runs: the boundary
    vectors transposed into one row and sorted whole, by radius alone
    unless a radius repeats, else by the stable lexsort of the key fields.
    """
    dx, dy = model._boundary_vectors(inst)
    dx, dy = dx.T.reshape(1, -1), dy.T.reshape(1, -1)
    rsq = dx * dx + dy * dy
    order = np.argsort(rsq, axis=-1)[0]
    ranked = rsq[0, order]
    if not (ranked[1:] == ranked[:-1]).any():
        return order
    cos, y_sign = model._key_fields(dx, dy, rsq)
    return np.lexsort((y_sign, cos, rsq), axis=-1)[0]


def _table_key_order(rsq, boundary):
    """``model._key_order`` as it stood when it took only ``(rows, N)``
    tables: a gather through a row index, then the strictly-rising test."""
    rows = np.arange(rsq.shape[0])[:, None]
    order = np.argsort(rsq, axis=-1)
    ranked = rsq[rows, order]
    if (ranked[:, 1:] > ranked[:, :-1]).all():
        return order, ranked
    cos, y_sign = model._key_fields(*boundary(), rsq)
    order = np.lexsort((y_sign, cos, rsq), axis=-1)
    return order, rsq[rows, order]


def pair_runs_reference(inst):
    """``baselines.pair_runs`` as it stood before NCA sorted its pairs as flat
    rows: the one-block table and each later run posed as a ``(1, N)``
    table for ``_table_key_order``, and the runs bounded by the radii of
    exact rank 8192, 16384, 32768, ... of the whole table.  Reads the
    package's run and block sizes when called."""
    m = inst.m
    ap, td = inst.ap_xy, inst.td_xy
    if m * inst.n <= baselines._FIRST_RUN:
        dx = (td[:, 0, None] - ap[:, 0]).reshape(1, -1)
        dy = (td[:, 1, None] - ap[:, 1]).reshape(1, -1)
        rsq = dx * dx + dy * dy
        order, _ = _table_key_order(rsq, lambda: (dx, dy))
        u0, a0 = np.divmod(order[0], m)
        return [False] * inst.n, [(u0.tolist(), a0.tolist())]
    covered = bytearray(inst.n)
    return covered, _bounded_runs_reference(inst, np.frombuffer(covered, dtype=np.bool_))


def _bounded_runs_reference(inst, covered):
    m = inst.m
    ap, td = inst.ap_xy, inst.td_xy
    flat = td[:, 0, None] - ap[:, 0]
    flat *= flat
    ranked = td[:, 1, None] - ap[:, 1]
    ranked *= ranked
    flat += ranked
    flat, ranked = flat.reshape(-1), ranked.reshape(-1)
    ranked[:] = flat
    block = max(inst.n, baselines._MIN_BLOCK)

    def run(idx, later):
        u0 = idx // m
        if later:
            keep = ~covered[u0]
            idx, u0 = idx[keep], u0[keep]
        a0 = idx - u0 * m
        order, _ = _table_key_order(flat[None, idx],
                                    lambda: (td[None, u0, 0] - ap[None, a0, 0],
                                             td[None, u0, 1] - ap[None, a0, 1]))
        u0, a0 = u0[order[0]], a0[order[0]]
        yield u0[:block].tolist(), a0[:block].tolist()
        for s in range(block, u0.size, block):
            u, a = u0[s:s + block], a0[s:s + block]
            keep = ~covered[u]
            yield u[keep].tolist(), a[keep].tolist()

    lo, start, s = -np.inf, 0, baselines._FIRST_RUN
    while s < flat.size:
        ranked[start:].partition(s - start)
        v = ranked[s]
        if v != v:
            break
        below = flat < v
        if start:
            below &= flat >= lo
        yield from run(np.flatnonzero(below), start)
        lo, start, s = v, s, 2 * s
    yield from run(np.flatnonzero(~(flat < lo)), start)


def validate_reference(inst: Instance) -> list[str]:
    """``validate_instance`` as it stood before a bounding-box bound let
    it skip the pass over all m*n boundary vectors; same messages, same
    order."""
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
        with np.errstate(over="ignore"):
            dx, dy = model._boundary_vectors(inst)
            rsq = dx * dx + dy * dy
        top_rsq = float(rsq.max())
        try:
            top = model.power_of(top_rsq, inst.power_c, inst.power_alpha)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            v.append(f"the largest candidate disk (squared radius {top_rsq!r}) "
                     "has a power beyond the float range")
        elif not math.isfinite(2 * inst.m * top):
            total = 0.0
            for r in rsq.max(axis=1).tolist():
                total += model.power_of(r, inst.power_c, inst.power_alpha)
            if not math.isfinite(total):
                v.append(f"the largest disks of the {inst.m} APs have a total power "
                         "beyond the float range")
    return v


class FlowNetworkReference:
    """Small integer max-flow network (Dinic's algorithm), the package's
    ``FlowNetwork`` before it was specialised to one network shape.

    Used to decide whether fixed disk choices admit a full TD assignment:
    source -> AP arcs carry the capacity k, AP -> TD arcs exist where the
    chosen disk contains the TD, TD -> sink arcs have capacity 1.  All
    operations are deterministic given the arc insertion order.  An
    augmenting path is walked with an explicit arc stack, so its length
    is not bounded by the interpreter's recursion limit.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        arc = len(self.to)
        self.adj[u].append(arc)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(arc + 1)
        self.to.append(u)
        self.cap.append(0)
        return arc

    def max_flow(self, s: int, t: int) -> int:
        adj, to, cap = self.adj, self.to, self.cap
        flow = 0
        while True:
            level = [-1] * self.num_nodes
            level[s] = 0
            queue = [s]
            for u in queue:
                for arc in adj[u]:
                    v = to[arc]
                    if cap[arc] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.num_nodes
            # Depth-first augmentation along the level graph with an arc
            # stack: a dead end advances its parent's current arc, and a
            # path that reaches t pushes its bottleneck.
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(self.num_nodes + 1, *(cap[arc] for arc in path))
                    for arc in path:
                        cap[arc] -= pushed
                        cap[arc ^ 1] += pushed
                    flow += pushed
                    path.clear()
                    u = s
                    continue
                arcs = adj[u]
                while it[u] < len(arcs):
                    arc = arcs[it[u]]
                    v = to[arc]
                    if cap[arc] > 0 and level[v] == level[u] + 1:
                        path.append(arc)
                        u = v
                        break
                    it[u] += 1
                else:
                    if not path:
                        break  # s is a dead end: the phase is blocked
                    u = to[path.pop() ^ 1]
                    it[u] += 1


def flow_assign_reference(
    chosen_aps: list[int], masks: list[int], k: int, n: int
) -> dict[int, set[int]] | None:
    """Full assignment of all n TDs to the chosen APs, or None.

    ``masks[j]`` is the TD bitmask of the j-th chosen AP's disk (bit
    u - 1 set for each TD id u inside); its arcs go in ascending TD id.
    """
    num_ap = len(chosen_aps)
    s = 0
    t = 1 + num_ap + n
    net = FlowNetworkReference(t + 1)
    ap_td_arcs: list[tuple[int, int, int]] = []
    for j, (ap_id, mask) in enumerate(zip(chosen_aps, masks)):
        net.add_edge(s, 1 + j, k)
        for u in range(1, n + 1):
            if mask >> (u - 1) & 1:
                arc = net.add_edge(1 + j, num_ap + u, 1)
                ap_td_arcs.append((arc, ap_id, u))
    for u in range(1, n + 1):
        net.add_edge(num_ap + u, t, 1)
    if net.max_flow(s, t) != n:
        return None
    assignment: dict[int, set[int]] = {ap_id: set() for ap_id in chosen_aps}
    for arc, ap_id, u in ap_td_arcs:
        if net.cap[arc] == 0:
            assignment[ap_id].add(u)
    return assignment


def assignment_feasible(
    chosen: dict[int, int | None], inst: Instance
) -> dict[int, set[int]] | None:
    """Decide whether fixed per-AP disk choices, each AP's boundary TD id
    or None, can cover every TD.

    Returns a full assignment (AP id to TD id set, respecting capacity
    and containment) when the choices are feasible, otherwise None.
    """
    table = disk_order(inst)
    chosen_aps = sorted(a for a, u in chosen.items() if u is not None)
    masks = []
    for a in chosen_aps:
        r = int(table.rank[a - 1, chosen[a] - 1])
        masks.append(sum(1 << v0 for v0 in table.order[a - 1, : r + 1].tolist()))
    return flow_assign_reference(chosen_aps, masks, inst.k, inst.n)


def max_flow_reference(net, s: int, t: int) -> int:
    """Dinic's max flow on a ``FlowNetworkReference``'s arcs, in the
    recursive form the package used before its augmentation walked an
    explicit arc stack.  Mutates ``net.cap`` as
    ``FlowNetworkReference.max_flow`` does."""
    flow = 0
    while True:
        level = [-1] * net.num_nodes
        level[s] = 0
        queue = [s]
        for u in queue:
            for arc in net.adj[u]:
                v = net.to[arc]
                if net.cap[arc] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return flow
        it = [0] * net.num_nodes

        def augment(u: int, limit: int) -> int:
            if u == t:
                return limit
            while it[u] < len(net.adj[u]):
                arc = net.adj[u][it[u]]
                v = net.to[arc]
                if net.cap[arc] > 0 and level[v] == level[u] + 1:
                    pushed = augment(v, min(limit, net.cap[arc]))
                    if pushed:
                        net.cap[arc] -= pushed
                        net.cap[arc ^ 1] += pushed
                        return pushed
                it[u] += 1
            return 0

        while True:
            pushed = augment(s, net.num_nodes + 1)
            if not pushed:
                break
            flow += pushed


class _BudgetHit(Exception):
    pass


def exact_reference(inst: Instance, budget: ExactBudget | None = None) -> ExactResult:
    """Minimum-total-power solution by exhaustive disk-choice search.

    The exact solver in an earlier form: it recurses once per AP, decides
    every leaf by max flow, reruns the flow on the final incumbent to
    build the assignment, and indexes disks as ``a0 * n + u0``.  The
    package's search now decides small leaves by Hall's condition and
    runs that one final flow alone; between the two forms the package
    for a while kept the flow assignment of each improving leaf instead.
    Only the dropped ``elapsed_seconds`` field differs from this form.

    Each AP independently picks one of its n disks or none; choice lists
    are explored in ascending power order (no disk first) and branches
    are pruned once the partial power reaches the incumbent.  Coverage
    feasibility of complete choice vectors is decided by max flow.  The
    optimum is over exactly-once coverings, matching ``check_feasible``.
    """
    if budget is None:
        budget = ExactBudget()
    t0 = perf_counter()
    table = disk_order(inst)
    m, n = inst.m, inst.n
    powers = np.take_along_axis(table.power, table.rank, axis=1).ravel().tolist()  # by TD
    ranks = table.rank.ravel().tolist()

    # Disk (a0, u0) is index a0 * n + u0 below; its TD bitmask has bit v0
    # set for each TD index v0 ranked at or before u0.
    contained_masks = [
        sum(1 << v0 for v0, r in enumerate(row) if r <= row[u0])
        for row in table.rank.tolist() for u0 in range(n)
    ]
    choice_lists: list[list[int | None]] = []
    for base in range(0, m * n, n):
        ordered = sorted(range(base, base + n), key=lambda i: (powers[i], ranks[i]))
        choice_lists.append([None, *ordered])

    best_total = [float("inf")]
    best_choice: list[tuple[int | None, ...] | None] = [None]
    nodes = [0]

    def tick():
        nodes[0] += 1
        if nodes[0] > budget.max_nodes:
            raise _BudgetHit
        if nodes[0] % 256 == 0 and perf_counter() - t0 > budget.max_seconds:
            raise _BudgetHit

    chosen: list[int | None] = [None] * m

    def assign(choice) -> dict[int, set[int]] | None:
        aps = [a0 + 1 for a0, i in enumerate(choice) if i is not None]
        return flow_assign_reference(aps, [contained_masks[choice[a - 1]] for a in aps], inst.k, n)

    def descend(a0: int, partial: float):
        tick()
        if a0 == m:
            if assign(chosen) is not None:
                best_total[0] = partial
                best_choice[0] = tuple(chosen)
            return
        for i in choice_lists[a0]:
            s = partial if i is None else partial + powers[i]
            if s >= best_total[0]:
                if i is not None:
                    break  # ascending power: later choices prune too
                continue
            chosen[a0] = i
            descend(a0 + 1, s)
            chosen[a0] = None

    status = STATUS_OPTIMAL
    try:
        descend(0, 0.0)
    except _BudgetHit:
        status = STATUS_BUDGET_EXCEEDED

    solution = None
    if best_choice[0] is not None:
        picks = {a0 + 1: i % n + 1 for a0, i in enumerate(best_choice[0]) if i is not None}
        assignment = assign(best_choice[0])
        if assignment is None:
            raise RuntimeError("incumbent lost feasibility; solver bug")
        coverage = {
            a: frozenset(tds) for a, tds in sorted(assignment.items()) if tds
        }
        total = 0.0
        for a in sorted(picks):
            total += disk_geometry(inst, a, picks[a])[1]
        solution = Solution(selected=picks, coverage=coverage, total_power=total)
    elif status == STATUS_OPTIMAL:
        raise InfeasibleInstanceError(
            "exhaustive search found no feasible covering; "
            "the instance violates m*k >= n"
        )
    return ExactResult(
        status=status,
        solution=solution,
        nodes_explored=nodes[0],
    )
