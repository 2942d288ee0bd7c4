"""Independent reference implementations used only by the tests.

These deliberately avoid the package's max-flow and branch-and-bound
code: feasibility is decided by raw enumeration or per-TD backtracking,
so they can serve as oracles for the production paths.  The exceptions
are the earlier forms of rewritten solvers and orders, kept for
differential tests: ``exact_reference`` shares the package's max flow.  The disk order is
specified here one pair at a time by the scalar ``disk_key``, against
which the package's array-built ``disk_order`` is tested.
"""

import itertools
import json
import math
from time import perf_counter

import numpy as np

from mpcc import (
    InfeasibleInstanceError,
    Instance,
    Solution,
    disk_geometry,
    disk_order,
)
from mpcc import model
from mpcc.baselines import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_OPTIMAL,
    ExactBudget,
    ExactResult,
    _BudgetHit,
    _flow_assign,
)
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
    if not math.isclose(sol.total_power, derived, rel_tol=1e-9, abs_tol=1e-12):
        v.append(f"stated total_power {sol.total_power!r} disagrees with "
                 f"selected disks ({derived!r})")
    return v


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
    p_hat = table.power.ravel().copy()
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


def exact_reference(inst: Instance, budget: ExactBudget | None = None) -> ExactResult:
    """Minimum-total-power solution by exhaustive disk-choice search.

    The exact solver as it stood before it kept the flow assignment of
    its improving leaf: it reruns max flow on the final incumbent to
    rebuild the assignment, and indexes disks as ``a0 * n + u0``.  Only
    the dropped ``elapsed_seconds`` field differs from that form.

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
    powers = table.power.ravel().tolist()
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
        return _flow_assign(aps, [contained_masks[choice[a - 1]] for a in aps], inst.k, n)

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
