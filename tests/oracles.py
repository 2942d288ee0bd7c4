"""Independent reference implementations used only by the tests.

These deliberately avoid the package's max-flow and branch-and-bound
code: feasibility is decided by raw enumeration or per-TD backtracking,
so they can serve as oracles for the production paths.  The disk order is
specified here one pair at a time by the scalar ``disk_key``, against
which the package's array-built ``disk_order`` is tested.
"""

import itertools
import math

from mpcc import Instance, distance_sq, make_disk


def disk_key(inst, ap_id, td_id) -> tuple[float, float, int, int]:
    """Sort key of disk (ap_id, td_id) in its AP's strict total order:
    ``(radius_sq, cos_angle, y_sign_rank, td_id)``.

    ``cos_angle`` is the cosine of the boundary vector's angle with the
    x-axis; ``y_sign_rank`` is 0 for boundary vectors with y >= 0 and 1
    otherwise, and the TD id breaks the remaining ties.
    """
    a = inst.ap(ap_id)
    u = inst.td(td_id)
    rsq = distance_sq(a, u)
    if rsq == 0.0:
        # Degenerate boundary vector; direction fields take a fixed value
        # and coincident TDs are ordered by id alone.
        return (0.0, 1.0, 0, td_id)
    dx = u.x - a.x
    dy = u.y - a.y
    cos = dx / math.sqrt(rsq)
    # sqrt rounding can push the quotient a hair past 1 in magnitude.
    cos = max(-1.0, min(1.0, cos))
    return (rsq, cos, 0 if dy >= 0.0 else 1, td_id)


def contains(d, td_id, inst) -> bool:
    """Order-based containment: disk D contains v iff key(D_{a,v}) <= key(D)."""
    return disk_key(inst, d.ap_id, td_id) <= disk_key(inst, d.ap_id, d.td_id)


def disk_family(inst):
    """All m*n candidate disks, AP id major and TD id minor."""
    return [
        make_disk(inst, a, u)
        for a in range(1, inst.m + 1)
        for u in range(1, inst.n + 1)
    ]


def random_instance(rng, m, n, k, side=40.0, power_c=1.0, power_alpha=2.0) -> Instance:
    aps = rng.random((m, 2)) * side
    tds = rng.random((n, 2)) * side
    return Instance.from_coords(aps=aps.tolist(), tds=tds.tolist(), k=k,
                                power_c=power_c, power_alpha=power_alpha)


def product_assignment_exists(chosen, inst) -> bool:
    """Enumerate every TD -> AP map over the choosing APs (tiny n only)."""
    aps = sorted(a for a, d in chosen.items() if d is not None)
    if not aps:
        return inst.n == 0
    for combo in itertools.product(aps, repeat=inst.n):
        loads = dict.fromkeys(aps, 0)
        ok = True
        for u, a in enumerate(combo, start=1):
            if not contains(chosen[a], u, inst):
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
                total += d.power
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
    from mpcc import Solution

    disks = disk_family(inst)
    key = [disk_key(inst, d.ap_id, d.td_id) for d in disks]
    contained = {
        i: {u for u in range(1, inst.n + 1) if contains(disks[i], u, inst)}
        for i in range(len(disks))
    }
    live = set(range(len(disks)))
    p_hat = {i: disks[i].power for i in live}
    k_hat = {i: inst.k for i in live}
    uncovered = set(range(1, inst.n + 1))
    latest, covered_by = {}, {}
    while uncovered:
        assert live, "capacity exhausted with TDs uncovered"
        ratio = {i: p_hat[i] / min(k_hat[i], len(contained[i])) for i in live}
        best = min(ratio.values())
        i_star = min(
            (i for i in live if ratio[i] == best),
            key=lambda i: (disks[i].ap_id, key[i]),
        )
        a_star = disks[i_star].ap_id
        taken = set(contained[i_star])
        latest[a_star] = i_star
        covered_by.setdefault(a_star, set()).update(taken)
        if len(contained[i_star]) == k_hat[i_star]:
            gone = {i for i in live if disks[i].ap_id == a_star}
        else:
            gone = {
                i for i in live
                if disks[i].ap_id == a_star and key[i] < key[i_star]
            } | {i_star}
        live -= gone
        for i in live:
            p_hat[i] -= best * min(k_hat[i], len(contained[i]))
        for u in taken:
            uncovered.discard(u)
            for i in live:
                contained[i].discard(u)
                if disks[i].ap_id == a_star:
                    k_hat[i] -= 1
        live -= {i for i in live if not contained[i] or k_hat[i] == 0}
    selected = {a: disks[i] for a, i in sorted(latest.items())}
    total = 0.0
    for a in sorted(selected):
        total += selected[a].power
    return Solution(
        selected=selected,
        coverage={a: frozenset(covered_by[a]) for a in sorted(covered_by)},
        total_power=total,
    )
