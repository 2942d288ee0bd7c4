"""Baseline solvers: the nearest-capable-access greedy and an exact oracle.

NCA repeatedly assigns the globally closest (AP, uncovered TD) pair among
APs with spare capacity; an AP's final disk is the largest-keyed disk of
its assigned TDs.  The exact solver enumerates one disk choice (or none)
per AP with branch-and-bound pruning on partial power sums, so it is
only practical at small scale.  TD bitmasks are its one form of
containment; the set-up holds O(m·n) masks.  They screen each leaf (the
union of the chosen disks and the sum of their servable counts), decide
the leaves that pass by Hall's condition (a max flow decides leaves
with many chosen disks), and give the one max flow that builds the final
incumbent's assignment its AP -> TD arcs.  Both produce solutions that
pass ``check_feasible``.
"""

from dataclasses import dataclass
from time import perf_counter

from .model import (
    Instance,
    InfeasibleInstanceError,
    Solution,
    disk_order,
    pair_runs,
)

__all__ = [
    "solve_nca",
    "FlowNetwork",
    "assignment_feasible",
    "ExactBudget",
    "ExactResult",
    "STATUS_OPTIMAL",
    "STATUS_BUDGET_EXCEEDED",
    "solve_exact",
]

STATUS_OPTIMAL = "optimal"
STATUS_BUDGET_EXCEEDED = "budget_exceeded"


def solve_nca(inst: Instance) -> Solution:
    """Nearest-capable-access greedy.

    Pairs are ranked by the candidate disk's key, then the TD id, then
    the AP id (``pair_runs``).  Scanning the pairs once in that order is
    equivalent to repeatedly taking the closest available pair, because a
    pair skipped for a covered TD or a full AP never becomes available
    again.  Restricted to one AP, this order is the AP's disk order (key,
    then TD id), so the last TD assigned to an AP is the boundary TD of
    the largest-keyed disk among its assigned TDs.  The scan draws runs
    of the order only until every TD is covered, and flags each TD as it
    covers it, so that later blocks leave out the pairs it would skip.
    """
    covered, blocks = pair_runs(inst)
    spare = [inst.k] * inst.m
    assigned: dict[int, list[int]] = {}
    remaining = inst.n
    for u0s, a0s in blocks:
        for u0, a0 in zip(u0s, a0s):
            if covered[u0] or spare[a0] == 0:
                continue
            covered[u0] = True
            spare[a0] -= 1
            assigned.setdefault(a0 + 1, []).append(u0 + 1)
            remaining -= 1
            if remaining == 0:
                break
        if remaining == 0:
            break  # draw no further run
    if remaining:
        raise InfeasibleInstanceError(
            "NCA exhausted all capacity with TDs uncovered; "
            "the instance violates m*k >= n"
        )
    return Solution.from_picks(
        inst, {ap_id: tds[-1] for ap_id, tds in assigned.items()}, assigned
    )


class FlowNetwork:
    """Small integer max-flow network (Dinic's algorithm).

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


def _choice_list(
    power_row: list[float], order_row: list[int], k: int
) -> list[tuple[int | None, float, int, int]]:
    """One AP's disk choices for the exact search, no disk first.

    Each choice is the TD index u0 of the disk (None for no disk), its
    power, its TD bitmask (bit v0 set for each TD index v0 inside) and its
    servable count ``min(k, rank + 1)``.  One walk along the AP's disk
    order builds them, as the disk of rank r holds exactly the TDs of
    ranks 0..r; a stable sort then puts the disks in ascending power,
    equal powers in rank order.
    """
    disks = []
    mask = 0
    for r, u0 in enumerate(order_row):
        mask |= 1 << u0
        disks.append((u0, power_row[u0], mask, min(k, r + 1)))
    disks.sort(key=lambda choice: choice[1])
    return [(None, 0.0, 0, 0), *disks]


def _flow_assign(
    chosen_aps: list[int], masks: list[int], k: int, n: int
) -> dict[int, set[int]] | None:
    """Full assignment of all n TDs to the chosen APs, or None.

    ``masks[j]`` is the TD bitmask of the j-th chosen AP's disk (bit
    u - 1 set for each TD id u inside); its arcs go in ascending TD id.
    """
    num_ap = len(chosen_aps)
    s = 0
    t = 1 + num_ap + n
    net = FlowNetwork(t + 1)
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
    return _flow_assign(chosen_aps, masks, inst.k, inst.n)


@dataclass(frozen=True)
class ExactBudget:
    """Search limits for the exact solver."""

    max_nodes: int = 2_000_000
    max_seconds: float = 600.0


@dataclass
class ExactResult:
    """Outcome of an exact solve.

    ``status`` is ``optimal`` or ``budget_exceeded``; an exceeded budget
    is never reported as a plain solution.  ``solution`` holds the best
    incumbent found, which is only proven optimal when the status says
    so.
    """

    status: str
    solution: Solution | None
    nodes_explored: int


# Hall's test costs 2^q subset unions for q chosen APs; past this many a
# max flow decides a leaf faster (measured per leaf at n = 5 to 100).
_HALL_MAX_APS = 8


def _hall_feasible(masks: list[int], k: int, n: int) -> bool:
    """Whether APs of capacity k whose disks hold the TD bitmasks
    ``masks`` can serve all n TDs.

    Hall's condition for b-matching: for every subset S of the APs, the
    TDs that no AP outside S contains number at most k·|S|.  One pass
    builds the mask union of every subset C of the APs, indexed by C's
    bits; C stands for the APs outside S.
    """
    q = len(masks)
    unions = [0]
    for mask in masks:
        unions += [u | mask for u in unions]
    return all(n - u.bit_count() <= k * (q - c.bit_count()) for c, u in enumerate(unions))


def solve_exact(inst: Instance, budget: ExactBudget | None = None) -> ExactResult:
    """Minimum-total-power solution by exhaustive disk-choice search.

    Each AP independently picks one of its n disks or none; choice lists
    are explored in ascending power order (no disk first) and branches
    are pruned once the partial power reaches the incumbent.  The search
    walks the tree with an explicit stack, so its depth is not bounded by
    the interpreter's recursion limit.  A leaf is screened by TD
    bitmasks: it is skipped unless the chosen disks' union holds every TD
    and their servable counts ``min(k, rank + 1)`` sum to at least n.  A
    leaf that passes is decided by Hall's condition over the same masks
    (``_hall_feasible``) when it chooses at most ``_HALL_MAX_APS`` disks,
    and by max flow otherwise; a feasible leaf keeps only its choice
    vector as the incumbent.  Once the search ends, finished or out of
    budget, one max flow on the final incumbent builds its assignment.
    The set-up holds one mask per disk, O(m·n) masks.  The optimum is
    over exactly-once coverings, matching ``check_feasible``.
    """
    if budget is None:
        budget = ExactBudget()
    t0 = perf_counter()
    table = disk_order(inst)
    m, n, k = inst.m, inst.n, inst.k
    choice_lists = [
        _choice_list(p, o, k) for p, o in zip(table.power.tolist(), table.order.tolist())
    ]
    all_tds = (1 << n) - 1
    max_nodes, max_seconds = budget.max_nodes, budget.max_seconds

    best_total = float("inf")
    best: list | None = None  # the incumbent's choice per AP
    chosen = [choices[0] for choices in choice_lists]
    # Per depth d: the next choice to try at the node there, and the
    # partial power, mask union and servable count of APs 0..d-1.
    pos = [0] * m
    partial = [0.0] * m
    union = [0] * m
    cap = [0] * m
    nodes = 1  # the root; each step down below counts one more
    status = STATUS_OPTIMAL if nodes <= max_nodes else STATUS_BUDGET_EXCEEDED
    if status == STATUS_OPTIMAL and m == n == 0:
        best = []  # the root is the only leaf, and there is no TD to cover
    d = 0 if status == STATUS_OPTIMAL and m else -1
    while d >= 0:
        choices = choice_lists[d]
        i = pos[d]
        if i < len(choices):
            choice = choices[i]
            s = partial[d] + choice[1]
            if s < best_total:  # ascending power: else later choices prune too
                pos[d] = i + 1
                chosen[d] = choice
                nodes += 1
                if nodes > max_nodes or (
                    nodes % 256 == 0 and perf_counter() - t0 > max_seconds
                ):
                    status = STATUS_BUDGET_EXCEEDED
                    break
                # Step down, or decide a leaf.  Without every TD in the
                # union and n servable slots no assignment covers; Hall
                # or the flow decides the leaves that have both.
                _, _, mask, servable = choice
                if d + 1 < m:
                    d += 1
                    pos[d] = 0
                    partial[d] = s
                    union[d] = union[d - 1] | mask
                    cap[d] = cap[d - 1] + servable
                elif union[d] | mask == all_tds and cap[d] + servable >= n:
                    masks = [c[2] for c in chosen if c[0] is not None]
                    if (
                        _hall_feasible(masks, k, n)
                        if len(masks) <= _HALL_MAX_APS
                        else _flow_assign(list(range(len(masks))), masks, k, n) is not None
                    ):
                        best_total = s
                        best = chosen[:]
                continue
        d -= 1

    solution = None
    if best is not None:
        picks = {a0 + 1: c[0] + 1 for a0, c in enumerate(best) if c[0] is not None}
        assignment = _flow_assign(list(picks), [c[2] for c in best if c[0] is not None], k, n)
        coverage = {a: tds for a, tds in assignment.items() if tds}
        solution = Solution.from_picks(inst, picks, coverage)
    elif status == STATUS_OPTIMAL:
        raise InfeasibleInstanceError(
            "exhaustive search found no feasible covering; "
            "the instance violates m*k >= n"
        )
    return ExactResult(status=status, solution=solution, nodes_explored=nodes)
