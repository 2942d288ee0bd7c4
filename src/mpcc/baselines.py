"""Baseline solvers: the nearest-capable-access greedy and an exact oracle.

NCA repeatedly assigns the globally closest (AP, uncovered TD) pair among
APs with spare capacity; an AP's final disk is the largest-keyed disk of
its assigned TDs.  The exact solver enumerates one disk choice (or none)
per AP with branch-and-bound pruning on partial power sums and decides
coverage feasibility of a choice vector with a unit-capacity flow
network, so it is only practical at small scale.  TD bitmasks are its
one form of containment: they screen each leaf (the union of the chosen
disks and the sum of their servable counts) and give the flow its
AP -> TD arcs; the set-up holds O(m·n) masks.  Both produce solutions
that pass ``check_feasible``.
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
    of the order only until every TD is covered.
    """
    spare = [inst.k] * inst.m
    covered = [False] * inst.n
    assigned: dict[int, list[int]] = {}
    remaining = inst.n
    for u0s, a0s in pair_runs(inst):
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
    operations are deterministic given the arc insertion order.
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
        flow = 0
        while True:
            level = [-1] * self.num_nodes
            level[s] = 0
            queue = [s]
            for u in queue:
                for arc in self.adj[u]:
                    v = self.to[arc]
                    if self.cap[arc] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.num_nodes

            def augment(u: int, limit: int) -> int:
                if u == t:
                    return limit
                while it[u] < len(self.adj[u]):
                    arc = self.adj[u][it[u]]
                    v = self.to[arc]
                    if self.cap[arc] > 0 and level[v] == level[u] + 1:
                        pushed = augment(v, min(limit, self.cap[arc]))
                        if pushed:
                            self.cap[arc] -= pushed
                            self.cap[arc ^ 1] += pushed
                            return pushed
                    it[u] += 1
                return 0

            while True:
                pushed = augment(s, self.num_nodes + 1)
                if not pushed:
                    break
                flow += pushed


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


class _BudgetHit(Exception):
    pass


def solve_exact(inst: Instance, budget: ExactBudget | None = None) -> ExactResult:
    """Minimum-total-power solution by exhaustive disk-choice search.

    Each AP independently picks one of its n disks or none; choice lists
    are explored in ascending power order (no disk first) and branches
    are pruned once the partial power reaches the incumbent.  Coverage
    feasibility of complete choice vectors is decided by max flow, whose
    assignment the incumbent keeps.  Before the flow, a leaf is screened
    by TD bitmasks: it is skipped unless the chosen disks' union holds
    every TD and their servable counts ``min(k, rank + 1)`` sum to at
    least n, both necessary for a full flow; the same masks give the
    flow's arcs.  The set-up holds one mask per disk, O(m·n) masks.  The
    optimum is over exactly-once coverings, matching ``check_feasible``.
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

    best_total = float("inf")
    best: Solution | None = None
    nodes = 0

    def tick():
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_nodes:
            raise _BudgetHit
        if nodes % 256 == 0 and perf_counter() - t0 > budget.max_seconds:
            raise _BudgetHit

    chosen: list[tuple[int | None, int]] = [(None, 0)] * m  # (u0, mask) per AP

    def descend(a0: int, partial: float, union: int, cap: int):
        nonlocal best_total, best
        tick()
        if a0 == m:
            # Without every TD in the union and n servable slots, no flow
            # can cover; only the remaining leaves build the network.
            if union != all_tds or cap < n:
                return
            picks = {a + 1: u0 + 1 for a, (u0, _) in enumerate(chosen) if u0 is not None}
            masks = [mask for u0, mask in chosen if u0 is not None]
            assignment = _flow_assign(list(picks), masks, k, n)
            if assignment is not None:
                best_total = partial
                coverage = {a: tds for a, tds in assignment.items() if tds}
                best = Solution.from_picks(inst, picks, coverage)
            return
        for u0, power, mask, servable in choice_lists[a0]:
            s = partial + power
            if s >= best_total:
                break  # ascending power: later choices prune too
            chosen[a0] = (u0, mask)
            descend(a0 + 1, s, union | mask, cap + servable)

    status = STATUS_OPTIMAL
    try:
        descend(0, 0.0, 0, 0)
    except _BudgetHit:
        status = STATUS_BUDGET_EXCEEDED
    if best is None and status == STATUS_OPTIMAL:
        raise InfeasibleInstanceError(
            "exhaustive search found no feasible covering; "
            "the instance violates m*k >= n"
        )
    return ExactResult(status=status, solution=best, nodes_explored=nodes)
