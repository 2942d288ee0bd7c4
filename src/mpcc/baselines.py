"""Baseline solvers: the nearest-capable-access greedy and an exact oracle.

NCA repeatedly assigns the globally closest (AP, uncovered TD) pair among
APs with spare capacity; an AP's final disk is the largest-keyed disk of
its assigned TDs.  The exact solver enumerates one disk choice (or none)
per AP with branch-and-bound pruning on partial power sums and decides
coverage feasibility of a choice vector with a unit-capacity flow
network, so it is only practical at small scale.  Both produce solutions
that pass ``check_feasible``.
"""

from dataclasses import dataclass
from time import perf_counter

from .model import (
    Disk,
    Instance,
    InfeasibleInstanceError,
    Solution,
    disk_order,
    make_disk,
    pair_order,
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
    the AP id (``pair_order``).  Scanning the pairs once in that order is
    equivalent to repeatedly taking the closest available pair, because a
    pair skipped for a covered TD or a full AP never becomes available
    again.  Restricted to one AP, this order is the AP's disk order (key,
    then TD id), so the last TD assigned to an AP is the boundary TD of
    the largest-keyed disk among its assigned TDs.
    """
    m, n = inst.m, inst.n
    spare = [inst.k] * m
    covered = [False] * n
    assigned: dict[int, list[int]] = {}
    remaining = n
    for i in pair_order(inst).tolist():
        if remaining == 0:
            break
        u0, a0 = divmod(i, m)
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
        d = make_disk(inst, ap_id, tds[-1])
        selected[ap_id] = d
        coverage[ap_id] = frozenset(tds)
        total += d.power
    return Solution(selected=selected, coverage=coverage, total_power=total)


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


def _contained(rank_row: list[int], u0: int) -> list[int]:
    """Ascending ids of the TDs inside TD index u0's disk at an AP's ranks."""
    return [v + 1 for v, r in enumerate(rank_row) if r <= rank_row[u0]]


def _flow_assign(
    chosen_aps: list[int], contained: list[list[int]], k: int, n: int
) -> dict[int, set[int]] | None:
    """Full assignment of all n TDs to the chosen APs, or None.

    ``contained[j]`` lists the TD ids the j-th chosen AP's disk contains.
    """
    num_ap = len(chosen_aps)
    s = 0
    t = 1 + num_ap + n
    net = FlowNetwork(t + 1)
    ap_td_arcs: list[tuple[int, int, int]] = []
    for j, ap_id in enumerate(chosen_aps):
        net.add_edge(s, 1 + j, k)
        for u in contained[j]:
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
    chosen: dict[int, Disk | None], inst: Instance
) -> dict[int, set[int]] | None:
    """Decide whether fixed per-AP disk choices can cover every TD.

    Returns a full assignment (AP id to TD id set, respecting capacity
    and containment) when the choices are feasible, otherwise None.
    """
    rank = disk_order(inst).rank.tolist()
    chosen_aps = sorted(a for a, d in chosen.items() if d is not None)
    contained = [_contained(rank[a - 1], chosen[a].td_id - 1) for a in chosen_aps]
    return _flow_assign(chosen_aps, contained, inst.k, inst.n)


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
    elapsed_seconds: float


class _BudgetHit(Exception):
    pass


def solve_exact(inst: Instance, budget: ExactBudget | None = None) -> ExactResult:
    """Minimum-total-power solution by exhaustive disk-choice search.

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

    # Disk (a0, u0) is index a0 * n + u0 below.
    contained_tds = [
        _contained(row, u0) for row in table.rank.tolist() for u0 in range(n)
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
        return _flow_assign(aps, [contained_tds[choice[a - 1]] for a in aps], inst.k, n)

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
        picks = {
            a0 + 1: make_disk(inst, a0 + 1, i % n + 1)
            for a0, i in enumerate(best_choice[0]) if i is not None
        }
        assignment = assign(best_choice[0])
        if assignment is None:
            raise RuntimeError("incumbent lost feasibility; solver bug")
        coverage = {
            a: frozenset(tds) for a, tds in sorted(assignment.items()) if tds
        }
        total = 0.0
        for a in sorted(picks):
            total += picks[a].power
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
        elapsed_seconds=perf_counter() - t0,
    )
