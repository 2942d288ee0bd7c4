"""Baseline solvers: the nearest-capable-access greedy and an exact oracle.

NCA repeatedly assigns the globally closest (AP, uncovered TD) pair among
APs with spare capacity; an AP's final disk is the largest-keyed disk of
its assigned TDs.  The exact solver enumerates one disk choice (or none)
per AP with branch-and-bound pruning on partial power sums, so it is
only practical at small scale.  TD bitmasks are its one form of
containment; the set-up holds O(m·n) masks.  They screen each leaf (the
union of the chosen disks and the sum of their servable counts), decide
the leaves that pass by Hall's condition (a max flow decides leaves
with many chosen disks), and are what the max flow works on: its state
is each chosen AP's TD list, read off its mask, the owner of each TD and
the load of each AP.  One flow on the final incumbent builds its
assignment from the owners.  Both produce solutions that pass
``check_feasible``.
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
    assigned: list[list[int]] = [[] for _ in range(inst.m)]
    remaining = inst.n
    for u0s, a0s in blocks:
        for u0, a0 in zip(u0s, a0s):
            if covered[u0] or spare[a0] == 0:
                continue
            covered[u0] = True
            spare[a0] -= 1
            assigned[a0].append(u0 + 1)
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
    coverage = {a0 + 1: tds for a0, tds in enumerate(assigned) if tds}
    return Solution.from_picks(inst, {a: tds[-1] for a, tds in coverage.items()}, coverage)


def _set_bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class FlowNetwork:
    """Max flow from a source through APs of capacity k to n TDs of
    capacity 1 (Dinic's algorithm on that one network shape).

    ``masks[j]`` is the TD bitmask of the j-th AP's disk, bit u0 set for
    each TD index u0 inside.  The state is three lists: ``rows[j]``, the
    TD indices in mask j in ascending order; ``owner[u0]``, the AP index
    holding TD u0, or -1; and ``load[j]``, the number of TDs AP j holds.
    A TD's only usable residual arc leads to its owner, or to the sink
    while it has none.  Paths are tried from the source in AP order and
    from an AP in ascending TD index, and an AP's current position in its
    row persists across the augmentations of a phase, so the result is
    deterministic.  An augmenting path is walked with an explicit stack
    of APs, so its length is not bounded by the interpreter's recursion
    limit.
    """

    def __init__(self, masks: list[int], k: int, n: int):
        self.rows = [_set_bits(mask) for mask in masks]
        self.owner = [-1] * n
        self.load = [0] * len(masks)
        self.k = k

    def max_flow(self) -> int:
        rows, owner, load, k = self.rows, self.owner, self.load, self.k
        q = len(rows)
        while True:
            # Levels by breadth-first search over the APs: those with spare
            # capacity at 1, TDs at even levels, an owned TD's owner one
            # past it.  The search stops before the APs at the sink's
            # level; nodes past it reach no augmenting path.
            ap_level = [-1] * q
            td_level = [-1] * len(owner)
            queue = [j for j in range(q) if load[j] < k]
            for j in queue:
                ap_level[j] = 1
            sink_level = 0
            for j in queue:
                down = ap_level[j] + 1
                if 0 < sink_level < down:
                    break
                for u0 in rows[j]:
                    if td_level[u0] < 0 and owner[u0] != j:
                        td_level[u0] = down
                        a = owner[u0]
                        if a < 0:
                            sink_level = down + 1
                        elif ap_level[a] < 0:
                            ap_level[a] = down + 1
                            queue.append(a)
            if not sink_level:
                return sum(load)
            # Depth-first augmentation along the level graph from each AP
            # in turn.  path holds the APs walked; each one's TD is the one
            # at its position, and every unowned TD with a level is one
            # short of the sink's.  A dead end advances the position of
            # the AP before it; a path that reaches the sink is flipped.
            pos = [0] * q
            for first in range(q):
                path = [first]
                while path and load[first] < k:
                    j = path[-1]
                    row, i, down = rows[j], pos[j], ap_level[j] + 1
                    while i < len(row):
                        u0 = row[i]
                        a = owner[u0]
                        if td_level[u0] == down and a != j and (a < 0 or ap_level[a] == down + 1):
                            break
                        i += 1
                    pos[j] = i
                    if i == len(row):
                        path.pop()
                        if path:
                            pos[path[-1]] += 1
                    elif a >= 0:
                        path.append(a)
                    else:
                        for j in path:
                            owner[rows[j][pos[j]]] = j
                        load[first] += 1
                        path = [first]


def _choice_list(
    power_row: list[float], order_row: list[int], k: int
) -> list[tuple[int | None, float, int, int]]:
    """One AP's disk choices for the exact search, no disk first.

    ``order_row[r]`` and ``power_row[r]`` are the boundary TD index and
    the power of the AP's disk of rank r (a ``DiskOrder`` row).  Each
    choice is the TD index u0 of the disk (None for no disk), its power,
    its TD bitmask (bit v0 set for each TD index v0 inside) and its
    servable count ``min(k, rank + 1)``.  One walk along the AP's disk
    order builds them, as the disk of rank r holds exactly the TDs of
    ranks 0..r; a stable sort then puts the disks in ascending power,
    equal powers in rank order.
    """
    disks = []
    mask = 0
    for r, (u0, power) in enumerate(zip(order_row, power_row)):
        mask |= 1 << u0
        disks.append((u0, power, mask, min(k, r + 1)))
    disks.sort(key=lambda choice: choice[1])
    return [(None, 0.0, 0, 0), *disks]


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


# Hall's test costs 2^q subset unions for q chosen APs; past about this
# many a max flow decides a leaf faster.  Per feasible leaf (one random
# leaf each, fastest of 5), Hall / flow in µs on a 2-vCPU Xeon VM:
# n = 5: 7 / 7 at q = 6, 24 / 9 at q = 8; n = 20: 24 / 22 at q = 8,
# 101 / 26 at q = 10; n = 100: 103 / 174 at q = 10, 413 / 206 at q = 12.
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
    budget, one max flow on the final incumbent builds its assignment
    from the owner it leaves for each TD.
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
                        else FlowNetwork(masks, k, n).max_flow() == n
                    ):
                        best_total = s
                        best = chosen[:]
                continue
        d -= 1

    solution = None
    if best is not None:
        picks = {a0 + 1: c[0] + 1 for a0, c in enumerate(best) if c[0] is not None}
        net = FlowNetwork([c[2] for c in best if c[0] is not None], k, n)
        net.max_flow()
        held: list[list[int]] = [[] for _ in picks]
        for u0, j in enumerate(net.owner):
            held[j].append(u0 + 1)
        coverage = {a: tds for a, tds in zip(picks, held) if tds}
        solution = Solution.from_picks(inst, picks, coverage)
    elif status == STATUS_OPTIMAL:
        raise InfeasibleInstanceError(
            "exhaustive search found no feasible covering; "
            "the instance violates m*k >= n"
        )
    return ExactResult(status=status, solution=solution, nodes_explored=nodes)
