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

import math
import operator
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Iterator, MutableSequence

import numpy as np

from .model import (
    Instance,
    InfeasibleInstanceError,
    Solution,
    _key_order,
    disk_order,
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

    The scan passes once over the (AP, TD) pairs, ranked by the candidate
    disk's key, then the TD id, then the AP id.  That is equivalent to
    repeatedly taking the closest available pair, because a pair skipped
    for a covered TD or a full AP never becomes available again.
    Restricted to one AP, this order is the AP's disk order (key, then TD
    id), so the last TD assigned to an AP is the boundary TD of the
    largest-keyed disk among its assigned TDs.  ``pair_runs`` hands out
    the pairs in this order, and the TD flags the scan sets.
    """
    covered, blocks = pair_runs(inst)
    spare = [inst.k] * inst.m
    # Made at an AP's first TD, so only the APs that serve get a list.
    assigned: list[list[int] | None] = [None] * inst.m
    remaining = inst.n
    for u0s, a0s in blocks:
        for u0, a0 in zip(u0s, a0s):
            if covered[u0] or spare[a0] == 0:
                continue
            covered[u0] = True
            spare[a0] -= 1
            tds = assigned[a0]
            if tds is None:
                assigned[a0] = [u0 + 1]
            else:
                tds.append(u0 + 1)
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


_FIRST_RUN = 8192  # pairs: pair_runs' largest one-block table, first run's aim, sample size
_MIN_BLOCK = 1024  # least pairs in a block of a multi-run table


_Block = tuple[list[int], list[int]]


def pair_runs(inst: Instance) -> tuple[MutableSequence, Iterable[_Block]]:
    """The pairs and TD flags of ``solve_nca``'s scan, ``(covered,
    blocks)``.

    Pair (a0, u0) is the flat index ``u0 * m + a0``, so the stable key
    sort breaks disk-key ties by TD, then AP.  A table of at most 8192
    pairs is sorted as one flat row into one block, and its flags are a
    list.  A larger table is drawn in runs, each sorted as a flat row.
    The radius leads the key, so each run is a band of the order: the
    pairs left whose radius lies in (lo, v], where lo is the last run's
    bound.  The bound v is read off a strided sample of the radii above lo
    among at most about 8192 of the pairs the run is drawn from, at the
    rank that estimates their 8192nd smallest radius for the first run
    and twice the last run's rank for each later one; once that rank
    falls past the sample, v is inf and the run holds every pair left,
    NaN radii last.  No empty run is handed out.  The first run is drawn
    from every pair, each later one from the pairs of the TDs not yet
    flagged, so its cost follows the uncovered TDs times m, not the table.
    Each run is handed out in blocks of max(n, 1024) pairs, and every
    block after a run's first drops the pairs of TDs flagged since.  With
    no TD flagged, the blocks hold every pair in order.
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
    # Only the (n, m) squared radii span the whole table, rounded as
    # dx*dx + dy*dy everywhere else, and dy*dy is added in chunks of about
    # _FIRST_RUN pairs, so no second buffer of the table's size is made.
    # The key's later fields are computed per run, and only for a run that
    # repeats a radius.
    rsq = td[:, 0, None] - ap[:, 0]
    rsq *= rsq
    step = _FIRST_RUN // m + 1
    for s in range(0, inst.n, step):
        dy = td[s:s + step, 1, None] - ap[:, 1]
        dy *= dy
        rsq[s:s + step] += dy
    block = max(inst.n, _MIN_BLOCK)

    def pairs(tds, at):
        # at: flat indices into the rows tds of rsq (None: every row)
        u0 = at // m
        a0 = at - u0 * m
        return (u0 if tds is None else tds[u0]), a0

    def boundary(tds, at):
        u0, a0 = pairs(tds, at)
        return td[u0, 0] - ap[a0, 0], td[u0, 1] - ap[a0, 1]

    def ordered(tds, flat, lo, v):
        # The pairs of the rows tds whose radius lies in (lo, v], in key
        # order.  Their flat indices ascend, so the stable sort breaks key
        # ties by TD, then AP.  Each array is dropped once read: a run's
        # arrays add to the whole table's.
        if v < np.inf:
            keep = flat <= v
            if lo > -np.inf:
                keep &= flat > lo
        else:
            keep = ~(flat <= lo)
        at = np.flatnonzero(keep)
        del keep
        order = _key_order(flat[at], lambda: boundary(tds, at))[0]
        at = at[order]
        del order
        return pairs(tds, at)

    def run(u0, a0):
        yield u0[:block].tolist(), a0[:block].tolist()
        for s in range(block, u0.size, block):
            u, a = u0[s:s + block], a0[s:s + block]
            keep = ~covered[u]
            yield u[keep].tolist(), a[keep].tolist()

    # Each run is drawn from the pairs of the TDs not yet flagged, the rows
    # tds of rsq (None: every row), and holds those whose radius lies in
    # (lo, v]: lo is the last run's bound and v a sampled radius > lo, or
    # inf once the rank falls past the sample.  NaN fails "> lo", so v is
    # never NaN, and NaN radii, which sort last, join the run of v = inf.
    tds, table, lo, want = None, rsq, -np.inf, _FIRST_RUN
    while lo < np.inf:
        flat = table.reshape(-1)
        # A stride prime to m samples every AP's pairs alike.
        stride = flat.size // _FIRST_RUN + 1
        while math.gcd(stride, m) > 1:
            stride += 1
        sample = flat[::stride]
        sample = sample[sample > lo]
        r = want // stride
        v = np.partition(sample, r)[r] if r < sample.size else np.inf
        u0, a0 = ordered(tds, flat, lo, v)
        if u0.size:
            yield from run(u0, a0)
        tds = np.flatnonzero(~covered)
        table, lo, want = rsq[tds], v, 2 * want


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
    equal powers in rank order.  A row whose powers never fall along
    rank, as the usual power law's do, is in that order already and is
    not sorted; a NaN power fails the ``<=`` test, so such a row is.
    """
    disks = []
    mask = 0
    for r, (u0, power) in enumerate(zip(order_row, power_row)):
        mask |= 1 << u0
        disks.append((u0, power, mask, min(k, r + 1)))
    if not all(map(operator.le, power_row, power_row[1:])):
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


def _leaf_feasible(chosen: list, k: int, n: int) -> bool:
    """Whether the disks of the choices ``chosen`` can serve all n TDs:
    Hall's condition over their masks when there are at most
    ``_HALL_MAX_APS`` of them, a max flow otherwise."""
    masks = [c[2] for c in chosen if c[0] is not None]
    if len(masks) <= _HALL_MAX_APS:
        return _hall_feasible(masks, k, n)
    return FlowNetwork(masks, k, n).max_flow() == n


# The most bytes the exact set-up may take, estimated as m·n²/8: its TD
# bitmasks hold about m·n²/2 bits.  Above it, solve_exact returns
# budget_exceeded after 0 nodes.  With a 10-node budget (k = 40, 2-vCPU
# VM) the maxrss read 128 MB at n x m = 2000 x 100, 325 MB at 4000 x 100
# and 459 MB at 5000 x 100, 35 MB of them before the solve; so m·n² <=
# 4·10^9 admits 4000 x 100 and refuses 10 000 x 100 (1.53 GB).
_MAX_SETUP_BYTES = 5 * 10**8


def solve_exact(inst: Instance, budget: ExactBudget | None = None) -> ExactResult:
    """Minimum-total-power solution by exhaustive disk-choice search.

    Each AP independently picks one of its n disks or none; choice lists
    are explored in ascending power order (no disk first) and branches are
    pruned once the partial power reaches the incumbent.  APs 0 to m-3 are
    walked with one frame per depth on an explicit stack, free of the
    interpreter's recursion limit: a step takes the top frame's next
    choice and pushes its child's frame, or pops the frame once its
    choices run out or one reaches the incumbent.  AP m-2's frame is
    popped into two plain nested loops over the last two APs' choices,
    where most nodes lie (139 of 156 a solve at n=5, m=4); with one AP,
    its frame's steps decide the leaves.  Every choice visited is one
    node; the node budget is checked at each node and the time budget at
    every 256th.  A leaf is screened by TD bitmasks: it is skipped unless
    the chosen disks' union holds every TD and their servable counts
    ``min(k, rank + 1)`` sum to at least n.  A leaf that passes is decided
    by Hall's condition over the same masks (``_hall_feasible``) when it
    chooses at most ``_HALL_MAX_APS`` disks, and by max flow otherwise; a
    feasible leaf keeps only its choice vector as the incumbent.  Once the
    search ends, finished or out of budget, one max flow on the final
    incumbent builds its assignment from the owner it leaves for each TD.
    The set-up holds one mask per disk: O(m·n) masks of up to n bits,
    O(m·n²) bits in all.  An instance whose set-up is estimated past
    ``_MAX_SETUP_BYTES`` is not searched: the result is budget_exceeded
    after 0 nodes.  The optimum is over exactly-once coverings, matching
    ``check_feasible``.
    """
    if inst.m * inst.n**2 // 8 > _MAX_SETUP_BYTES:
        return ExactResult(STATUS_BUDGET_EXCEEDED, None, 0)
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

    def next_check(nodes: int) -> int:
        # 0 once nodes exceeds the budget: past max_nodes, or past
        # max_seconds when read at every 256th node.  Else the next node
        # count at which either can fire; the search compares against
        # that alone, and the checks fire at exactly the same nodes.
        if nodes > max_nodes or (nodes % 256 == 0 and perf_counter() - t0 > max_seconds):
            return 0
        return min(max_nodes + 1, nodes - nodes % 256 + 256)

    best_total = float("inf")
    best: list | None = None  # the incumbent's choice per AP
    chosen = [choices[0] for choices in choice_lists]
    nodes = 1  # the root; each step down below counts one more
    check_at = next_check(nodes)
    if check_at and m == n == 0:
        best = []  # the root is the only leaf, and there is no TD to cover
    # The frame at depth d: an iterator over AP d's choices left to try,
    # and the partial power, mask union and servable count of APs 0..d-1.
    frames = [(iter(choice_lists[0]), 0.0, 0, 0)] if m else []
    while check_at and frames:
        d = len(frames) - 1
        if d == m - 2:
            # The last two APs' choices in two plain loops, in the order
            # the frames would take them.  A choice that reaches the
            # incumbent ends its loop, as later ones ascend in power.
            # Without every TD in the union and n servable slots no
            # assignment covers; Hall or the flow decides the leaves
            # that have both.
            choices, at_s, at_union, at_cap = frames.pop()
            leaves = choice_lists[d + 1]
            for choice in choices:
                s = at_s + choice[1]
                if not s < best_total:
                    break
                nodes += 1
                if nodes >= check_at:
                    check_at = next_check(nodes)
                    if not check_at:
                        break
                chosen[d] = choice
                both = at_union | choice[2]
                slots = at_cap + choice[3]
                for leaf in leaves:
                    t = s + leaf[1]
                    if not t < best_total:
                        break
                    nodes += 1
                    if nodes >= check_at:
                        check_at = next_check(nodes)
                        if not check_at:
                            break
                    if both | leaf[2] == all_tds and slots + leaf[3] >= n:
                        chosen[d + 1] = leaf
                        if _leaf_feasible(chosen, k, n):
                            best_total = t
                            best = chosen[:]
                if not check_at:
                    break
            continue
        choices, at_s, at_union, at_cap = frames[-1]
        choice = next(choices, None)
        # Ascending power: once a choice reaches the incumbent, later ones do too.
        if choice is None or not (s := at_s + choice[1]) < best_total:
            frames.pop()
            continue
        chosen[d] = choice
        nodes += 1
        if nodes >= check_at:
            check_at = next_check(nodes)
            if not check_at:
                break
        _, _, mask, servable = choice
        if d + 1 < m:
            frames.append((iter(choice_lists[d + 1]), s, at_union | mask, at_cap + servable))
        elif at_union | mask == all_tds and at_cap + servable >= n:
            if _leaf_feasible(chosen, k, n):  # m = 1
                best_total = s
                best = chosen[:]
    status = STATUS_OPTIMAL if check_at else STATUS_BUDGET_EXCEEDED

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
