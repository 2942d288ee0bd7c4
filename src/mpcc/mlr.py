"""Minimum-local-ratio (MLR) solver.

The solver works in rounds over the candidate disk family.  Each disk D
keeps a residual power p_hat (initially its power), the number d of still
uncovered TDs it contains, and shares a residual capacity k_hat with the
other disks of its AP.  A round picks the live disk minimising the local
ratio p_hat / min(k_hat, d), assigns the uncovered TDs it contains to its
AP, retires the chosen disk together with every smaller-keyed disk of
that AP (or all of them when the pick exactly fills the capacity), and
charges every surviving disk the chosen ratio times its own
min(k_hat, d).  The AP's final answer is the last disk picked for it,
which by the key order contains everything assigned earlier.

State updates within one round happen in a fixed order: record the
assignment, retire disks at the chosen AP, charge the survivors using
their pre-round k_hat and d, then retire the covered TDs, shrink the
chosen AP's capacity, and drop disks left with d = 0 or k_hat = 0.  The
residual-power charge must precede the TD retirement because it is
defined on the pre-assignment state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DiskOrder,
    Instance,
    InfeasibleInstanceError,
    Solution,
    disk_order,
    make_disk,
)

__all__ = [
    "SolverState",
    "IterationRecord",
    "MlrInvariantError",
    "init_state",
    "local_ratio",
    "select_min_ratio",
    "apply_selection",
    "assemble_solution",
    "solve_mlr",
]


class MlrInvariantError(RuntimeError):
    """A solver-state invariant failed; indicates a bug, not bad input."""


@dataclass
class SolverState:
    """Mutable working state of one solve call.

    Per-disk arrays are flat over the m*n disks, AP major and TD minor:
    disk (a0, u0) sits at index ``a0 * n + u0``.  ``k_hat`` is per AP
    because all disks of one AP share their residual capacity.  A state is
    private to its solve call and must not be shared across threads.
    """

    inst: Instance
    table: DiskOrder         # the disk order, (m, n) arrays
    ap_of: np.ndarray        # (m*n,) int64, 0-based AP of each disk
    rank_in_ap: np.ndarray   # (m*n,) int64, key-order position within the AP
    powers: np.ndarray       # (m*n,) float64, full disk powers
    live_disk: np.ndarray    # (m*n,) bool
    live_td: np.ndarray      # (n,) bool
    d_count: np.ndarray      # (m*n,) int64, live TDs contained per disk
    k_hat: np.ndarray        # (m,) int64, residual capacity per AP
    p_hat: np.ndarray        # (m*n,) float64, residual power per disk
    selected: dict[int, int]       # AP id -> index of its latest disk
    covered_by: dict[int, list[int]]  # AP id -> covered TD ids


@dataclass(frozen=True)
class IterationRecord:
    """One solver round: the chosen disk, its ratio, and what changed."""

    iteration: int
    ap_id: int
    td_id: int
    ratio: float
    covered: tuple[int, ...]
    removed: tuple[tuple[int, int], ...]

    def to_doc(self) -> dict:
        return {
            "iter": self.iteration,
            "disk": [self.ap_id, self.td_id],
            "ratio": self.ratio,
            "covered": list(self.covered),
            "removed": [list(p) for p in self.removed],
        }


def init_state(inst: Instance) -> SolverState:
    table = disk_order(inst)
    mn = inst.m * inst.n
    ranks = table.rank.ravel()
    powers = table.power.ravel()
    return SolverState(
        inst=inst,
        table=table,
        ap_of=np.repeat(np.arange(inst.m, dtype=np.int64), inst.n),
        rank_in_ap=ranks,
        powers=powers,
        live_disk=np.ones(mn, dtype=bool),
        live_td=np.ones(inst.n, dtype=bool),
        # With every TD live, the disk of rank r contains r + 1 of them.
        d_count=ranks + 1,
        k_hat=np.full(inst.m, inst.k, dtype=np.int64),
        p_hat=powers.copy(),
        selected={},
        covered_by={},
    )


def local_ratio(p_hat: float, k_hat: int, d: int) -> float:
    """Selection score of a live disk: residual power per coverable TD."""
    div = min(k_hat, d)
    if div < 1:
        raise MlrInvariantError(f"degenerate ratio divisor min({k_hat}, {d})")
    return p_hat / div


def select_min_ratio(state: SolverState) -> int:
    """Index of the live disk with the minimum local ratio.

    Exact ratio ties break to the lowest AP id, then the lowest disk rank.
    The returned disk always satisfies d <= k_hat.
    """
    idx = np.flatnonzero(state.live_disk)
    if idx.size == 0:
        raise MlrInvariantError("select_min_ratio called with no live disks")
    div = np.minimum(state.k_hat[state.ap_of[idx]], state.d_count[idx])
    if div.min() < 1:
        raise MlrInvariantError("live disk with degenerate ratio divisor")
    ratios = state.p_hat[idx] / div
    cand = idx[ratios == ratios.min()]
    best = int(min(cand, key=lambda i: (state.ap_of[i], state.rank_in_ap[i])))
    if state.d_count[best] > state.k_hat[state.ap_of[best]]:
        raise MlrInvariantError(
            f"selected disk has d={state.d_count[best]} above "
            f"k_hat={state.k_hat[state.ap_of[best]]}"
        )
    return best


def apply_selection(state: SolverState, i_star: int):
    """Commit the chosen disk and advance the state by one round.

    Returns ``(ratio, covered_td_ids, removed_disks)`` describing the
    round for tracing.  Update order matters; see the module docstring.
    """
    n = state.inst.n
    ap0, u0 = divmod(i_star, n)
    ap_id = ap0 + 1
    e_star = local_ratio(
        float(state.p_hat[i_star]), int(state.k_hat[ap0]), int(state.d_count[i_star])
    )

    rank_row = state.table.rank[ap0]
    covered_mask = state.live_td & (rank_row <= rank_row[u0])
    covered0 = np.flatnonzero(covered_mask)
    cnt = int(covered0.size)

    # 1. Assignment: the chosen AP now answers for these TDs, and its
    # latest disk strictly grows in key order.
    state.selected[ap_id] = i_star
    state.covered_by.setdefault(ap_id, []).extend(int(u) + 1 for u in covered0)

    # 2. Retire disks at the chosen AP.  A pick that exactly fills the
    # residual capacity retires the whole center; otherwise the pick and
    # every smaller-keyed disk there go.
    same_ap_live = state.live_disk & (state.ap_of == ap0)
    if state.d_count[i_star] == state.k_hat[ap0]:
        removed_step = same_ap_live
    else:
        removed_step = same_ap_live & (state.rank_in_ap <= state.rank_in_ap[i_star])
    state.live_disk &= ~removed_step

    # 3. Charge survivors before any counts change: the subtraction uses
    # each disk's pre-assignment min(k_hat, d).
    live = state.live_disk
    div_all = np.minimum(state.k_hat[state.ap_of], state.d_count)
    state.p_hat[live] -= e_star * div_all[live]

    # 4. Retire covered TDs everywhere and shrink the chosen AP's capacity
    # by the number just assigned.  A disk's live count is the number of
    # live TDs up to its rank in its AP's order.
    state.live_td &= ~covered_mask
    if cnt:
        prefix = np.cumsum(state.live_td[state.table.order], axis=1)
        state.d_count[:] = prefix[state.ap_of, state.rank_in_ap]
    state.k_hat[ap0] -= cnt

    # 5. Drop disks that can no longer contribute.
    dead = live & ((state.d_count <= 0) | (state.k_hat[state.ap_of] <= 0))
    state.live_disk &= ~dead

    removed_idx = np.flatnonzero(removed_step | dead)
    removed = tuple((int(i) // n + 1, int(i) % n + 1) for i in removed_idx)
    covered_ids = tuple(int(u) + 1 for u in covered0)
    return e_star, covered_ids, removed


def assemble_solution(state: SolverState) -> Solution:
    selected = {}
    coverage = {}
    total = 0.0
    for ap_id in sorted(state.selected):
        d = make_disk(state.inst, ap_id, state.selected[ap_id] % state.inst.n + 1)
        selected[ap_id] = d
        coverage[ap_id] = frozenset(state.covered_by[ap_id])
        total += d.power
    return Solution(selected=selected, coverage=coverage, total_power=total)


def solve_mlr(inst: Instance, trace: list[IterationRecord] | None = None) -> Solution:
    """Run the minimum-local-ratio solver on a valid instance.

    Deterministic for a fixed instance.  When ``trace`` is given, one
    ``IterationRecord`` per round is appended to it.
    """
    state = init_state(inst)
    iteration = 0
    while state.live_td.any():
        if not state.live_disk.any():
            raise InfeasibleInstanceError(
                "uncovered TDs remain but no candidate disks are live; "
                "the instance violates m*k >= n"
            )
        iteration += 1
        if iteration > inst.n:
            raise MlrInvariantError("more rounds than TDs")
        i_star = select_min_ratio(state)
        ap0, u0 = divmod(i_star, inst.n)
        e_star, covered, removed = apply_selection(state, i_star)
        if trace is not None:
            trace.append(
                IterationRecord(
                    iteration=iteration,
                    ap_id=ap0 + 1,
                    td_id=u0 + 1,
                    ratio=e_star,
                    covered=covered,
                    removed=removed,
                )
            )
    solution = assemble_solution(state)
    if not math.isfinite(solution.total_power):
        raise MlrInvariantError("non-finite total power")
    return solution
