"""Minimum-local-ratio (MLR) solver.

The solver works in rounds over the candidate disk family.  Each disk D
keeps a residual power p_hat (initially its power), the number d of still
uncovered TDs it contains, and shares a residual capacity k_hat with the
other disks of its AP.  A round picks the live disk minimising the local
ratio p_hat / min(k_hat, d), assigns the uncovered TDs it contains to its
AP, and charges every disk the chosen ratio times its own min(k_hat, d).
It then retires the chosen disk together with every smaller-keyed disk of
that AP (or all of them when the pick exactly fills the capacity), and
every disk of any AP left with d = 0.  The AP's final answer is the last
disk picked for it, which by the key order contains everything assigned
earlier.

State updates within one round happen in a fixed order: assign, charge,
recount, retire.  The charge uses each disk's pre-round k_hat and d, so
it must precede the recount, which removes the covered TDs and shrinks
the chosen AP's capacity.  The paper retires disks before the charge;
retiring them last, in one step, is the same round.  A retired disk's
residual power is never read again, so charging it first changes no
survivor, and the disks the paper retires early are exactly ones the
last step retires anyway: the chosen disk and its smaller-keyed disks
contain only covered TDs, so they hold d = 0 after the recount, and a
pick that fills the capacity leaves its AP with k_hat = 0.

Rounds work on a head window.  An AP's disks split, along its rank
order, into a head where d < k_hat and a suffix where d >= k_hat, so
that a suffix disk's divisor is k_hat itself; d grows along a rank row,
so the suffix is a rank suffix.  The solver keeps one window width hi
such that every rank >= hi of every live AP is in the suffix, and it
computes d, the divisors, the ratios and the argmin on ranks < hi only.
This is exact, tie-break included:

* A disk never leaves the head.  At the chosen AP, every surviving disk
  contains all the TDs just covered, so its d falls by exactly as much
  as k_hat.  At every other AP, k_hat stays and d can only fall.
* So hi only grows, and a disk at rank >= hi now has been in the suffix
  for the whole solve.  Each round charged every such disk of an AP the
  same ``e * k_hat``, and a rounded subtraction of one amount keeps the
  order of its operands, so p_hat stays nondecreasing along the AP's
  suffix as long as the disk powers are nondecreasing along rank.
  ``init_state`` checks that; an AP order that breaks it starts the
  window at full width.
* So an AP's least suffix ratio sits at its first suffix disk, which the
  window contains (hi is grown until rank hi - 1 is a suffix disk of
  every live AP), and the window's row-major argmin is the full one.

Ranks >= hi are still charged every round, with the AP's ``e * k_hat``:
the same float as ``e * min(k_hat, d)`` there.

Whether ``init_state`` starts the window below n (``windowed``) fixes
two choices for the whole solve.  A windowed table recounts d by
subtracting the covered TDs as runs, also once its window has grown to
every rank, and retires each AP's new prefix of d = 0 disks by one call
per AP.  A full-width table recounts d by one int64
``np.add.accumulate`` of the live TDs along each AP's order and retires
every such prefix with one ``d == 0`` mask.

On small tables a round costs more in numpy calls than in array work, so
the loop keeps what it knows as Python ints: ``solve_mlr`` counts the
uncovered TDs down by each round's covered list, scalars are read with
``.item()``, and the list of APs with live disks is recomputed only in a
round in which the chosen AP retires wholly.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import (
    DiskOrder,
    Instance,
    InfeasibleInstanceError,
    Solution,
    disk_order,
)

__all__ = [
    "SolverState",
    "MlrInvariantError",
    "init_state",
    "local_ratio",
    "select_min_ratio",
    "apply_selection",
    "assemble_solution",
    "solve_mlr",
]


# Tables with fewer disks run every round at full width (see init_state).
_WINDOW_MIN_DISKS = 8192


class MlrInvariantError(RuntimeError):
    """A solver-state invariant failed; indicates a bug, not bad input."""


@dataclass
class SolverState:
    """Mutable working state of one solve call, in rank space.

    Per-disk arrays are indexed ``[a0, r]``: entry r of row a0 is disk
    (a0, order[a0, r]), the disk of rank r at AP a0 + 1.  AP a0's live
    disks are exactly its ranks r >= ``first_live[a0]`` (n once the AP is
    retired): a round retires an AP wholly when its k_hat falls to 0, and
    every AP's d = 0 disks, a rank prefix since ``d`` never decreases
    along a row.  Retired entries of ``p_hat`` hold
    +inf, so they never win a selection.  Each round replaces
    ``first_live`` by a copy, so the round's ``Retired`` record keeps the
    array it started from.

    Rounds work on the window of ranks below ``hi`` (see the module
    docstring), so ``d`` and ``div`` cover the window only, and the
    residual powers are split at hi into ``p_win`` and ``p_sfx``, each
    contiguous.  ``div`` is min(k_hat, d) as of the latest
    ``select_min_ratio`` call; the charge reuses it.  ``live_ap`` lists
    the APs with live disks while TDs remain; ``apply_selection``
    recomputes it only when the chosen AP retires wholly, the one whole
    retirement that can happen before the last TD is covered.  A state
    is private to its solve call and
    must not be shared across threads.
    """

    inst: Instance
    table: DiskOrder         # the disk order, (m, n) arrays
    live_td: np.ndarray      # (n,) bool
    k_hat: np.ndarray        # (m,) int64, residual capacity per AP
    first_live: np.ndarray   # (m,) int64, lowest live rank per AP
    live_ap: np.ndarray      # (m_live,) int64, APs with live disks
    windowed: bool           # init_state started the window below n
    hi: int                  # window width; ranks >= hi are suffix disks
    d: np.ndarray            # (m, hi) int64, live TDs contained per disk
    div: np.ndarray          # (m, hi) float64, min(k_hat, d) at the last pick
    p_win: np.ndarray        # (m, hi) float64, residual power per disk
    p_sfx: np.ndarray        # (m, n - hi) float64, the same beyond the window
    selected: dict[int, int]       # AP id -> TD id of its latest disk
    covered_by: dict[int, list[int]]  # AP id -> covered TD ids

    @property
    def p_hat(self) -> np.ndarray:
        """(m, n) copy of every disk's residual power."""
        return np.concatenate((self.p_win, self.p_sfx), axis=1)


def init_state(inst: Instance) -> SolverState:
    table = disk_order(inst)
    m, n = inst.m, inst.n
    # No AP can take more than the n TDs, and k itself may exceed int64.
    k_cap = min(inst.k, n)
    p_hat = table.power[np.arange(m)[:, None], table.order]
    # With every TD live, the disk of rank r contains r + 1 of them, so
    # ranks >= k_cap - 1 are suffix disks.  The window also needs powers
    # nondecreasing along rank, which pow does not promise.  On a small
    # table the window costs more upkeep than it saves.
    hi = n
    if m * n >= _WINDOW_MIN_DISKS and (p_hat[:, 1:] >= p_hat[:, :-1]).all():
        hi = k_cap
    d = np.empty((m, hi), dtype=np.int64)
    d[:] = np.arange(1, hi + 1)
    return SolverState(
        inst=inst,
        table=table,
        live_td=np.ones(n, dtype=bool),
        k_hat=np.full(m, k_cap, dtype=np.int64),
        first_live=np.zeros(m, dtype=np.int64),
        live_ap=np.arange(m),
        windowed=hi < n,
        hi=hi,
        d=d,
        div=np.empty((m, hi)),
        p_win=np.ascontiguousarray(p_hat[:, :hi]),
        p_sfx=np.ascontiguousarray(p_hat[:, hi:]),
        selected={},
        covered_by={},
    )


def _widen(state: SolverState) -> None:
    """Grow the window by quarters until rank hi - 1 is a suffix disk of
    every AP with live disks (a retired AP has k_hat = 0) or it spans
    every rank, counting the live TDs of each rank it takes in."""
    m, n, hi = state.inst.m, state.inst.n, state.hi
    order, k_hat = state.table.order, state.k_hat
    parts = [state.d]
    new = hi
    while new < n and (parts[-1][:, -1] < k_hat).any():
        stop = min(new + max(new // 4, 1), n)
        part = np.cumsum(state.live_td[order[:, new:stop]], axis=1)
        part += parts[-1][:, -1:]
        parts.append(part)
        new = stop
    state.hi = new
    state.d = np.concatenate(parts, axis=1)
    state.div = np.empty((m, new))
    state.p_win = np.concatenate((state.p_win, state.p_sfx[:, : new - hi]), axis=1)
    state.p_sfx = state.p_sfx[:, new - hi :].copy()


def local_ratio(p_hat: float, k_hat: int, d: int) -> float:
    """Selection score of a live disk: residual power per coverable TD."""
    div = min(k_hat, d)
    if div < 1:
        raise MlrInvariantError(f"degenerate ratio divisor min({k_hat}, {d})")
    return p_hat / div


def select_min_ratio(state: SolverState) -> tuple[int, int]:
    """``(AP index, rank)`` of the live disk with the minimum local ratio.

    The row-major argmin breaks exact ratio ties to the lowest AP id, then
    the lowest disk rank.  The returned disk always satisfies d <= k_hat.
    Only the window is searched; the module docstring shows that it holds
    the full minimum.
    """
    first = state.first_live
    live_ap = state.live_ap
    if live_ap.size == 0:
        raise MlrInvariantError("select_min_ratio called with no live disks")
    div = np.minimum(state.k_hat[:, None], state.d, out=state.div)
    # d grows along a row, so an AP's smallest divisor sits at first_live.
    if div[live_ap, first[live_ap]].min() < 1:
        raise MlrInvariantError("live disk with degenerate ratio divisor")
    a0, r = divmod((state.p_win / div).argmin().item(), state.hi)
    if r < first.item(a0):
        raise MlrInvariantError(f"selected retired disk of AP {a0 + 1}")
    d, k = state.d.item(a0, r), state.k_hat.item(a0)
    if d > k:
        raise MlrInvariantError(f"selected disk has d={d} above k_hat={k}")
    return a0, r


def apply_selection(state: SolverState, pick: tuple[int, int]):
    """Commit the chosen disk ``(AP index, rank)`` and advance one round.

    Returns ``(ratio, covered_td_ids, retired)`` describing the round for
    tracing; ``retired`` is a ``Retired`` record of the disks retired
    this round.  Update order matters; see the module docstring.
    """
    a0, r = pick
    m, n, hi = state.inst.m, state.inst.n, state.hi
    order = state.table.order
    d_star, k_star = state.d.item(a0, r), state.k_hat.item(a0)
    e_star = local_ratio(state.p_win.item(a0, r), k_star, d_star)
    # The round works on a fresh copy, so the record keeps the old one.
    before = state.first_live
    first = state.first_live = before.copy()

    prefix = order[a0, : r + 1]
    covered0 = np.sort(prefix[state.live_td[prefix]])
    covered_ids = (covered0 + 1).tolist()

    # 1. Assignment: the chosen AP now answers for these TDs, and its
    # latest disk strictly grows in key order.
    ap_id = a0 + 1
    state.selected[ap_id] = order.item(a0, r) + 1
    state.covered_by.setdefault(ap_id, []).extend(covered_ids)

    # 2. Charge every disk before any counts change: the subtraction uses
    # each disk's pre-assignment min(k_hat, d), the divisor the selection
    # used, which is the AP's k_hat beyond the window.  Retired entries
    # hold +inf and keep it; the disks that step 4 retires are charged
    # too, which changes nothing, as a retired p_hat is never read.
    state.p_win -= e_star * state.div
    if hi < n:
        state.p_sfx -= (e_star * state.k_hat)[:, None]

    # 3. Retire covered TDs everywhere and shrink the chosen AP's capacity
    # by the number just assigned.  A disk's live count is the number of
    # live TDs up to its rank in its AP's order.
    c = covered0.size
    state.live_td[covered0] = False
    state.k_hat[a0] = k_star - c
    if not state.windowed:
        np.add.accumulate(state.live_td[order], axis=1, dtype=np.int64, out=state.d)
    else:
        # A prefix sum costs several times more per cell than a repeat, but
        # takes fewer calls, which wins on the small tables that run at
        # full width.  A windowed table subtracts the covered TDs at or
        # below each rank, also once its window spans every rank: each
        # row's covered ranks, cut at hi and sorted between the bounds 0
        # and hi, split it into c + 1 runs of equal drop.
        steps = np.empty((m, c + 2), dtype=np.int64)
        steps[:, 0] = 0
        steps[:, 1] = hi
        np.minimum(state.table.rank[:, covered0], hi, out=steps[:, 2:])
        steps.sort(axis=1)
        runs = (steps[:, 1:] - steps[:, :-1]).ravel()
        state.d -= np.repeat(np.arange(m * (c + 1)) % (c + 1), runs).reshape(m, hi)
    if hi < n and (state.d[:, -1] < state.k_hat).any():
        _widen(state)

    # 4. Retire disks.  A pick that exactly fills the residual capacity
    # (c == d_star == k_star) retires its AP wholly; that is the only
    # whole retirement before the last TD is covered, so only then is
    # ``live_ap`` refreshed.  Then every AP drops its new prefix of d = 0
    # disks (a row of d never decreases), which at the chosen AP holds
    # the pick and every smaller-keyed disk.
    if d_star == k_star:
        _retire(state, a0, n)
        state.live_ap = np.flatnonzero(first < n)
    if not state.windowed:
        dead = state.d == 0
        state.p_win[dead] = math.inf
        np.maximum(first, dead.sum(axis=1), out=first)
    else:
        # Only an AP whose first live disk now has d = 0 loses disks; its
        # zeros lie inside the window, since rank hi - 1 has
        # d >= k_hat > 0.
        live_ap = state.live_ap
        zero = live_ap[state.d[live_ap, first[live_ap]] == 0]
        if zero.size:
            stops = (state.d[zero] == 0).sum(axis=1)
            for a, stop in zip(zero.tolist(), stops.tolist()):
                _retire(state, a, stop)
    return e_star, tuple(covered_ids), Retired(order, before, first)


def _retire(state: SolverState, a0: int, stop: int) -> None:
    """Retire AP a0's live disks of rank below ``stop``."""
    state.p_win[a0, state.first_live.item(a0):stop] = math.inf
    if stop > state.hi:  # the whole AP; its lower ranks are retired already
        state.p_sfx[a0] = math.inf
    state.first_live[a0] = stop


class Retired:
    """The disks one round retired: AP a0's ranks from ``before[a0]`` up
    to ``after[a0]``, its lowest live rank before and after the round.
    ``len()`` counts them without listing them."""

    __slots__ = ("order", "before", "after")

    def __init__(self, order: np.ndarray, before: np.ndarray, after: np.ndarray):
        self.order, self.before, self.after = order, before, after

    def __len__(self) -> int:
        return (self.after - self.before).sum().item()

    def indices(self) -> np.ndarray:
        """The retired disks as ascending indices ``a0 * n + u0``."""
        aps = np.flatnonzero(self.after > self.before)
        start, count = self.before[aps], self.after[aps] - self.before[aps]
        rows = np.repeat(aps, count)
        # each AP's ranks run from its start, counted past its run's offset
        ranks = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
        return np.sort(self.order[rows, ranks] + rows * self.order.shape[1])


def assemble_solution(state: SolverState) -> Solution:
    return Solution.from_picks(state.inst, state.selected, state.covered_by)


def solve_mlr(inst: Instance, trace: Callable[[dict], object] | None = None) -> Solution:
    """Run the minimum-local-ratio solver on a valid instance.

    Deterministic for a fixed instance.  When ``trace`` is given, it is
    called with each round's trace document (see ``formats``) as the
    round ends.
    """
    state = init_state(inst)
    n = left = inst.n  # left counts the uncovered TDs
    iteration = 0
    while left:
        if state.live_ap.size == 0:
            raise InfeasibleInstanceError(
                "uncovered TDs remain but no candidate disks are live; "
                "the instance violates m*k >= n"
            )
        iteration += 1
        if iteration > n:
            raise MlrInvariantError("more rounds than TDs")
        a0, r = select_min_ratio(state)
        e_star, covered, retired = apply_selection(state, (a0, r))
        left -= len(covered)
        if trace is not None:
            ap0, u0 = np.divmod(retired.indices(), n)
            trace({
                "iter": iteration,
                "disk": [a0 + 1, state.table.order.item(a0, r) + 1],
                "ratio": e_star,
                "covered": list(covered),
                "removed": list(zip((ap0 + 1).tolist(), (u0 + 1).tolist())),
            })
    solution = assemble_solution(state)
    if not math.isfinite(solution.total_power):
        raise MlrInvariantError("non-finite total power")
    return solution
