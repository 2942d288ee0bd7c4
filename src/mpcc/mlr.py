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
the same float as ``e * min(k_hat, d)`` there.  All of this holds on
the columns of a compacted table (below), which keep rank order.

Every round recounts d by one int64 ``np.add.accumulate`` of the live
TDs along each AP's window, and retires every AP's new prefix of d = 0
disks with one ``d == 0`` mask.  The prefix lies in the window, since
a live AP's column hi - 1 is its last column or a suffix disk, with
d >= k_hat > 0.  Whether ``init_state`` starts the window below n
fixes one choice for the whole solve: only such a table is compacted,
as the uncovered TDs run out.

The state works on columns: column c of AP a0's row is the disk whose
boundary TD is ``order[a0, c]``, in rank order, and d counts the live
TDs of the row's columns up to c.  The columns start as the table's
ranks.  Compaction keeps only the disks that can still be picked:

* Two live disks of one AP with equal d, a run, contain the same live
  TDs, and they keep equal d in every later round.  So every later
  round charges them the same float and retires them together.
  Neither a rounded subtraction of one amount nor a rounded division by
  one divisor reverses the order of two operands, and the argmin takes
  the lower rank on a tie, so a disk with an earlier run-mate of no
  greater residual power is never picked, and its residual power is
  never read again.
* A run's first disk is the one whose boundary TD is live.  In the head
  a disk is kept when its residual power is below its run's first
  disk's.  In the suffix p_hat is nondecreasing along rank (above), so
  only the first disk of each run is kept there.
* A dropped disk's boundary TD is covered, so d stays the count of live
  TDs along the kept columns, and each live TD keeps a column in every
  live AP's row.  The window restarts as the least one whose last
  column is a suffix disk of every live AP, and grows from there.

Compaction runs each time the uncovered TDs have halved: first once at
most n / 2 of them are left, then once at most half as many as at the
last compaction.  Each compaction rebuilds every row's columns, residual
powers and counts, and it keeps a column for each live TD, so it pays
only once the live TDs are few against the width.  Waiting for them to
halve also bounds a solve at ``n.bit_length()`` compactions.  On
solve-large (n=1000, m=40, seed 1729) it first runs at 499 uncovered
TDs and leaves 516 columns, against 1 000; eight more follow as the TDs
run out.  A full-width table is small, and there compaction costs more
than it saves: preset 3's solves took about 660 -> 890 us each with it.

On small tables a round costs more in numpy calls than in array work, so
the loop keeps what it knows as Python ints: the state counts the
uncovered TDs down by each round's covered count, scalars are read with
``.item()``, and the list of APs with live disks is recomputed only in a
round in which the chosen AP retires wholly.

On tables of at most ``_SCALAR_MAX_DISKS`` disks even that loop is
nearly all per-call cost: a round made about 25 numpy calls on the
20-cell arrays of an n=5, m=4 table.  ``solve_mlr`` runs such a table
through ``_scalar_rounds`` on Python lists instead.  It runs at full
width and never compacts; each round is one pass per live AP over its
live disks that charges, recounts, retires and finds the next pick, with
the floats and the tie-break of the arrays.  A pass costs about 0.2 us a
live disk, while an array round costs mostly per numpy call, so the
crossover moves with the shape and the number of rounds; 128 sits about
where the two cost the same (README times both on eight shapes).  Every
sweep-small table has at least 400 disks and solve-large's 40 000, so
both run the arrays.
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

__all__ = ["MlrInvariantError", "solve_mlr"]


# Tables with fewer disks run every round at full width (see init_state).
_WINDOW_MIN_DISKS = 8192
# Tables with at most this many disks run on Python lists (see
# _scalar_rounds); about where the two paths cost the same.
_SCALAR_MAX_DISKS = 128


class MlrInvariantError(RuntimeError):
    """A solver-state invariant failed; indicates a bug, not bad input."""


@dataclass
class SolverState:
    """Mutable working state of one solve call, in column space.

    Per-disk arrays are indexed ``[a0, c]``: entry c of row a0 is disk
    (a0, order[a0, c]) at AP a0 + 1, and columns ascend in rank.  Until
    a compaction (see the module docstring) ``order`` is the table's own
    array, so column c is rank c and ``width`` is n, and the residual
    powers start as a copy of ``table.power``, which runs along rank too.
    AP a0's live disks are exactly its columns c >= ``first_live[a0]``
    (``width`` once the AP is retired): a round retires an AP wholly when
    its k_hat falls to 0, and every AP's d = 0 disks, a column prefix
    since ``d`` never decreases along a row.  Retired entries of
    ``p_hat`` hold +inf, so they never win a selection; a compacted row
    shorter than ``width`` starts with retired padding.  Each round
    replaces ``first_live`` by a new array, so the round's ``Retired``
    record keeps the array it started from.

    Rounds work on the window of columns below ``hi`` (see the module
    docstring), so ``d`` and ``div`` cover the window only, and the
    residual powers are split at hi into ``p_win`` and ``p_sfx``, each
    contiguous.  ``div`` is min(k_hat, d) as of the latest
    ``select_min_ratio`` call; the charge reuses it.  ``live_ap`` lists
    the APs with live disks while TDs remain; ``apply_selection``
    recomputes it only when the chosen AP retires wholly, the one whole
    retirement that can happen before the last TD is covered.

    ``left`` counts the uncovered TDs, the true entries of ``live_td``.
    A round compacts once it is at most ``compact_at``: n // 2 on a table
    whose window starts below n, and half of ``left`` after each
    compaction; 0 on a full-width table, which never compacts.  A state
    is private to its solve call and must not be shared across threads.
    """

    inst: Instance
    table: DiskOrder         # the disk order, (m, n) arrays
    width: int               # column count: n until the first compaction
    order: np.ndarray        # (m, width) int64, TD index of each column
    live_td: np.ndarray      # (n,) bool
    k_hat: np.ndarray        # (m,) int64, residual capacity per AP
    first_live: np.ndarray   # (m,) int64, lowest live column per AP
    live_ap: np.ndarray      # (m_live,) int64, APs with live disks
    hi: int                  # window width; columns >= hi are suffix disks
    left: int                # uncovered TDs, the count of live_td
    compact_at: int          # compact once ``left`` is this low; 0 never
    d: np.ndarray            # (m, hi) int64, live TDs contained per disk
    div: np.ndarray          # (m, hi) float64, min(k_hat, d) at the last pick
    p_win: np.ndarray        # (m, hi) float64, residual power per disk
    p_sfx: np.ndarray        # (m, width - hi) float64, the same beyond the window
    selected: dict[int, int]       # AP id -> TD id of its latest disk
    covered_by: dict[int, list[int]]  # AP id -> covered TD ids

    @property
    def p_hat(self) -> np.ndarray:
        """(m, width) copy of every column's residual power."""
        return np.concatenate((self.p_win, self.p_sfx), axis=1)


def init_state(inst: Instance) -> SolverState:
    table = disk_order(inst)
    m, n = inst.m, inst.n
    # No AP can take more than the n TDs, and k itself may exceed int64.
    k_cap = min(inst.k, n)
    p_hat = table.power  # by rank, so column c is rank c
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
        width=n,
        order=table.order,
        live_td=np.ones(n, dtype=bool),
        k_hat=np.full(m, k_cap, dtype=np.int64),
        first_live=np.zeros(m, dtype=np.int64),
        live_ap=np.arange(m),
        hi=hi,
        left=n,
        compact_at=n // 2 if hi < n else 0,
        d=d,
        div=np.empty((m, hi)),
        # copies: the rounds charge the residual powers in place
        p_win=p_hat[:, :hi].copy(),
        p_sfx=p_hat[:, hi:].copy(),
        selected={},
        covered_by={},
    )


def _widen(state: SolverState) -> None:
    """Grow the window by quarters until column hi - 1 is a suffix disk
    of every AP with live disks (a retired AP has k_hat = 0) or it spans
    every column, counting the live TDs of each column it takes in."""
    m, width, hi = state.inst.m, state.width, state.hi
    order, k_hat = state.order, state.k_hat
    parts = [state.d]
    new = hi
    while new < width and (parts[-1][:, -1] < k_hat).any():
        stop = min(new + max(new // 4, 1), width)
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
    """``(AP index, column)`` of the live disk with the minimum local ratio.

    The row-major argmin breaks exact ratio ties to the lowest AP id, then
    the lowest column, which is the lowest disk rank.  The returned disk
    always satisfies d <= k_hat.
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
    """Commit the chosen disk ``(AP index, column)`` and advance one round.

    Returns ``(ratio, covered_td_ids, retired)`` describing the round for
    tracing; ``retired`` is a ``Retired`` record of the disks retired
    this round.  Update order matters; see the module docstring.  A table
    whose window started below n may be compacted at the end of the
    round, which replaces ``order``.
    """
    a0, r = pick
    width, hi = state.width, state.hi
    order = state.order
    d_star, k_star = state.d.item(a0, r), state.k_hat.item(a0)
    e_star = local_ratio(state.p_win.item(a0, r), k_star, d_star)
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
    if hi < width:
        state.p_sfx -= (e_star * state.k_hat)[:, None]

    # 3. Retire covered TDs everywhere and shrink the chosen AP's capacity
    # by the number just assigned.  A disk's live count is the number of
    # live TDs up to its column in its AP's order; ``take`` gathers the
    # strided window faster than fancy indexing does.
    c = covered0.size
    state.live_td[covered0] = False
    state.k_hat[a0] = k_star - c
    state.left -= c
    np.add.accumulate(state.live_td.take(order[:, :hi]), axis=1, dtype=np.int64, out=state.d)
    if hi < width and (state.d[:, -1] < state.k_hat).any():
        _widen(state)

    # 4. Retire disks.  Every AP drops its new prefix of d = 0 disks (a
    # row of d never decreases), which at the chosen AP holds the pick and
    # every smaller-keyed disk.  ``first_live`` becomes a new array, so
    # the round's record keeps the old one.  A pick that exactly fills the
    # residual capacity (c == d_star == k_star) then retires its AP
    # wholly; that is the only whole retirement before the last TD is
    # covered, so only then is ``live_ap`` refreshed.
    before = state.first_live
    dead = state.d == 0
    state.p_win[dead] = math.inf
    first = state.first_live = np.maximum(before, dead.sum(axis=1))
    if d_star == k_star:
        _retire(state, a0)
        state.live_ap = np.flatnonzero(first < width)
    retired = Retired(state.table, order, before, first)
    if 0 < state.left <= state.compact_at:
        _compact(state)
        state.compact_at = state.left // 2
    return e_star, tuple(covered_ids), retired


def _retire(state: SolverState, a0: int) -> None:
    """Retire every live disk of AP a0."""
    state.p_win[a0, state.first_live.item(a0):] = math.inf
    state.p_sfx[a0] = math.inf
    state.first_live[a0] = state.width


def _compact(state: SolverState) -> None:
    """Keep only the live disks that can still be picked, as new columns.

    Per live AP these are the disks whose boundary TD is uncovered, each
    the first disk of its run of equal d, and the head disks whose
    residual power is below their run's first disk's; the module
    docstring shows that no other disk is ever picked.  A row with fewer
    kept disks than the widest is padded at its front with retired
    columns, and a retired AP's row holds padding only.  Padding holds a
    covered TD, so it keeps +inf power and d = 0.
    """
    m, hi = state.inst.m, state.hi
    order, live_td, p_win = state.order, state.live_td, state.p_win
    keep = live_td[order]
    keep[state.first_live == state.width] = False
    # Each head column's run starts at the last uncovered boundary TD at
    # or below it; retired columns hold +inf and are never kept.
    run = np.where(keep[:, :hi], np.arange(hi), 0)
    np.maximum.accumulate(run, axis=1, out=run)
    run += np.arange(0, m * hi, hi)[:, None]
    keep[:, :hi] |= (state.d < state.k_hat[:, None]) & (p_win < p_win.take(run))
    del run

    # Row a's kept disks fill its last count[a] columns in rank order, the
    # window's first.  Each part is gathered by flat indices into p_win,
    # p_sfx or order, and scattered by a mask of runs; the old powers are
    # freed before the order is built, and no (m, width) array joins them.
    head, tail = keep[:, :hi], keep[:, hi:]
    n_head = np.count_nonzero(head, axis=1)
    count = n_head + np.count_nonzero(tail, axis=1)
    width = count.max().item()
    col = np.arange(width)
    start = (width - count)[:, None]
    mid = start + n_head[:, None]
    p_hat = np.full((m, width), math.inf)
    p_hat[(col >= start) & (col < mid)] = p_win.take(np.flatnonzero(head))
    p_hat[col >= mid] = state.p_sfx.take(np.flatnonzero(tail))
    del p_win
    state.p_win = state.p_sfx = None  # the old powers, read for the last time
    new = np.full((m, width), np.argmin(live_td))  # a covered TD
    new[col >= start] = order.take(np.flatnonzero(keep))
    state.width, state.order = width, new
    state.first_live = width - count
    d = np.cumsum(live_td[new], axis=1)
    # the least window whose last column is a suffix disk of every live AP
    hi = state.hi = min((d < state.k_hat[:, None]).sum(axis=1).max().item() + 1, width)
    state.d = np.ascontiguousarray(d[:, :hi])
    state.div = np.empty((m, hi))
    state.p_win = np.ascontiguousarray(p_hat[:, :hi])
    state.p_sfx = np.ascontiguousarray(p_hat[:, hi:])


class Retired:
    """The disks one round retired: AP a0's table ranks from its lowest
    live rank before the round up to the one after it.  The record holds
    the state's ``first_live`` arrays, which count columns of ``order``,
    and maps them to table ranks only when read: the first live column's
    TD has the AP's lowest live rank.  That read builds the table's
    ``rank`` on its first call, so a solve whose rounds nobody reads
    never builds it.  ``len()`` counts the disks without listing them."""

    __slots__ = ("table", "order", "before", "after")

    def __init__(self, table: DiskOrder, order: np.ndarray, before: np.ndarray,
                 after: np.ndarray):
        self.table, self.order, self.before, self.after = table, order, before, after

    def _ranks(self, first: np.ndarray) -> np.ndarray:
        width = self.order.shape[1]
        rows = np.arange(first.size)
        td = self.order[rows, np.minimum(first, width - 1)]
        return np.where(first < width, self.table.rank[rows, td], self.table.order.shape[1])

    def __len__(self) -> int:
        return (self._ranks(self.after) - self._ranks(self.before)).sum().item()

    def indices(self) -> np.ndarray:
        """The retired disks as ascending indices ``a0 * n + u0``."""
        before, after = self._ranks(self.before), self._ranks(self.after)
        aps = np.flatnonzero(after > before)
        start, count = before[aps], after[aps] - before[aps]
        rows = np.repeat(aps, count)
        # each AP's ranks run from its start, counted past its run's offset
        ranks = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
        order = self.table.order
        return np.sort(order[rows, ranks] + rows * order.shape[1])


def assemble_solution(state: SolverState) -> Solution:
    return Solution.from_picks(state.inst, state.selected, state.covered_by)


def _no_live_disks() -> InfeasibleInstanceError:
    return InfeasibleInstanceError(
        "uncovered TDs remain but no candidate disks are live; "
        "the instance violates m*k >= n"
    )


def _scalar_rounds(inst: Instance, trace) -> tuple[dict, dict] | None:
    """The rounds of a small table on Python lists, as ``(selected,
    covered_by)`` for ``Solution.from_picks``; None, before any round,
    when a disk power is negative, non-finite or so large that a charge
    could overflow, which the array rounds then handle.

    Every row runs at full width and never compacts.  Each round is one
    pass per live AP over its live disks, in row-major order: it charges
    each disk ``e * min(k_hat, d)`` with its pre-round divisor, recounts
    d from the live-TD flags, retires the d = 0 prefix (the whole AP when
    the pick filled it) and tracks the next round's argmin with a strict
    ``<``, so ties still go to the lowest AP, then the lowest rank.  The
    floats are those of the array rounds, and a retired disk is neither
    charged nor searched, as its residual power is never read.  With the
    powers finite, non-negative and summing below 1e308, no charge or
    ratio leaves the float range, so the argmin never meets a NaN or an
    infinity and agrees with ``np.argmin``.
    """
    table = disk_order(inst)
    m, n = inst.m, inst.n
    orders = table.order.tolist()
    p_rows = table.power.tolist()
    if not (0.0 <= min(map(min, p_rows)) and sum(map(sum, p_rows)) < 1e308):
        return None
    k_cap = min(inst.k, n)
    k_hat = [k_cap] * m
    d_rows = [list(range(1, n + 1)) for _ in range(m)]  # every TD live
    first = [0] * m
    live = [True] * n
    aps = list(range(m))  # APs with live disks, ascending
    best = math.inf
    for a, row in enumerate(p_rows):
        for c, p in enumerate(row):
            q = p / (c + 1 if c < k_cap else k_cap)
            if q < best:
                best, a0, r = q, a, c
    selected: dict[int, int] = {}
    covered_by: dict[int, list[int]] = {}
    left = n
    iteration = 0
    while left:
        if not aps:
            raise _no_live_disks()
        iteration += 1
        if iteration > n:
            raise MlrInvariantError("more rounds than TDs")
        k_star, d_star = k_hat[a0], d_rows[a0][r]
        if d_star > k_star:
            raise MlrInvariantError(f"selected disk has d={d_star} above k_hat={k_star}")
        e = local_ratio(p_rows[a0][r], k_star, d_star)
        chosen, row = a0, orders[a0]
        covered = sorted(u for u in row[: r + 1] if live[u])
        for u in covered:
            live[u] = False
        left -= len(covered)
        k_hat[a0] = k_star - len(covered)
        disk = [a0 + 1, row[r] + 1]
        covered_ids = [u + 1 for u in covered]
        selected[a0 + 1] = disk[1]
        covered_by.setdefault(a0 + 1, []).extend(covered_ids)
        fills = d_star == k_star
        removed = []
        survivors = []
        best = math.inf
        for a in aps:
            row, f = orders[a], first[a]
            g = f
            if fills and a == chosen:
                g = n  # the pick spent its AP's capacity
            else:
                while g < n and not live[row[g]]:
                    g += 1
            if g > f:
                first[a] = g
                if trace is not None:
                    removed.extend((a + 1, u + 1) for u in sorted(row[f:g]))
                if g == n:
                    continue
            survivors.append(a)
            kn = k_hat[a]
            ko = k_star if a == chosen else kn
            pr, dr = p_rows[a], d_rows[a]
            cnt = 0
            for c in range(g, n):
                dv = dr[c]
                p = pr[c] - e * (dv if dv < ko else ko)
                pr[c] = p
                if live[row[c]]:
                    cnt += 1
                dr[c] = cnt
                q = p / (cnt if cnt < kn else kn)
                if q < best:
                    best, a0, r = q, a, c
        aps = survivors
        if trace is not None:
            trace({
                "iter": iteration,
                "disk": disk,
                "ratio": e,
                "covered": covered_ids,
                "removed": removed,
            })
    return selected, covered_by


def _array_rounds(inst: Instance, trace) -> SolverState:
    """The rounds of any table on the numpy state; returns the final state."""
    state = init_state(inst)
    n = inst.n
    iteration = 0
    while state.left:
        if state.live_ap.size == 0:
            raise _no_live_disks()
        iteration += 1
        if iteration > n:
            raise MlrInvariantError("more rounds than TDs")
        a0, r = select_min_ratio(state)
        order = state.order  # a compaction in this round replaces it
        e_star, covered, retired = apply_selection(state, (a0, r))
        if trace is not None:
            ap0, u0 = np.divmod(retired.indices(), n)
            trace({
                "iter": iteration,
                "disk": [a0 + 1, order.item(a0, r) + 1],
                "ratio": e_star,
                "covered": list(covered),
                "removed": list(zip((ap0 + 1).tolist(), (u0 + 1).tolist())),
            })
    return state


def solve_mlr(inst: Instance, trace: Callable[[dict], object] | None = None) -> Solution:
    """Run the minimum-local-ratio solver on a valid instance.

    Deterministic for a fixed instance.  When ``trace`` is given, it is
    called with each round's trace document (see ``formats``) as the
    round ends.  Tables of at most ``_SCALAR_MAX_DISKS`` disks run on
    Python scalars, the rest on numpy arrays; both give the same bytes.
    """
    picks = None
    if 0 < inst.m * inst.n <= _SCALAR_MAX_DISKS:
        picks = _scalar_rounds(inst, trace)
    if picks is None:
        solution = assemble_solution(_array_rounds(inst, trace))
    else:
        solution = Solution.from_picks(inst, *picks)
    if not math.isfinite(solution.total_power):
        raise MlrInvariantError("non-finite total power")
    return solution
