"""Metamorphic relations that every correct solver obeys.

The golden digests pin today's bytes, including any fault present when
they were recorded; these relations need no oracle and no recorded
output.  Each compares a solve with the solve of a transformed instance:

* Scaling every coordinate by 2^j keeps the selection and the coverage,
  and multiplies the total power by 2^(j * alpha).  At alpha = 2 the
  power is c * r^2 with no ``pow`` call, so the total scales exactly in
  IEEE arithmetic absent overflow and underflow, and that is asserted.
  At alpha = 3 the power is ``pow(r^2, 1.5)``, and glibc's ``pow`` is
  not exact under a power-of-two scaling: ``pow(x * 4^j, 1.5)`` and
  ``pow(x, 1.5) * 2^(3j)`` differ in the last bit for about one x in a
  thousand.  So there the total is compared to a relative 1e-13, while
  the selection and the coverage must still be equal.
* With k >= n no AP can use more than n of its capacity, so raising k to
  n + 1000 changes nothing.
* Permuting the AP labels and the TD labels maps the selection and the
  coverage back onto the original ones.  This holds only where no exact
  tie meets a label: MLR breaks ratio ties by the lowest AP id and NCA
  breaks key ties by id.  Uniform float draws meet no tie in practice,
  so the corpus is drawn from floats, and nothing here is claimed for
  integer grids.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpcc import (
    ExperimentConfig,
    Instance,
    generate_instance,
    solve_exact,
    solve_mlr,
    solve_nca,
)

from oracles import random_instance


def _exact(inst):
    return solve_exact(inst).solution


SOLVERS = {"mlr": solve_mlr, "nca": solve_nca}


def _solvers(inst):
    """The solvers a relation is checked on: exact only where it is quick."""
    if inst.n <= 6 and inst.m <= 4:
        return {**SOLVERS, "exact": _exact}
    return SOLVERS


@st.composite
def float_instances(draw, spare=False):
    """A uniform float draw with m in 1..8 and n in 1..59, k from
    ceil(n / m) to n + 1, or k in {n, n + 1} when ``spare``, and alpha
    2 or 3.  About half the draws are small enough for exact."""
    small = draw(st.booleans())
    m = draw(st.integers(1, 4 if small else 8))
    n = draw(st.integers(1, 6 if small else 59))
    k = draw(st.integers(n, n + 1) if spare else st.integers(-(-n // m), n + 1))
    alpha = draw(st.sampled_from([2.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_instance(rng, m=m, n=n, k=k, power_alpha=alpha)


def _scaled(inst, j):
    s = 2.0**j
    return Instance.from_coords(aps=inst.ap_xy * s, tds=inst.td_xy * s, k=inst.k,
                                power_c=inst.power_c, power_alpha=inst.power_alpha)


def _assert_scales(solve, inst, j):
    base, scaled = solve(inst), solve(_scaled(inst, j))
    assert scaled.selected == base.selected
    assert scaled.coverage == base.coverage
    expected = base.total_power * 2.0 ** (j * inst.power_alpha)
    if inst.power_alpha == 2.0:
        assert scaled.total_power == expected
    else:
        assert math.isclose(scaled.total_power, expected, rel_tol=1e-13)


@settings(max_examples=300, deadline=None)
@given(inst=float_instances(), j=st.sampled_from([-3, -2, -1, 1, 2, 3]))
# one disk whose scaled alpha = 3 total is an ulp off 2^-3 times its own
@example(inst=Instance.from_coords(aps=[(0.0, 0.0)], tds=[(0.585, 0.0)], k=1,
                                   power_alpha=3.0), j=-1)
def test_scaling_multiplies_total_by_a_power_of_two(inst, j):
    for solve in _solvers(inst).values():
        _assert_scales(solve, inst, j)


@settings(max_examples=200, deadline=None)
@given(inst=float_instances(spare=True))
def test_capacity_beyond_n_changes_nothing(inst):
    roomy = Instance.from_coords(aps=inst.ap_xy, tds=inst.td_xy, k=inst.n + 1000,
                                 power_c=inst.power_c, power_alpha=inst.power_alpha)
    for solve in _solvers(inst).values():
        assert solve(roomy) == solve(inst)


@settings(max_examples=200, deadline=None)
@given(inst=float_instances(), seed=st.integers(0, 2**32 - 1))
def test_relabelling_maps_the_selection_back(inst, seed):
    rng = np.random.default_rng(seed)
    ap_perm, td_perm = rng.permutation(inst.m), rng.permutation(inst.n)
    relabelled = Instance.from_coords(aps=inst.ap_xy[ap_perm], tds=inst.td_xy[td_perm],
                                      k=inst.k, power_c=inst.power_c,
                                      power_alpha=inst.power_alpha)
    # AP id a and TD id u of the relabelled instance are these ids of inst
    ap_id, td_id = (ap_perm + 1).tolist(), (td_perm + 1).tolist()
    for solve in SOLVERS.values():
        base, moved = solve(inst), solve(relabelled)
        assert {ap_id[a - 1]: td_id[u - 1] for a, u in moved.selected.items()} == base.selected
        assert {ap_id[a - 1]: frozenset(td_id[u - 1] for u in tds)
                for a, tds in moved.coverage.items()} == base.coverage
        # the total is summed in AP order, which the relabelling changes
        assert math.isclose(moved.total_power, base.total_power, rel_tol=1e-12)


def test_scaling_holds_on_the_solve_large_instance():
    # the benchmark's n=1000, m=40 instance runs MLR's narrow window and
    # compacts its columns, which the small draws above never reach
    inst = generate_instance(ExperimentConfig(n=1000, m=40, k=40, side=40.0, seed=1729), 0)
    for j in (-1, 1):
        _assert_scales(solve_mlr, inst, j)
