"""The higher Auslander algebras A^(d)_m of `higher_auslander`: the published
summand counts and End(M) dimensions, d-cluster-tilting at d and not at
d +- 1, the arrow actions against the dense route, and the memory Gamma's
build takes."""
import functools
import tracemalloc

import numpy as np
import pytest

from tiltbench import axioms

import dense_route
import higher_auslander
from test_presentation import _same_actions


@functools.cache
def _ladder(d, m):
    return higher_auslander.subcategory(d, m)


# (d, m, summands C(m + d, d + 1), dim Gamma = dim A^(d+1)_m)
ROWS = [(2, 3, 10, 28), (3, 3, 15, 45), (2, 4, 20, 84)]


@pytest.mark.parametrize("d, m, summands, dim", ROWS)
def test_ladder_row(d, m, summands, dim):
    """The counts are Iyama's; certified-pass at d is too.  The fails at
    d +- 1 are the verdicts this tool gave when the family was added."""
    x = _ladder(d, m)
    assert len(x.summands) == summands
    assert x.endomorphism_algebra().dim == dim
    for e in (d - 1, d, d + 1):
        want = "certified-pass" if e == d else "fail"
        assert axioms.classify_d_cluster_tilting(x, e, trials=10, seed=42).status == want
        assert axioms.classify_d_precluster(x, e, trials=10, seed=42).status == want


@pytest.mark.parametrize("d, m", [(2, 3), (3, 3)])
def test_ladder_actions_equal_the_dense_route(d, m):
    x = _ladder(d, m)
    g = dense_route.gamma(x)
    for alg in (x.algebra, x.algebra.opposite, g, g.opposite):
        left, right = dense_route.actions(
            dense_route.table(alg, max_path_len=3 * m + 2), alg.blocks, alg.arrow_basis,
            alg.quiver.arrow_ends, alg.quiver.num_vertices)
        _same_actions(alg.left_actions, left)
        _same_actions(alg.right_actions, right)


def test_gamma_builds_no_cube():
    """With every summand hom stack and solver already built, building
    Gamma of A^(2)_4 (dim 84) peaks below one dim^3 int64 cube, 4.5 MiB."""
    x = higher_auslander.subcategory(2, 4)
    n = len(x.summands)
    for i in range(n):
        for j in range(n):
            if x.hom(i, j):
                x._hom_stack(i, j)
                x.hom_solver(i, j)
    tracemalloc.start()
    try:
        g = x.endomorphism_algebra()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.dim == 84
    assert peak < g.dim ** 3 * np.dtype(np.int64).itemsize
