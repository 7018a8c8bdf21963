"""Exact mod-p linear algebra: hand oracles plus randomized properties."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltbench.linalg import PrimeField

F = PrimeField(101)


def test_modulus_must_be_odd_prime():
    for bad in (0, 1, 2, 4, 9, 15, 2**21):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert PrimeField(3).p == 3
    assert PrimeField(65537).p == 65537


def test_inverse():
    for a in (1, 2, 50, 100):
        assert (a * F.inv(a)) % 101 == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_rref_hand_oracle():
    m = F.asarray([[2, 4], [1, 2]])
    r, pivots = F.rref(m)
    assert pivots == [0]
    assert r[0].tolist() == [1, 2]
    assert r[1].tolist() == [0, 0]


def test_rank_oracles():
    assert F.rank(F.asarray([[1, 2], [3, 4]])) == 2
    assert F.rank(F.asarray([[1, 2], [2, 4]])) == 1
    assert F.rank(F.zeros(3, 5)) == 0
    assert F.rank(F.eye(7)) == 7


def test_nullspace_columns_are_solutions():
    m = F.asarray([[1, 2, 3], [4, 5, 6]])
    ns = F.nullspace(m)
    assert ns.shape == (3, 1)
    assert not (F.matmul(m, ns) % 101).any()


def test_solve_and_inconsistency():
    m = F.asarray([[1, 1], [0, 1]])
    b = F.asarray([3, 2])
    x, ns = F.solve(m, b)
    assert np.array_equal(F.matmul(m, x.reshape(2, 1)).ravel(), b)
    assert ns.shape == (2, 0)
    # inconsistent: second row forces 0 = 1
    m2 = F.asarray([[1, 1], [2, 2]])
    b2 = F.asarray([0, 1]).reshape(2, 1)
    assert F.solve(m2, b2) is None


def test_solve_many_matches_columnwise_solve():
    m = F.asarray([[1, 2], [3, 5]])
    bs = F.asarray([[1, 0, 4], [0, 1, 9]])
    xs = F.solve_many(m, bs)
    assert np.array_equal(F.matmul(m, xs), bs % 101)


def test_quotient_projection():
    sub = F.asarray([[1], [0], [0]])
    proj, reps = F.quotient_projection(sub, 3)
    assert proj.shape == (2, 3)
    assert not F.matmul(proj, sub).any()
    # reps lift the quotient basis back: proj @ reps = identity
    assert np.array_equal(F.matmul(proj, reps), F.eye(2))


def test_intersect_column_spaces():
    a = F.asarray([[1, 0], [0, 1], [0, 0]])
    b = F.asarray([[0, 0], [1, 0], [0, 1]])
    cap = F.intersect_column_spaces(a, b)
    assert cap.shape[1] == 1
    assert F.column_space_contains(a, cap)
    assert F.column_space_contains(b, cap)


small_mats = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 100), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_rank_nullity(rows):
    m = F.asarray(rows)
    ns = F.nullspace(m)
    assert F.rank(m) + ns.shape[1] == m.shape[1]
    if ns.shape[1]:
        assert not F.matmul(m, ns).any()
        assert F.rank(ns) == ns.shape[1]


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_rref_idempotent_and_rank_stable(rows):
    m = F.asarray(rows)
    r, pivots = F.rref(m)
    r2, pivots2 = F.rref(r)
    assert np.array_equal(r, r2)
    assert pivots == pivots2
    assert F.rank(m) == len(pivots)


@settings(max_examples=60, deadline=None)
@given(small_mats, st.integers(0, 10**6))
def test_solve_recovers_constructed_solution(rows, seed):
    m = F.asarray(rows)
    rng = np.random.default_rng(seed)
    x = F.random_matrix(rng, m.shape[1], 2)
    b = F.matmul(m, x)
    got = F.solve_many(m, b)
    assert got is not None
    assert np.array_equal(F.matmul(m, got), b)


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_column_reduce_spans_same_space(rows):
    m = F.asarray(rows)
    red = F.column_reduce(m)
    assert red.shape[1] == F.rank(m)
    if m.shape[1]:
        assert F.column_space_contains(red, m)


# -- the two elimination kernels and zero-size inputs ---------------------------

F3 = PrimeField(3)


def _low_rank(field, rng, rows, cols, rank):
    """A rows x cols matrix of rank at most `rank`, with unreduced and
    negative entries."""
    left = rng.integers(-3 * field.p, 3 * field.p, size=(rows, rank))
    right = rng.integers(-3, 4, size=(rank, cols))
    return (left @ right).astype(np.int64)


def _same_rref(got, want):
    assert got[0].dtype == want[0].dtype == np.int64
    assert got[0].shape == want[0].shape
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F, F3]), st.integers(1, 10), st.integers(1, 10),
       st.integers(0, 10), st.integers(0, 10**6))
def test_list_kernel_matches_numpy_kernel(field, rows, cols, rank, seed):
    m = _low_rank(field, np.random.default_rng(seed), rows, cols,
                  min(rank, rows, cols))
    want = field._rref_numpy(field.asarray(m))
    _same_rref(field._rref_lists(field.asarray(m)), want)
    _same_rref(field.rref(m), want)


@pytest.mark.parametrize("shape", [(1, 1), (8, 8), (8, 9), (9, 8), (1, 64), (1, 65)])
def test_kernels_agree_at_the_cutoff(shape):
    rng = np.random.default_rng(sum(shape))
    for field in (F, F3):
        for rank in range(min(shape) + 1):
            m = _low_rank(field, rng, *shape, rank)
            want = field._rref_numpy(field.asarray(m))
            _same_rref(field._rref_lists(field.asarray(m)), want)
            _same_rref(field.rref(m), want)


def test_rref_dispatches_on_cell_count(monkeypatch):
    from tiltbench import linalg
    seen = []
    for name in ("_rref_lists", "_rref_numpy"):
        real = getattr(PrimeField, name)
        monkeypatch.setattr(PrimeField, name,
                            lambda self, a, name=name, real=real:
                            seen.append((name, a.shape)) or real(self, a))
    F.rref(F.eye(8))
    F.rref(F.zeros(8, 9))
    assert linalg.SMALL_CELLS == 64
    assert seen == [("_rref_lists", (8, 8)), ("_rref_numpy", (8, 9))]


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_zero_size_inputs_return_at_once(rows, cols, monkeypatch):
    def no_elimination(self, a):
        raise AssertionError("a zero-size matrix reached an elimination loop")
    monkeypatch.setattr(PrimeField, "_rref_lists", no_elimination)
    monkeypatch.setattr(PrimeField, "_rref_numpy", no_elimination)
    m = F.zeros(rows, cols)

    r, pivots = F.rref(m)
    assert r.shape == (rows, cols) and r.dtype == np.int64 and pivots == []
    assert F.rank(m) == 0

    ns = F.nullspace(m)
    assert ns.dtype == np.int64 and np.array_equal(ns, np.eye(cols, dtype=np.int64))

    red = F.column_reduce(m)
    assert red.shape == (rows, 0) and red.dtype == np.int64

    proj, reps = F.quotient_projection(m, rows)
    for t in (proj, reps):
        assert t.dtype == np.int64 and np.array_equal(t, np.eye(rows, dtype=np.int64))

    for k in (0, 2):
        x = F.solve_many(m, F.zeros(rows, k))
        assert x.shape == (cols, k) and x.dtype == np.int64 and not x.any()
    if rows:
        # no unknowns: solvable exactly when the right-hand side is zero
        assert F.solve_many(m, F.asarray([[1]] * rows)) is None
    x = F.solve_many(F.eye(3), F.zeros(3, 0))
    assert x.shape == (3, 0) and x.dtype == np.int64
