"""Exact mod-p linear algebra: hand oracles plus randomized properties."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltbench import linalg
from tiltbench.linalg import PrimeField

F = PrimeField(101)


def matmul(field, a, b):
    return (a @ b) % field.p


def solve(field, m, b):
    """m @ x = b for one right-hand side, through the memoized entry points:
    (particular, nullspace basis), or None when inconsistent."""
    x = field.solve_many(m, np.reshape(b, (-1, 1)))
    return None if x is None else (x[:, 0], field.nullspace(m))


def intersect_column_spaces(field, a, b):
    """Basis (columns) of colspace(a) & colspace(b), through the memoized
    entry points."""
    a, b = field.asarray(a), field.asarray(b)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return field.zeros(a.shape[0], 0)
    ker = field.nullspace(np.concatenate([a, (-b) % field.p], axis=1))
    return field.column_reduce(matmul(field, a, ker[: a.shape[1]]))


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
    assert not (matmul(F, m, ns) % 101).any()


def test_solve_and_inconsistency():
    m = F.asarray([[1, 1], [0, 1]])
    b = F.asarray([3, 2])
    x, ns = solve(F, m, b)
    assert np.array_equal(matmul(F, m, x.reshape(2, 1)).ravel(), b)
    assert ns.shape == (2, 0)
    # inconsistent: second row forces 0 = 1
    m2 = F.asarray([[1, 1], [2, 2]])
    b2 = F.asarray([0, 1]).reshape(2, 1)
    assert solve(F, m2, b2) is None


def test_solve_many_matches_columnwise_solve():
    m = F.asarray([[1, 2], [3, 5]])
    bs = F.asarray([[1, 0, 4], [0, 1, 9]])
    xs = F.solve_many(m, bs)
    assert np.array_equal(matmul(F, m, xs), bs % 101)


def test_quotient_projection():
    sub = F.asarray([[1], [0], [0]])
    proj, reps = F.quotient_projection(sub, 3)
    assert proj.shape == (2, 3)
    assert not matmul(F, proj, sub).any()
    # reps lift the quotient basis back: proj @ reps = identity
    assert np.array_equal(matmul(F, proj, reps), F.eye(2))


def test_intersect_column_spaces():
    a = F.asarray([[1, 0], [0, 1], [0, 0]])
    b = F.asarray([[0, 0], [1, 0], [0, 1]])
    cap = intersect_column_spaces(F, a, b)
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
        assert not matmul(F, m, ns).any()
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
    x = rng.integers(0, F.p, size=(m.shape[1], 2), dtype=np.int64)
    b = matmul(F, m, x)
    got = F.solve_many(m, b)
    assert got is not None
    assert np.array_equal(matmul(F, m, got), b)


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


def _list_rref(field, m):
    """The list kernel on m, its rows read back as an int64 array."""
    r, pivots = field._rref_lists(field.asarray(m).tolist())
    return np.array(r, dtype=np.int64), pivots


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
    _same_rref(_list_rref(field, m), want)
    _same_rref(field.rref(m), want)


@pytest.mark.parametrize("shape", [(1, 1), (8, 8), (8, 9), (9, 8), (1, 64), (1, 65)])
def test_kernels_agree_at_the_cutoff(shape):
    rng = np.random.default_rng(sum(shape))
    for field in (F, F3):
        for rank in range(min(shape) + 1):
            m = _low_rank(field, rng, *shape, rank)
            want = field._rref_numpy(field.asarray(m))
            _same_rref(_list_rref(field, m), want)
            _same_rref(field.rref(m), want)


def test_rref_dispatches_on_cell_count(monkeypatch):
    from tiltbench import linalg
    seen = []
    for name in ("_rref_lists", "_rref_numpy"):
        real = getattr(PrimeField, name)
        monkeypatch.setattr(PrimeField, name,
                            lambda self, a, name=name, real=real:
                            seen.append((name, np.shape(a))) or real(self, a))
    # a fresh field: the module's F may hold these inputs in its memo
    fresh = PrimeField(101)
    fresh.rref(fresh.eye(8))
    fresh.rref(fresh.zeros(8, 9))
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


# -- results read off the echelon form ------------------------------------------


def _loop_nullspace(field, m):
    """`nullspace` with its basis filled entry by entry."""
    if np.size(m) == 0:
        return field.eye(np.shape(m)[1])
    a = field.asarray(m)
    r, pivots = field.rref(a)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = field.zeros(a.shape[1], len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-r[i, fc]) % field.p
    return basis


def _loop_solve_many(field, m, bs):
    """`solve_many` with its solution filled row by row."""
    a, bs = field.asarray(m), field.asarray(bs)
    rows, cols = a.shape
    if rows == 0 or bs.shape[1] == 0:
        return field.zeros(cols, bs.shape[1])
    if cols == 0:
        return None if bs.any() else field.zeros(0, bs.shape[1])
    r, pivots = field.rref(np.concatenate([a, bs], axis=1))
    for pc in pivots:
        if pc >= cols:
            return None
    x = field.zeros(cols, bs.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x


def _loop_quotient_projection(field, sub, n):
    """`quotient_projection` with each e_i reduced by the echelon basis."""
    if np.size(sub) == 0:
        return field.eye(n), field.eye(n)
    sub = field.asarray(sub).reshape(n, -1)
    r, pivots = field.rref(sub.T)
    sub_basis = r[: len(pivots)].T
    free = [i for i in range(n) if i not in pivots]
    reps = field.zeros(n, len(free))
    for j, fr in enumerate(free):
        reps[fr, j] = 1
    proj = field.zeros(len(free), n)
    for i in range(n):
        v = field.zeros(n, 1)
        v[i, 0] = 1
        for k, pc in enumerate(pivots):
            coef = v[pc, 0]
            if coef:
                v = (v - coef * sub_basis[:, k : k + 1]) % field.p
        for j, fr in enumerate(free):
            proj[j, i] = v[fr, 0]
    return proj, reps


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F, F3]), st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
       st.integers(0, 3), st.integers(0, 10**6))
def test_echelon_reads_equal_the_entry_loops(field, rows, cols, rank, k, seed):
    """nullspace, solve_many and quotient_projection read their results off
    the reduced echelon form by index assignment; each gives the arrays the
    entry-by-entry loops give, solvable right-hand sides and not."""
    rng = np.random.default_rng(seed)
    m = _low_rank(field, rng, rows, cols, min(rank, rows, cols))
    sub = _low_rank(field, rng, rows, k, min(rank, rows, k))
    solvable = m @ rng.integers(0, field.p, size=(cols, k))
    fresh = PrimeField(field.p)
    _assert_same(fresh.nullspace(m), _loop_nullspace(field, m))
    for rhs in (solvable, rng.integers(0, field.p, size=(rows, k))):
        want = _loop_solve_many(field, m, rhs)
        got = fresh.solve_many(m, rhs)
        assert (got is None) == (want is None)
        if want is not None:
            _assert_same(got, want)
    _assert_same(fresh.quotient_projection(sub, rows), _loop_quotient_projection(field, sub, rows))


# -- the list path of the entry points -------------------------------------------


def _numpy_entry_points(field, m, rhs, sub):
    """rank, nullspace, solve_many, column_reduce, quotient_projection and
    column_space_contains on non-empty arguments, through the numpy kernel
    and index assignment alone, at every size."""
    p = field.p
    a, b, sub = field.asarray(m), field.asarray(rhs), field.asarray(sub)
    rows, cols = a.shape
    r, pivots = field._rref_numpy(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[pivots] = -r[:len(pivots), free] % p
    r, aug = field._rref_numpy(np.concatenate([a, b], axis=1))
    x = None
    if not aug or aug[-1] < cols:
        x = np.zeros((cols, b.shape[1]), dtype=np.int64)
        x[aug] = r[:len(aug), cols:]
    r, col_pivots = field._rref_numpy(a.T)
    r_sub, sub_pivots = field._rref_numpy(sub.T)
    free = [i for i in range(rows) if i not in sub_pivots]
    reps = np.zeros((rows, len(free)), dtype=np.int64)
    reps[free, range(len(free))] = 1
    proj = np.zeros((len(free), rows), dtype=np.int64)
    proj[range(len(free)), free] = 1
    proj[:, sub_pivots] = -r_sub[:len(sub_pivots)].T[free] % p
    return {"rank": len(pivots), "nullspace": basis, "solve_many": x,
            "column_reduce": r[:len(col_pivots)].T.copy(),
            "quotient_projection": (proj, reps), "contains": x is not None}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([F, F3]),
       st.sampled_from([(1, 1), (2, 3), (4, 4), (8, 7), (8, 8), (8, 9), (9, 8),
                        (1, 64), (1, 65), (64, 1)]),
       st.integers(0, 9), st.integers(1, 3), st.booleans(),
       st.sampled_from(["int64", "int32", "object"]), st.integers(0, 10**6))
def test_list_path_equals_the_numpy_path(field, shape, rank, k, solvable, kind, seed):
    """Each entry point on a fresh field, where a matrix of at most
    SMALL_CELLS cells is answered on Python ints, returns the arrays of the
    numpy path (same shape, dtype and entries), read-only when stored:
    unreduced, negative, int32 and object inputs, rank-deficient and zero
    matrices, shapes on both sides of the cutoff, and solve_many both
    consistent and not, also where m is under the cutoff and [m | bs] over."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    m = _low_rank(field, rng, rows, cols, min(rank, rows, cols))
    sub = _low_rank(field, rng, rows, cols, min(rank, rows, cols))
    rhs = m @ rng.integers(-3, 4, size=(cols, k)) if solvable else rng.integers(-300, 300, size=(rows, k))
    m, rhs, sub = (a.astype(kind) for a in (m, rhs, sub))
    want = _numpy_entry_points(field, m, rhs, sub)
    fresh = PrimeField(field.p)
    got = {"rank": fresh.rank(m), "nullspace": fresh.nullspace(m),
           "solve_many": fresh.solve_many(m, rhs), "column_reduce": fresh.column_reduce(m),
           "quotient_projection": fresh.quotient_projection(sub, rows),
           "contains": fresh.column_space_contains(m, rhs)}
    for name in want:
        if want[name] is None:
            assert got[name] is None
        else:
            _assert_same(got[name], want[name])
    arrays = [got["nullspace"], got["column_reduce"], *got["quotient_projection"]]
    if got["solve_many"] is not None:
        arrays.append(got["solve_many"])
    if kind == "object":
        # only eliminations above the cutoff, of the reduced int64 matrix
        assert all(key[0] == "_rref" for key in fresh._memo)
    else:
        assert not any(a.flags.writeable for a in arrays)


def test_no_tiny_matrix_reaches_the_numpy_kernel(corpus, monkeypatch):
    """On a corpus job's A1-A3op pass (counts, not times) no matrix of at
    most SMALL_CELLS cells reaches the numpy kernel, and each entry-point
    call that eliminates one either hits the memo, eliminating nothing, or
    runs the list kernel once on it and stores its own entry only."""
    from tiltbench import axioms
    # never emptied during the pass, so a new entry marks a miss
    monkeypatch.setattr(linalg, "MEMO_TOTAL_CELLS", 1 << 40)
    x = corpus.fresh_x("nakayama_a3_rad2_bimodule").x
    kernels = []
    real_lists, real_numpy = PrimeField._rref_lists, PrimeField._rref_numpy
    monkeypatch.setattr(PrimeField, "_rref_lists", lambda self, a: kernels.append(
        ("lists", len(a) * len(a[0]))) or real_lists(self, a))
    monkeypatch.setattr(PrimeField, "_rref_numpy", lambda self, a: kernels.append(
        ("numpy", a.size)) or real_numpy(self, a))
    tiny = []
    for name in ("rank", "nullspace", "solve_many", "column_reduce", "quotient_projection"):
        real = getattr(PrimeField, name)

        def counted(self, *args, real=real):
            # the eliminated matrix: m, [m | bs], m.T or sub.T
            sizes = [np.size(a) for a in args if not isinstance(a, int)]
            before, stored = len(kernels), len(self._memo)
            out = real(self, *args)
            if all(sizes) and sum(sizes) <= linalg.SMALL_CELLS:
                tiny.append((kernels[before:], len(self._memo) - stored, sum(sizes)))
            return out
        monkeypatch.setattr(PrimeField, name, counted)

    axioms.check_A1_A1op(x, 30, 42)
    axioms.check_A2_A2op(x, 30, 42)
    axioms.check_A3_A3op(x, 30, 42)
    assert not [cells for kind, cells in kernels if kind == "numpy" and cells <= linalg.SMALL_CELLS]
    misses = [t for t in tiny if t[0]]
    assert misses and len(misses) < len(tiny)
    for ran, grown, cells in tiny:
        assert (ran, grown) in (([], 0), ([("lists", cells)], 1))


# -- the elimination memo -------------------------------------------------------

WARM = PrimeField(101)  # shared by every example below, so it runs warm


def _entry_points(field, m, rhs, sub):
    """Every memoized entry point and the routines that go through them,
    on one input; pivots are compared as lists."""
    r, pivots = field.rref(m)
    n = np.shape(m)[0]
    out = {"rref": (r, pivots), "rank": field.rank(m), "nullspace": field.nullspace(m),
           "solve_many": field.solve_many(m, rhs), "column_reduce": field.column_reduce(m),
           "quotient_projection": field.quotient_projection(sub, n)}
    if n:
        out["solve"] = solve(field, m, np.asarray(rhs)[:, :1]) if np.shape(rhs)[1] else None
        out["contains"] = field.column_space_contains(np.asarray(m), np.asarray(rhs))
        out["intersect"] = intersect_column_spaces(field, np.asarray(m), np.asarray(sub))
    return out


def _assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want


def _as_kind(a: np.ndarray, kind: str):
    if kind == "list":
        return a.tolist()
    if kind == "bool":
        return a.astype(bool)
    return a.astype(kind)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 3),
       st.sampled_from(["int64", "int32", "bool", "list"]), st.integers(0, 10**6))
def test_memo_answers_as_a_fresh_field(rows, cols, k, kind, seed):
    """Each entry point on a warm field returns what a fresh field computes,
    for unreduced, negative, int32, bool and list inputs, 0-sized ones, and
    the same bytes read in another shape or dtype."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-300, 300, size=(rows, cols)) * rng.integers(0, 2, size=(rows, cols))
    rhs = rng.integers(-300, 300, size=(rows, k))
    sub = rng.integers(-300, 300, size=(rows, k))
    cases = [(base, rhs, sub)]
    if rows and cols:
        # equal bytes, other shape
        cases.append((base.reshape(cols, rows), rng.integers(-300, 300, size=(cols, k)),
                      rng.integers(-300, 300, size=(cols, k))))
    if kind == "list" and not rows:
        kind = "int64"  # a list of no rows has no column count
    cases = [tuple(_as_kind(a, kind) for a in case) for case in cases]
    if kind == "int64":
        # equal bytes and shape, other dtype: small non-negative int64
        # entries read as float64 are denormals, which truncate to 0
        pos = tuple(np.abs(a) for a in cases[0])
        cases += [pos, tuple(a.view(np.float64) for a in pos)]
    for m, b, s in cases:
        want = _entry_points(PrimeField(101), m, b, s)
        for _ in range(2):
            got = _entry_points(WARM, m, b, s)
            assert got.keys() == want.keys()
            for name in want:
                _assert_same(got[name], want[name])


def _count_eliminations(monkeypatch):
    seen = []
    for name in ("_rref_lists", "_rref_numpy"):
        real = getattr(PrimeField, name)
        monkeypatch.setattr(PrimeField, name,
                            lambda self, a, real=real: seen.append(np.shape(a)) or real(self, a))
    return seen


def test_repeat_calls_do_no_elimination(monkeypatch):
    seen = _count_eliminations(monkeypatch)
    field = PrimeField(101)
    rng = np.random.default_rng(5)
    small = rng.integers(-200, 200, size=(5, 6))
    large = rng.integers(0, 101, size=(12, 14))  # the numpy kernel
    for m in (small, large):
        rhs = rng.integers(0, 101, size=(m.shape[0], 2))
        calls = [lambda: field.rref(m), lambda: field.rank(m), lambda: field.nullspace(m),
                 lambda: field.solve_many(m, rhs), lambda: field.column_reduce(m),
                 lambda: field.quotient_projection(m, m.shape[0]),
                 lambda: solve(field, m, rhs[:, 0]),
                 lambda: field.column_space_contains(m, rhs),
                 lambda: intersect_column_spaces(field, m, rhs)]
        for call in calls:
            call()
        first = len(seen)
        assert first
        for call in calls:
            call()
        assert len(seen) == first
    # above the cutoff, rank and nullspace of one matrix share one elimination
    m = rng.integers(0, 101, size=(8, 9))
    assert m.size > linalg.SMALL_CELLS
    before = len(seen)
    field.rank(m)
    field.nullspace(m)
    field.rank(m.astype(np.int32))  # another raw key, the same reduced matrix
    assert len(seen) == before + 1
    # at or below it, each miss eliminates once on lists and stores only its
    # own entry: no `_rref` entry is shared
    m = rng.integers(0, 101, size=(4, 7))
    before, stored = len(seen), len(field._memo)
    field.rank(m)
    field.nullspace(m)
    assert len(seen) == before + 2 and len(field._memo) == stored + 2
    assert not [key for key in field._memo if key[0] == "_rref" and key[2] == (4, 7)]


def test_cached_results_are_read_only():
    field = PrimeField(101)
    m = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 5]], dtype=np.int64)
    r, pivots = field.rref(m)
    for a in (r, field.nullspace(m), field.column_reduce(m),
              field.solve_many(m, m[:, :1]),
              *field.quotient_projection(m, 3)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    pivots.append(99)
    pivots[0] = 7
    assert field.rref(m)[1] == [0, 1]
    assert field.rref(m)[1] is not field.rref(m)[1]
    # the caller's own input is left writeable
    assert m.flags.writeable


def test_large_calls_are_not_stored(monkeypatch):
    seen = _count_eliminations(monkeypatch)
    field = PrimeField(101)
    m = np.ones((64, 65), dtype=np.int64)  # 4,160 cells
    assert m.size > linalg.MEMO_CALL_CELLS
    field.rank(m)
    field.rank(m)
    assert len(seen) == 2 and not field._memo
    field.rank(m[:, :64])  # 4,096 cells: stored
    field.rank(m[:, :64])
    assert len(seen) == 3 and field._memo


def test_memo_empties_at_the_total_cap(monkeypatch):
    monkeypatch.setattr(linalg, "MEMO_TOTAL_CELLS", 200)
    seen = _count_eliminations(monkeypatch)
    field = PrimeField(101)
    mats = [np.full((4, 4), v, dtype=np.int64) for v in range(1, 12)]
    for m in mats:
        field.nullspace(m)
        assert 0 < field._memo_cells <= 200
    # a call stores 28 cells (its 4x4 argument and the 4x3 basis), so the
    # memo was emptied at the eighth call and keeps the last four
    assert len(seen) == len(mats)
    assert len(field._memo) == 4 and field._memo_cells == 4 * 28
    field.nullspace(mats[-1])
    assert len(seen) == len(mats)
    field.nullspace(mats[0])
    assert len(seen) == len(mats) + 1
    field.clear_memo()
    assert not field._memo and field._memo_cells == 0


def test_object_inputs_are_not_stored():
    field = PrimeField(101)
    m = np.array([[5, 1], [3, 4]], dtype=object)
    assert field.rank(m) == 2
    assert np.array_equal(field.nullspace(m), np.zeros((2, 0), dtype=np.int64))
    # a tiny matrix is eliminated on lists, and nothing is kept
    assert not field._memo
    assert field.rank(m.astype(np.int64)) == 2
    assert [key[0] for key in field._memo] == ["rank"]
    # above the cutoff only the elimination of the reduced int64 matrix is kept
    big = np.array(np.eye(9, dtype=np.int64) * 5, dtype=object)
    assert field.rank(big) == 9
    assert field.nullspace(big).shape == (9, 0)
    assert [key[0] for key in field._memo] == ["rank", "_rref"]


# -- the seeded stream: numpy's default_rng, bit for bit ----------------------

_SEEDS = [0, 42, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7]
_HIGHS = [2, 3, 101, 2**20 - 3]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("high", _HIGHS)
@pytest.mark.parametrize("size", [None, 0, 1, 7])
def test_rng_matches_default_rng(seed, high, size):
    ours, ref = linalg.Rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        got, want = ours.integers(0, high, size), ref.integers(0, high, size)
        if size is None:
            assert type(got) is int and got == int(want)
        else:
            assert got.dtype == np.int64 and got.tolist() == want.tolist()


@pytest.mark.parametrize("seed", _SEEDS)
def test_rng_interleaved_draws_keep_the_stream(seed):
    """Scalar and array draws of every range on one stream, with draws of a
    single value (which take nothing) and empty arrays in between, so the
    kept 32-bit half crosses calls of every kind."""
    ours, ref = linalg.Rng(seed), np.random.default_rng(seed)
    calls = [(0, 2, None), (0, 101, 3), (5, 6, None), (0, 3, 0), (0, 2**20 - 3, None),
             (7, 8, 4), (0, 101, None), (1, 4, 5), (0, 2, 1), (3, 101, None)]
    for low, high, size in calls * 4:
        got, want = ours.integers(low, high, size), ref.integers(low, high, size)
        assert np.asarray(got).tolist() == np.asarray(want).tolist(), (low, high, size)


def test_rng_rejection_path_matches_default_rng():
    # a range just above 2^31 rejects about half of its 32-bit draws
    ours, ref = linalg.Rng(42), np.random.default_rng(42)
    assert ours.integers(0, 2**31 + 1, 200).tolist() == ref.integers(0, 2**31 + 1, 200).tolist()
    assert ours.integers(0, 101, 50).tolist() == ref.integers(0, 101, 50).tolist()


def test_rng_refuses_wide_and_empty_ranges():
    rng = linalg.Rng(0)
    with pytest.raises(ValueError):
        rng.integers(0, 2**32)
    with pytest.raises(ValueError):
        rng.integers(3, 3)
    with pytest.raises(ValueError):
        linalg.Rng(-1)
