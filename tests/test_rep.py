"""Quiver representations: structural functors against hand-computed shapes.

Dimension-vector oracles below follow the successor convention: the
projective at a vertex is supported on the vertices its paths can reach.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltbench import rep
from tiltbench.linalg import PrimeField
from tiltbench.quiver import Quiver, build_algebra


def dims(m):
    return m.dims.tolist()


class TestStandardModules:
    def test_a2(self, a2):
        assert dims(rep.projective(a2, 0)) == [1, 1]
        assert dims(rep.projective(a2, 1)) == [0, 1]
        assert dims(rep.injective(a2, 0)) == [1, 0]
        assert dims(rep.injective(a2, 1)) == [1, 1]
        assert dims(rep.simple(a2, 0)) == [1, 0]

    def test_hereditary_a3(self, hereditary_a3):
        H = hereditary_a3
        assert [dims(rep.projective(H, v)) for v in range(3)] == [
            [1, 1, 1], [0, 1, 1], [0, 0, 1]]
        assert [dims(rep.injective(H, v)) for v in range(3)] == [
            [1, 0, 0], [1, 1, 0], [1, 1, 1]]

    def test_a3_rad2(self, a3rad2):
        assert [dims(rep.projective(a3rad2, v)) for v in range(3)] == [
            [1, 1, 0], [0, 1, 1], [0, 0, 1]]
        assert [dims(rep.injective(a3rad2, v)) for v in range(3)] == [
            [1, 0, 0], [1, 1, 0], [0, 1, 1]]

    def test_truncated_polynomial(self, kx3):
        L = rep.projective(kx3, 0)
        assert dims(L) == [3]
        assert rep.is_isomorphic(rep.injective(kx3, 0), L)  # selfinjective

    def test_projectives_check_relations(self, a3rad2):
        p = rep.projective(a3rad2, 0)
        p.check_relations()  # must not raise

    def test_projectives_are_built_once_per_algebra(self, a3rad2):
        # each call wraps the arrays the algebra's memo keeps, without a copy
        p, again = rep.projective(a3rad2, 1), rep.projective(a3rad2, 1)
        assert again.dims is p.dims and all(a is b for a, b in zip(again.maps, p.maps))
        op = rep.projective(a3rad2.opposite, 1)
        assert not any(a is b for a, b in zip(op.maps, p.maps))
        assert not any(m.flags.writeable for m in p.maps)


class TestHomAndExactness:
    def test_hom_dimensions_a2(self, a2):
        P1, P2 = rep.projective(a2, 0), rep.projective(a2, 1)
        S1 = rep.simple(a2, 0)
        assert len(rep.hom_space(P2, P1)) == 1   # radical inclusion
        assert len(rep.hom_space(P1, P2)) == 0
        assert len(rep.hom_space(P1, S1)) == 1   # the cover
        assert len(rep.hom_space(S1, P1)) == 0
        assert len(rep.hom_space(P1, P1)) == 1   # local endomorphism ring

    def test_kernel_cokernel_image(self, a2):
        P1, S1 = rep.projective(a2, 0), rep.simple(a2, 0)
        cover = rep.projective_cover(S1)[0]
        assert cover.source is P1 or dims(cover.source) == dims(P1)
        K, incl = rep.kernel(cover)
        assert dims(K) == [0, 1]
        assert cover.compose(incl).is_zero
        C, proj = rep.cokernel(incl)
        assert rep.is_isomorphic(C, S1)
        I, iincl, iproj = rep.image(cover)
        assert rep.is_isomorphic(I, S1)
        assert iincl.compose(iproj).total_matrix().tolist() == \
            cover.total_matrix().tolist()

    def test_rank_nullity_on_hom_basis(self, a3rad2):
        P1 = rep.projective(a3rad2, 0)
        P2 = rep.projective(a3rad2, 1)
        for f in rep.hom_space(P2, P1):
            K, _ = rep.kernel(f)
            assert int(sum(K.dims)) + f.rank() == int(sum(P2.dims))

    def test_direct_sum_round_trip(self, a2):
        P1, S1 = rep.projective(a2, 0), rep.simple(a2, 0)
        total, incls, projs = rep.direct_sum(a2, [P1, S1])
        assert dims(total) == [2, 1]
        for incl, proj in zip(incls, projs):
            assert proj.compose(incl).is_isomorphism()
        # cross terms vanish
        assert projs[0].compose(incls[1]).is_zero


class TestDuality:
    def test_involution(self, a3rad2):
        for v in range(3):
            p = rep.projective(a3rad2, v)
            dd = rep.dualize(rep.dualize(p))
            assert dd.algebra is a3rad2
            assert rep.is_isomorphic(dd, p)

    def test_swaps_projective_injective(self, a2):
        d = rep.dualize(rep.projective(a2.opposite, 0))
        assert d.algebra is a2
        assert rep.is_isomorphic(d, rep.injective(a2, 0))

    def test_contravariant_on_morphisms(self, a2):
        P1, P2 = rep.projective(a2, 0), rep.projective(a2, 1)
        f = rep.hom_space(P2, P1)[0]
        fd = rep.dualize_morphism(f)
        assert fd.source.algebra is a2.opposite
        assert fd.rank() == f.rank()
        g = rep.hom_space(P1, P1)[0]  # identity basis
        gf = g.compose(f)
        assert np.array_equal(rep.dualize_morphism(gf).total_matrix(),
                              rep.dualize_morphism(f)
                                 .compose(rep.dualize_morphism(g)).total_matrix())


class TestCoversAndSyzygies:
    def test_projective_cover_is_minimal(self, a3rad2):
        S1 = rep.simple(a3rad2, 0)
        cover, verts = rep.projective_cover(S1)
        assert verts == [0]
        assert cover.is_surjective()
        assert dims(rep.kernel(cover)[0]) == [0, 1, 0]  # rad P1 = S2

    def test_syzygy_chain_x3(self, kx3):
        S = rep.simple(kx3, 0)
        W = rep.syzygy(S)
        assert dims(W) == [2]
        assert rep.is_isomorphic(rep.syzygy(W), S)
        assert rep.syzygy(rep.projective(kx3, 0)).is_zero
        assert dims(rep.syzygy(rep.syzygy(S))) == [1]

    def test_injective_envelope(self, a2):
        S2 = rep.simple(a2, 1)
        env, verts = rep.injective_envelope(S2)
        assert env.is_injective()
        assert rep.is_isomorphic(env.target, rep.injective(a2, 1))

    def test_cosyzygy(self, a2):
        S2 = rep.simple(a2, 1)
        assert rep.is_isomorphic(rep.cosyzygy(S2), rep.simple(a2, 0))
        assert rep.cosyzygy(rep.injective(a2, 0)).is_zero


class TestTopSocleDecompose:
    def test_decompose_finds_all_leaves(self, kx3):
        L = rep.projective(kx3, 0)
        S = rep.simple(kx3, 0)
        W = rep.syzygy(S)
        total = rep.direct_sum(kx3, [L, S, W])[0]
        leaves = rep.decompose(total)
        got = sorted(int(sum(leaf.rep.dims)) for leaf in leaves)
        assert got == [1, 2, 3]
        for leaf in leaves:
            assert leaf.proj.compose(leaf.incl).is_isomorphism()

    def test_is_isomorphic_negative(self, a2):
        # same dimension vector [1, 1], different arrow action
        P1 = rep.projective(a2, 0)
        split = rep.direct_sum(a2, [rep.simple(a2, 0), rep.simple(a2, 1)])[0]
        assert not rep.is_isomorphic(P1, split)
        assert not rep.is_isomorphic(rep.simple(a2, 0), rep.simple(a2, 1))
        # P1 is the projective-injective tile: both constructions agree
        assert rep.is_isomorphic(P1, rep.injective(a2, 1))


def test_representation_shape_validation(a2):
    with pytest.raises(ValueError):
        rep.Representation(a2, [1, 1], [np.zeros((2, 1), dtype=np.int64)])
    # arrow map for a: 1 -> 2 must have shape (dim_2, dim_1)
    good = rep.Representation(a2, [1, 2], [np.zeros((2, 1), dtype=np.int64)])
    assert dims(good) == [1, 2]


def test_representation_relation_check(kx2):
    bad = np.array([[1]], dtype=np.int64)  # x acts as 1, but x^2 = 0
    with pytest.raises(ValueError):
        rep.Representation(kx2, [1], [bad], check=True)


# -- the hom-basis probe in is_isomorphic against the matching route ----------

_F = PrimeField(101)
_KRONECKER = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [], _F)
_A3RAD2 = build_algebra(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]),
                        [[(1, ["a", "b"])]], _F)


def _kron(a, b):
    """Kronecker module with arrow matrices a, b (shape dim_2 x dim_1)."""
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    return rep.Representation(_KRONECKER, [a.shape[1], a.shape[0]], [a, b])


def _pool(alg):
    """Indecomposables to build sums from: over the Kronecker algebra the
    simples, the projective P_1 and injective I_2 of dimension 3, the
    regular modules R_0, R_1, R_2 and R_inf of dimension vector (1, 1) and
    the length-2 regular module at 0; over kA_3/rad^2 its simples and its
    uniserial projectives."""
    if alg is _KRONECKER:
        return [rep.simple(alg, 0), rep.simple(alg, 1),
                _kron([[1], [0]], [[0], [1]]), _kron([[1, 0]], [[0, 1]]),
                _kron([[1]], [[0]]), _kron([[1]], [[1]]), _kron([[1]], [[2]]),
                _kron([[0]], [[1]]), _kron(np.eye(2), [[0, 1], [0, 0]])]
    return ([rep.simple(alg, v) for v in range(3)]
            + [rep.projective(alg, v) for v in range(2)])


def _base_change(m, gs):
    """The module with each arrow matrix conjugated, g_t M g_s^-1."""
    F = m.field
    inv = [F.solve_many(g, np.eye(g.shape[0], dtype=np.int64)) for g in gs]
    qv = m.algebra.quiver
    return rep.Representation(m.algebra, m.dims, [
        gs[qv.vertex_index[a.target]] @ m.maps[i] @ inv[qv.vertex_index[a.source]]
        for i, a in enumerate(qv.arrows)])


def _commutes(f):
    """f is a module morphism: each component commutes with the arrows."""
    p, qv = f.source.field.p, f.source.algebra.quiver
    return all(np.array_equal((f.maps[qv.vertex_index[a.target]] @ f.source.maps[i]) % p,
                              (f.target.maps[i] @ f.maps[qv.vertex_index[a.source]]) % p)
               for i, a in enumerate(qv.arrows))


@st.composite
def _invertible(draw, n):
    """Lower unitriangular times upper triangular with a non-zero diagonal."""
    lower = np.eye(n, dtype=np.int64)
    upper = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        upper[i, i] = draw(st.integers(1, 100))
        for j in range(n):
            if j < i:
                lower[i, j] = draw(st.integers(0, 100))
            elif j > i:
                upper[i, j] = draw(st.integers(0, 100))
    return lower @ upper % 101


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_is_isomorphic_agrees_with_matching(data):
    """Sums of pool modules against a reordering of the same sum or an
    independent sum, after a random change of basis: the probe route and
    the decompose-and-match route give the same answer, and a returned map
    is a module isomorphism."""
    alg = data.draw(st.sampled_from([_KRONECKER, _A3RAD2]))
    pool = _pool(alg)
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        other = data.draw(st.permutations(picks))
    else:
        other = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))
    a = rep.sum_module(alg, [pool[i] for i in picks])
    b = rep.sum_module(alg, [pool[i] for i in other])
    b = _base_change(b, [data.draw(_invertible(int(d))) for d in b.dims])
    want = rep._is_isomorphic_by_matching(a, b)
    assert rep.is_isomorphic(a, b) == want
    ok, f = rep.is_isomorphic(a, b, with_map=True)
    assert ok == want
    if ok:
        assert _commutes(f)
        assert f.is_isomorphism()


@pytest.mark.parametrize("alg, left, right", [
    (_KRONECKER, [4], [5]),          # R_0 and R_1
    (_KRONECKER, [4], [7]),          # R_0 and R_inf
    (_KRONECKER, [4, 4], [8]),       # R_0 + R_0 and the length-2 R_0
    (_KRONECKER, [4, 5], [4, 6]),    # R_0 + R_1 and R_0 + R_2
    (_A3RAD2, [0, 1], [3]),          # S_1 + S_2 and the uniserial P_1
    (_A3RAD2, [1, 2], [4]),          # S_2 + S_3 and the uniserial P_2
])
def test_equal_dimension_vectors_not_isomorphic(alg, left, right):
    pool = _pool(alg)
    a = rep.sum_module(alg, [pool[i] for i in left])
    b = rep.sum_module(alg, [pool[i] for i in right])
    assert a.dims.tolist() == b.dims.tolist()
    assert not rep._is_isomorphic_by_matching(a, b)
    assert not rep.is_isomorphic(a, b)
    assert rep.is_isomorphic(a, b, with_map=True) == (False, None)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_hom_system_blocks_match_kron(n, r, c, data):
    """The blocks hom_space writes for I (x) A^T and B (x) I equal np.kron's,
    0-sized factors included."""
    a = np.array(data.draw(st.lists(st.integers(0, 100), min_size=r * c, max_size=r * c)),
                 dtype=np.int64).reshape(r, c)
    eye = np.eye(n, dtype=np.int64)
    for got, want in ((rep._eye_kron(n, a), np.kron(eye, a)),
                      (rep._kron_eye(a, n), np.kron(a, eye))):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
