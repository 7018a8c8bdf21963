"""Quiver representations: structural functors against hand-computed shapes.

Dimension-vector oracles below follow the successor convention: the
projective at a vertex is supported on the vertices its paths can reach.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltbench import jobspec, rep
from tiltbench.linalg import PrimeField
from tiltbench.quiver import Quiver, build_algebra

import matching_route
from conftest import CORPUS_DIR, corpus_paths


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


# the non-split Kronecker module: x^2 - 2 is irreducible mod 101, so its
# endomorphism ring is the field F_{101^2}
_NON_SPLIT = _kron(np.eye(2), [[0, 2], [1, 0]])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_unit_witness_equals_the_matching_route(data):
    """On an indecomposable and a random change of basis of itself or of
    another indecomposable (the Kronecker R_lambda for lambda = 0, 1, 2 and
    infinity and the non-split module among them), the first bijective
    hom-basis element is the first with a unit composite."""
    alg = data.draw(st.sampled_from([_KRONECKER, _A3RAD2]))
    pool = _pool(alg) + ([_NON_SPLIT] if alg is _KRONECKER else [rep.injective(alg, 2)])
    i = data.draw(st.integers(0, len(pool) - 1))
    a, b = pool[i], pool[i if data.draw(st.booleans()) else data.draw(st.integers(0, len(pool) - 1))]
    b = _base_change(b, [data.draw(_invertible(int(d))) for d in b.dims])
    _same_witness(a, b)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([_NON_SPLIT, _pool(_KRONECKER)[-1]]), st.data())
def test_unit_witness_is_the_first_bijection(a, data):
    """Hom(a, b) of dimension 2 for b a change of basis of a: for the
    non-split module every basis element is bijective (End(a) is the field
    F_{101^2}), for the length-2 R_0 one of them (End(a) is k[x]/(x^2));
    both routes return the first."""
    b = _base_change(a, [data.draw(_invertible(int(d))) for d in a.dims])
    basis = rep.hom_space(a, b)
    assert len(basis) == 2 and (a is not _NON_SPLIT or all(f.is_isomorphism() for f in basis))
    _same_witness(a, b)


def _same_witness(a, b):
    got, want = rep._unit_witness(a, b), matching_route.unit_witness(a, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert all(np.array_equal(u, v) for u, v in zip(got.maps, want.maps))
        assert got.is_isomorphism() and _commutes(got)


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


# -- vertex-sparse operations against the dense loops they replaced ----------
#
# The references below loop over every vertex and arrow, as `rep` did before
# it skipped zero spaces; each vertex-sparse operation must give the same
# arrays (shape, dtype, entries and basis order).


def _dense_flat(source, target, flat):
    maps, at = [], 0
    for v in range(len(source.dims)):
        r, c = int(target.dims[v]), int(source.dims[v])
        maps.append(flat[at:at + r * c].reshape(r, c).copy())
        at += r * c
    return rep.ModuleMorphism._of_reduced(source, target, maps)


def _dense_hom_space(a, b):
    F, qv = a.field, a.algebra.quiver
    sizes = [int(b.dims[v]) * int(a.dims[v]) for v in range(qv.num_vertices)]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    unknowns = int(starts[-1])
    if unknowns == 0:
        return []
    rows = []
    for i, ar in enumerate(qv.arrows):
        s, t = qv.vertex_index[ar.source], qv.vertex_index[ar.target]
        n_eq = int(b.dims[t]) * int(a.dims[s])
        if n_eq == 0:
            continue
        block = np.zeros((n_eq, unknowns), dtype=np.int64)
        block[:, starts[t]:starts[t + 1]] = rep._eye_kron(int(b.dims[t]), a.maps[i].T)
        block[:, starts[s]:starts[s + 1]] = (block[:, starts[s]:starts[s + 1]]
                                             - rep._kron_eye(b.maps[i], int(a.dims[s]))) % F.p
        rows.append(block)
    basis = (F.nullspace(np.concatenate(rows) % F.p) if rows
             else np.eye(unknowns, dtype=np.int64))
    return [_dense_flat(a, b, basis[:, k]) for k in range(basis.shape[1])]


def _dense_kernel(f):
    F, qv = f.source.field, f.source.algebra.quiver
    bases = [F.nullspace(f.maps[v]) for v in range(len(f.maps))]
    maps = []
    for i, a in enumerate(qv.arrows):
        s, t = qv.vertex_index[a.source], qv.vertex_index[a.target]
        sol = F.solve_many(bases[t], (f.source.maps[i] @ bases[s]) % F.p)
        if sol is None:
            raise AssertionError("kernel subspace is not arrow-stable")
        maps.append(sol)
    k = rep.Representation._of_reduced(f.source.algebra, [b.shape[1] for b in bases], maps)
    return k, rep.ModuleMorphism._of_reduced(k, f.source, bases)


def _dense_block_diagonal(blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
                   dtype=np.int64)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _dense_direct_sum(algebra, parts):
    nv = algebra.quiver.num_vertices
    dims = np.zeros(nv, dtype=np.int64)
    for m in parts:
        dims += m.dims
    total = rep.Representation._of_reduced(algebra, dims, [
        _dense_block_diagonal([m.maps[i] for m in parts])
        for i in range(len(algebra.quiver.arrows))])
    incls, projs = [], []
    row_off = np.zeros(nv, dtype=np.int64)
    for m in parts:
        inc = [np.zeros((int(dims[v]), int(m.dims[v])), dtype=np.int64) for v in range(nv)]
        prj = [np.zeros((int(m.dims[v]), int(dims[v])), dtype=np.int64) for v in range(nv)]
        for v in range(nv):
            d, o = int(m.dims[v]), int(row_off[v])
            inc[v][o:o + d, :] = np.eye(d, dtype=np.int64)
            prj[v][:, o:o + d] = np.eye(d, dtype=np.int64)
        incls.append(rep.ModuleMorphism._of_reduced(m, total, inc))
        projs.append(rep.ModuleMorphism._of_reduced(total, m, prj))
        row_off += m.dims
    return total, incls, projs


def _dense_compose(g, f):
    return rep.ModuleMorphism(f.source, g.target, [a @ b for a, b in zip(g.maps, f.maps)])


def _same_arrays(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.dtype == y.dtype == np.int64
        assert x.shape == y.shape
        assert np.array_equal(x, y)


def _same_module(a, b):
    assert a.dims.dtype == b.dims.dtype and a.dims.tolist() == b.dims.tolist()
    _same_arrays(a.maps, b.maps)


def _agree_with_dense(alg, modules):
    """hom_space of every ordered pair, the kernel of each basis element and
    of the zero maps, direct sums of pairs, and composites, add and scale of
    basis elements, each equal to its dense reference."""
    zero = rep.zero_rep(alg)
    modules = list(modules) + [zero]
    for a in modules:
        maps = [rep.zero_morphism(a, zero), rep.zero_morphism(zero, a), rep.zero_morphism(a, a)]
        for b in modules:
            fwd, want = rep.hom_space(a, b), _dense_hom_space(a, b)
            assert len(fwd) == len(want)
            for f, g in zip(fwd, want):
                _same_arrays(f.maps, g.maps)
            bwd = rep.hom_space(b, a)
            maps += fwd[:2]
            for f in fwd[:2]:
                for g in bwd[:2]:
                    _same_arrays(g.compose(f).maps, _dense_compose(g, f).maps)
                    _same_arrays(f.compose(g).maps, _dense_compose(f, g).maps)
            if len(fwd) > 1:
                _same_arrays(fwd[0].add(fwd[1]).maps, rep.ModuleMorphism(
                    a, b, [x + y for x, y in zip(fwd[0].maps, fwd[1].maps)]).maps)
                _same_arrays(fwd[1].scale(-3).maps, rep.ModuleMorphism(
                    a, b, [-3 * x for x in fwd[1].maps]).maps)
            got, want = rep.direct_sum(alg, [a, b]), _dense_direct_sum(alg, [a, b])
            _same_module(got[0], want[0])
            for fs, gs in zip(got[1:], want[1:]):
                for f, g in zip(fs, gs):
                    _same_arrays(f.maps, g.maps)
        for f in maps:
            (k, incl), (k_ref, incl_ref) = rep.kernel(f), _dense_kernel(f)
            _same_module(k, k_ref)
            _same_arrays(incl.maps, incl_ref.maps)
            _same_arrays(f.compose(rep.identity_morphism(f.source)).maps,
                         _dense_compose(f, rep.identity_morphism(f.source)).maps)


def _rad2_path(n):
    """kA_n/rad^2 over F_101: the path 1 -> ... -> n, every length-2 path zero."""
    arrows = [(f"a{v}", str(v), str(v + 1)) for v in range(1, n)]
    return build_algebra(Quiver([str(v) for v in range(1, n + 1)], arrows),
                         [[(1, [f"a{v}", f"a{v + 1}"])] for v in range(1, n - 1)], _F)


_A9RAD2 = _rad2_path(9)


def test_vertex_sparse_ops_agree_with_dense_on_a9_rad2():
    alg = _A9RAD2
    _agree_with_dense(alg, [make(alg, v) for make in (rep.simple, rep.projective, rep.injective)
                            for v in range(9)])


@pytest.mark.parametrize("name", [p.stem for p in corpus_paths()])
def test_vertex_sparse_ops_agree_with_dense_on_corpus_summands(name):
    x = jobspec.ingest(CORPUS_DIR / f"{name}.json").realize().x
    _agree_with_dense(x.algebra, x.summands)


def test_a_map_that_is_not_arrow_stable_is_refused():
    """Over kA_2, the identity at vertex 2 and zero at vertex 1 on P_1 is no
    module map: its kernel at 1 is sent by the arrow to a non-zero vector at
    2, where the kernel is zero."""
    alg = build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), [], _F)
    p1 = rep.projective(alg, 0)
    bent = rep.ModuleMorphism(p1, p1, [np.zeros((1, 1), dtype=np.int64),
                                       np.eye(1, dtype=np.int64)])
    for kernel in (rep.kernel, _dense_kernel):
        with pytest.raises(AssertionError, match="not arrow-stable"):
            kernel(bent)


@pytest.fixture
def field_calls(monkeypatch):
    """(name, first argument) of every PrimeField.nullspace and solve_many
    call, memo hits included."""
    calls = []
    for name in ("nullspace", "solve_many"):
        orig = getattr(PrimeField, name)

        def wrapped(self, *args, _orig=orig, _name=name):
            calls.append((_name, args[0]))
            return _orig(self, *args)
        monkeypatch.setattr(PrimeField, name, wrapped)
    return calls


def test_hom_space_of_disjoint_supports_makes_no_field_call(field_calls):
    alg = _A9RAD2
    pairs = [(rep.simple(alg, 0), rep.simple(alg, 4)),
             (rep.projective(alg, 0), rep.projective(alg, 5)),
             (rep.injective(alg, 8), rep.projective(alg, 2))]
    for a, b in pairs:
        assert not set(np.flatnonzero(a.dims)) & set(np.flatnonzero(b.dims))
        assert rep.hom_space(a, b) == [] and rep.hom_space(b, a) == []
    assert field_calls == []


def test_kernel_eliminates_only_on_the_support(field_calls):
    """The kernel of a map between modules supported on a vertex set S
    eliminates once per vertex of S where both spaces are non-zero and
    solves once per arrow inside S between non-zero kernel spaces."""
    alg = _A9RAD2
    ends = alg.quiver.arrow_ends
    p3, p4, s3 = (rep.projective(alg, 2), rep.projective(alg, 3), rep.simple(alg, 2))
    p34 = rep.direct_sum(alg, [p3, p4])[0]
    cases = [rep.zero_morphism(p34, p34),              # S = {3, 4, 5}
             rep.projective_cover(s3)[0],              # P_3 -> S_3, S = {3, 4}
             rep.hom_space(p4, p3)[0],                 # P_4 -> P_3, kernel S_5
             rep.identity_morphism(p3)]
    checked = []
    for f in cases:
        support = {v for v in range(9) if f.source.dims[v] or f.target.dims[v]}
        del field_calls[:]
        k, incl = rep.kernel(f)
        both = [v for v in support if f.source.dims[v] and f.target.dims[v]]
        inside = [(s, t) for s, t in ends if s in support and t in support
                  and k.dims[s] and k.dims[t]]
        nulls = [m for name, m in field_calls if name == "nullspace"]
        solves = [m for name, m in field_calls if name == "solve_many"]
        assert len(nulls) == len(both)
        assert all(any(m is f.maps[v] for v in both) for m in nulls)
        assert len(solves) == len(inside)
        assert all(any(m is incl.maps[t] for _, t in inside) for m in solves)
        assert all(m.size for _, m in field_calls)
        checked.append((len(nulls), len(solves)))
    assert checked == [(3, 2), (1, 0), (1, 0), (2, 0)]
