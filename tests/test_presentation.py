"""Gamma = End(M) on its Gabriel quiver: the block compositions against the
per-pair reference, the arrow actions against the dense route, the
presentation's certificate, the arrow-image radical, and the seeded
isomorphism probe."""
import numpy as np
import pytest

from tiltbench import algebra_ops, axioms, fitting, jobspec, rep
from tiltbench.quiver import Algebra, Quiver, path_target

import cover_route
import dense_route
from conftest import CORPUS_DIR, corpus_paths
from test_homological import _non_split_x

CORPUS = [p.stem for p in corpus_paths()]


def _realize(name):
    return jobspec.ingest(CORPUS_DIR / f"{name}.json").realize().x


def _truncations(n):
    """k[x]/(x^n) with M the sum of all its truncations k[x]/(x^i)."""
    def part(i):
        shift = [[1 if r == c + 1 else 0 for c in range(i)] for r in range(i)]
        return {"explicit": {"dims": [i], "arrows": {"x": shift}}}
    return jobspec.parse({
        "characteristic": 101, "quiver": {"vertices": ["1"], "arrows": [["x", "1", "1"]]},
        "relations": [[[1, ["x"] * n]]], "module": [part(i) for i in range(1, n + 1)],
        "checks": []}).realize().x


def _rad2_a5_d2():
    """kA_5/rad^2 with M = Lambda + S_3 + S_1, the 2-cluster-tilting module."""
    return jobspec.parse({
        "characteristic": 101,
        "quiver": {"vertices": ["1", "2", "3", "4", "5"],
                   "arrows": [[f"a{v}", str(v), str(v + 1)] for v in range(1, 5)]},
        "relations": [[[1, [f"a{v}", f"a{v + 1}"]]] for v in range(1, 4)],
        "module": ["regular", {"simple": "3"}, {"simple": "1"}], "checks": []}).realize().x


FAMILIES = {"serial_x2_truncations": lambda: _truncations(2),
            "serial_x3_truncations": lambda: _truncations(3),
            "serial_x4_truncations": lambda: _truncations(4),
            "rad2_a5_d2": _rad2_a5_d2}


def _subcategory(name):
    return FAMILIES[name]() if name in FAMILIES else _realize(name)


def _per_pair_table(x):
    """Gamma's block table built one composition at a time, as it was built
    first.  Kept as the reference for the slabs of `dense_route.block_table`
    and for `SubcategoryX._compose`."""
    F, n = x.field, len(x.summands)
    offset, dim = {}, 0
    for i in range(n):
        for j in range(n):
            offset[i, j] = dim
            dim += len(x.hom(i, j))
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                _, left = x.hom_solver(i, k)
                out = slice(offset[i, k], offset[i, k] + left.shape[0])
                for a, g in enumerate(x.hom(j, k)):
                    for b, h in enumerate(x.hom(i, j)):
                        table[offset[j, k] + a, offset[i, j] + b, out] = (
                            left @ g.compose(h).flatten()) % F.p
    return table


@pytest.mark.parametrize("name", CORPUS)
def test_block_table_equals_the_per_pair_reference(name):
    """The dense route's slab-built table, and each composition of non-zero
    blocks that Gamma is built from, one block triple at a time."""
    x = _realize(name)
    table, _ = dense_route.block_table(x)
    want = _per_pair_table(x)
    assert table.dtype == want.dtype and np.array_equal(table, want)
    n, at, span = len(x.summands), 0, {}
    for i in range(n):
        for j in range(n):
            span[i, j], at = slice(at, at + len(x.hom(i, j))), at + len(x.hom(i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if x.hom(i, j) and x.hom(j, k) and x.hom(i, k):
                    got = x._compose(i, j, k)
                    ref = want[span[j, k], span[i, j], span[i, k]]
                    assert got.dtype == ref.dtype and np.array_equal(got, ref)


def _same_actions(got, want):
    """Per vertex and arrow: equal shape, dtype and entries."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert len(a) == len(b)
        for m, r in zip(a, b):
            assert m.shape == r.shape and m.dtype == r.dtype and np.array_equal(m, r)


@pytest.mark.parametrize("name", CORPUS + list(FAMILIES) + ["non-split"])
def test_actions_equal_the_dense_route(name):
    """On Lambda, Lambda^op, Gamma and Gamma^op, each arrow's left and right
    actions are the rows and columns of the reference table at the arrow,
    and Gamma's presentation is the dense route's."""
    x = _non_split_x() if name == "non-split" else _subcategory(name)
    g = dense_route.gamma(x)
    ref = dense_route.DenseGamma(x)
    assert (g.basis_paths, g.blocks, g.arrow_basis, g.radical_arrows) == (
        ref.basis_paths, ref.blocks, ref.arrow_basis, ref.radical_arrows)
    assert ([(a.name, a.source, a.target) for a in g.quiver.arrows]
            == [(a.name, a.source, a.target) for a in ref.quiver.arrows])
    for alg in (x.algebra, x.algebra.opposite, g, g.opposite):
        left, right = dense_route.actions(dense_route.table(alg), alg.blocks, alg.arrow_basis,
                                          alg.quiver.arrow_ends, alg.quiver.num_vertices)
        _same_actions(alg.left_actions, left)
        _same_actions(alg.right_actions, right)
        for v in range(alg.quiver.num_vertices):
            _same_actions([rep.projective(alg, v).maps], [left[v]])


@pytest.mark.parametrize("name", CORPUS)
def test_each_idempotent_is_first_in_its_block(name):
    """e_u is the first basis element of the block (u, u), on Lambda,
    Lambda^op, Gamma and Gamma^op."""
    x = _realize(name)
    g = x.endomorphism_algebra()
    for alg in (x.algebra, x.algebra.opposite, g, g.opposite):
        for u in range(alg.quiver.num_vertices):
            assert alg.basis_paths[alg.blocks[u, u][0]] == (u, ())


class _BlockQuiverGamma(Algebra):
    """Gamma on its block quiver, one arrow per basis element: the algebra
    as it was before its Gabriel presentation, kept as the reference for the
    presented Gamma's dimensions.  Each diagonal block is rebased to e_i and
    a basis of its trace-form radical (every simple here splits), each
    off-diagonal block keeps its basis, and the radical arrows are every
    arrow but the e_i, with their radical certified nilpotent on the whole
    table."""

    def __init__(self, x):
        F, n = x.field, len(x.summands)
        table, idempotents = dense_route.block_table(x)
        dim = table.shape[0]
        blocks, arrows, paths, radical, at = {}, [], [], [], 0
        change = np.zeros((dim, dim), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                idx = list(range(at, at + len(x.hom(i, j))))
                blocks[i, j], at = idx, at + len(idx)
                if i == j:
                    rad = fitting.radical_from_table(F, table[np.ix_(idx, idx, idx)],
                                                     idempotents[i][idx])
                    change[np.ix_(idx, idx)] = np.concatenate(
                        [idempotents[i][idx].reshape(-1, 1), rad], axis=1)
                else:
                    change[np.ix_(idx, idx)] = np.eye(len(idx), dtype=np.int64)
                for k in idx:
                    arrows.append((f"b{k}", str(i), str(j)))
                    paths.append((i, (k,)))
                    if k != idx[0] or i != j:
                        radical.append(k)
        # the products of the new basis elements, in the new basis
        prods = np.tensordot(np.tensordot(change.T, table, axes=1) % F.p, change,
                             axes=([1], [0])).transpose(0, 2, 1) % F.p
        inverse = F.solve_many(change, np.eye(dim, dtype=np.int64))
        assert inverse is not None, "a simple does not split"
        table = np.tensordot(prods, inverse.T, axes=1) % F.p
        eye = np.eye(dim, dtype=np.int64)
        fitting.certify_nilpotent(F, table, eye[:, radical])
        self.basis_paths = paths
        q = Quiver([str(i) for i in range(n)], arrows)
        super().__init__(F, q, blocks, list(range(dim)), radical,
                         *dense_route.actions(table, blocks, list(range(dim)), q.arrow_ends, n))

    def _reverse_into(self, op):
        op.basis_paths = [(path_target(self.quiver, p), p[1]) for p in self.basis_paths]
        return list(range(self.dim))


def _dimensions(g):
    return (algebra_ops.global_dimension(g, cap=8), algebra_ops.dominant_dimension(g, cap=8),
            *algebra_ops.selfinjective_dimensions(g, cap=8))


@pytest.mark.parametrize("name", CORPUS + list(FAMILIES))
def test_presented_dimensions_equal_the_block_quiver(name):
    x = _subcategory(name)
    g = x.endomorphism_algebra()
    # every simple splits, so Gamma has no top loops
    assert g.radical_arrows == list(range(len(g.quiver.arrows)))
    assert _dimensions(g) == _dimensions(_BlockQuiverGamma(x))


def test_serial_x4_generator_gamma_is_its_gabriel_quiver():
    g = dense_route.gamma(_realize("serial_x4_generator"))
    assert g.radical_arrows == list(range(len(g.quiver.arrows)))
    assert g.quiver.num_vertices == 4 and len(g.quiver.arrows) == 6
    # every basis element is the path of arrows it is named by, and the
    # opposite reads the same paths backwards
    table = dense_route.table(g)
    for k, (src, arrows) in enumerate(g.basis_paths):
        elem = np.eye(g.dim, dtype=np.int64)[g.blocks[src, src][0]]
        for a in arrows:
            elem = elem @ table[g.arrow_basis[a]] % g.field.p
        assert np.array_equal(elem, np.eye(g.dim, dtype=np.int64)[k])
    op = g.opposite
    assert op.basis_paths == [(path_target(g.quiver, p), p[1][::-1]) for p in g.basis_paths]


def _constructor_arguments(x):
    """What `SubcategoryX._endomorphism_algebra` gives `AbstractAlgebra`:
    the block sizes, the coordinates of each e_i and the compositions."""
    n, p = len(x.summands), x.field.p
    return ({(i, j): len(x.hom(i, j)) for i in range(n) for j in range(n)},
            [x.hom_solver(i, i)[1] @ rep.identity_morphism(s).flatten() % p
             for i, s in enumerate(x.summands)], x._compose)


def _bumped(x):
    """For each arrow pair a: i -> j, b: j -> i of Gamma, the compositions
    with e_i added to the product b a: the blocks and the diagonal blocks'
    own radicals, which never see b a, still check.  The presented basis of
    a block is the dense route's `spans` in hom coordinates, so a's
    coordinate of y is row a of the inverse of the (i, j) span, and the
    bump adds that of y times b's of x, times e_i, to x y."""
    g, ref, F = x.endomorphism_algebra(), dense_route.DenseGamma(x), x.field
    sizes, units, compose = _constructor_arguments(x)
    out = []
    for a, (i, j) in enumerate(g.quiver.arrow_ends):
        for b, (jb, ib) in enumerate(g.quiver.arrow_ends):
            if i != j and (jb, ib) == (j, i):
                coord_a = F.solve_many(ref.spans[i, j], np.eye(sizes[i, j], dtype=np.int64))[
                    g.arrow_basis[a] - g.blocks[i, j][0]]
                coord_b = F.solve_many(ref.spans[j, i], np.eye(sizes[j, i], dtype=np.int64))[
                    g.arrow_basis[b] - g.blocks[j, i][0]]

                def bumped(s, t, u, coord_a=coord_a, coord_b=coord_b, i=i, j=j):
                    slab = compose(s, t, u)
                    if (s, t, u) == (i, j, i):
                        slab = (slab + np.einsum("x,y,z->xyz", coord_b, coord_a, units[i])) % F.p
                    return slab
                out.append(bumped)
    return sizes, units, out


@pytest.mark.parametrize("name", ["serial_x3_generator", "serial_x4_generator"])
def test_gamma_rejects_a_bumped_product(name):
    x = _realize(name)
    g = x.endomorphism_algebra()
    sizes, units, compose = _constructor_arguments(x)
    again = algebra_ops.AbstractAlgebra(x.field, sizes, units, compose)
    assert again.basis_paths == g.basis_paths and again.blocks == g.blocks
    _same_actions(again.left_actions, g.left_actions)
    _same_actions(again.right_actions, g.right_actions)
    sizes, units, bumped = _bumped(x)
    assert bumped
    for product in bumped:
        with pytest.raises(AssertionError, match="outside the radical|nilpotent|span"):
            algebra_ops.AbstractAlgebra(x.field, sizes, units, product)


def _tensordot_radical(m):
    """rad(A)*m from every basis path of length >= 1, block by block,
    through the whole-path basis actions of `cover_route`.  Kept as the
    reference for the arrow-image `rep.radical_subspaces`."""
    alg, F = m.algebra, m.field
    cols = [[] for _ in m.dims]
    for (i, j), idx in alg.blocks.items():
        keep = [c for c, k in enumerate(idx) if alg.basis_paths[k][1]]
        if keep and m.dims[i] and m.dims[j]:
            gens = np.eye(len(idx), dtype=np.int64)[:, keep]
            acts = np.tensordot(gens.T, cover_route.block_action(m, i, j), axes=1) % F.p
            cols[j].append(np.concatenate(list(acts), axis=1))
    return [F.column_reduce(np.concatenate(c, axis=1)) if c
            else np.zeros((int(d), 0), dtype=np.int64) for c, d in zip(cols, m.dims)]


def _radical_test_modules(x):
    """Over Lambda: the summands, their syzygies and the kernels of the
    sampled maps.  Over Gamma: the projective leaves Hom(M, M_i), their
    syzygies and the simples', and the kernels of the leaves' hom bases."""
    lam = list(x.summands) + [rep.syzygy(s) for s in x.summands]
    lam += [rep.kernel(m.mor)[0] for m in axioms.sample_morphisms(x, 10, 42)]
    g = x.endomorphism_algebra()
    leaves = g.projective_leaves()
    gam = leaves + [rep.syzygy(m) for m in leaves + g.simples()]
    gam += [rep.kernel(f)[0] for a in leaves for b in leaves for f in rep.hom_space(a, b)]
    return lam, gam


@pytest.mark.parametrize("name", CORPUS)
def test_arrow_radical_equals_the_tensordot_route(name):
    x = _realize(name)
    lam, gam = _radical_test_modules(x)
    g = x.endomorphism_algebra()
    assert g.radical_arrows == list(range(len(g.quiver.arrows)))
    for m in lam + gam + [rep.dualize(m) for m in gam]:
        got, want = rep.radical_subspaces(m), _tensordot_radical(m)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("name, d, unmatched", [("serial_x4_generator", 1, 16),
                                                ("nakayama_a3_rad2_bimodule", 2, 4)])
def test_isomorphic_pairs_never_reach_the_matching_route(name, d, unmatched, monkeypatch):
    """At the corpus's 100 trials, classify_d_precluster's equal-dimension
    pairs that are isomorphic are settled by a hom-basis element or the
    seeded combination; only the non-isomorphic ones are matched."""
    real = rep._is_isomorphic_by_matching
    seen = []

    def matching(a, b, *args, **kwargs):
        got = real(a, b, *args, **kwargs)
        if a.dims.tolist() == b.dims.tolist():
            seen.append(got)
        return got

    monkeypatch.setattr(rep, "_is_isomorphic_by_matching", matching)
    x = _realize(name)
    assert axioms.classify_d_precluster(x, d, trials=100, seed=42).status == "certified-pass"
    assert seen.count(True) == 0 and seen.count(False) == unmatched


def test_the_seeded_probe_finds_an_isomorphism_no_basis_element_is(a3rad2, monkeypatch):
    # End(S (+) S) has the matrix units as its hom basis: none is bijective
    s = rep.simple(a3rad2, 0)
    twice = rep.sum_module(a3rad2, [s, s])
    assert not any(f.is_isomorphism() for f in rep.hom_space(twice, twice))
    monkeypatch.setattr(rep, "_is_isomorphic_by_matching",
                        lambda *a, **k: pytest.fail("reached the matching route"))
    ok, f = rep.is_isomorphic(twice, twice, with_map=True)
    assert ok and f.is_isomorphism()
