"""Ext, the translate, and endomorphism-ring dimension invariants."""
import numpy as np
import pytest

from tiltbench import algebra_ops, axioms, jobspec, report, rep, subcat
from tiltbench.algebra_ops import DimBound
from tiltbench.fitting import RadicalPreconditionViolated
from tiltbench.linalg import PrimeField
from tiltbench.quiver import Quiver, build_algebra, path_target

import cover_route
from conftest import CORPUS_DIR, corpus_paths, make_x, projectives


class TestExt:
    def test_a2(self, a2):
        S1, S2 = rep.simple(a2, 0), rep.simple(a2, 1)
        P1 = rep.projective(a2, 0)
        assert subcat.ext_dim(S1, S2, 1) == 1
        assert subcat.ext_dim(S1, S1, 1) == 0
        assert subcat.ext_dim(S1, S2, 2) == 0  # hereditary
        assert subcat.ext_dim(S1, P1, 1) == 0
        assert subcat.ext_dim(P1, S2, 1) == 0  # projective source
        assert subcat.ext_dim(S1, S1, 0) == 1  # Ext^0 = Hom

    def test_periodic_over_dual_numbers(self, kx2):
        S = rep.simple(kx2, 0)
        for i in range(4):
            assert subcat.ext_dim(S, S, i) == 1

    def test_a3_rad2(self, a3rad2):
        P = [rep.projective(a3rad2, v) for v in range(3)]
        S = [rep.simple(a3rad2, v) for v in range(3)]
        # Lambda + DLambda is 2-rigid
        for x in P + [S[0]]:
            for y in P + [S[0]]:
                assert subcat.ext_dim(x, y, 1) == 0
        assert subcat.ext_dim(S[0], S[1], 1) == 1
        # syzygy chain S1 -> S2 -> S3 shifts degrees
        assert subcat.ext_dim(S[0], S[2], 2) == 1
        assert subcat.ext_dim(S[0], S[2], 3) == 0

    def test_coboundaries_are_built_once(self, field, monkeypatch):
        # resolutions are shared per algebra, so the counts start from zero
        # only on an algebra no other test has resolved over
        q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        a3rad2 = build_algebra(q, [[(1, ["a", "b"])]], field)
        built = []
        real = subcat._hom_complex_diff
        monkeypatch.setattr(subcat, "_hom_complex_diff",
                            lambda diff, hi, lo, b: built.append(diff) or real(diff, hi, lo, b))
        S = [rep.simple(a3rad2, v) for v in range(3)]
        assert subcat.ext_dim(S[0], S[2], 2) == 1
        assert len(built) == 2  # delta_1 and delta_2
        assert subcat.ext_dim(S[0], S[2], 2) == 1
        assert len(built) == 2
        # a module equal in content to S[2] shares its coboundaries
        assert subcat.ext_dim(S[0], rep.simple(a3rad2, 2), 3) == 0
        assert len(built) == 3  # only delta_3 is new


class TestTranslate:
    def test_a2(self, a2):
        S1, S2 = rep.simple(a2, 0), rep.simple(a2, 1)
        assert rep.is_isomorphic(subcat.tau(S1), S2)
        assert rep.is_isomorphic(subcat.tau_inverse(S2), S1)
        assert subcat.tau(rep.projective(a2, 0)).is_zero
        assert subcat.tau_inverse(rep.injective(a2, 0)).is_zero

    def test_stable_over_dual_numbers(self, kx2):
        S = rep.simple(kx2, 0)
        assert rep.is_isomorphic(subcat.tau(S), S)

    def test_higher_translate(self, a3rad2):
        S = [rep.simple(a3rad2, v) for v in range(3)]
        assert rep.is_isomorphic(subcat.tau_d(S[0], 2), S[2])
        assert rep.is_isomorphic(subcat.tau_d_inverse(S[2], 2), S[0])

    def test_translate_is_dual_of_transpose(self, a2):
        S1 = rep.simple(a2, 0)
        assert rep.is_isomorphic(subcat.tau(S1),
                                 rep.dualize(subcat.transpose(S1)))
        assert subcat.transpose(rep.projective(a2, 0)).is_zero

    def test_hereditary_a3_orbit(self, hereditary_a3):
        # tau-inverse orbit of P3 climbs to the injective at the source
        P3 = rep.projective(hereditary_a3, 2)
        S2 = rep.simple(hereditary_a3, 1)
        I1 = rep.injective(hereditary_a3, 0)
        t1 = subcat.tau_inverse(P3)
        assert rep.is_isomorphic(t1, S2)
        assert rep.is_isomorphic(subcat.tau_inverse(t1), I1)


class TestDimBound:
    def test_exact(self):
        b = DimBound.exact(2)
        assert b.ge(2) and b.ge(1) and not b.ge(3)
        assert b.le(2) and b.le(5) and not b.le(1)
        assert b == 2 and b != 3

    def test_lower_bound_is_partial(self):
        b = DimBound.at_least(21)
        assert b.ge(4)
        assert not b.le(20)
        with pytest.raises(ValueError):
            b.le(30)  # the cap hid the answer

    def test_infinite(self):
        b = DimBound.infinite()
        assert b.ge(10**6) and not b.le(10**6)
        assert str(b) == "inf"


def gamma_of(alg, parts):
    return make_x(alg, parts).endomorphism_algebra()


class TestAlgebraDimensions:
    def test_semisimple(self, semisimple2):
        g = gamma_of(semisimple2, projectives(semisimple2))
        assert algebra_ops.global_dimension(g) == 0
        assert algebra_ops.dominant_dimension(g).kind == "infinite"

    def test_hereditary_a2(self, a2):
        g = gamma_of(a2, projectives(a2))  # End(Lambda) = Lambda^op
        assert algebra_ops.global_dimension(g) == 1
        assert algebra_ops.dominant_dimension(g) == 1

    def test_a3_rad2_regular(self, a3rad2):
        g = gamma_of(a3rad2, projectives(a3rad2))
        assert algebra_ops.global_dimension(g) == 2
        assert algebra_ops.dominant_dimension(g) == 2

    def test_selfinjective(self, kx2):
        g = gamma_of(kx2, [rep.projective(kx2, 0)])
        assert algebra_ops.global_dimension(g).kind in ("infinite", "at_least")
        assert algebra_ops.dominant_dimension(g).kind == "infinite"
        left, right = algebra_ops.selfinjective_dimensions(g)
        assert left == 0 and right == 0

    def test_auslander_shape(self, kx2):
        # End of an additive generator: small global, large dominant
        g = gamma_of(kx2, [rep.projective(kx2, 0), rep.simple(kx2, 0)])
        assert algebra_ops.global_dimension(g) == 2
        assert algebra_ops.dominant_dimension(g).ge(2)

    def test_module_dimensions(self, a3rad2):
        g = gamma_of(a3rad2, projectives(a3rad2))
        for s in g.simples():
            assert algebra_ops.projective_dimension(s).le(2)

    def test_projective_dimension_infinite(self, kx2):
        g = gamma_of(kx2, [rep.projective(kx2, 0)])
        s = g.simples()[0]
        pd = algebra_ops.projective_dimension(s, cap=8)
        assert pd.kind in ("infinite", "at_least")
        assert pd.ge(8)

    def test_modules_are_representations(self, a3rad2):
        g = gamma_of(a3rad2, projectives(a3rad2) + [rep.simple(a3rad2, 0)])
        assert g.quiver.num_vertices == 4
        # the Gabriel quiver of Gamma: rad/rad^2 is 3-dimensional
        assert len(g.quiver.arrows) == 3 and g.dim == 7
        for m in g.projective_leaves() + g.simples():
            assert isinstance(m, rep.Representation) and m.algebra is g
        assert [s.total_dim for s in g.simples()] == [1, 1, 1, 1]
        # Gamma e_i has the block e_j Gamma e_i = Hom(M_i, M_j) at vertex j
        leaf = g.projective_leaves()[3]
        assert leaf.dims.tolist() == [len(g.blocks[3, j]) for j in range(4)]
        dual = rep.dualize(leaf)
        assert dual.algebra is g.opposite and g.opposite.opposite is g
        assert ([(a.target, a.source) for a in g.quiver.arrows]
                == [(a.source, a.target) for a in g.opposite.quiver.arrows])

    def test_dimensions_computed_once(self, a3rad2):
        g = gamma_of(a3rad2, projectives(a3rad2))
        for fn in (algebra_ops.global_dimension, algebra_ops.dominant_dimension,
                   algebra_ops.selfinjective_dimensions):
            assert fn(g, cap=6) is fn(g, cap=6)
            assert fn(g, cap=6) is not fn(g, cap=7)

    def test_element_outside_every_block(self, field):
        # basis (1, e_1) of k x k: the unit lies in no single block
        table = np.zeros((2, 2, 2), dtype=np.int64)
        table[0, 0, 0] = table[0, 1, 1] = table[1, 0, 1] = table[1, 1, 1] = 1
        e1, e2 = np.array([0, 1]), np.array([1, -1])
        with pytest.raises(ValueError, match="no single block"):
            algebra_ops.AbstractAlgebra(field, table, np.array([1, 0]), [e1, e2])


def test_auslander_algebra_at_its_dimension():
    # M = P + S over k[x]/(x^2) at p = 5: dim Gamma = 2 + 1 + 1 + 1 = 5 = p,
    # too small for a trace form on all of Gamma, large enough for each
    # diagonal block End(P) = k[x]/(x^2) and End(S) = k
    F5 = PrimeField(5)
    alg = build_algebra(Quiver(["*"], [("x", "*", "*")]), [[(1, ["x", "x"])]], F5)
    g = gamma_of(alg, [rep.projective(alg, 0), rep.simple(alg, 0)])
    assert g.dim == 5
    assert algebra_ops.global_dimension(g) == 2
    assert algebra_ops.dominant_dimension(g) == 2
    assert algebra_ops.selfinjective_dimensions(g) == (2, 2)
    assert sum(r.shape[1] for r in rep.radical_subspaces(g.regular_module())) == 3


A2 = {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]]}
A3 = {"vertices": ["1", "2", "3"], "arrows": [["a", "1", "2"], ["b", "2", "3"]]}
KRONECKER = {"vertices": ["1", "2"], "arrows": [["a", "1", "2"], ["b", "1", "2"]]}


def job(quiver, module, checks=()):
    return jobspec.parse({"characteristic": 101, "quiver": quiver,
                          "module": module, "checks": list(checks)})


def verdicts(spec):
    return [(v.name, v.status) for v in report.run(spec, trials=20).verdicts]


class TestSummandNormalization:
    """A part of M may be decomposable or repeat an earlier summand; the
    subcategory splits and deduplicates it before building End(M)."""

    def test_decomposable_part_is_split(self):
        # S1 (+) S2 as one explicit part: M = P1 + P2 + S1 + S2 is an additive
        # generator of mod kA2, so End(M) is its Auslander algebra
        spec = job(A2, ["regular", {"explicit": {"dims": [1, 1], "arrows": {"a": [[0]]}}}],
                   ["gen-cogen-ff", {"check": "d-cluster-tilting", "d": 1}])
        x = spec.realize().x
        assert [s.dims.tolist() for s in x.summands] == [[1, 1], [0, 1], [1, 0]]
        assert algebra_ops.global_dimension(x.endomorphism_algebra()) == 2
        assert verdicts(spec) == [("gen-cogen-ff", "certified-pass"),
                                  ("1-cluster-tilting", "certified-pass")]

    def test_repeated_summand_is_dropped(self):
        checks = ["gen-cogen-ff", {"check": "d-precluster", "d": 1},
                  {"check": "d-cluster-tilting", "d": 1}]
        dup = job(A3, ["regular", "coregular"], checks)  # P1 = I3
        plain = job(A3, ["regular", {"injective": "1"}, {"injective": "2"}], checks)
        assert len(dup.realize().x.summands) == len(plain.realize().x.summands) == 5
        assert verdicts(dup) == verdicts(plain)

    def test_given_indecomposables_keep_their_objects(self, a3rad2):
        parts = projectives(a3rad2)
        x = make_x(a3rad2, parts)
        assert all(s is p for s, p in zip(x.summands, parts))


def _non_split_gamma():
    # x^2 - 2 is irreducible mod 101, so End of the explicit summand is the
    # field F_{101^2} and Gamma has a simple of dimension 2 over F_101
    spec = job(KRONECKER, ["regular", "coregular", {"explicit": {
        "dims": [2, 2], "arrows": {"a": [[1, 0], [0, 1]], "b": [[0, 2], [1, 0]]}}}])
    return spec.realize().x.endomorphism_algebra()


def test_non_split_simple():
    g = _non_split_gamma()
    assert g.dim == 22
    # on its Gabriel quiver with one top loop, at the vertex of the
    # 2-dimensional simple; the loop is a basis element but not radical
    loops = [m for m, (s, t) in enumerate(g.quiver.arrow_ends) if s == t]
    assert len(loops) == 1 and loops[0] not in g.radical_arrows
    assert g.radical_arrows == [m for m in range(len(g.quiver.arrows)) if m not in loops]
    (v, _), = [g.quiver.arrow_ends[m] for m in loops]
    assert g.simples()[v].total_dim == 2
    assert g.basis_paths[g.arrow_basis[loops[0]]] == (v, (loops[0],))
    assert sorted(s.total_dim for s in g.simples()) == [1, 1, 1, 1, 2]
    assert algebra_ops.global_dimension(g, cap=8) == 3
    assert algebra_ops.dominant_dimension(g, cap=8) == 2
    assert algebra_ops.selfinjective_dimensions(g, cap=8) == (3, 3)


def test_classifiers_share_one_gamma(a3rad2, monkeypatch):
    seen = []

    def recording(real):
        def wrapped(g, *args, **kwargs):
            seen.append(g)
            return real(g, *args, **kwargs)
        return wrapped

    for name in ("global_dimension", "dominant_dimension", "selfinjective_dimensions"):
        monkeypatch.setattr(algebra_ops, name, recording(getattr(algebra_ops, name)))
    x = make_x(a3rad2, projectives(a3rad2) + [rep.simple(a3rad2, 0)])
    axioms.classify_gen_cogen_ff(x, 5)
    axioms.classify_d_precluster(x, 1, 5)
    axioms.classify_d_cluster_tilting(x, 1, trials=5)
    axioms.replay_witness(x, {"kind": "gamma-dimensions"}, d=1)
    assert len(seen) >= 5
    assert all(g is x.endomorphism_algebra() for g in seen)


def orthogonal_by_pairs(g, ids):
    """Reference: e_i * e_j against e_i or 0, one product per pair."""
    zero = np.zeros_like(ids[0])
    return all(np.array_equal(np.einsum("i,j,ijk->k", e, f, g.table) % g.field.p,
                              e if i == j else zero)
               for i, e in enumerate(ids) for j, f in enumerate(ids))


def test_gamma_rejects_perturbed_idempotents(corpus):
    g = corpus.fresh_x("nakayama_a3_rad2_bimodule").x.endomorphism_algebra()
    F, ids = g.field, g.idempotents
    assert len(ids) >= 2
    nudged = ids[0].copy()
    nudged[np.flatnonzero(ids[1])[0]] = 1
    cases = {"valid": ids,
             # idempotent, but e_1 (e_0 + e_1) = e_1
             "sum of two": [(ids[0] + ids[1]) % F.p] + ids[1:],
             "not idempotent": [2 * ids[0] % F.p] + ids[1:],
             "one entry moved": [nudged] + ids[1:],
             # orthogonal to every e_i, but the sum misses e_0
             "zero": [0 * ids[0]] + ids[1:]}
    for name, perturbed in cases.items():
        if not orthogonal_by_pairs(g, perturbed):
            with pytest.raises(ValueError, match="idempotents are not orthogonal"):
                algebra_ops.AbstractAlgebra(F, g.table, g.unit, perturbed)
        elif name != "valid":
            with pytest.raises(ValueError, match="idempotents do not sum to the unit"):
                algebra_ops.AbstractAlgebra(F, g.table, g.unit, perturbed)
        else:
            algebra_ops.AbstractAlgebra(F, g.table, g.unit, perturbed)
    assert [orthogonal_by_pairs(g, c) for c in cases.values()] == [True, False, False, False, True]


@pytest.mark.parametrize("name", ["serial_x3_generator", "serial_x4_generator",
                                  "nakayama_a3_rad2_bimodule", "non-split"])
def test_ext_over_gamma(name):
    """Ext over Gamma, whose basis is not a path basis of a bound quiver:
    dim Ext^1(S_i, S_j) over F_p is the number of radical arrows i -> j,
    also on the non-split Gamma, whose top loop is not counted; pd S_i is
    the top degree k with Ext^k(S_i, S_j) != 0 for some j, and Tr Tr S_i
    is S_i when S_i is not projective."""
    g = _non_split_gamma() if name == "non-split" else _realize(name).endomorphism_algebra()
    simples = g.simples()
    arrows = np.zeros((len(simples),) * 2, dtype=np.int64)
    for m in g.radical_arrows:
        arrows[g.quiver.arrow_ends[m]] += 1
    assert [[subcat.ext_dim(a, b, 1) for b in simples] for a in simples] == arrows.tolist()
    for a in simples:
        pd = algebra_ops.projective_dimension(a, cap=8)
        assert pd.kind == "exact"
        top = max(k for k in range(pd.value + 3) for b in simples if subcat.ext_dim(a, b, k))
        assert top == pd.value
        if pd.value:
            assert rep.is_isomorphic(subcat.transpose(subcat.transpose(a)), a)


def test_small_field_precondition():
    F3 = PrimeField(3)
    q = Quiver(["*"], [("x", "*", "*")])
    alg = build_algebra(q, [[(1, ["x", "x", "x"])]], F3)  # dim 3 = p
    with pytest.raises(RadicalPreconditionViolated) as ei:
        rep.decompose(rep.projective(alg, 0))
    assert ei.value.p == 3
    assert "p=" in str(ei.value)  # suggests a usable prime


# -- module construction on the End(M) classifier path ------------------------


def _realize(name):
    return jobspec.ingest(CORPUS_DIR / f"{name}.json").realize().x


def _reverse_path_map(algebra):
    """Matrix sending basis-path coordinates to the coordinates, in the
    opposite's basis, of the reversed paths, each multiplied out arrow by
    arrow in the opposite's table.  Kept as the reference for the
    permutation into the opposite's basis order that `subcat.transpose`
    applies (`Algebra._opposite_basis`)."""
    op = algebra.opposite
    m = np.zeros((op.dim, algebra.dim), dtype=np.int64)
    for i, (src, arrows) in enumerate(algebra.basis_paths):
        cur = np.zeros(op.dim, dtype=np.int64)
        cur[op.path_position[path_target(algebra.quiver, (src, arrows)), ()]] = 1
        for a in reversed(arrows):
            cur = (op.table[op.arrow_basis[a]].T @ cur) % op.field.p
        m[:, i] = cur
    return m


def _gen_positions(algebra, verts):
    """(vertex, coordinate offset inside that vertex) of each part generator
    in the direct sum of projectives over verts."""
    nv = algebra.quiver.num_vertices
    offs = [0] * nv
    out = []
    for v in verts:
        out.append((v, offs[v] + algebra.blocks[v, v].index(algebra.path_position[v, ()])))
        for w in range(nv):
            offs[w] += len(algebra.blocks[v, w])
    return out


def _yoneda_right_mult(algebra, elem, src_vertex, tgt_vertex):
    """Right multiplication by an element of e_t * A * e_s, read off the
    dense table, as the components, vertex by vertex, of a morphism
    P(tgt_vertex) -> P(src_vertex)."""
    F = algebra.field
    rm = np.einsum("j,ljk->kl", elem % F.p, algebra.table) % F.p
    maps = []
    for w in range(algebra.quiver.num_vertices):
        bs, bt = algebra.blocks[src_vertex, w], algebra.blocks[tgt_vertex, w]
        maps.append(rm[np.ix_(bs, bt)] if bs and bt
                    else np.zeros((len(bs), len(bt)), dtype=np.int64))
    return maps


def _transpose_by_inclusions(a):
    """The transpose assembled as a sum over the blocks of the presentation
    of inclusion o block o projection between the opposite projectives,
    each block right multiplication in the opposite's table.  Kept as the
    reference for `subcat.transpose`, which reads the dual map off
    Hom(d_1, Lambda)."""
    algebra = a.algebra
    op = algebra.opposite
    F = algebra.field
    diff, parts1, parts0 = subcat._min_presentation(a)
    if not parts0:
        return rep.zero_rep(op)
    rmap = _reverse_path_map(algebra)
    p0 = [rep.projective(algebra, v) for v in parts0]
    offs0, run = [], np.zeros(algebra.quiver.num_vertices, dtype=np.int64)
    for p in p0:
        offs0.append(run.copy())
        run += p.dims
    src_total, _, src_projs = rep.direct_sum(op, [rep.projective(op, v) for v in parts0])
    dst_total, dst_incls, _ = rep.direct_sum(op, [rep.projective(op, v) for v in parts1])
    g = rep.zero_morphism(src_total, dst_total)
    for j, (vj, coord) in enumerate(_gen_positions(algebra, parts1)):
        x = diff[vj][:, coord]
        for i, vi in enumerate(parts0):
            elem = np.zeros(algebra.dim, dtype=np.int64)
            lo = int(offs0[i][vj])
            for local, gpos in enumerate(algebra.blocks[vi, vj]):
                elem[gpos] = x[lo + local]
            if not elem.any():
                continue
            block = rep.ModuleMorphism(
                rep.projective(op, parts0[i]), rep.projective(op, parts1[j]),
                _yoneda_right_mult(op, (rmap @ elem) % F.p, parts1[j], parts0[i]))
            g = g.add(dst_incls[j].compose(block).compose(src_projs[i]))
    return rep.cokernel(g)[0]


# the square 1 -> 2 -> 4, 1 -> 3 -> 4: with no relations the block e_4 A e_1
# holds ad and bc, which the opposite's basis lists the other way round (cb
# before da), so its transposes need the reordering into the opposite's basis
_SQUARE = Quiver(["1", "2", "3", "4"],
                 [("a", "1", "2"), ("d", "2", "4"), ("b", "1", "3"), ("c", "3", "4")])
_SQUARE_RELATIONS = {
    "square_free": [],
    "square_commutative": [[(1, ["a", "d"]), (-1, ["b", "c"])]],
    "square_zero_ad": [[(1, ["a", "d"])]],
}


def _transpose_test_modules(name):
    """A corpus job's summands and their sum, so that presentations have
    several blocks; over a square algebra its simples, projectives and
    injectives, their sum, syzygies and cosyzygies.  Each with its dual."""
    if name in _SQUARE_RELATIONS:
        alg = build_algebra(_SQUARE, _SQUARE_RELATIONS[name], PrimeField(101))
        verts = range(alg.quiver.num_vertices)
        base = ([rep.simple(alg, v) for v in verts] + alg.projective_leaves()
                + [rep.injective(alg, v) for v in verts])
        mods = (base + [rep.sum_module(alg, base)] + [rep.syzygy(m) for m in base]
                + [rep.cosyzygy(m) for m in base])
    else:
        x = _realize(name)
        mods = x.summands + [rep.sum_module(x.algebra, x.summands)]
    return [m for s in mods for m in (s, rep.dualize(s))]


@pytest.mark.parametrize("name", [p.stem for p in corpus_paths()] + list(_SQUARE_RELATIONS))
def test_transpose_matches_the_inclusion_assembly(name):
    for m in _transpose_test_modules(name):
        assert (subcat._module_key(subcat.transpose(m))
                == subcat._module_key(_transpose_by_inclusions(m)))


def _gamma_test_modules(g):
    simples = g.simples()
    return (simples + g.projective_leaves() + [g.regular_module()]
            + [rep.dualize(leaf) for leaf in g.opposite.projective_leaves()]
            + [rep.syzygy(s) for s in simples]
            + [rep.cosyzygy(s) for s in simples])


@pytest.mark.parametrize("name", ["serial_x3_generator", "nakayama_a3_rad2_bimodule",
                                  "hereditary_a3_proj_inj"])
def test_cover_radical_from_leaf_radicals(name):
    """The radical a cover is certified against, assembled block diagonally
    from the leaves' radicals, spans rad(cover.source)."""
    gamma = _realize(name).endomorphism_algebra()
    checked = 0
    for g in (gamma, gamma.opposite):
        F, leaves, leaf_rads = g.field, g.projective_leaves(), g.leaf_radicals()
        for m in _gamma_test_modules(g):
            cover = rep.projective_cover(m)[0]
            # one leaf per copy of its simple in top(m), in leaf order
            rad_m = rep.radical_subspaces(m)
            picked = [i for i in range(len(leaves))
                      for _ in range(int(m.dims[i]) - rad_m[i].shape[1])]
            assert (subcat._module_key(cover.source) == subcat._module_key(
                rep.sum_module(g, [leaves[i] for i in picked])))
            for v, want in enumerate(rep.radical_subspaces(cover.source)):
                got = rep.block_diagonal([leaf_rads[i][v] for i in picked])
                assert got.shape[1] == want.shape[1]
                assert F.column_space_contains(want, got)
                assert F.column_space_contains(got, want)
            checked += 1
    assert checked


def _greedy_cover_all_vertices(m):
    """The cover's greedy loop as it was written first: each generator u at
    vertex i re-reduces the covered part at every vertex j, and every
    representative of top(m) is tested against it.  Kept as the reference
    for `projective_cover`, which grows only the part at i, and only while
    representatives at i remain."""
    g = m.algebra
    F = g.field
    covered = rep.radical_subspaces(m)
    picked = []
    cols = [[] for _ in m.dims]
    for i in range(len(m.dims)):
        for u in F.quotient_projection(covered[i], int(m.dims[i]))[1].T:
            if F.column_space_contains(covered[i], u.reshape(-1, 1)):
                continue
            for j in range(len(m.dims)):
                lift = np.tensordot(cover_route.block_action(m, i, j), u,
                                    axes=([2], [0])).T % F.p
                covered[j] = F.column_reduce(np.concatenate([covered[j], lift], axis=1))
                cols[j].append(lift)
            picked.append(i)
    source = rep.sum_module(g, [g.projective_leaves()[i] for i in picked])
    maps = [np.concatenate(c, axis=1) if c else np.zeros((int(d), 0), dtype=np.int64)
            for c, d in zip(cols, m.dims)]
    return source, maps


@pytest.mark.parametrize("name", ["serial_x3_generator", "nakayama_a3_rad2_bimodule",
                                  "hereditary_a3_proj_inj"])
def test_stored_cover_equals_the_all_vertex_loop(name, monkeypatch):
    """Over Gamma and Gamma^op: the cover equals the reference loop's, and a
    second call on a module equal in content builds nothing and ends at
    the caller's module."""
    gamma = _realize(name).endomorphism_algebra()
    built = []
    real = rep._projective_cover
    monkeypatch.setattr(rep, "_projective_cover", lambda m: built.append(m) or real(m))
    checked = 0
    for g in (gamma, gamma.opposite):
        for m in _gamma_test_modules(g):
            cover, verts = rep.projective_cover(m)
            source, maps = _greedy_cover_all_vertices(m)
            assert rep.module_key(cover.source) == rep.module_key(source)
            assert len(cover.maps) == len(maps)
            for got, want in zip(cover.maps, maps):
                assert got.shape == want.shape and np.array_equal(got, want)
                assert not got.flags.writeable
            twin = rep.Representation(g, m.dims.copy(), [a.copy() for a in m.maps])
            before = len(built)
            again, again_verts = rep.projective_cover(twin)
            assert len(built) == before and again_verts == verts
            assert again.target is twin and again.source.dims is cover.source.dims
            assert all(a is b for a, b in zip(again.source.maps, cover.source.maps))
            assert all(a is b for a, b in zip(again.maps, cover.maps))
            checked += 1
    assert checked and built


def test_is_projective_matches_the_cover():
    """is_projective, read off the dimensions of top(m), agrees with the
    certified projective cover, also where a simple top has dimension 2;
    the cover's source has dimension sum_i (multiplicity of the top of
    Gamma e_i in top(m)) * dim Gamma e_i."""
    non_split = job(KRONECKER, ["regular", "coregular", {"explicit": {
        "dims": [2, 2], "arrows": {"a": [[1, 0], [0, 1]], "b": [[0, 2], [1, 0]]}}}])
    gammas = [_realize(name).endomorphism_algebra()
              for name in ("serial_x3_generator", "nakayama_a3_rad2_bimodule")]
    gammas.append(non_split.realize().x.endomorphism_algebra())
    seen, split_tops = set(), set()
    for gamma in gammas:
        for g in (gamma, gamma.opposite):
            leaves, leaf_rads = g.projective_leaves(), g.leaf_radicals()
            tops = [int(leaf.dims[i]) - rad[i].shape[1]
                    for i, (leaf, rad) in enumerate(zip(leaves, leaf_rads))]
            for m in _gamma_test_modules(g):
                rad_m = rep.radical_subspaces(m)
                source = rep.projective_cover(m)[0].source
                assert source.total_dim == sum(
                    (int(m.dims[i]) - rad_m[i].shape[1]) // top * leaf.total_dim
                    for i, (top, leaf) in enumerate(zip(tops, leaves)))
                want = source.total_dim == m.total_dim
                assert algebra_ops.is_projective(m) == want
                seen.add(want)
            split_tops.update(tops)
    assert seen == {True, False} and split_tops == {1, 2}


@pytest.mark.parametrize("name, d", [("serial_x4_generator", 1),
                                     ("nakayama_a3_rad2_bimodule", 2)])
def test_precluster_rebuilds_no_module(name, d, monkeypatch):
    """Counts, not times: `is_isomorphic` on the test modules never
    decomposes, and no cover over Gamma takes the radical of its own
    source.  Ten trials, the benchmark's budget: every equal-dimension pair
    among these test modules is isomorphic by a hom-basis element.  With
    more sampled kernels and cokernels come equal-dimension pairs that are
    not isomorphic, and those the matching route has to decompose."""
    x = _realize(name)
    counts = {"is_isomorphic": 0, "equal_dims": 0, "decompose_inside": 0}
    depth = [0]
    real_iso, real_decompose = rep.is_isomorphic, rep.decompose

    def is_isomorphic(a, b, *args, **kwargs):
        counts["is_isomorphic"] += 1
        counts["equal_dims"] += a.dims.tolist() == b.dims.tolist()
        depth[0] += 1
        try:
            return real_iso(a, b, *args, **kwargs)
        finally:
            depth[0] -= 1

    def decompose(*args, **kwargs):
        counts["decompose_inside"] += depth[0] > 0
        return real_decompose(*args, **kwargs)

    monkeypatch.setattr(rep, "is_isomorphic", is_isomorphic)
    monkeypatch.setattr(rep, "decompose", decompose)
    sources, radical_args = [], []
    real_cover, real_radical = rep.projective_cover, rep.radical_subspaces

    def projective_cover(m):
        cover, verts = real_cover(m)
        sources.append(cover.source)
        return cover, verts

    monkeypatch.setattr(rep, "projective_cover", projective_cover)
    monkeypatch.setattr(rep, "radical_subspaces",
                        lambda m: radical_args.append(m) or real_radical(m))

    assert axioms.classify_d_precluster(x, d, trials=10, seed=42).status == "certified-pass"
    assert counts["is_isomorphic"] and counts["equal_dims"]
    assert counts["decompose_inside"] == 0
    assert sources and radical_args
    assert not any(m is s for m in radical_args for s in sources)


def _arrow_radical(m):
    """rad(m) over a bound quiver algebra as the sum of the arrow images."""
    F, qv = m.field, m.algebra.quiver
    cols = [[] for _ in m.dims]
    for i, a in enumerate(qv.arrows):
        cols[qv.vertex_index[a.target]].append(m.maps[i])
    return [F.column_reduce(np.concatenate(c, axis=1) % F.p) if c
            else np.zeros((int(d), 0), dtype=np.int64) for c, d in zip(cols, m.dims)]


def _lambda_cover(m):
    """The projective cover over a bound quiver algebra as it was written
    before Lambda and Gamma shared one: every representative of top(m)
    becomes a generator, each basis path acts by its product of arrow
    matrices, and the kernel is certified against the radical of the
    cover's own source.  Kept as the reference for `rep.projective_cover`
    over Lambda."""
    alg, F = m.algebra, m.field
    if m.is_zero:
        return [np.zeros((int(d), 0), dtype=np.int64) for d in m.dims], []
    rads = _arrow_radical(m)
    verts, gens = [], []
    for v in range(len(m.dims)):
        reps = F.quotient_projection(rads[v], int(m.dims[v]))[1]
        for j in range(reps.shape[1]):
            verts.append(v)
            gens.append(reps[:, j])
    total = rep.sum_module(alg, [rep.projective(alg, v) for v in verts])
    maps = [np.zeros((int(m.dims[w]), int(total.dims[w])), dtype=np.int64)
            for w in range(len(m.dims))]
    off = np.zeros(len(m.dims), dtype=np.int64)
    for v, gen in zip(verts, gens):
        for w in range(len(m.dims)):
            for local, k in enumerate(alg.blocks[v, w]):
                src, arrows = alg.basis_paths[k]
                act = np.eye(int(m.dims[src]), dtype=np.int64)
                for a in arrows:
                    act = (m.maps[a] @ act) % F.p
                maps[w][:, int(off[w]) + local] = (act @ gen) % F.p
        off += rep.projective(alg, v).dims
    cover = rep.ModuleMorphism(total, m, maps)
    assert cover.is_surjective()
    for v, (f, rad) in enumerate(zip(cover.maps, _arrow_radical(total))):
        ker = F.nullspace(f)
        assert not ker.shape[1] or F.column_space_contains(rad, ker)
    return cover.maps, verts


def _same_maps(got, want):
    return len(got) == len(want) and all(
        a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(got, want))


@pytest.mark.parametrize("name", [p.stem for p in corpus_paths()])
def test_lambda_cover_equals_the_arrow_radical_reference(name):
    """Over Lambda and Lambda^op, on the test modules at 10 trials and seed
    42 and on their syzygies and cosyzygies: the one cover gives the
    reference's maps and vertex lists byte for byte, and each envelope is
    the dual of the reference cover of the dual module."""
    x = _realize(name)
    checked = 0
    for side in (x, x.op):
        mods = [a for a, _ in axioms.generate_test_modules(side, trials=10, seed=42)]
        for a in mods + [rep.syzygy(a) for a in mods] + [rep.cosyzygy(a) for a in mods]:
            cover, verts = rep.projective_cover(a)
            want_maps, want_verts = _lambda_cover(a)
            assert verts == want_verts and _same_maps(cover.maps, want_maps)
            env, env_verts = rep.injective_envelope(a)
            want_maps, want_verts = _lambda_cover(rep.dualize(a))
            assert env_verts == want_verts
            assert _same_maps(env.maps, [f.T for f in want_maps])
            checked += 1
    assert checked
