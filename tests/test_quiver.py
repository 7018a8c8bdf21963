"""Bound quiver algebras: path bases, relations, opposites."""
import numpy as np
import pytest

from tiltbench import jobspec, quiver, rep
from tiltbench.linalg import PrimeField
from tiltbench.quiver import NotAdmissible, Quiver, build_algebra

import dense_route
from conftest import corpus_paths


def arrow_position(alg, name):
    """Basis index of the length-one path of an arrow."""
    q = alg.quiver
    a = q.arrow_index[name]
    return alg.path_position[q.vertex_index[q.arrows[a].source], (a,)]


def product(table, p, x, y):
    """x * y, read off the structure constants."""
    return np.einsum("i,j,ijk->k", x, y, table) % p


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(["1", "1"], [])
    with pytest.raises(ValueError):
        Quiver(["1"], [("a", "1", "2")])
    with pytest.raises(ValueError):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])


def test_path_basis_dimensions(field):
    a2 = build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), [], field)
    assert a2.dim == 3  # e1, e2, a
    a3 = build_algebra(
        Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]), [], field)
    assert a3.dim == 6  # 3 idempotents + a, b, ba
    a3r = build_algebra(
        Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]),
        [[(1, ["a", "b"])]], field)
    assert a3r.dim == 5  # the length-2 path dies
    ss = build_algebra(Quiver(["1", "2"], []), [], field)
    assert ss.dim == 2


def test_truncated_polynomial_dims(field):
    q = Quiver(["*"], [("x", "*", "*")])
    for n in (2, 3, 4):
        alg = build_algebra(q, [[(1, ["x"] * n)]], field)
        assert alg.dim == n


def test_unbound_loop_rejected(field):
    q = Quiver(["*"], [("x", "*", "*")])
    with pytest.raises(NotAdmissible):
        build_algebra(q, [], field)


def test_malformed_relations_rejected(field):
    q = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(ValueError):
        build_algebra(q, [[(1, ["a"])]], field)  # too short
    with pytest.raises(ValueError):
        build_algebra(q, [[(1, ["a", "z"])]], field)  # unknown arrow
    with pytest.raises(ValueError):
        build_algebra(q, [[(1, ["a", "a"])]], field)  # not composable


def test_relations_must_be_parallel(field):
    # commutative square: both length-2 paths from 1 to 4 identified
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")])
    alg = build_algebra(q, [[(1, ["a", "b"]), (-1, ["c", "d"])]], field)
    assert alg.dim == 9  # 4 idempotents + 4 arrows + one surviving diagonal
    with pytest.raises(ValueError):
        build_algebra(q, [[(1, ["a", "b"]), (1, ["a"])]], field)
    qy = Quiver(["1", "2", "3", "4"],
                [("a", "1", "2"), ("b", "2", "3"), ("e", "2", "4")])
    with pytest.raises(ValueError):  # terms with different endpoints
        build_algebra(qy, [[(1, ["a", "b"]), (1, ["a", "e"])]], field)


def test_multiplication_follows_traversal_order(field):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg, table = dense_route.build_algebra(q, [], field)
    ia, ib = arrow_position(alg, "a"), arrow_position(alg, "b")
    ea = alg.field.zeros(alg.dim, 1)[:, 0]
    eb = ea.copy()
    ea[ia], eb[ib] = 1, 1
    prod = product(table, field.p, eb, ea)  # b after a: the length-2 path
    assert prod.sum() == 1
    k = int(prod.argmax())
    assert alg.blocks[0, 2] == [k]  # the one basis element of e_2 A e_0
    # a after b starts where b ends and a does not: zero
    assert not product(table, field.p, ea, eb).any()


def test_relation_kills_path(field):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg, table = dense_route.build_algebra(q, [[(1, ["a", "b"])]], field)
    ia, ib = arrow_position(alg, "a"), arrow_position(alg, "b")
    ea = alg.field.zeros(alg.dim, 1)[:, 0]
    eb = ea.copy()
    ea[ia], eb[ib] = 1, 1
    assert not product(table, field.p, eb, ea).any()


def test_opposite_is_involution(a3rad2):
    op = a3rad2.opposite
    assert op.dim == a3rad2.dim
    assert op.opposite is a3rad2
    # arrows reverse direction, and so does every block e_t A e_s
    for a, b in zip(a3rad2.quiver.arrows, op.quiver.arrows):
        assert (a.name, a.source, a.target) == (b.name, b.target, b.source)
    for (s, t), idx in a3rad2.blocks.items():
        assert len(op.blocks[t, s]) == len(idx)


def test_unit_is_identity(a2):
    # the sum of the first basis elements of the blocks (v, v)
    one, table, p = dense_route.unit(a2), dense_route.table(a2), a2.field.p
    for i in range(a2.dim):
        e = a2.field.zeros(a2.dim, 1)[:, 0]
        e[i] = 1
        assert product(table, p, one, e).tolist() == e.tolist()
        assert product(table, p, e, one).tolist() == e.tolist()


# -- the opposite: the swapped actions against a rebuild on the reversed quiver


def rebuilt_opposite(alg):
    """The opposite as `build_algebra` makes it from the reversed quiver and
    the reversed relations, at the default bound every algebra here was
    built at: the reference for `opposite`, which reverses the basis paths
    and swaps the left and right actions instead."""
    q = alg.quiver
    names = [[(c, [q.arrows[i].name for i in reversed(arrows)]) for c, arrows in rel]
             for rel in alg.relations]
    return build_algebra(q.reversed(), names, alg.field)


def rad2_linear(n, field):
    """kA_n/rad^2."""
    q = Quiver([str(i) for i in range(1, n + 1)],
               [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)])
    return build_algebra(q, [[(1, [f"a{i}", f"a{i + 1}"])] for i in range(1, n - 1)], field)


def truncated(n, field):
    return build_algebra(Quiver(["*"], [("x", "*", "*")]), [[(1, ["x"] * n)]], field)


def corpus_algebras():
    for path in corpus_paths():
        spec = jobspec.ingest(path)
        rels = [[(c, list(names)) for c, names in rel] for rel in spec.relations]
        yield path.stem, build_algebra(Quiver(spec.vertices, spec.arrows), rels,
                                       PrimeField(spec.characteristic),
                                       spec.option("max_path_len"))


@pytest.fixture(scope="module")
def rebuild_cases(field, a2, kx2, kx3, a3rad2, a4rad2, hereditary_a3, semisimple2):
    algs = {"a2": a2, "kx2": kx2, "kx3": kx3, "a3rad2": a3rad2, "a4rad2": a4rad2,
            "hereditary_a3": hereditary_a3, "semisimple2": semisimple2}
    algs.update(corpus_algebras())
    algs.update({f"k[x]/(x^{n})": truncated(n, field) for n in (2, 3, 4, 8)})
    algs.update({f"kA_{n}/rad^2": rad2_linear(n, field) for n in (5, 7, 8, 9, 25)})
    algs["branching"] = build_algebra(
        Quiver(["1", "2", "3", "4", "5"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4"), ("e", "5", "2")]),
        [], field)
    algs["ab=cd square"] = build_algebra(
        Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]),
        [[(1, ["a", "b"]), (-1, ["c", "d"])]], field)
    return algs


def test_opposite_equals_the_rebuild(rebuild_cases):
    """Every monomial algebra here, and one square whose reversed basis is
    the one build_algebra keeps."""
    for name, alg in rebuild_cases.items():
        op, ref = alg.opposite, rebuilt_opposite(alg)
        assert op.opposite is alg, name
        assert op.basis_paths == ref.basis_paths, name
        assert np.array_equal(dense_route.table(op), dense_route.table(ref)), name
        for got, want in ((op.left_actions, ref.left_actions),
                          (op.right_actions, ref.right_actions)):
            for a, b in zip(got, want, strict=True):
                assert all(x.shape == y.shape and np.array_equal(x, y)
                           for x, y in zip(a, b, strict=True)), name
        assert op.relations == ref.relations, name
        assert op.radical_length == ref.radical_length, name
        assert op.blocks == ref.blocks, name
        assert op.arrow_basis == ref.arrow_basis, name


def test_non_monomial_opposite_is_an_algebra(field):
    """On ad = bc the rebuild keeps c*b where the reversal keeps d*a; the
    swapped actions still make the opposite algebra, whose table is the
    transposed one."""
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("d", "2", "4"), ("b", "1", "3"), ("c", "3", "4")])
    alg = build_algebra(q, [[(1, ["a", "d"]), (-1, ["b", "c"])]], field)
    op = alg.opposite
    assert op.opposite is alg
    assert op.basis_paths != rebuilt_opposite(alg).basis_paths
    t, p, one = dense_route.table(op), field.p, dense_route.unit(op)
    assert np.array_equal(np.einsum("ijm,mkl->ijkl", t, t) % p,
                          np.einsum("jkm,iml->ijkl", t, t) % p)
    for v in range(op.quiver.num_vertices):
        rep.projective(op, v).check_relations()
    for i in range(op.dim):
        e = np.zeros(op.dim, dtype=np.int64)
        e[i] = 1
        assert product(t, p, one, e).tolist() == e.tolist() == product(t, p, e, one).tolist()


def test_associativity_failure_is_not_admissible(field):
    """ab = abab and bab = 0 on 1 <-> 2 (paths in traversal order), so ab =
    abab = 0.  At bound 4 the multiple (ab - abab)a is out of reach and aba
    survives: (ab)a = 0 but a(ba) = aba.  At 5 aba dies, leaving dimension 5."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    rels = [[(1, ["a", "b"]), (-1, ["a", "b", "a", "b"])], [(1, ["b", "a", "b"])]]
    with pytest.raises(NotAdmissible, match="failed associativity"):
        build_algebra(q, rels, field, max_path_len=4)
    assert build_algebra(q, rels, field, max_path_len=5).dim == 5


def dense_associative(t, p) -> bool:
    """(b_i b_j) b_k = b_i (b_j b_k) on all basis triples at once: the
    dim^4 reference."""
    return np.array_equal(np.einsum("ijm,mkl->ijkl", t, t) % p,
                          np.einsum("jkm,iml->ijkl", t, t) % p)


def test_generator_associativity_agrees_with_the_dense_check():
    """On Λ and Λ^op of every corpus job both checks pass.  On tables with
    one product changed, a pass of the generator check is a pass of the
    dense one, and some of the changes fail both."""
    caught = 0
    for _, alg in corpus_algebras():
        for a in (alg, alg.opposite):
            table, p = dense_route.table(a), a.field.p
            assert dense_associative(table, p) and quiver._associative(a, table)
            for i, j in zip(*np.nonzero(table.any(axis=2))):
                bent = table.copy()
                k = int(np.argmax(table[i, j]))
                bent[i, j, k] = (bent[i, j, k] + 1) % p
                ours, ref = quiver._associative(a, bent), dense_associative(bent, p)
                assert ref or not ours, (a, i, j)
                caught += not ours and not ref
    assert caught > 0


def test_associativity_needs_the_path_certificate(field):
    """k[x]/(x^3) with basis 1, x, y (y the path xx) and the products
    changed to xx = 0, xy = 0, yx = x, yy = x: the trivial path and the arrow
    pass step 2, but (yy)y = 0 and y(yy) = x.  Only the certificate, y = xx,
    sees it."""
    bent = np.zeros((3, 3, 3), dtype=np.int64)
    for k in range(3):
        bent[0, k, k] = bent[k, 0, k] = 1
    bent[2, 1, 1] = bent[2, 2, 1] = 1
    assert not dense_associative(bent, field.p)
    assert not quiver._associative(truncated(3, field), bent)


def test_opposite_of_a_job_builds_no_algebra(monkeypatch):
    # realize builds Λ through jobspec's own binding; only an opposite
    # built through quiver's would be counted
    calls = []
    real = quiver.build_algebra
    monkeypatch.setattr(quiver, "build_algebra", lambda *a, **k: calls.append(a) or real(*a, **k))
    for path in corpus_paths():
        x = jobspec.ingest(path).realize().x
        x.op
    assert calls == []
