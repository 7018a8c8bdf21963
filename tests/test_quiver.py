"""Bound quiver algebras: path bases, relations, opposites."""
import numpy as np
import pytest

from tiltbench.quiver import NotAdmissible, Quiver, build_algebra


def arrow_position(alg, name):
    """Basis index of the length-one path of an arrow."""
    q = alg.quiver
    a = q.arrow_index[name]
    return alg.path_position[q.vertex_index[q.arrows[a].source], (a,)]


def product(alg, x, y):
    """x * y, read off the structure constants."""
    return np.einsum("i,j,ijk->k", x, y, alg.table) % alg.field.p


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
    alg = build_algebra(q, [], field)
    ia, ib = arrow_position(alg, "a"), arrow_position(alg, "b")
    ea = alg.field.zeros(alg.dim, 1)[:, 0]
    eb = ea.copy()
    ea[ia], eb[ib] = 1, 1
    prod = product(alg, eb, ea)  # b after a: the length-2 path
    assert prod.sum() == 1
    k = int(prod.argmax())
    assert alg.basis_source(k) == 0 and alg.basis_target(k) == 2
    # a after b starts where b ends and a does not: zero
    assert not product(alg, ea, eb).any()


def test_relation_kills_path(field):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q, [[(1, ["a", "b"])]], field)
    ia, ib = arrow_position(alg, "a"), arrow_position(alg, "b")
    ea = alg.field.zeros(alg.dim, 1)[:, 0]
    eb = ea.copy()
    ea[ia], eb[ib] = 1, 1
    assert not product(alg, eb, ea).any()


def test_opposite_is_involution(a3rad2):
    op = a3rad2.opposite
    assert op.dim == a3rad2.dim
    assert op.opposite is a3rad2
    # arrows reverse direction
    for i in range(a3rad2.dim):
        assert a3rad2.basis_source(i) == op.basis_target(i)
        assert a3rad2.basis_target(i) == op.basis_source(i)


def test_unit_is_identity(a2):
    one = a2.unit()
    for i in range(a2.dim):
        e = a2.field.zeros(a2.dim, 1)[:, 0]
        e[i] = 1
        assert product(a2, one, e).tolist() == e.tolist()
        assert product(a2, e, one).tolist() == e.tolist()
