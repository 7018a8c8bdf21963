"""The higher Auslander algebras of type A, A^(d)_m, and their
d-cluster-tilting modules: an oracle family with published answers.

A^(d)_m (Iyama, "Cluster tilting for higher Auslander algebras", Adv.
Math. 2011; Oppermann-Thomas, "Higher-dimensional cluster combinatorics and
representation theory", JEMS 2012) is the bound quiver algebra with

* vertices the non-decreasing d-tuples x in [1, m];
* an arrow x -> x + e_i wherever the target is a vertex;
* for i != j, the relation that the two routes x -> x + e_i -> x + e_i + e_j
  and x -> x + e_j -> x + e_i + e_j agree, and that a route is zero where
  it is the only one; the paths x -> x + e_i -> x + 2 e_i carry none.

It is d-representation-finite, its d-cluster-tilting module M is the
tau_d^- orbit closure of Lambda, with C(m + d, d + 1) indecomposable
summands, and End(M) is A^(d+1)_m.  The paths need `max_path_len` 3m + 2.
"""
import itertools

from tiltbench import rep, subcat
from tiltbench.linalg import PrimeField
from tiltbench.quiver import Quiver, build_algebra


def _name(x):
    return ",".join(map(str, x))


def algebra(d: int, m: int, field: PrimeField | None = None):
    """A^(d)_m over field (F_101 by default)."""
    verts = list(itertools.combinations_with_replacement(range(1, m + 1), d))
    known = set(verts)

    def step(x, i):
        y = x[:i] + (x[i] + 1,) + x[i + 1:]
        return y if y in known else None

    def arrow(x, i):
        return f"a{i}:{_name(x)}"

    arrows = [(arrow(x, i), _name(x), _name(step(x, i)))
              for x in verts for i in range(d) if step(x, i)]
    relations = []
    for x in verts:
        for i, j in itertools.combinations(range(d), 2):
            routes = []
            for first, second in ((i, j), (j, i)):
                mid = step(x, first)
                if mid and step(mid, second):
                    routes.append([arrow(x, first), arrow(mid, second)])
            if len(routes) == 2:
                relations.append([(1, routes[0]), (-1, routes[1])])
            elif routes:
                relations.append([(1, routes[0])])
    return build_algebra(Quiver([_name(x) for x in verts], arrows), relations,
                         field or PrimeField(101), max_path_len=3 * m + 2)


def tau_d_closure(alg, d: int) -> list:
    """The indecomposable summands of the tau_d^- orbits of the projectives,
    one of each isomorphism class, in the order they are reached."""
    found = list(alg.projective_leaves())
    queue = list(found)
    while queue:
        image = subcat.tau_d_inverse(queue.pop(0), d)
        for leaf in rep.decompose(image):
            if not any(rep.is_isomorphic(leaf.rep, s) for s in found):
                found.append(leaf.rep)
                queue.append(leaf.rep)
    return found


def subcategory(d: int, m: int) -> subcat.SubcategoryX:
    """add(M) over A^(d)_m, M its d-cluster-tilting module."""
    alg = algebra(d, m)
    parts = tau_d_closure(alg, d)
    return subcat.SubcategoryX(alg, rep.sum_module(alg, parts), summands=parts)
