"""Dense structure constants: the reference for the arrow actions that every
algebra keeps in place of a cube.

Here an algebra is its dim^3 table, table[i, j, k] the coefficient of basis
element k in (basis i) * (basis j), as every algebra once kept it:

* Lambda's as `quiver.build_algebra` computes it (`build_algebra` below
  keeps it), rebuilt from an algebra's quiver and relations;
* an opposite's, the transpose of its algebra's, permuted into the
  opposite's basis;
* Gamma's built one slab per block triple from the summand hom bases
  (`block_table`) and rebased, one block triple at a time, onto the basis
  of paths in its Gabriel arrows (`DenseGamma`).

An arrow's left action on the projective A e_v is its row of the table, read
in the blocks through v, and its right action is its column (`actions`).
Integer products mod p are exact, so these must equal the actions each
algebra keeps, array for array.
"""
import weakref

import numpy as np

from tiltbench import fitting, quiver, rep
from tiltbench.algebra_ops import AbstractAlgebra
from tiltbench.linalg import held
from tiltbench.quiver import Quiver

_tables = weakref.WeakKeyDictionary()


def build_algebra(q, relations, field, max_path_len=12):
    """(algebra, table): `quiver.build_algebra` with the cube it certifies."""
    seen = []
    real = quiver._associative
    quiver._associative = lambda alg, table: seen.append(table) or real(alg, table)
    try:
        alg = quiver.build_algebra(q, relations, field, max_path_len)
    finally:
        quiver._associative = real
    return alg, seen[0]


def opposite_table(alg, table):
    """The opposite's table: the factors swapped, in the opposite's basis."""
    alg.opposite  # built on first use, with `_opposite_basis`
    order = alg._opposite_basis
    return table.transpose(1, 0, 2)[np.ix_(order, order, order)]


def table(alg, max_path_len=12):
    """The reference table of alg: kept for a Gamma built by `gamma`, an
    opposite's from its algebra's, a bound quiver algebra's rebuilt from its
    quiver and relations at max_path_len (its basis checked unchanged)."""
    got = _tables.get(alg)
    if got is None:
        if isinstance(alg._opposite, weakref.ref):
            built = held(alg._opposite)
            got = opposite_table(built, table(built, max_path_len))
        elif isinstance(alg, AbstractAlgebra):
            raise KeyError("build Gamma through dense_route.gamma for its table")
        else:
            q = alg.quiver
            names = [[(c, [q.arrows[i].name for i in arrows]) for c, arrows in rel]
                     for rel in alg.relations]
            again, got = build_algebra(q, names, alg.field, max_path_len)
            assert again.basis_paths == alg.basis_paths
        _tables[alg] = got
    return got


def unit(alg):
    """The coordinates of 1: e_v is the first basis element of its block."""
    one = np.zeros(alg.dim, dtype=np.int64)
    one[[alg.blocks[v, v][0] for v in range(alg.quiver.num_vertices)]] = 1
    return one


def actions(table, blocks, arrow_basis, arrow_ends, nv):
    """(left, right): per vertex v and arrow k: s -> t, the rows of table at
    k from e_s A e_v to e_t A e_v, and its columns at k from e_v A e_t to
    e_v A e_s."""
    left = [[table[k][np.ix_(blocks[v, s], blocks[v, t])].T
             for k, (s, t) in zip(arrow_basis, arrow_ends)] for v in range(nv)]
    right = [[table[:, k][np.ix_(blocks[t, v], blocks[s, v])].T
              for k, (s, t) in zip(arrow_basis, arrow_ends)] for v in range(nv)]
    return left, right


def block_table(x):
    """Gamma's structure constants in the basis of the cached hom bases
    Hom(M_i, M_j), block by block, with e_i = id_{M_i}, its primitive
    idempotents.  The products of Hom(M_j, M_k) x Hom(M_i, M_j) are one
    slab: one product of the stacked components per vertex, and one
    product with the left inverse of the (i, k) basis."""
    F = x.field
    n = len(x.summands)
    nv = x.algebra.quiver.num_vertices
    size = {(i, j): len(x.hom(i, j)) for i in range(n) for j in range(n)}
    span, dim = {}, 0
    for st, m in size.items():
        span[st] = slice(dim, dim + m)
        dim += m
    out = np.zeros((dim, dim, dim), dtype=np.int64)
    for (i, j), inner in size.items():
        for k in range(n):
            outer = size[j, k]
            if not (inner and outer and size[i, k]):
                continue
            g, h = x._hom_stack(j, k), x._hom_stack(i, j)
            flats = np.concatenate([np.einsum("axy,byz->abxz", g[v], h[v]).reshape(
                outer * inner, -1) for v in range(nv)], axis=1) % F.p
            out[span[j, k], span[i, j], span[i, k]] = (
                flats @ x.hom_solver(i, k)[1].T % F.p).reshape(outer, inner, -1)
    idempotents = []
    for i in range(n):
        e = np.zeros(dim, dtype=np.int64)
        _, left = x.hom_solver(i, i)
        e[span[i, i]] = (left @ rep.identity_morphism(x.summands[i]).flatten()) % F.p
        idempotents.append(e)
    return out, idempotents


class DenseGamma:
    """Gamma of x on its Gabriel quiver as a table: `block_table`, its
    diagonal blocks' radicals from their trace forms, and the presentation
    rebased one block triple at a time.  Attributes: table, blocks,
    basis_paths, quiver, arrow_basis, radical_arrows, and per block the
    chosen basis as columns in hom coordinates (`spans`)."""

    def __init__(self, x):
        F = x.field
        n = len(x.summands)
        table, idempotents = block_table(x)
        at, blocks = 0, {}
        for i in range(n):
            for j in range(n):
                blocks[i, j] = list(range(at, at + len(x.hom(i, j))))
                at += len(blocks[i, j])
        rad = {(i, j): np.eye(len(idx), dtype=np.int64) if i != j
               else fitting.radical_from_table(F, table[np.ix_(idx, idx, idx)],
                                               idempotents[i][idx])
               for (i, j), idx in blocks.items()}
        self.dim = table.shape[0]
        self.blocks = blocks
        self._present(F, table, [e[blocks[i, i]] for i, e in enumerate(idempotents)], rad)
        position = {path: k for k, path in enumerate(self.basis_paths)}
        self.arrow_basis = [position[int(a.source), (m,)]
                            for m, a in enumerate(self.quiver.arrows)]

    def _present(self, F, table, units, rad):
        p, n, dim, blocks = F.p, len(units), self.dim, self.blocks
        sl = {st: slice(idx[0], idx[0] + len(idx)) if idx else slice(0, 0)
              for st, idx in blocks.items()}

        def products(i, j, k, left, right):
            slab = table[sl[j, k], sl[i, j], sl[i, k]]
            rows, inner, out = slab.shape
            half = (left.T @ slab.reshape(rows, inner * out) % p).reshape(-1, inner, out)
            return (half.transpose(2, 0, 1) @ right % p).reshape(out, -1)

        def extend(base, new):
            pivots = F.rref(np.concatenate([base, new], axis=1))[1]
            return [c - base.shape[1] for c in pivots if c >= base.shape[1]]

        pairs = [st for st, idx in blocks.items() if idx]
        arrows, names = {}, []
        for i, k in pairs:
            square = [products(i, j, k, rad[j, k], rad[i, j]) for j in range(n)
                      if blocks[i, j] and blocks[j, k]]
            base = (np.concatenate(square, axis=1) if square
                    else np.zeros((len(blocks[i, k]), 0), dtype=np.int64))
            picked = extend(base, rad[i, k])
            if picked:
                arrows[i, k] = (list(range(len(names), len(names) + len(picked))),
                                rad[i, k][:, picked])
                names += [(f"a{len(names) + m}", str(i), str(k)) for m in range(len(picked))]
        self.radical_arrows = list(range(len(names)))
        chosen = {st: ([], np.zeros((len(blocks[st]), 0), dtype=np.int64)) for st in pairs}
        level = {}
        for i in range(n):
            e = units[i].reshape(-1, 1)
            own = np.eye(len(blocks[i, i]), dtype=np.int64)
            loops = own[:, extend(np.concatenate([e, rad[i, i]], axis=1), own)]
            chosen[i, i] = ([(i, ())] + [(i, (len(names) + m,)) for m in range(loops.shape[1])],
                            np.concatenate([e, loops], axis=1))
            names += [(f"a{len(names) + m}", str(i), str(i)) for m in range(loops.shape[1])]
            level[i, i] = ([(i, ())], e)
        for length in range(dim + 1):
            if not level:
                break
            nxt = {}
            for (i, j), (paths, elems) in level.items():
                assert not (length and i == j and not F.column_space_contains(rad[i, i], elems))
                have, span = chosen[i, j]
                keep = extend(span, elems)
                chosen[i, j] = (have + [paths[c] for c in keep],
                                np.concatenate([span, elems[:, keep]], axis=1))
                for k in range(n):
                    if (j, k) not in arrows or not blocks[i, k]:
                        continue
                    idx, elem = arrows[j, k]
                    got = nxt.setdefault((i, k), [[], []])
                    got[0] += [(i, path + (a,)) for a in idx for _, path in paths]
                    got[1].append(products(i, j, k, elem, elems))
            level = {}
            for st, (paths, parts) in nxt.items():
                elems = np.concatenate(parts, axis=1)
                keep = extend(np.zeros((elems.shape[0], 0), dtype=np.int64), elems)
                if keep:
                    level[st] = ([paths[c] for c in keep], elems[:, keep])
        assert not level and all(len(chosen[st][0]) == len(blocks[st]) for st in pairs)
        inverse = {st: F.solve_many(span, np.eye(span.shape[0], dtype=np.int64))
                   for st, (_, span) in chosen.items()}
        rebased = np.zeros_like(table)
        for i, j in pairs:
            for k in range(n):
                if blocks[j, k] and blocks[i, k]:
                    prod = products(i, j, k, chosen[j, k][1], chosen[i, j][1])
                    rebased[sl[j, k], sl[i, j], sl[i, k]] = (inverse[i, k] @ prod % p).reshape(
                        -1, len(blocks[j, k]), len(blocks[i, j])).transpose(1, 2, 0)
        self.table = rebased
        self.spans = {st: span for st, (_, span) in chosen.items()}
        self.basis_paths = [path for st in pairs for path in chosen[st][0]]
        self.quiver = Quiver([str(i) for i in range(n)], names)


def gamma(x):
    """x's Gamma, with `DenseGamma(x)`'s table kept as its reference table,
    and the opposite table as Gamma^op's, which may outlive Gamma."""
    g = x.endomorphism_algebra()
    if g not in _tables:
        _tables[g] = DenseGamma(x).table
        _tables[g.opposite] = opposite_table(g, _tables[g])
    return g
