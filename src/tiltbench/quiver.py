"""Bound quiver algebras kQ/I over a prime field.

A quiver is a finite directed graph; paths compose left to right in
traversal order, and the product p*q of two paths means "q first, then p"
(function composition order), so a relation written as the arrow sequence
[a, b] is the length-two path that traverses a and then b.

The quotient by the relation ideal is computed by linear elimination on the
space of all paths of length <= max_path_len: relation multiples are row
reduced with longer (then lexicographically larger) paths eliminated in
favour of shorter ones.  The build certifies that rad^L is contained in the
ideal for some L <= max_path_len; otherwise the ideal cannot be confirmed
admissible at this bound and NotAdmissible is raised.

`Algebra` is the structure a bound quiver algebra shares with End(M)
(`algebra_ops.AbstractAlgebra`): structure constants, quiver, unit, Peirce
blocks, the basis index of each arrow, each basis element as a path, the
arrows that generate the radical, one memo, and the opposite, which is the
transposed table over the reversed quiver; no algebra is built twice.  The
projectives, their radicals and simple tops, and the regular module are
`rep`'s, built once per algebra.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from tiltbench.linalg import PrimeField, held, memo, read_only

_PATH_CAP = 20000
_ROW_CAP = 200000


class NotAdmissible(Exception):
    """The relation ideal could not be certified admissible at the bound."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    def __init__(self, vertices: list[str], arrows: list[tuple[str, str, str]]):
        if not vertices:
            raise ValueError("quiver needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        self.vertices = list(vertices)
        self.vertex_index = {v: i for i, v in enumerate(vertices)}
        self.arrows: list[Arrow] = []
        seen = set()
        for a in arrows:
            name, src, dst = (a.name, a.source, a.target) if isinstance(a, Arrow) else a
            if name in seen:
                raise ValueError(f"duplicate arrow name {name!r}")
            if src not in self.vertex_index or dst not in self.vertex_index:
                raise ValueError(f"arrow {name!r} references unknown vertex")
            seen.add(name)
            self.arrows.append(Arrow(name, src, dst))
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        # (source, target) vertex indices of each arrow, in arrow order
        self.arrow_ends = [(self.vertex_index[a.source], self.vertex_index[a.target])
                           for a in self.arrows]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def reversed(self) -> "Quiver":
        return Quiver(self.vertices, [(a.name, a.target, a.source) for a in self.arrows])


# A path is (source_vertex_index, tuple_of_arrow_indices) with arrows listed
# in traversal order; the empty tuple is the trivial path at its vertex.
Path = tuple[int, tuple[int, ...]]


def path_target(quiver: Quiver, path: Path) -> int:
    src, arrows = path
    if not arrows:
        return src
    return quiver.vertex_index[quiver.arrows[arrows[-1]].target]


def _path_sort_key(quiver: Quiver, path: Path):
    src, arrows = path
    return (len(arrows), tuple(quiver.arrows[i].name for i in arrows), src)


class Algebra:
    """A basic finite-dimensional algebra A over a prime field, with its
    quiver: what Lambda = kQ/I (`BoundQuiverAlgebra`) and Gamma = End(M)
    (`algebra_ops.AbstractAlgebra`) share, and what `rep` reads of both.

    Attributes:
        table: structure constants, table[i, j, k] = coefficient of basis
            element k in the product (basis i) * (basis j).
        quiver: one vertex per primitive idempotent e_v; each arrow is a
            basis element, its length-one path (for Gamma, its Gabriel
            arrows and its top loops), and `arrow_basis[a]` is the basis
            index of arrow a.
        unit: coordinates of 1 = sum of the e_v.
        blocks: blocks[s, t] lists the basis indices of e_t A e_s, in basis
            order, so the projective A e_s is the sum over t of these blocks
            (`rep.projective`).
        basis_paths (from the subclass): each basis element as the path of
            arrows whose product it is, so `rep` reads its action on a
            module off the arrow matrices, one arrow after a shared prefix.
        radical_arrows: the indices of the arrows that generate rad A as
            an ideal, so rad(A)*m is the span of their images
            (`rep.radical_subspaces`): every arrow of Lambda, the Gabriel
            arrows of Gamma.

    `opposite` is A^op: the same structure constants with the factors
    swapped, over the reversed quiver (Assem-Simson-Skowronski, Elements
    vol. 1, ch. II).  Its basis is this one, reordered as a subclass says
    (`_reverse_into`); the algebra that built it holds it, and it links
    back weakly (`linalg.held`).  Each algebra keeps its cached results in
    one dict, `_memo`, filled through `linalg.memo`: projectives, leaf
    radicals and simples, the path actions, projective covers and
    resolutions of modules by content, and Gamma's dimensions.
    A module there is kept as `rep.stored` arrays, not as a module, which
    would point back at the algebra: no algebra is in a reference cycle.
    """

    def __init__(self, field: PrimeField, quiver: Quiver, table: np.ndarray, unit: np.ndarray,
                 blocks: dict[tuple[int, int], list[int]], arrow_basis: list[int],
                 radical_arrows: list[int]):
        self.field = field
        self.quiver = quiver
        self.table = table
        self.dim = table.shape[0]
        self.unit = unit
        self.blocks = blocks
        self.arrow_basis = arrow_basis
        self.radical_arrows = radical_arrows
        self._opposite = None  # the opposite, or a weak reference to it
        self._opposite_basis: np.ndarray | None = None  # see _link_opposite
        self._memo: dict[tuple, object] = {}

    def _reverse_into(self, op: "Algebra") -> list[int]:
        """Give op, the opposite under construction, the attributes of this
        kind of algebra, and return op's basis as indices of this basis."""
        raise NotImplementedError

    @property
    def opposite(self) -> "Algebra":
        op = held(self._opposite)
        return self._link_opposite() if op is None else op

    def _link_opposite(self) -> "Algebra":
        """Build the opposite, hold it and link it back weakly;
        `_opposite_basis` holds, on each side, the other's basis as indices
        of its own."""
        op = object.__new__(type(self))
        order = np.asarray(self._reverse_into(op), dtype=np.int64)
        at = np.argsort(order)  # at[k]: the index in op of basis element k
        Algebra.__init__(
            op, self.field, self.quiver.reversed(),
            self.table.transpose(1, 0, 2)[np.ix_(order, order, order)], self.unit[order],
            {(t, s): sorted(int(at[k]) for k in idx) for (s, t), idx in self.blocks.items()},
            [int(at[k]) for k in self.arrow_basis], self.radical_arrows)
        self._opposite, self._opposite_basis = op, order
        op._opposite, op._opposite_basis = weakref.ref(self), at
        return op

    # built by rep, which imports this module: each method imports rep

    def projective_leaves(self) -> list:
        """The indecomposable projectives A e_v, one per vertex."""
        from tiltbench import rep
        return [rep.projective(self, v) for v in range(self.quiver.num_vertices)]

    def leaf_radicals(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """`rep.radical_subspaces` of each projective leaf, in the same order."""
        from tiltbench import rep
        return memo(self._memo, ("leaf_radicals",), lambda: read_only([
            rep.radical_subspaces(leaf) for leaf in self.projective_leaves()]))

    def simples(self) -> list:
        """The simple tops of the projective leaves, in the same order; they
        are pairwise non-isomorphic because the algebra is basic."""
        from tiltbench import rep
        kept = memo(self._memo, ("simples",), lambda: tuple(
            rep.stored(rep.quotient(leaf, rad)[0])
            for leaf, rad in zip(self.projective_leaves(), self.leaf_radicals())))
        return [rep.Representation._of_reduced(self, *s) for s in kept]

    def regular_module(self):
        from tiltbench import rep
        return rep.sum_module(self, self.projective_leaves())


class BoundQuiverAlgebra(Algebra):
    """Finite-dimensional quotient kQ/I of a path algebra.

    Attributes (beyond `Algebra`'s):
        basis_paths: residue paths spanning the algebra, sorted by
            `_path_sort_key` (length, then arrow names, then source).
        relations: the generators of I, each a list of (coefficient, arrow
            index tuple) terms.
        radical_length: certified L with rad^L contained in the ideal.

    The opposite's basis is these paths read backwards, sorted by the same
    key on the reversed quiver.  For a monomial ideal that is exactly the
    basis `build_algebra` picks for the reversed relations; otherwise it is
    still a basis of the opposite, though `build_algebra` may keep a
    different path of a relation.
    """

    def __init__(self, quiver: Quiver, field: PrimeField, basis_paths: list[Path],
                 table: np.ndarray, radical_length: int, relations):
        self.basis_paths = basis_paths
        self.radical_length = radical_length
        self.relations = relations
        nv = quiver.num_vertices
        blocks: dict[tuple[int, int], list[int]] = {(s, t): [] for s in range(nv)
                                                    for t in range(nv)}
        for k, path in enumerate(basis_paths):
            blocks[path[0], path_target(quiver, path)].append(k)
        unit = np.zeros(len(basis_paths), dtype=np.int64)
        unit[[self.path_position[v, ()] for v in range(nv)]] = 1
        super().__init__(field, quiver, table, unit, blocks,
                         [self.path_position[quiver.vertex_index[a.source], (i,)]
                          for i, a in enumerate(quiver.arrows)],
                         list(range(len(quiver.arrows))))

    @functools.cached_property
    def path_position(self) -> dict[Path, int]:
        return {p: i for i, p in enumerate(self.basis_paths)}

    def _reverse_into(self, op: "BoundQuiverAlgebra") -> list[int]:
        paths = [(path_target(self.quiver, p), p[1][::-1]) for p in self.basis_paths]
        # the key reads arrow names, which the reversed quiver keeps
        order = sorted(range(self.dim), key=lambda k: _path_sort_key(self.quiver, paths[k]))
        op.basis_paths = [paths[k] for k in order]
        op.relations = [[(c, arrows[::-1]) for c, arrows in rel] for rel in self.relations]
        op.radical_length = self.radical_length
        return order

    def __repr__(self) -> str:
        return (f"BoundQuiverAlgebra(dim={self.dim}, vertices={len(self.quiver.vertices)}, "
                f"arrows={len(self.quiver.arrows)}, p={self.field.p})")


def build_algebra(quiver: Quiver, relations, field: PrimeField,
                  max_path_len: int = 12) -> BoundQuiverAlgebra:
    """Construct kQ/I with certification that rad^L <= I for some L <= bound.

    relations: list of relations, each a list of (coeff, [arrow names]) terms;
    all terms of one relation must be parallel paths of length >= 2.
    """
    if max_path_len < 2:
        raise ValueError("max_path_len must be at least 2")
    rels: list[list[tuple[int, tuple[int, ...]]]] = []
    for rel in relations:
        if not rel:
            raise ValueError("empty relation")
        terms = []
        endpoints = None
        for coeff, names in rel:
            if len(names) < 2:
                raise ValueError("relation terms must have length >= 2 (admissible ideal)")
            try:
                arrows = tuple(quiver.arrow_index[n] for n in names)
            except KeyError as e:
                raise ValueError(f"unknown arrow in relation: {e.args[0]!r}") from None
            for k in range(len(arrows) - 1):
                if quiver.arrows[arrows[k]].target != quiver.arrows[arrows[k + 1]].source:
                    raise ValueError(f"non-composable relation path {names}")
            src = quiver.vertex_index[quiver.arrows[arrows[0]].source]
            tgt = quiver.vertex_index[quiver.arrows[arrows[-1]].target]
            if endpoints is None:
                endpoints = (src, tgt)
            elif endpoints != (src, tgt):
                raise ValueError("relation terms are not parallel")
            terms.append((int(coeff) % field.p, arrows))
        rels.append(terms)

    # Enumerate paths by length.
    by_len: list[list[Path]] = [[(v, ()) for v in range(quiver.num_vertices)]]
    arrows_from: dict[int, list[int]] = {v: [] for v in range(quiver.num_vertices)}
    for i, a in enumerate(quiver.arrows):
        arrows_from[quiver.vertex_index[a.source]].append(i)
    total = quiver.num_vertices
    for ln in range(1, max_path_len + 1):
        nxt = []
        for p in by_len[ln - 1]:
            t = path_target(quiver, p)
            for a in arrows_from[t]:
                nxt.append((p[0], p[1] + (a,)))
        nxt.sort(key=lambda q: _path_sort_key(quiver, q))
        by_len.append(nxt)
        total += len(nxt)
        if total > _PATH_CAP:
            raise NotAdmissible(f"more than {_PATH_CAP} paths below length {max_path_len}; "
                                "the ideal does not look admissible at this bound")
    all_paths = [p for chunk in by_len for p in chunk]
    all_paths.sort(key=lambda q: _path_sort_key(quiver, q))
    # Reversed order so that row reduction eliminates long/lex-large paths.
    order = list(reversed(all_paths))
    col = {p: i for i, p in enumerate(order)}
    n = len(order)

    by_source: dict[int, list[Path]] = {}
    by_target: dict[int, list[Path]] = {}
    for p in all_paths:
        by_source.setdefault(p[0], []).append(p)
        by_target.setdefault(path_target(quiver, p), []).append(p)

    rows = []
    for terms in rels:
        src = quiver.vertex_index[quiver.arrows[terms[0][1][0]].source]
        tgt = quiver.vertex_index[quiver.arrows[terms[0][1][-1]].target]
        max_term = max(len(arrows) for _, arrows in terms)
        for v in by_target.get(src, []):
            for u in by_source.get(tgt, []):
                if len(v[1]) + len(u[1]) + max_term > max_path_len:
                    continue
                row = np.zeros(n, dtype=np.int64)
                for coeff, arrows in terms:
                    full = (v[0], v[1] + arrows + u[1])
                    row[col[full]] = (row[col[full]] + coeff) % field.p
                rows.append(row)
                if len(rows) > _ROW_CAP:
                    raise NotAdmissible("relation closure exploded; bound too large or ideal wild")
    if rows:
        gen = np.stack(rows)
        red, pivots = field.rref(gen)
        red = red[: len(pivots)]
        pivot_set = set(pivots)
    else:
        red = np.zeros((0, n), dtype=np.int64)
        pivots = []
        pivot_set = set()
    pivot_cols = np.array(pivots, dtype=np.int64)

    def raw_reduce(vec: np.ndarray) -> np.ndarray:
        if len(pivots) == 0:
            return vec % field.p
        coeffs = vec[pivot_cols]
        return (vec - coeffs @ red) % field.p

    def path_in_ideal(p: Path) -> bool:
        v = np.zeros(n, dtype=np.int64)
        v[col[p]] = 1
        return not raw_reduce(v).any()

    rad_len = None
    for ln in range(1, max_path_len + 1):
        if all(path_in_ideal(p) for p in by_len[ln]):
            rad_len = ln
            break
    if rad_len is None:
        raise NotAdmissible(f"paths survive at length {max_path_len}; the ideal may not be "
                            "admissible, or max_path_len is too small")

    basis = [p for p in all_paths
             if len(p[1]) < rad_len and col[p] not in pivot_set]
    basis.sort(key=lambda q: _path_sort_key(quiver, q))
    pos = {p: i for i, p in enumerate(basis)}
    dim = len(basis)

    def nf(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(dim, dtype=np.int64)
        r = raw_reduce(vec)
        for c in np.nonzero(r)[0]:
            p = order[c]
            if len(p[1]) >= rad_len:
                continue
            out[pos[p]] = r[c]
        return out

    table = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            # product "bj first, then bi": needs target(bi-source path)...
            if bi[0] != path_target(quiver, bj):
                continue
            if len(bi[1]) + len(bj[1]) >= rad_len:
                continue
            full = (bj[0], bj[1] + bi[1])
            v = np.zeros(n, dtype=np.int64)
            v[col[full]] = 1
            table[i, j] = nf(v)

    algebra = BoundQuiverAlgebra(quiver, field, basis, table, rad_len,
                                 [[(c, a) for c, a in terms] for terms in rels])
    if not _associative(algebra):
        raise NotAdmissible("multiplication table failed associativity; "
                            "non-homogeneous relations need a larger max_path_len")
    return algebra


def _associative(algebra: BoundQuiverAlgebra) -> bool:
    """Is the product given by `algebra.table` associative?  True is a proof.

    Let G be the trivial paths and the arrows, all of them basis elements
    (relation terms have length >= 2).  The check:

    1. certify that each basis path (a_1, ..., a_r) is the nested product
       a_r (... (a_2 a_1)) under the table;
    2. check (g b_j) b_k = g (b_j b_k) for each g in G and all basis b_j,
       b_k: dim^3 cells per g, against dim^4 for all triples at once.

    Why that suffices: the x with (x y) z = x (y z) for all y, z form a
    subspace S, which holds G by step 2.  If g is in G and x in S, then
    ((g x) y) z = (g (x y)) z = g ((x y) z) = g (x (y z)) = (g x)(y z), so
    g x is in S.  Hence S holds every nested product g_1 (g_2 (... g_r)),
    so by step 1 every basis element: S is the algebra.  Without step 1
    nothing is proved, and the answer is False.
    """
    p, table, dim = algebra.field.p, algebra.table, algebra.dim
    nv = algebra.quiver.num_vertices
    arrow = algebra.arrow_basis
    gens = [algebra.path_position[v, ()] for v in range(nv)] + list(arrow)
    for k, (_, arrows) in enumerate(algebra.basis_paths):
        if len(arrows) < 2:
            continue
        y = np.zeros(dim, dtype=np.int64)
        y[arrow[arrows[0]]] = 1
        for a in arrows[1:]:
            y = y @ table[arrow[a]] % p
        if y[k] != 1 or np.count_nonzero(y) != 1:
            return False
    by_left = table.reshape(dim, dim * dim)
    by_right = table.reshape(dim * dim, dim)
    for g in gens:
        mult = table[g]  # mult[j, m]: coefficient of b_m in g b_j
        rows = np.flatnonzero(mult.any(axis=1))
        left = np.zeros((dim, dim * dim), dtype=np.int64)
        left[rows] = mult[rows] @ by_left % p
        right = by_right[:, rows] @ mult[rows] % p
        if not np.array_equal(left, right.reshape(dim, dim * dim)):
            return False
    return True
