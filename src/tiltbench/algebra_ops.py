"""Homological invariants of Gamma = End(M), with exact certificates: the
radical, and the projective, injective, global, dominant and selfinjective
dimensions.

Gamma is assembled from the hom blocks between the pairwise non-isomorphic
indecomposable summands M_i of M, so it comes with its idempotents
e_i = id_{M_i}, and each basis element lies in one block
e_j Gamma e_i = Hom(M_i, M_j) (the Peirce decomposition; Assem-Simson-
Skowronski, Elements vol. 1, ch. I-III).  Its products are compositions of
hom bases, one block triple at a time and only where all three blocks are
non-zero; no dense structure constants are built.  Gamma is then presented
on its Gabriel quiver: the arrows i -> j are a basis of rad/rad^2 in
e_j Gamma e_i, each vertex i whose End(M_i)/rad has dimension d_i > 1 over
F_p gets d_i - 1 top loops, and the basis is e_i, the loops and paths in the
arrows, chosen length by length; the presentation certifies that the arrows
generate the radical (Gabriel's theorem, ibid. ch. II), and keeps each
arrow's left and right action.  Gamma is a `quiver.Algebra` like Lambda,
with the same opposite (the two actions swapped), so Gamma-modules are plain
`rep.Representation`s, and their radicals, projective covers, injective
envelopes and (co)syzygies are rep's, the same code as over Lambda.  Every
cover is certified surjective with its kernel inside the radical, on either
algebra.

Resolution-length answers come back as DimBound values: exact, "at least n"
(a resolution passed the configured cap while still alive), or infinite (a
coresolution closed up, which certifies infinity rather than guessing it).
"""

from __future__ import annotations

import functools

import numpy as np

from tiltbench import fitting, rep
from tiltbench.linalg import PrimeField, memo
from tiltbench.quiver import Algebra, Quiver, path_target
from tiltbench.rep import Representation


class DimBound:
    """An exact, lower-bounded, or infinite homological dimension."""

    def __init__(self, kind: str, value: int | None):
        if kind not in ("exact", "at_least", "infinite"):
            raise ValueError(f"bad DimBound kind {kind!r}")
        self.kind = kind
        self.value = value

    @classmethod
    def exact(cls, n: int) -> "DimBound":
        return cls("exact", n)

    @classmethod
    def at_least(cls, n: int) -> "DimBound":
        return cls("at_least", n)

    @classmethod
    def infinite(cls) -> "DimBound":
        return cls("infinite", None)

    def ge(self, n: int) -> bool:
        """True when the dimension is certainly >= n."""
        return self.kind == "infinite" or self.value >= n

    def le(self, n: int) -> bool:
        """True/False when decidable; raises if the cap hid the answer."""
        if self.kind == "infinite":
            return False
        assert self.value is not None
        if self.kind == "exact":
            return self.value <= n
        if self.value > n:
            return False
        raise ValueError(f"cannot decide <= {n} from a lower bound of {self.value}; "
                         "raise the resolution cap")

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.kind == "exact" and self.value == other
        if isinstance(other, DimBound):
            return self.kind == other.kind and self.value == other.value
        return NotImplemented

    def __str__(self) -> str:
        if self.kind == "infinite":
            return "inf"
        if self.kind == "at_least":
            return f">= {self.value}"
        return str(self.value)

    def __repr__(self) -> str:
        return f"DimBound({self})"

    def to_json(self):
        return {"kind": self.kind, "value": self.value}


class AbstractAlgebra(Algebra):
    """Basic associative unital algebra A given block by block, presented on
    its Gabriel quiver.

    The blocks are indexed by pairs of n vertices: sizes[i, j] is the
    dimension of e_j A e_i, units[i] the coordinates of e_i in the given
    basis of e_i A e_i, and product(i, j, k) the products x_a y_b of the
    given bases of e_k A e_j and e_j A e_i, an array (a, b, coordinates in
    e_k A e_i), asked for only where all three blocks are non-zero, and at
    most once per triple.  For Gamma = End(M) these are the hom blocks
    Hom(M_i, M_j) with e_i = id_{M_i}, whose projectives are pairwise
    non-isomorphic, and product is the composition of hom bases
    (`subcat.SubcategoryX._compose`): no dense structure constants are
    built.

    The basis of each block is replaced by paths in the Gabriel arrows,
    after e_i and its top loops on the diagonal (`_present`): `quiver` has
    the arrows i -> j, a basis of rad/rad^2 in e_j A e_i, which generate the
    radical and are `radical_arrows`, and after them d_i - 1 loops i -> i
    wherever e_i A e_i / rad has dimension d_i > 1 over F_p; the basis
    elements are `basis_paths`, in the blocks' order (i, j), and the arrows'
    actions are in that basis.  Where every simple splits there are no
    loops, and the arrows are all radical, as for Lambda.  The opposite
    keeps the basis.
    """

    def __init__(self, field: PrimeField, sizes: dict[tuple[int, int], int],
                 units: list[np.ndarray], product):
        product = functools.cache(product)
        # a map between non-isomorphic indecomposables is radical, so every
        # off-diagonal block lies in rad A; a diagonal block contributes
        # rad End(M_i), from the trace form of that block alone
        rad = {(i, j): np.eye(size, dtype=np.int64) if i != j
               else fitting.radical_from_table(field, product(i, i, i), units[i])
               for (i, j), size in sizes.items()}
        quiver, blocks, arrow_basis, radical_arrows, left, right = self._present(
            field, sizes, units, product, rad)
        super().__init__(field, quiver, blocks, arrow_basis, radical_arrows, left, right)

    def _present(self, F: PrimeField, sizes: dict[tuple[int, int], int], units: list[np.ndarray],
                 product, rad: dict[tuple[int, int], np.ndarray]):
        """The Gabriel quiver with its top loops, the blocks in a basis of
        paths in its arrows, the basis index of each arrow, the indices of
        the radical arrows, and each arrow's left and right actions on the
        blocks; sets `basis_paths`.

        rad holds, per block, a basis of rad A meet e_j A e_i in the given
        coordinates: the whole block off the diagonal, the trace-form
        radical of End(M_i) on it.  The arrows i -> j extend a basis of
        (rad^2)_(i, j), the products of rad blocks through every j, to one
        of rad_(i, j), so they are a basis of rad/rad^2 per block.  Block
        (i, i) starts with e_i and then its top loops, the columns of the
        identity that extend e_i and rad_(i, i): basis elements, not
        radical, which the search never multiplies by.  The paths are
        chosen length by length: the paths of length l + 1 that are
        searched are the arrows after a basis, kept as B_l, of the span P_l
        of all paths of length l, so B_(l+1) is again a basis of
        P_(l+1) = sum over arrows a of a P_l, and the search stays within
        dim A per length.  Each block keeps the paths of B_l that extend its
        basis so far.  The presentation certifies itself:

        1. the chosen paths fill every block, so they span A;
        2. every path of B_l, l >= 1, in a diagonal block lies in that
           block's radical;
        3. P_L = 0 for the last length L searched.

        The arrows generate I = P_1 + P_2 + ..., closed under products, and
        by 3 I^L lies in P_L + P_(L+1) + ... = 0.  By 1 I holds every
        off-diagonal block, and by 1 and 2 its diagonal blocks are the
        rad End(M_i), as e_i and the loops span a complement of rad_(i, i).
        A is the span of the e_i, the loops and I, and a loop times a block
        of I stays in I, so I is a nilpotent two-sided ideal, and A/I is the
        product of the End(M_i)/rad: semisimple, since each End(M_i) is
        local (certified when M was split).  Hence I = rad A, spanned by
        paths in the arrows alone (rad = V + rad^2 for V the arrows' span
        gives rad = V + V^2 + ...), whether or not the tops split.  So the
        arrows are the Gabriel quiver's (Assem-Simson-Skowronski, Elements
        vol. 1, ch. II).  An arrow's action on a projective A e_v is its
        product with the chosen basis of each block through v, read in the
        chosen basis of the block it lands in.  A failed certificate raises
        AssertionError.
        """
        p, n, dim = F.p, len(units), sum(sizes.values())

        def products(i: int, j: int, k: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
            """The products x * y of the columns x of left, in e_k A e_j,
            and y of right, in e_j A e_i, as columns in the coordinates of
            e_k A e_i, x-major."""
            slab = product(i, j, k)
            rows, inner, out = slab.shape
            half = (left.T @ slab.reshape(rows, inner * out) % p).reshape(-1, inner, out)
            return (half.transpose(2, 0, 1) @ right % p).reshape(out, -1)

        def extend(base: np.ndarray, new: np.ndarray) -> list[int]:
            """The columns of new that extend the column span of base,
            leftmost first."""
            pivots = F.rref(np.concatenate([base, new], axis=1))[1]
            return [c - base.shape[1] for c in pivots if c >= base.shape[1]]

        pairs = [st for st, size in sizes.items() if size]
        # arrows[j, k]: the arrow indices j -> k and their elements as columns
        arrows: dict[tuple[int, int], tuple[list[int], np.ndarray]] = {}
        names = []
        for i, k in pairs:
            square = [products(i, j, k, rad[j, k], rad[i, j]) for j in range(n)
                      if sizes[i, j] and sizes[j, k]]
            base = (np.concatenate(square, axis=1) if square
                    else np.zeros((sizes[i, k], 0), dtype=np.int64))
            picked = extend(base, rad[i, k])
            if picked:
                arrows[i, k] = (list(range(len(names), len(names) + len(picked))),
                                rad[i, k][:, picked])
                names += [(f"a{len(names) + m}", str(i), str(k)) for m in range(len(picked))]
        radical_arrows = list(range(len(names)))
        # block (i, i) starts with e_i and its top loops, the columns of the
        # identity that extend e_i and rad_(i, i); the search below starts
        # from e_i alone and multiplies only by the Gabriel arrows
        chosen = {st: ([], np.zeros((sizes[st], 0), dtype=np.int64)) for st in pairs}
        level = {}
        for i in range(n):
            unit = units[i].reshape(-1, 1)
            own = np.eye(sizes[i, i], dtype=np.int64)
            loops = own[:, extend(np.concatenate([unit, rad[i, i]], axis=1), own)]
            chosen[i, i] = ([(i, ())] + [(i, (len(names) + m,)) for m in range(loops.shape[1])],
                            np.concatenate([unit, loops], axis=1))
            names += [(f"a{len(names) + m}", str(i), str(i)) for m in range(loops.shape[1])]
            level[i, i] = ([(i, ())], unit)
        # P_l lies in rad^l, and rad^dim = 0
        for length in range(dim + 1):
            if not level:
                break
            nxt: dict[tuple[int, int], list] = {}
            for (i, j), (paths, elems) in level.items():
                if length and i == j and not F.column_space_contains(rad[i, i], elems):
                    raise AssertionError(f"a path of length {length} at vertex {i} "
                                         "lies outside the radical")
                have, span = chosen[i, j]
                keep = extend(span, elems)
                chosen[i, j] = (have + [paths[c] for c in keep],
                                np.concatenate([span, elems[:, keep]], axis=1))
                for k in range(n):
                    if (j, k) not in arrows or not sizes[i, k]:
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
        if level:
            raise AssertionError("the Gabriel arrows do not generate a nilpotent ideal")
        for st in pairs:
            if len(chosen[st][0]) != sizes[st]:
                raise AssertionError(f"the paths do not span the block {st}")
        inverse = {st: F.solve_many(span, np.eye(span.shape[0], dtype=np.int64))
                   for st, (_, span) in chosen.items()}
        self.basis_paths = [path for st in pairs for path in chosen[st][0]]
        position = {path: k for k, path in enumerate(self.basis_paths)}
        quiver = Quiver([str(i) for i in range(n)], names)
        left = [[] for _ in range(n)]
        right = [[] for _ in range(n)]
        for m, (s, t) in enumerate(quiver.arrow_ends):
            elem = chosen[s, t][1][:, [chosen[s, t][0].index((s, (m,)))]]
            for v in range(n):
                # a y for y in e_s A e_v, in e_t A e_v; x a for x in
                # e_v A e_t, in e_v A e_s
                left[v].append(inverse[v, t] @ products(v, s, t, elem, chosen[v, s][1]) % p
                               if sizes[v, s] and sizes[v, t]
                               else np.zeros((sizes[v, t], sizes[v, s]), dtype=np.int64))
                right[v].append(inverse[s, v] @ products(s, t, v, chosen[t, v][1], elem) % p
                                if sizes[t, v] and sizes[s, v]
                                else np.zeros((sizes[s, v], sizes[t, v]), dtype=np.int64))
        at, blocks = 0, {}
        for st, size in sizes.items():
            blocks[st], at = list(range(at, at + size)), at + size
        return (quiver, blocks, [position[s, (m,)] for m, (s, _) in enumerate(quiver.arrow_ends)],
                radical_arrows, left, right)

    def _reverse_into(self, op: "AbstractAlgebra") -> list[int]:
        op.basis_paths = [(path_target(self.quiver, path), path[1][::-1])
                          for path in self.basis_paths]
        return list(range(self.dim))


def is_projective(m: Representation) -> bool:
    """dim m against the dimension of its projective cover, the sum over i
    of dim Gamma e_i times the multiplicity of its simple top in top(m)."""
    alg = m.algebra
    rad = rep.radical_subspaces(m)
    cover_dim = 0
    for i, (leaf, leaf_rad) in enumerate(zip(alg.projective_leaves(), alg.leaf_radicals())):
        top_m = int(m.dims[i]) - rad[i].shape[1]
        top_leaf = int(leaf.dims[i]) - leaf_rad[i].shape[1]
        cover_dim += top_m // top_leaf * leaf.total_dim
    return cover_dim == m.total_dim


def _resolution_length(m: Representation, step, cap: int) -> DimBound:
    """Steps until the module vanishes, less one; -1 for the zero module."""
    count = -1
    while not m.is_zero:
        count += 1
        if count > cap:
            return DimBound.at_least(cap + 1)
        m = step(m)
    return DimBound.exact(count)


def projective_dimension(m: Representation, cap: int = 20) -> DimBound:
    return _resolution_length(m, rep.syzygy, cap)


def injective_dimension(m: Representation, cap: int = 20) -> DimBound:
    return _resolution_length(m, rep.cosyzygy, cap)


def _once_per_algebra(fn):
    """Keep fn(alg, cap) in the algebra's memo, keyed by (function, cap)."""
    @functools.wraps(fn)
    def cached(alg: AbstractAlgebra, cap: int = 20):
        return memo(alg._memo, (fn.__name__, cap), fn, alg, cap)
    return cached


@_once_per_algebra
def global_dimension(alg: AbstractAlgebra, cap: int = 20) -> DimBound:
    pds = [projective_dimension(s, cap) for s in alg.simples()]
    top_val = max(pd.value for pd in pds)
    if any(pd.kind == "at_least" for pd in pds):
        return DimBound.at_least(max(top_val, cap + 1))
    return DimBound.exact(top_val)


@_once_per_algebra
def dominant_dimension(alg: AbstractAlgebra, cap: int = 20) -> DimBound:
    """Length of the initial projective segment of the minimal injective
    coresolution of the regular module (infinite when the coresolution
    closes up while still projective)."""
    cur = alg.regular_module()
    count = 0
    while True:
        if count > cap:
            return DimBound.at_least(cap + 1)
        if cur.is_zero:
            return DimBound.infinite()
        env = rep.injective_envelope(cur)[0]
        if not is_projective(env.target):
            return DimBound.exact(count)
        cur = rep.cokernel(env)[0]
        count += 1


@_once_per_algebra
def selfinjective_dimensions(alg: AbstractAlgebra, cap: int = 20) -> tuple[DimBound, DimBound]:
    """Injective dimension of the regular module on each side."""
    left = injective_dimension(alg.regular_module(), cap)
    right = injective_dimension(alg.opposite.regular_module(), cap)
    return left, right
