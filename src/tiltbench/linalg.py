"""Dense exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  All
routines are deterministic: same input, same output, no floating point.
The modulus must be an odd prime small enough that (p-1)^2 * inner_dim
stays below 2^63, which holds for every desk-scale input this package
accepts (p < 2^20 enforced at construction).

Each field keeps an elimination memo.  `rank`, `nullspace`, `solve_many`,
`column_reduce` and `quotient_projection` (and so `column_space_contains`,
which goes through `solve_many`) look up their arguments' raw content,
dtype, shape and bytes as passed, before any reduction mod p, so a cached
answer is exactly what the call would compute.  On a miss they reduce their
input once.  If the matrix they eliminate (m, [m | bs], m.T or sub.T) has at
most SMALL_CELLS cells, they eliminate it on Python int lists and read the
answer off the list rows, storing nothing else; a larger one goes through
`_rref`, which keeps its own entries by the reduced matrix, so entry points
that eliminate the same large matrix share one elimination.  `rref` reduces
its input and goes to `_rref` directly.

Only calls whose array arguments total at most MEMO_CALL_CELLS cells are
stored, and the memo is emptied when the cells it holds (arguments and
results) would pass MEMO_TOTAL_CELLS, or by `clear_memo`.  Cached arrays are
read-only and shared between callers; a pivot list is returned as a new list
each time.  A realized job shares one field between its algebra, the
opposite algebra, End(M) and End(M)^op, and nothing the field holds points
back at them, so the memo goes with the job when its last holder drops it.

`memo` is the uncapped store every other layer fills its caches through,
and `held` reads the links of the pairs that build each other.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

_P_CAP = 1 << 20

# Matrices of at most this many cells are eliminated on Python int lists and
# the entry points read their answers off the list rows.  Per memo miss of
# each entry point (random matrices over F_101, 2-vCPU VM, Python 3.11) the
# list path is 2-3x faster up to 4x4 and 1.2-1.4x at 8x8 than the numpy path;
# the two tie near 100 cells and numpy wins from 128-144 cells up.
SMALL_CELLS = 64

# Elimination memo caps, in matrix cells (see the module docstring).
MEMO_CALL_CELLS = 4096
MEMO_TOTAL_CELLS = 1 << 20


def read_only(value):
    """value with its arrays made read-only in place, so that a memoized
    result cannot be changed under a later caller; a list or tuple is
    walked in one loop (a nested one in its own) and comes back as a
    tuple."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value
    if not isinstance(value, (list, tuple)):
        return value
    out = []
    for v in value:
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
        elif isinstance(v, (list, tuple)):
            v = read_only(v)
        out.append(v)
    return tuple(out)


def _cells(value) -> int:
    if isinstance(value, np.ndarray):
        return value.size
    if not isinstance(value, tuple):
        return 1
    cells = 0
    for v in value:
        cells += v.size if isinstance(v, np.ndarray) else _cells(v) if isinstance(v, tuple) else 1
    return cells


def memo(store: dict, key, compute, *args):
    """store[key], computed as compute(*args) on first use.

    The one uncapped memo of the package: each owner of cached results
    (a subcategory, an algebra) keeps one dict and fills it through here,
    under keys that start with the name of what they hold.
    """
    try:
        return store[key]
    except KeyError:
        value = store[key] = compute(*args)
        return value


def held(link):
    """The peer a pair link names.  Of a pair that builds its other half
    (x and x.op, an algebra and its opposite), the builder holds the built
    side, which links back weakly: None once that peer is gone, and the
    caller builds a new one."""
    return link() if isinstance(link, weakref.ref) else link


def _memoized(fn):
    """Run an elimination entry point through its field's memo.

    The key is the entry point's name and, per argument, the array's dtype,
    shape and bytes as given (an int argument stands for itself).  Object
    arrays are never stored, nor calls over MEMO_CALL_CELLS cells.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def memoized(self, *args):
        key: list = [name]
        cells = 0
        for x in args:
            if isinstance(x, int):
                key.append(x)
                continue
            a = x if isinstance(x, np.ndarray) else np.asarray(x)
            if a.dtype.hasobject:
                return fn(self, *args)
            cells += a.size
            key += (a.dtype, a.shape, a.tobytes())
        if cells > MEMO_CALL_CELLS:
            return fn(self, *args)
        key = tuple(key)
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            pass
        value = read_only(fn(self, *args))
        cells += _cells(value)
        if self._memo_cells + cells > MEMO_TOTAL_CELLS:
            self.clear_memo()
        memo[key] = value
        self._memo_cells += cells
        return value

    return memoized


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Arithmetic context for F_p, p an odd prime below 2^20."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p) or p == 2:
            raise ValueError(f"modulus must be an odd prime, got {p!r}")
        if p >= _P_CAP:
            raise ValueError(f"modulus {p} too large (cap {_P_CAP})")
        self.p = p
        # elimination memo: key -> read-only result, and the cells it holds
        self._memo: dict[tuple, object] = {}
        self._memo_cells = 0

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def clear_memo(self) -> None:
        """Empty the elimination memo."""
        self._memo.clear()
        self._memo_cells = 0

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- element helpers ---------------------------------------------------

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def asarray(self, data) -> np.ndarray:
        a = np.asarray(data, dtype=np.int64)
        return np.mod(a, self.p)

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    # -- elimination -------------------------------------------------------
    # The memoized entry points reduce their input once, on a miss, and hand
    # the reduced matrix to `_rref_lists` or `_rref`, which do not reduce it
    # again (see the module docstring).

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form.

        Returns (r, pivots) with r row-reduced, pivot entries 1 and pivot
        columns cleared.  Zero-sized inputs are legal and return at once with
        an empty pivot list.  Matrices of at most SMALL_CELLS cells are
        eliminated by the list kernel and read back as one array, larger ones
        by numpy row operations; the RREF is unique, so both agree.
        """
        r, pivots = self._rref(self.asarray(m))
        return r, list(pivots)

    @_memoized
    def _rref(self, a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """rref of a reduced int64 matrix, pivots as a tuple."""
        rows, cols = a.shape
        if rows == 0 or cols == 0:
            return a, ()
        if rows * cols > SMALL_CELLS:
            r, pivots = self._rref_numpy(a)
            return r, tuple(pivots)
        r, pivots = self._rref_lists(a.tolist())
        return np.array(r, dtype=np.int64), tuple(pivots)

    def _rref_lists(self, m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
        """rref of a reduced, non-empty matrix given as lists of Python ints,
        eliminated in place: the only elimination of a matrix of at most
        SMALL_CELLS cells."""
        p = self.p
        rows, cols = len(m), len(m[0])
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r >= rows:
                break
            piv = next((i for i in range(r, rows) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            row = m[r]
            if row[c] != 1:
                inv = pow(row[c], p - 2, p)
                row = m[r] = [x * inv % p for x in row]
            for i in range(rows):
                f = m[i][c]
                if f and i != r:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
            pivots.append(c)
            r += 1
        return m, pivots

    def _rref_numpy(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """rref of a reduced, non-empty matrix, by numpy row operations."""
        a = a.copy()
        rows, cols = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r >= rows:
                break
            col = a[r:, c]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                a[[r, piv]] = a[[piv, r]]
            a[r] = (a[r] * self.inv(a[r, c])) % self.p
            other = np.nonzero(a[:, c])[0]
            other = other[other != r]
            if other.size:
                a[other] = (a[other] - np.outer(a[other, c], a[r])) % self.p
            pivots.append(c)
            r += 1
        return a, pivots

    @_memoized
    def rank(self, m: np.ndarray) -> int:
        if np.size(m) == 0:
            return 0
        a = self.asarray(m)
        if a.size <= SMALL_CELLS:
            return len(self._rref_lists(a.tolist())[1])
        return len(self._rref(a)[1])

    def _kernel_rows(self, r: list, pivots: list[int], cols: int) -> list[list[int]]:
        """Rows of the nullspace basis read off a list rref (r, pivots) with
        cols columns: free column f gives e_f minus f's column of r, at the pivots."""
        p = self.p
        free = [c for c in range(cols) if c not in pivots]
        row_of = dict(zip(pivots, r))
        return [[-row_of[c][f] % p for f in free] if c in row_of else [int(c == f) for f in free]
                for c in range(cols)]

    @_memoized
    def nullspace(self, m: np.ndarray) -> np.ndarray:
        """Basis of {x : m @ x = 0} as columns of the returned matrix."""
        if np.size(m) == 0:
            return self.eye(np.shape(m)[1])
        a = self.asarray(m)
        rows, cols = a.shape
        if a.size <= SMALL_CELLS:
            return np.array(self._kernel_rows(*self._rref_lists(a.tolist()), cols), dtype=np.int64)
        r, pivots = self._rref(a)
        pivots = list(pivots)
        free = [c for c in range(cols) if c not in pivots]
        basis = self.zeros(cols, len(free))
        basis[free, range(len(free))] = 1
        basis[pivots] = -r[:len(pivots), free] % self.p
        return basis

    @_memoized
    def solve_many(self, m: np.ndarray, bs: np.ndarray):
        """Solve m @ X = bs column-by-column; None if any column inconsistent."""
        a = self.asarray(m)
        bs = self.asarray(bs)
        rows, cols = a.shape
        if bs.shape[0] != rows:
            raise ValueError("shape mismatch in solve")
        k = bs.shape[1]
        if rows == 0 or k == 0:
            return self.zeros(cols, k)
        if cols == 0:
            return None if bs.any() else self.zeros(0, k)
        if rows * (cols + k) <= SMALL_CELLS:
            r, pivots = self._rref_lists([x + y for x, y in zip(a.tolist(), bs.tolist())])
            if pivots and pivots[-1] >= cols:
                return None
            row_of = dict(zip(pivots, r))
            return np.array([row_of[c][cols:] if c in row_of else [0] * k for c in range(cols)],
                            dtype=np.int64)
        r, pivots = self._rref(np.concatenate([a, bs], axis=1))
        if pivots and pivots[-1] >= cols:
            return None
        x = self.zeros(cols, k)
        x[list(pivots)] = r[:len(pivots), cols:]
        return x

    # -- subspace utilities --------------------------------------------------
    # Subspaces are given by their spanning vectors as COLUMNS of a matrix.

    def column_space_contains(self, basis: np.ndarray, vecs: np.ndarray) -> bool:
        if vecs.size == 0:
            return True
        return self.solve_many(basis, vecs) is not None

    @_memoized
    def column_reduce(self, m: np.ndarray) -> np.ndarray:
        """Deterministic basis (as columns) of the column space of m."""
        if np.size(m) == 0:
            return self.zeros(np.shape(m)[0], 0)
        a = self.asarray(m)
        if a.size <= SMALL_CELLS:
            r, pivots = self._rref_lists(a.T.tolist())
            return np.array([[row[i] for row in r[:len(pivots)]] for i in range(a.shape[0])],
                            dtype=np.int64)
        r, pivots = self._rref(a.T)
        return r[: len(pivots)].T.copy()

    @_memoized
    def quotient_projection(self, sub: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates on F^n / span(columns of sub).

        Returns (proj, reps): proj is (q, n) mapping a vector to quotient
        coordinates, reps is (n, q) mapping quotient coordinates to coset
        representatives; proj @ reps = identity.
        """
        if np.size(sub) == 0:
            return self.eye(n), self.eye(n)
        sub = self.asarray(sub).reshape(n, -1)
        # e_i = (element of sub) + sum_j c_ij reps_j: a free e_i is its own
        # rep, and the pivot e_c of the echelon column s_k is s_k, in sub,
        # minus the rest of s_k, which lies on free coordinates; so proj is
        # the transpose of the nullspace basis of sub's echelon rows
        if sub.size <= SMALL_CELLS:
            r, pivots = self._rref_lists(sub.T.tolist())
            basis = self._kernel_rows(r, pivots, n)
            q = n - len(pivots)
            proj = np.array(list(zip(*basis)), dtype=np.int64).reshape(q, n)
            reps = np.array([[0] * q if c in pivots else row for c, row in enumerate(basis)],
                            dtype=np.int64)
            return proj, reps
        r, pivots = self._rref(sub.T)
        pivots = list(pivots)
        sub_basis = r[: len(pivots)].T  # columns, echelon form
        free = [i for i in range(n) if i not in pivots]
        reps = self.zeros(n, len(free))
        reps[free, range(len(free))] = 1
        proj = self.zeros(len(free), n)
        proj[range(len(free)), free] = 1
        proj[:, pivots] = -sub_basis[free] % self.p
        return proj, reps


# -- the seeded stream --------------------------------------------------------

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


# SeedSequence's hash (numpy/random/bit_generator.pyx); `const` is its running
# hash constant, carried from call to call in a one-item list.
def _hashmix(value: int, const: list[int]) -> int:
    value ^= const[0]
    const[0] = (const[0] * 0x931E8875) & _M32
    value = (value * const[0]) & _M32
    return value ^ (value >> 16)


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ (r >> 16)


def _seed_words(seed: int) -> list[int]:
    """The four 64-bit words numpy's `SeedSequence(seed).generate_state(4,
    np.uint64)` gives: the seed's 32-bit words (least significant first)
    hash-mixed into a pool of four, then drawn out of it."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = [0x43B0D7E5]
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, const) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, const))
    const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = (const * 0x58F38DED) & _M32
        value = (value * const) & _M32
        out.append(value ^ (value >> 16))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Rng:
    """The stream of numpy's `default_rng(seed).integers(low, high, size)`,
    bit for bit, without importing numpy's random package (about 6 MiB
    resident and 10 ms per process).

    That generator is PCG64 (O'Neill, "PCG: A Family of Simple
    Fast Space-Efficient Statistically Good Algorithms for Random Number
    Generation", 2014): a 128-bit LCG whose output is the XSL-RR of the
    stepped state, seeded through `SeedSequence`.  A draw from fewer than
    2^32 values takes 32-bit halves of the 64-bit outputs (the high half kept
    for the next draw, also across calls) through Lemire's rejection ("Fast
    random integer generation in an interval", ACM TOMS 2019), and a draw
    from one value takes nothing.  Wider ranges are refused: no caller draws
    past the field cap p < 2^20.
    """

    def __init__(self, seed: int):
        w = _seed_words(int(seed))
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        # from state 0: step, add the seed word, step
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _M128
        self._half: int | None = None

    def _next32(self) -> int:
        if self._half is not None:
            out, self._half = self._half, None
            return out
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        x = ((x >> rot) | (x << (-rot & 63))) & _M64
        self._half = x >> 32
        return x & _M32

    def _bounded(self, rng: int) -> int:
        """A draw in [0, rng], for rng < 2^32 - 1."""
        if rng == 0:
            return 0
        span = rng + 1
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (_M32 - rng) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return m >> 32

    def integers(self, low: int, high: int, size: int | None = None):
        """An int in [low, high), or an int64 array of `size` of them."""
        rng = high - 1 - low
        if rng < 0:
            raise ValueError("low >= high")
        if rng >= _M32:
            raise ValueError("ranges of 2^32 or more values are not supported")
        if size is None:
            return low + self._bounded(rng)
        return np.array([low + self._bounded(rng) for _ in range(size)], dtype=np.int64)
