"""Idempotent splitting for endomorphism rings over a prime field.

Given a basis of an endomorphism ring as concrete matrices, these routines
find a nontrivial idempotent (giving a direct-sum splitting of the module) or
certify that none exists because the ring is local.  The pipeline is:

1. structure constants of the ring from the matrix basis;
2. Jacobson radical via the trace form of the regular representation,
   tightened to an ideal and certified nilpotent (requires p > dim of the
   ring, which keeps the trace-form computation faithful);
3. in the semisimple quotient, hunt for an element whose minimal polynomial
   has at least two distinct irreducible factors; a CRT projector then gives
   an idempotent, which Newton iteration lifts through the radical;
4. an element with irreducible minimal polynomial of full degree proves the
   quotient is a finite field, so the ring is local and the module
   indecomposable.

Polynomial factorization is distinct-degree followed by Cantor-Zassenhaus
equal-degree splitting with a caller-supplied generator, so everything is
reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

from tiltbench.linalg import PrimeField, Rng

_CANDIDATE_ATTEMPTS = 200
_LIFT_ITERATIONS = 64


class RadicalPreconditionViolated(Exception):
    """The field is too small for a faithful trace-form radical."""

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        super().__init__(
            f"radical computation needs the field order to exceed the algebra "
            f"dimension ({dim}); got p={p}; rerun with a prime p > {dim}, "
            f"e.g. p={_next_prime(dim + 1)}")


class DecompositionInconclusive(Exception):
    """Candidate search exhausted without an idempotent or a local certificate."""


def _next_prime(n: int) -> int:
    c = max(n, 2)
    while True:
        if c % 2 == 1 or c == 2:
            for d in range(3, int(c ** 0.5) + 1, 2):
                if c % d == 0:
                    break
            else:
                if c == 2 or c % 2 == 1:
                    return c
        c += 1


# -- polynomial arithmetic over F_p (ascending coefficient arrays) -----------


def _ptrim(f: np.ndarray) -> np.ndarray:
    nz = np.nonzero(f)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=np.int64)
    return f[: nz[-1] + 1]


def _pdeg(f: np.ndarray) -> int:
    f = _ptrim(f)
    return len(f) - 1 if f.any() else -1


def _pmul(F: PrimeField, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    if not f.any() or not g.any():
        return np.zeros(1, dtype=np.int64)
    return _ptrim(np.convolve(f, g) % F.p)


def _pdivmod(F: PrimeField, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    f = _ptrim(f).copy()
    g = _ptrim(g)
    dg = _pdeg(g)
    if dg < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = F.inv(int(g[-1]))
    q = np.zeros(max(_pdeg(f) - dg + 1, 1), dtype=np.int64)
    while _pdeg(f) >= dg and f.any():
        shift = _pdeg(f) - dg
        c = (int(f[-1]) * inv_lead) % F.p
        q[shift] = c
        f[shift: shift + dg + 1] = (f[shift: shift + dg + 1] - c * g) % F.p
        f = _ptrim(f)
    return _ptrim(q), _ptrim(f)


def _pmod(F: PrimeField, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return _pdivmod(F, f, g)[1]


def _pmonic(F: PrimeField, f: np.ndarray) -> np.ndarray:
    f = _ptrim(f)
    if not f.any():
        return f
    return (f * F.inv(int(f[-1]))) % F.p


def _pgcd(F: PrimeField, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    f, g = _ptrim(f), _ptrim(g)
    while g.any():
        f, g = g, _pmod(F, f, g)
    return _pmonic(F, f)


def _pxgcd(F: PrimeField, f: np.ndarray, g: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, s, t) with s*f + t*g = d = gcd, d monic."""
    r0, r1 = _ptrim(f), _ptrim(g)
    s0, s1 = np.array([1], dtype=np.int64), np.array([0], dtype=np.int64)
    t0, t1 = np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)
    while r1.any():
        q, r = _pdivmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ptrim((_pad_sub(F, s0, _pmul(F, q, s1))))
        t0, t1 = t1, _ptrim((_pad_sub(F, t0, _pmul(F, q, t1))))
    if r0.any():
        lead = F.inv(int(r0[-1]))
        r0 = (r0 * lead) % F.p
        s0 = (s0 * lead) % F.p
        t0 = (t0 * lead) % F.p
    return r0, s0, t0


def _pad_sub(F: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] = a
    out[: len(b)] = (out[: len(b)] - b) % F.p
    return out % F.p


def _pderiv(F: PrimeField, f: np.ndarray) -> np.ndarray:
    if len(f) <= 1:
        return np.zeros(1, dtype=np.int64)
    return _ptrim((f[1:] * np.arange(1, len(f), dtype=np.int64)) % F.p)


def _ppow_mod(F: PrimeField, base: np.ndarray, e: int, mod: np.ndarray) -> np.ndarray:
    result = np.array([1], dtype=np.int64)
    base = _pmod(F, base, mod)
    while e > 0:
        if e & 1:
            result = _pmod(F, _pmul(F, result, base), mod)
        base = _pmod(F, _pmul(F, base, base), mod)
        e >>= 1
    return result


def factor_squarefree(F: PrimeField, f: np.ndarray, rng: Rng) -> list[np.ndarray]:
    """Irreducible factors of a squarefree monic polynomial."""
    f = _pmonic(F, f)
    out: list[np.ndarray] = []
    # distinct-degree split
    x = np.array([0, 1], dtype=np.int64)
    h = x.copy()
    rest = f
    d = 0
    stacks: list[tuple[np.ndarray, int]] = []
    while _pdeg(rest) > 0:
        d += 1
        if 2 * d > _pdeg(rest):
            stacks.append((rest, _pdeg(rest)))
            break
        h = _ppow_mod(F, h, F.p, rest)
        g = _pgcd(F, rest, _pad_sub(F, h, x))
        if _pdeg(g) > 0:
            stacks.append((g, d))
            rest = _pdivmod(F, rest, g)[0]
            h = _pmod(F, h, rest)
    for prod, deg in stacks:
        out.extend(_equal_degree(F, prod, deg, rng))
    out.sort(key=lambda q: (len(q), tuple(int(c) for c in q)))
    return out


def _equal_degree(F: PrimeField, f: np.ndarray, d: int,
                  rng: Rng) -> list[np.ndarray]:
    n = _pdeg(f)
    if n == d:
        return [f]
    exponent = (F.p ** d - 1) // 2
    for _ in range(200):
        r = rng.integers(0, F.p, size=n)
        r = _ptrim(r)
        if _pdeg(r) < 1:
            continue
        g = _pgcd(F, f, r)
        if 0 < _pdeg(g) < n:
            pass
        else:
            h = _ppow_mod(F, r, exponent, f)
            g = _pgcd(F, f, _pad_sub(F, h, np.array([1], dtype=np.int64)))
            if not (0 < _pdeg(g) < n):
                continue
        left = _equal_degree(F, g, d, rng)
        right = _equal_degree(F, _pdivmod(F, f, g)[0], d, rng)
        return left + right
    raise DecompositionInconclusive("equal-degree splitting did not converge")


# -- abstract ring built from matrix basis ------------------------------------


class _RingData:
    """Coordinates, structure constants, and multiplication for a matrix span."""

    def __init__(self, F: PrimeField, mats: list[np.ndarray] | None,
                 table: np.ndarray | None = None, unit: np.ndarray | None = None):
        self.F = F
        self.mats = mats
        if table is not None:
            self.k = table.shape[0]
            self.table = table
            if unit is None:
                raise ValueError("a table-built ring needs its unit coordinates")
            self.unit = unit
            return
        assert mats is not None
        self.k = len(mats)
        n = mats[0].shape[0]
        self.basis_flat = np.stack([m.reshape(-1) for m in mats], axis=1) % F.p
        prods = np.zeros((n * n, self.k * self.k), dtype=np.int64)
        for i in range(self.k):
            for j in range(self.k):
                prods[:, i * self.k + j] = ((mats[i] @ mats[j]) % F.p).reshape(-1)
        coords = F.solve_many(self.basis_flat, prods)
        if coords is None:
            raise AssertionError("matrix span is not closed under multiplication")
        self.table = coords.T.reshape(self.k, self.k, self.k)
        ident = np.eye(n, dtype=np.int64).reshape(-1, 1)
        unit = F.solve_many(self.basis_flat, ident)
        if unit is None:
            raise AssertionError("identity not in the endomorphism span")
        self.unit = unit[:, 0]

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.table) % self.F.p


class _QuotientRing:
    """A ring quotient by an ideal subspace, with multiplication inherited."""

    def __init__(self, ring: _RingData, ideal_basis: np.ndarray):
        F = ring.F
        self.F = F
        self.ring = ring
        self.proj, self.reps = F.quotient_projection(ideal_basis, ring.k)
        self.k = self.proj.shape[0]
        self.unit = (self.proj @ ring.unit) % F.p

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        full = self.ring.mul((self.reps @ x) % self.F.p, (self.reps @ y) % self.F.p)
        return (self.proj @ full) % self.F.p

    def minimal_polynomial(self, x: np.ndarray) -> np.ndarray:
        """Monic minimal polynomial (ascending coefficients)."""
        F = self.F
        powers = [self.unit.copy()]
        cur = self.unit.copy()
        for _ in range(self.k + 1):
            cur = self.mul(cur, x)
            powers.append(cur.copy())
            m = np.stack(powers, axis=1) % F.p
            null = F.nullspace(m)
            if null.shape[1] > 0:
                rel = null[:, 0]
                return _pmonic(F, _ptrim(rel))
        raise AssertionError("minimal polynomial search exceeded ring dimension")

    def eval_poly(self, f: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.k, dtype=np.int64)
        for c in reversed(f.tolist()):
            out = self.mul(out, x)
            out = (out + c * self.unit) % self.F.p
        return out


def radical_from_table(F: PrimeField, table: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Radical basis for a ring given by structure constants."""
    return _radical_of_ring(_RingData(F, None, table=table, unit=unit))


def _radical_of_ring(ring: _RingData) -> np.ndarray:
    F = ring.F
    k = ring.k
    if F.p <= k:
        raise RadicalPreconditionViolated(k, F.p)
    left = np.transpose(ring.table, (0, 2, 1))  # left[i] is L_{e_i}
    # gram[i, j] = tr(L_i @ L_j) = sum_{a,b} left[i][a,b] * left[j][b,a]
    gram = np.tensordot(left, left, axes=([1, 2], [2, 1])) % F.p
    n_space = F.nullspace(gram)
    # tighten to a two-sided ideal
    while n_space.shape[1] > 0:
        proj, _ = F.quotient_projection(n_space, k)
        if proj.shape[0] == 0:
            break
        constraints = []
        for j in range(k):
            right_j = ring.table[:, j, :].T  # maps x -> x * e_j
            left_j = ring.table[j].T         # maps x -> e_j * x
            constraints.append((proj @ right_j @ n_space) % F.p)
            constraints.append((proj @ left_j @ n_space) % F.p)
        sys = np.concatenate(constraints) % F.p
        keep = F.nullspace(sys)
        if keep.shape[1] == n_space.shape[1]:
            break
        n_space = F.column_reduce((n_space @ keep) % F.p)
    certify_nilpotent(F, ring.table, n_space)
    return n_space


def certify_nilpotent(F: PrimeField, table: np.ndarray, basis: np.ndarray) -> None:
    """Raise AssertionError unless the column span of basis, inside the ring
    with structure constants table, is nilpotent (some power vanishes within
    dim + 1 steps)."""
    k = table.shape[0]
    power = basis
    for _ in range(k + 1):
        if power.shape[1] == 0:
            return
        tmp = np.tensordot(power.T % F.p, table, axes=1) % F.p  # (u, j, k)
        prods = np.einsum("ujk,jv->kuv", tmp, basis).reshape(k, -1) % F.p
        power = F.column_reduce(prods)
    raise AssertionError("radical candidate failed the nilpotency certificate")


def find_splitting_idempotent(F: PrimeField, mats: list[np.ndarray],
                              rng: Rng) -> np.ndarray | None:
    """A nontrivial idempotent matrix in the span, or None when the ring is
    certified local (so the module is indecomposable)."""
    ring = _RingData(F, mats)
    rad = _radical_of_ring(ring)
    bar = _QuotientRing(ring, rad)
    if bar.k == 1:
        return None
    candidates = _candidate_elements(bar, rng)
    for x in candidates:
        mp = bar.minimal_polynomial(x)
        if _pdeg(mp) < 1:
            continue
        deriv = _pderiv(F, mp)
        sf = _pdivmod(F, mp, _pgcd(F, mp, deriv))[0] if deriv.any() else None
        if sf is None:
            # derivative vanished: p divides every exponent; cannot happen
            # with p > ring dimension >= deg mp, but skip defensively
            continue
        factors = factor_squarefree(F, sf, rng)
        if len(factors) >= 2:
            e_bar = _crt_idempotent(bar, mp, factors[0], x)
            if e_bar is None:
                continue
            return _lift_idempotent(ring, bar, e_bar)
        if len(factors) == 1 and _pdeg(factors[0]) == bar.k and _pdeg(mp) == bar.k:
            return None  # quotient is the field F_p[x]: ring is local
    raise DecompositionInconclusive(
        "no splitting idempotent found and no local certificate reached")


def _candidate_elements(bar: _QuotientRing, rng: Rng):
    for i in range(bar.k):
        e = np.zeros(bar.k, dtype=np.int64)
        e[i] = 1
        yield e
    for _ in range(_CANDIDATE_ATTEMPTS):
        yield rng.integers(0, bar.F.p, size=bar.k)


def _crt_idempotent(bar: _QuotientRing, mp: np.ndarray, fac: np.ndarray,
                    x: np.ndarray) -> np.ndarray | None:
    """Idempotent in F_p[x] projecting onto the fac-primary component."""
    F = bar.F
    primary = fac
    rest, rem = _pdivmod(F, mp, primary)
    while True:
        q, r = _pdivmod(F, rest, fac)
        if r.any() or _pdeg(rest) == 0:
            break
        primary = _pmul(F, primary, fac)
        rest = q
    if _pdeg(rest) < 1 and not (rest - np.array([1])).any():
        return None  # mp is a power of a single irreducible: no split here
    d, s, t = _pxgcd(F, primary, rest)
    if _pdeg(d) != 0:
        return None
    inv_d = F.inv(int(d[0]))
    u = _pmod(F, _pmul(F, (t * inv_d) % F.p, rest), mp)
    e = bar.eval_poly(u, x)
    if not e.any():
        return None
    if not (e - bar.unit).any():
        return None
    return e


def _lift_idempotent(ring: _RingData, bar: _QuotientRing,
                     e_bar: np.ndarray) -> np.ndarray:
    F = ring.F
    coords = (bar.reps @ e_bar) % F.p
    n = ring.mats[0].shape[0]
    E = np.zeros((n, n), dtype=np.int64)
    for c, m in zip(coords.tolist(), ring.mats):
        E = (E + c * m) % F.p
    for _ in range(_LIFT_ITERATIONS):
        sq = (E @ E) % F.p
        if np.array_equal(sq, E):
            break
        E = (3 * sq - 2 * ((sq @ E) % F.p)) % F.p
    else:
        raise AssertionError("idempotent lifting did not converge")
    if not E.any() or np.array_equal(E, np.eye(n, dtype=np.int64) % F.p):
        raise AssertionError("lifted idempotent is trivial")
    return E
