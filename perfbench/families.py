"""Generated job families whose verdicts the literature decides.

* k[x]/(x^n) with M the sum of all truncations k[x]/(x^i), i = 1..n.  M is
  an additive generator of mod k[x]/(x^n), so add(M) = mod Lambda is
  1-cluster-tilting and End(M) is the Auslander algebra (Auslander
  correspondence; Iyama, Adv. Math. 2007).
* kA_n/rad^2 on the linear quiver 1 -> 2 -> ... -> n with
  M = Lambda + S_{n-d} + S_{n-2d} + ... (the tau_d^- orbit closure of the
  injective non-projective simple).  add(M) is d-cluster-tilting, and
  d-precluster-tilting, iff d divides n - 1 (Vaso, JPAA 2019).

Every job is plain job-file JSON; the benchmark writes it to disk and the
program reads it through `jobspec.ingest` like any user file.
"""

from __future__ import annotations

CHARACTERISTIC = 101


def _truncation(i: int, n: int):
    """k[x]/(x^i) as a summand spec over k[x]/(x^n)."""
    if i == 1:
        return {"simple": "1"}
    if i == n:
        return "regular"
    shift = [[1 if r == c + 1 else 0 for c in range(i)] for r in range(i)]
    return {"explicit": {"dims": [i], "arrows": {"x": shift}}}


def serial_job(n: int, checks: list[dict], seed: int, trials: int) -> dict:
    """k[x]/(x^n) with M = all n truncations (declared complete)."""
    module = [_truncation(i, n) for i in range(1, n + 1)]
    return {"name": f"serial_x{n}_truncations",
            "characteristic": CHARACTERISTIC,
            "quiver": {"vertices": ["1"], "arrows": [["x", "1", "1"]]},
            "relations": [[[1, ["x"] * n]]],
            "module": module,
            "declared_indecomposables": list(module),
            "checks": checks,
            "options": {"seed": seed, "trials": trials}}


def rad2_orbit(n: int, d: int) -> list[int]:
    """Vertices n - d, n - 2d, ... (>= 1) of the simples added to Lambda."""
    return list(range(n - d, 0, -d))


def rad2_job(n: int, d: int, checks: list[dict], seed: int,
             trials: int) -> dict:
    """kA_n/rad^2 with M = Lambda + the simples of `rad2_orbit(n, d)`; the
    declared list (Lambda and every simple) is complete."""
    vertices = [str(v) for v in range(1, n + 1)]
    arrows = [[f"a{v}", str(v), str(v + 1)] for v in range(1, n)]
    relations = [[[1, [f"a{v}", f"a{v + 1}"]]] for v in range(1, n - 1)]
    module = ["regular"] + [{"simple": str(v)} for v in rad2_orbit(n, d)]
    declared = ["regular"] + [{"simple": str(v)} for v in range(1, n)]
    return {"name": f"rad2_a{n}_d{d}",
            "characteristic": CHARACTERISTIC,
            "quiver": {"vertices": vertices, "arrows": arrows},
            "relations": relations,
            "module": module,
            "declared_indecomposables": declared,
            "checks": checks,
            "options": {"seed": seed, "trials": trials}}
