"""The benchmark's workloads: which jobs a pass runs, and what they must say.

Both workloads are generated families whose verdicts the literature
decides (see families.py).  The workload seed reaches the program only as
the jobs' `options.seed`, which `axioms.sample_morphisms` also receives in
the functor jobs.  `oracle` holds the literature's verdicts; everything
else is compared against `expected.json`, recorded with `run.py --record`
on the seed commit.

Sizes keep a pass to about ten seconds on a 2-core host: a run repeats
passes and reports medians, and this host's speed swings by up to 60% for
10-15 s at a time, so a run needs several passes to outvote a slow spell.
"""

from __future__ import annotations

import json
import os

import families

WORKLOADS = ("gamma", "sampled")
RECORDING_SEED = 42

# sampled-route budget per check (the bundled corpus ships 100)
TRIALS = 10
LOCALIZATION_MORPHISMS = 30

GAMMA_SERIAL = (2, 3, 4)
GAMMA_RAD2 = ((5, 2),)
SAMPLED_SERIAL = (2, 3, 4)
SAMPLED_RAD2 = ((5, 2), (7, 2), (7, 3), (9, 4), (8, 3), (9, 2))


def _gamma_checks(d: int) -> list[dict]:
    return [{"check": "gen-cogen-ff"}, {"check": "d-precluster", "d": d},
            {"check": "d-cluster-tilting", "d": d}]


def _sampled_checks(d: int) -> list[dict]:
    return [{"check": "A1+A1op"}, {"check": "A2+A2op"},
            {"check": "A3+A3op"}, {"check": "d-rigid", "d": d},
            {"check": "A4", "d": d}]


def _gen_cogen(kind: str, n: int, d: int) -> bool:
    """add(M) generates and cogenerates: always for all truncations; for
    kA_n/rad^2 exactly when the orbit reaches the injective simple S_1."""
    return kind == "serial" or (n - 1) % d == 0


def _oracle(kind: str, checks: list[dict], n: int, d: int) -> dict:
    """Literature verdicts (passed or not) for the requested checks."""
    names = {c["check"] for c in checks}
    if kind == "serial":
        # Auslander correspondence: add(all truncations) = mod Lambda
        verdicts = {"gen-cogen-ff": True, "1-precluster-tilting": True,
                    "1-cluster-tilting": True}
    else:
        ok = (n - 1) % d == 0
        verdicts = {f"{d}-precluster-tilting": ok, f"{d}-cluster-tilting": ok}
    check_of = {"gen-cogen-ff": "gen-cogen-ff",
                f"{d}-precluster-tilting": "d-precluster",
                f"{d}-cluster-tilting": "d-cluster-tilting"}
    return {v: ok for v, ok in verdicts.items() if check_of[v] in names}


def _generated(serial, rad2, checks_for, seed: int, workdir: str,
               localization: bool = False) -> list[dict]:
    """Report jobs for the families, then (with `localization`) the functor
    layer over morphisms sampled from each family's subcategory."""
    specs = [("serial", n, 1, families.serial_job(n, checks_for(1), seed, TRIALS))
             for n in serial]
    specs += [("rad2", n, d, families.rad2_job(n, d, checks_for(d), seed, TRIALS))
              for n, d in rad2]
    jobs, functor_jobs = [], []
    for kind, n, d, data in specs:
        path = os.path.join(workdir, data["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
        jobs.append({"name": data["name"], "kind": "report", "path": path,
                     "oracle": _oracle(kind, data["checks"], n, d)})
        functor_jobs.append({"name": f"localization.{data['name']}",
                             "kind": "localization", "path": path,
                             "morphisms": LOCALIZATION_MORPHISMS,
                             "gen_cogen": _gen_cogen(kind, n, d)})
    return jobs + functor_jobs if localization else jobs


def manifest(workload: str, seed: int, workdir: str) -> list[dict]:
    """The jobs a pass of `workload` runs, with their checks' oracles."""
    if workload == "gamma":
        return _generated(GAMMA_SERIAL, GAMMA_RAD2, _gamma_checks, seed, workdir)
    if workload == "sampled":
        return _generated(SAMPLED_SERIAL, SAMPLED_RAD2, _sampled_checks, seed,
                          workdir, localization=True)
    raise ValueError(f"unknown workload {workload!r}")
