"""Check orchestration and report emission.

`run` executes the checks requested by a job in dependency order (membership
certificates before the classifiers that assume them) and aggregates the
verdicts into a CheckReport.  Checks run sequentially; the report is a pure
function of (job, seed, trials), so two runs with the same inputs emit
byte-identical JSON — wall-clock timing is carried for the text rendering
but nulled in JSON output.

`run` owns the job it realizes (on a spec's first run, the one `ingest`
built) and drops it when it returns or raises; the job holds no reference
cycle, so reference counting frees its caches at once.

A RouteDisagreement raised by any check is a bug in this package, never a
property of the input; it surfaces as the distinguished report status
``route-disagreement`` with its own exit code.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from tiltbench import axioms
from tiltbench.axioms import RouteDisagreement, Verdict, jsonable
from tiltbench.jobspec import CheckRequest, JobSpec, RealizedJob

# run order: certificates and cheap axioms first, composite classifiers last
_ORDER = {"A0": 0, "A1+A1op": 1, "A2+A2op": 2, "A3+A3op": 3,
          "gen-cogen-ff": 4, "d-rigid": 5, "A4": 6, "d-precluster": 7,
          "d-cluster-tilting": 8, "d-abelian": 9}

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_ROUTE_DISAGREEMENT = 3
EXIT_INTERNAL_ERROR = 3  # any other exception escaping a run


@dataclass
class CheckReport:
    job: dict
    name: str
    seed: int
    trials: int
    version: str
    verdicts: list[Verdict]
    disagreement: dict | None = None
    timing_s: float | None = None

    @property
    def status(self) -> str:
        if self.disagreement is not None:
            return "route-disagreement"
        if any(not v.passed for v in self.verdicts):
            return "fail"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": EXIT_PASS, "fail": EXIT_CHECK_FAILED,
                "route-disagreement": EXIT_ROUTE_DISAGREEMENT}[self.status]

    def to_json(self) -> dict:
        return {"tool": "tiltbench", "version": self.version,
                "name": self.name, "job": jsonable(self.job),
                "seed": self.seed, "trials": self.trials,
                "status": self.status,
                "verdicts": [v.to_json() for v in self.verdicts],
                "disagreement": jsonable(self.disagreement),
                "timing_s": None}


def _dispatch(spec: JobSpec, job: RealizedJob, req: CheckRequest, seed: int,
              trials: int) -> Verdict:
    x, d = job.x, req.d
    cap = spec.option("resolution_cap")
    t = req.trials if req.trials is not None else trials
    if req.check == "A0":
        return axioms.check_A0(x, trials=t, seed=seed)
    if req.check == "A1+A1op":
        return axioms.check_A1_A1op(x, t, seed)
    if req.check == "A2+A2op":
        return axioms.check_A2_A2op(x, t, seed)
    if req.check == "A3+A3op":
        return axioms.check_A3_A3op(x, t, seed)
    if req.check == "gen-cogen-ff":
        return axioms.classify_gen_cogen_ff(x, t, seed, cap=cap)
    if req.check == "d-rigid":
        return axioms.check_d_rigid(x, d, t, seed)
    if req.check == "A4":
        return axioms.check_A4d(x, d, t, seed)
    if req.check == "d-precluster":
        return axioms.classify_d_precluster(x, d, t, seed, cap=cap)
    if req.check == "d-cluster-tilting":
        return axioms.classify_d_cluster_tilting(x, d, job.declared, t, seed,
                                                 cap=cap)
    if req.check == "d-abelian":
        return axioms.classify_d_abelian(x, d, t, seed,
                                         declared_indecomposables=job.declared)
    raise ValueError(f"unknown check {req.check!r}")


def run(spec: JobSpec, seed: int | None = None,
        trials: int | None = None) -> CheckReport:
    """Execute all requested checks; seed/trials arguments override the
    job-file options."""
    from tiltbench import __version__

    eff_seed = spec.option("seed", seed)
    eff_trials = spec.option("trials", trials)
    start = time.perf_counter()
    job = spec.realize()
    requests = sorted(spec.checks, key=lambda r: (_ORDER[r.check], r.d or 0))
    verdicts: list[Verdict] = []
    disagreement = None
    for req in requests:
        try:
            verdicts.append(_dispatch(spec, job, req, eff_seed, eff_trials))
        except RouteDisagreement as e:
            disagreement = {"check": req.to_json(), "error": str(e),
                            "details": e.details}
            break
    return CheckReport(job=spec.raw, name=spec.name, seed=eff_seed,
                       trials=eff_trials, version=__version__,
                       verdicts=verdicts, disagreement=disagreement,
                       timing_s=time.perf_counter() - start)


def _witness_summary(v: Verdict) -> str:
    if v.witness is None:
        return ""
    kind = v.witness.get("kind", "?") if isinstance(v.witness, dict) else "?"
    extra = ""
    if isinstance(v.witness, dict):
        scalars = [f"{k}={v.witness[k]}" for k in sorted(v.witness)
                   if k != "kind" and isinstance(v.witness[k], (int, str))]
        if scalars:
            extra = " (" + ", ".join(scalars[:3]) + ")"
    return kind + extra


def emit_text(report: CheckReport) -> str:
    lines = [f"tiltbench {report.version} — job: {report.name}",
             f"seed={report.seed} trials={report.trials}",
             ""]
    header = f"{'check':<20} {'status':<15} {'route':<36} witness"
    lines.append(header)
    lines.append("-" * len(header))
    for v in report.verdicts:
        lines.append(f"{v.name:<20} {v.status:<15} {v.route or '':<36} "
                     f"{_witness_summary(v)}".rstrip())
    if report.disagreement is not None:
        lines.append("")
        lines.append(f"ROUTE DISAGREEMENT in {report.disagreement['check']}: "
                     f"{report.disagreement['error']}")
        lines.append("this is a bug in the tool, not a property of the input")
    lines.append("")
    timing = (f" in {report.timing_s:.2f}s"
              if report.timing_s is not None else "")
    lines.append(f"result: {report.status}{timing}")
    return "\n".join(lines) + "\n"


def emit_json(report: CheckReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def emit(report: CheckReport, fmt: str = "text") -> str:
    if fmt == "text":
        return emit_text(report)
    if fmt == "json":
        return emit_json(report)
    raise ValueError(f"unknown report format {fmt!r}")
