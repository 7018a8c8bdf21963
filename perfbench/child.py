"""One benchmark pass, run in a fresh process by run.py.

    python3 perfbench/child.py MANIFEST OUT [--setup-only] [--trace SPANS]

Times the tiltbench import, then ingests every job of the manifest through
`jobspec.ingest` (import + ingests = set-up), then runs the pass and writes
one JSON result to OUT.  A "report" job goes through `report.run` and
`report.emit(..., "json")`, exactly as `tiltbench check --report json`
does; a "localization" job drives the functor layer over morphisms sampled
from the job's subcategory.

A HostClock (hostspeed.py) started before the import gives set-up and sweep
times normalised to a fixed host speed too.  It is marked after the ingests,
between jobs and, in untraced passes, at outermost check calls and between
sampled morphisms, so that no mark falls inside a traced span.
"""

from __future__ import annotations

import sys
from time import perf_counter

from hostspeed import HostClock

HOST = HostClock()
_T0 = perf_counter()
import tiltbench.cli  # noqa: E402,F401  the import a `tiltbench check` pays
IMPORT_S = perf_counter() - _T0

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

from tiltbench import axioms, jobspec, report  # noqa: E402

# top-level check functions by family; nested calls count toward the
# outermost one
CHECK_FAMILIES = {
    "check_A0": "axioms", "check_A1_A1op": "axioms",
    "check_A2_A2op": "axioms", "check_A3_A3op": "axioms",
    "check_A4d": "axioms", "check_d_rigid": "axioms",
    "classify_gen_cogen_ff": "gen-cogen-ff",
    "classify_d_precluster": "d-precluster",
    "classify_d_cluster_tilting": "d-cluster-tilting",
    "classify_d_abelian": "d-abelian",
}
FAMILIES = ("axioms", "gen-cogen-ff", "d-precluster", "d-cluster-tilting",
            "d-abelian", "localization")


class CheckClock:
    """Sums wall time of outermost calls per check family, and offers the
    host clock a mark (`offer_mark`) on either side of each."""

    def __init__(self, offer_mark):
        self.seconds = {f: 0.0 for f in FAMILIES}
        self.depth = 0
        self.offer_mark = offer_mark

    def timed(self, family: str, fn):
        def wrapper(*args, **kwargs):
            if self.depth == 0:
                self.offer_mark()
            self.depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if self.depth == 0:
                    self.seconds[family] += perf_counter() - t0
                    self.offer_mark()
        return wrapper

    def install(self) -> None:
        for name, family in CHECK_FAMILIES.items():
            setattr(axioms, name, self.timed(family, getattr(axioms, name)))


def run_report_job(spec, job: dict) -> dict:
    rpt = report.run(spec, seed=job.get("seed"), trials=job.get("trials"))
    text = report.emit(rpt, "json")
    return {"status": rpt.status,
            "verdicts": [[v.name, v.status] for v in rpt.verdicts],
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def run_localization_job(spec, job: dict, clock: CheckClock) -> dict:
    """Functor-layer pass over sampled morphisms: for each, the cokernel of
    its Yoneda image, that functor's collapse and effaceability, and both
    star-adjunction sequences.  The laws are judged by run.py."""
    from tiltbench import functors as fun

    x = spec.realize().x
    maps = axioms.sample_morphisms(x, job["morphisms"], spec.option("seed"))
    out = {"morphisms": len(maps), "effaceable": 0,
           "collapsed_not_effaceable": 0, "effaceable_not_collapsed": 0,
           "sequence_failures": []}
    for k, m in enumerate(maps):
        clock.offer_mark()
        t0 = perf_counter()
        fc, _ = fun.cokernel_functor(fun.yoneda_morphism(x, m))
        collapsed = int(sum(fun.psi_tilde(fc).dims)) == 0
        effaceable = bool(fun.is_effaceable(fc)[0])
        out["effaceable"] += effaceable
        out["collapsed_not_effaceable"] += collapsed and not effaceable
        out["effaceable_not_collapsed"] += effaceable and not collapsed
        try:
            fun.verify_star_adjunction_sequences(fc)
        except fun.SequenceCheckFailed as e:
            out["sequence_failures"].append(f"#{k}: {e}")
        clock.seconds["localization"] += perf_counter() - t0
    return out


def main(argv: list[str]) -> int:
    manifest_path, out_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    with open(manifest_path, encoding="utf-8") as fh:
        jobs = json.load(fh)

    tracer = None
    if spans_path is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if tracer is None:
        clock = CheckClock(lambda: HOST.mark(force=False))
    else:
        clock = CheckClock(lambda: None)
    clock.install()

    t_ingest = perf_counter()
    specs = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        try:
            specs.append(jobspec.ingest(job["path"]))
        except Exception as e:  # a failed job, reported as such
            specs.append(e)
    ingest_s = perf_counter() - t_ingest
    HOST.mark()
    setup_speed = HOST.speed()
    result = {"import_s": IMPORT_S, "ingest_s": ingest_s,
              "setup_wall_s": IMPORT_S + ingest_s,
              "setup_s": (IMPORT_S + ingest_s) * setup_speed}
    if not setup_only:
        wall0, norm0 = HOST.wall, HOST.norm
        results = []
        for i, (job, spec) in enumerate(zip(jobs, specs)):
            if tracer is not None:
                tracer.job = i
            if isinstance(spec, Exception):
                results.append({"error": f"ingest: {spec!r}"})
                continue
            try:
                if job["kind"] == "localization":
                    got = run_localization_job(spec, job, clock)
                else:
                    got = run_report_job(spec, job)
            except Exception as e:
                got = {"error": repr(e)}
            results.append(got)
            HOST.mark()
        result["sweep_wall_s"] = ingest_s + HOST.wall - wall0
        result["sweep_s"] = ingest_s * setup_speed + HOST.norm - norm0
        result["check_s"] = clock.seconds
        result["jobs"] = results
    result["ref_s"] = HOST.refs
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
