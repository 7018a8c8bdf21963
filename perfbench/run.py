"""tiltbench benchmark: one workload, closed loop, one pass process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite expected.json

Run from the root of a checkout.  Each pass is a fresh child process
(perfbench/child.py) that imports tiltbench from ./src, ingests every job
and runs it; passes repeat, one at a time, until S seconds are used.  Every
pass is checked: literature oracles, the expected table, route
disagreements, byte-identical JSON across passes and functor laws.  A job
that fails any of these, raises, or sits in a pass that times out counts in
`failed`.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`, each metric the median over the run's passes:

  --trace 0, the end-to-end metrics of BENCHMARK.json:
    sweep_s      time of one pass over every job (ingests included)
    setup_s      what a `tiltbench check` pays before its first check: the
                 package import in a fresh process plus every jobspec.ingest
                 (sampled in each pass and in set-up-only processes)
    peak_rss_mb  peak resident set of a pass process, from its rusage
  Both times are normalised to a fixed host speed by a reference loop timed
  between jobs (see hostspeed.py); the raw wall times, sweep_wall_s and
  setup_wall_s, and the host's speed relative to the reference, host_speed,
  are printed in the table, not gated.
  --trace 1, the per-layer metrics of BENCHMARK.json, from passes traced by
    tracer.py, alternating with untraced passes; trace.overhead_s is the
    traced minus the untraced sweep_s.

The table above the JSON line gives quartiles and sample counts, and with
--trace 1 also times that are 0 on some workload (so cannot be gated):
check_s.<family>, the summed wall time of outermost calls to each check
family in untraced passes, and the self time of layers some workload never
reaches.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostspeed import REF_S  # noqa: E402

PASS_TIMEOUT_S = 90      # a pass that runs longer counts as failed
RUN_BUDGET_S = 160       # hard cap on one run, passes included
SETUP_SAMPLES = 6        # set-up-only processes per run, beside the passes

DIMENSION_FUNCS = ("projective_dimension", "injective_dimension",
                   "global_dimension", "dominant_dimension",
                   "selfinjective_dimensions")
# units of printed, not gated rows that are not in seconds
EXTRA_UNITS = {"host_speed": "ratio"}
# per-layer metrics summed over several span names
SPAN_GROUPS = {
    "algebra_ops.dimension.calls": [f"algebra_ops.{f}" for f in DIMENSION_FUNCS],
    "subcat.approximation.calls": ["subcat.right_approximation",
                                   "subcat.left_approximation"],
    "subcat.weak_kernel.calls": ["subcat.weak_kernel", "subcat.weak_cokernel"],
    "subcat.tau_d.calls": ["subcat.tau_d", "subcat.tau_d_inverse"],
}


class Child:
    """A pass process; `wait` reaps it with its own rusage."""

    def __init__(self, args: list[str], root: str, log_path: str):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.log_path = log_path
        with open(log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py")] + args,
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)

    def wait(self, timeout: float):
        """(exit status or None on timeout, peak RSS in MiB)."""
        deadline = time.monotonic() + timeout
        pid = self.proc.pid
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(pid, 0)
                self.proc.returncode = -9
                return None, usage.ru_maxrss / 1024
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, usage.ru_maxrss / 1024

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            os.wait4(self.proc.pid, 0)
            self.proc.returncode = -9

    def log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]


class Runner:
    def __init__(self, root: str, workdir: str, manifest_path: str, started: float):
        self.root = root
        self.workdir = workdir
        self.manifest_path = manifest_path
        self.started = started
        self.count = 0
        self.current: Child | None = None

    def run(self, extra: list[str] = ()) -> dict | None:
        """One child; its JSON result plus peak_rss_mb, or None if it failed."""
        self.count += 1
        out = os.path.join(self.workdir, f"out-{self.count}.json")
        log = os.path.join(self.workdir, f"log-{self.count}.txt")
        self.current = Child([self.manifest_path, out] + list(extra),
                             self.root, log)
        budget = RUN_BUDGET_S - (time.monotonic() - self.started)
        code, rss = self.current.wait(max(1.0, min(PASS_TIMEOUT_S, budget)))
        child, self.current = self.current, None
        if code != 0 or not os.path.exists(out):
            why = "timed out" if code is None else f"exit {code}"
            print(f"pass process {why}:\n{child.log_tail()}", file=sys.stderr)
            return None
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["peak_rss_mb"] = rss
        return result

    def close(self) -> None:
        if self.current is not None:
            self.current.kill()


# -- correctness ---------------------------------------------------------------


class Gate:
    """Counts attempted and failed jobs over all passes of a run."""

    def __init__(self, workload: str, seed: int, jobs: list[dict], expected: dict):
        self.recording = seed == workloads.RECORDING_SEED
        self.jobs = jobs
        self.expected = expected[workload]
        self.first_sha: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)

    def check_pass(self, result: dict | None) -> None:
        self.attempted += len(self.jobs)
        if result is None:
            self.failed += len(self.jobs)
            self.problems.append("a pass process failed or timed out")
            return
        for job, got in zip(self.jobs, result["jobs"]):
            msg = self._job_problem(job, got)
            if msg:
                self._fail(f"{job['name']}: {msg}")

    def _job_problem(self, job: dict, got: dict) -> str | None:
        if "error" in got:
            return got["error"]
        want = self.expected.get(job["name"])
        if want is None:
            return "no expected entry"
        if job["kind"] == "localization":
            return self._localization_problem(job, got, want)
        if got["status"] == "route-disagreement":
            return "route disagreement"
        verdicts = dict(got["verdicts"])
        for name, passed in job.get("oracle", {}).items():
            if name not in verdicts:
                return f"no {name} verdict"
            if (verdicts[name] != "fail") != passed:
                return f"{name} is {verdicts[name]}, literature says " \
                       f"{'pass' if passed else 'fail'}"
        if self.recording:
            if got["status"] != want["status"]:
                return f"status {got['status']}, expected {want['status']}"
            if got["sha256"] != want["sha256"]:
                return "JSON report differs from the recorded one"
            if set(verdicts) != set(want["verdicts"]):
                return "verdict set differs from the expected table"
        for name, status in want["verdicts"].items():
            if (self.recording or status == "certified-pass") \
                    and verdicts.get(name) != status:
                return f"{name} is {verdicts.get(name)}, expected {status}"
        first = self.first_sha.setdefault(job["name"], got["sha256"])
        if got["sha256"] != first:
            return "JSON report differs from an earlier pass"
        return None

    def _localization_problem(self, job: dict, got: dict, want: dict) -> str | None:
        """Collapse implies effaceable; the converse where add(M) generates
        and cogenerates (known from the literature); both star-adjunction
        sequences verify."""
        if got["collapsed_not_effaceable"]:
            return f"{got['collapsed_not_effaceable']} functors collapse " \
                   "but are not effaceable"
        if job["gen_cogen"] and got["effaceable_not_collapsed"]:
            return f"{got['effaceable_not_collapsed']} effaceable functors " \
                   "do not collapse on a gen-cogen subcategory"
        if got["sequence_failures"]:
            return "; ".join(got["sequence_failures"][:3])
        if self.recording and got["effaceable"] != want["effaceable"]:
            return f"{got['effaceable']} effaceable, expected {want['effaceable']}"
        return None


# -- metrics -------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end_samples(passes: list[dict], setups: list[dict]) -> dict:
    everything = setups + passes
    return {
        "sweep_s": [p["sweep_s"] for p in passes],
        "setup_s": [r["setup_s"] for r in everything],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "sweep_wall_s": [p["sweep_wall_s"] for p in passes],
        "setup_wall_s": [r["setup_wall_s"] for r in everything],
        "host_speed": [REF_S / statistics.median(r["ref_s"]) for r in everything],
    }


def layer_values(trace: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, counters, total = trace["calls"], trace["counters"], trace["total_s"]
    out: dict[str, float] = {}
    for layer, (n, seconds) in trace["layers"].items():
        key = "report" if layer == "cli" else layer
        out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + n
        out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + seconds
    for name in ("axioms.endomorphism_algebra", "algebra_ops.hom_module",
                 "algebra_ops.projective_leaves",
                 "fitting.find_splitting_idempotent", "linalg.asarray",
                 "subcat.hom", "subcat.embed", "subcat.obj", "subcat.ext_dim",
                 "rep.hom_space", "rep.decompose", "rep.direct_sum",
                 "functors.cokernel_functor", "jobspec.realize"):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["axioms.endomorphism_algebra.s"] = total.get("axioms.endomorphism_algebra", 0.0)
    for group, names in SPAN_GROUPS.items():
        out[group] = sum(calls.get(n, 0) for n in names)
    for name in ("subcat.hom", "subcat.embed"):
        n = calls.get(name, 0)
        out[f"{name}.hit_ratio"] = counters.get(f"{name}.hits", 0) / n if n else 0.0
    for key in ("algebra_ops.hom_module.unknowns",
                "algebra_ops.hom_module.max_unknowns",
                "rep.hom_space.unknowns", "rep.hom_space.max_unknowns"):
        out[key] = counters.get(key, 0)
    for bucket in ("le64", "le1k", "le64k", "gt64k"):
        out[f"linalg.rref.calls.{bucket}"] = counters.get(f"linalg.rref.calls.{bucket}", 0)
        out[f"linalg.rref.self_s.{bucket}"] = counters.get(f"linalg.rref.self_s.{bucket}", 0.0)
    return out


def per_layer_samples(traced: list[dict], untraced: list[dict]) -> dict:
    samples: dict[str, list[float]] = {}
    for p in traced:
        for k, v in layer_values(p["trace"]).items():
            samples.setdefault(k, []).append(v)
    for p in untraced:
        for family, s in p["check_s"].items():
            samples.setdefault(f"check_s.{family}", []).append(s)
    overhead = (statistics.median([p["sweep_s"] for p in traced])
                - statistics.median([p["sweep_s"] for p in untraced]))
    samples["trace.overhead_s"] = [overhead]
    return samples


def report_metrics(defs: list[dict], samples: dict) -> dict:
    """Median of each defined metric, with a quartile table on stdout.

    Samples that are not defined metrics are printed below the table only:
    raw wall times beside their normalised metrics, and times that are 0 on
    workloads that never reach their code (a layer's self time, a check
    family), so they cannot be gated on every workload.
    """
    metrics = {}
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    units = {d["name"]: d["unit"] for d in defs}
    extra = sorted(set(samples) - set(units))
    for i, name in enumerate(list(units) + extra):
        if i == len(units) and extra:
            print("-- not gated:")
        values = samples[name]
        med = statistics.median(values)
        q1, q3 = _quartiles(values)
        print(f"{name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{len(values):>3}  {units.get(name, EXTRA_UNITS.get(name, 's'))}")
        if name in units:
            metrics[name] = {"value": med, "unit": units[name]}
    return metrics


# -- entry point ---------------------------------------------------------------


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def measure(args, root: str, workdir: str, bench: dict, expected: dict) -> dict:
    started = time.monotonic()
    deadline = started + args.seconds
    jobs = workloads.manifest(args.workload, args.seed, workdir)
    manifest_path = write_manifest(workdir, jobs)
    runner = Runner(root, workdir, manifest_path, started)
    gate = Gate(args.workload, args.seed, jobs, expected)
    passes: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    try:
        # warm-up: byte-compiles the package; not measured
        if runner.run(["--setup-only"]) is None:
            raise SystemExit("set-up process failed")
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                r = runner.run(["--setup-only"])
                if r is None:
                    raise SystemExit("set-up process failed")
                setups.append(r)
        spans = os.path.join(workdir, "..", f"spans-{args.workload}.npz")
        last = 0.0
        while True:
            t0 = time.monotonic()
            result = runner.run()
            gate.check_pass(result)
            if result is not None:
                passes.append(result)
            if args.trace:
                result = runner.run(["--trace", spans])
                gate.check_pass(result)
                if result is not None:
                    traced.append(result)
            last = time.monotonic() - t0
            now = time.monotonic()
            if now + last > deadline or now - started + last > RUN_BUDGET_S:
                break
    finally:
        runner.close()
    for msg in gate.problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"failed_frac {gate.failed}/{gate.attempted} jobs")
    if not passes or (args.trace and not traced):
        raise SystemExit("no pass completed")
    if args.trace:
        metrics = report_metrics(bench["per_layer"],
                                 per_layer_samples(traced, passes))
    else:
        metrics = report_metrics(bench["end_to_end"],
                                 end_to_end_samples(passes, setups))
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics}


def write_manifest(workdir: str, jobs: list[dict]) -> str:
    path = os.path.join(workdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    return path


def record(root: str, workdir: str) -> None:
    """Rewrite expected.json from one pass of each workload at the
    recording seed."""
    expected: dict = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.manifest(workload, workloads.RECORDING_SEED, workdir)
        manifest_path = write_manifest(workdir, jobs)
        result = Runner(root, workdir, manifest_path, time.monotonic()).run()
        if result is None:
            raise SystemExit(f"{workload}: pass failed")
        table = {}
        for job, got in zip(jobs, result["jobs"]):
            if "error" in got:
                raise SystemExit(f"{workload}/{job['name']}: {got['error']}")
            if job["kind"] == "localization":
                table[job["name"]] = {"effaceable": got["effaceable"]}
            else:
                table[job["name"]] = {"status": got["status"],
                                      "verdicts": dict(got["verdicts"]),
                                      "sha256": got["sha256"]}
        expected[workload] = table
        print(f"recorded {workload}: {len(table)} jobs", file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.RECORDING_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    # options.seed must be a non-negative int; any seed maps to one
    args.seed %= 2 ** 31
    # a terminated run still kills and reaps its pass process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tiltbench", "__init__.py")):
        print("error: run from a tiltbench checkout (no src/tiltbench here)",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_build", "perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.record:
            record(root, workdir)
            return 0
        bench = load_json(os.path.join(root, "BENCHMARK.json"))
        expected = load_json(os.path.join(HERE, "expected.json"))
        result = measure(args, root, workdir, bench, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
