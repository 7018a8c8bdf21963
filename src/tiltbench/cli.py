"""Command-line interface.

    tiltbench check JOB.json [--report text|json] [--seed N] [--trials N]
                             [--max-path-len N] [--resolution-cap N]
                             [--out PATH]

Seed precedence: --seed, then the job file's options.seed, then the
TILTBENCH_SEED environment variable, then 42.

--max-path-len and --resolution-cap replace the job file's options from
ingest on, before the job is first realized.

Exit codes: 0 all checks passed, 1 some check failed, 2 input error
(including a negative integer flag or TILTBENCH_SEED, an --out path that
cannot be written, and a declared_indecomposables list that a generated
test module shows to be incomplete), 3 a bug in the tool worth reporting:
an internal route disagreement, or any other exception escaping the run,
which prints "internal error" and its traceback on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from tiltbench import report as report_mod
from tiltbench.fitting import RadicalPreconditionViolated
from tiltbench.jobspec import SchemaError, ingest
from tiltbench.quiver import NotAdmissible


def _non_negative_int(text: str) -> int:
    """argparse type of the integer flags: negative values are input errors."""
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {val}")
    return val


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltbench",
        description="exact checkers for higher cluster-tilting axioms on "
                    "bound quiver algebra inputs")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run the checks requested by a job file")
    check.add_argument("job", help="path to a JSON job file")
    check.add_argument("--report", choices=("text", "json"), default="text")
    check.add_argument("--seed", type=_non_negative_int, default=None)
    check.add_argument("--trials", type=_non_negative_int, default=None)
    check.add_argument("--max-path-len", type=_non_negative_int, default=None)
    check.add_argument("--resolution-cap", type=_non_negative_int, default=None)
    check.add_argument("--out", default=None, help="write the report here "
                                                   "instead of stdout")
    return parser


def _resolve_seed(args, spec) -> int | None:
    if args.seed is not None:
        return args.seed
    if "seed" in spec.options:
        return None  # spec.option() picks it up
    env = os.environ.get("TILTBENCH_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise SchemaError("TILTBENCH_SEED", f"not an integer: {env!r}")
        if seed < 0:
            raise SchemaError("TILTBENCH_SEED", f"negative: {env!r}")
        return seed
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {"max_path_len": args.max_path_len,
                     "resolution_cap": args.resolution_cap}
        spec = ingest(args.job, {k: v for k, v in overrides.items() if v is not None})
        seed = _resolve_seed(args, spec)
        rpt = report_mod.run(spec, seed=seed, trials=args.trials)
    except FileNotFoundError as e:
        print(f"error: no such file: {e.filename}", file=sys.stderr)
        return report_mod.EXIT_INPUT_ERROR
    except (SchemaError, NotAdmissible, RadicalPreconditionViolated) as e:
        print(f"error: {e}", file=sys.stderr)
        return report_mod.EXIT_INPUT_ERROR
    except Exception:
        print("internal error (a bug in tiltbench):", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return report_mod.EXIT_INTERNAL_ERROR

    text = report_mod.emit(rpt, args.report)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e.strerror}", file=sys.stderr)
            return report_mod.EXIT_INPUT_ERROR
    else:
        sys.stdout.write(text)
    return rpt.exit_code


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
