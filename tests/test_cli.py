"""End-to-end command-line behavior: exit codes, emission formats, seeding."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tiltbench
from tiltbench import algebra_ops, axioms, cli, report
from tiltbench.axioms import Verdict

from conftest import CORPUS_DIR

A2_JOB = {
    "name": "cli-probe",
    "characteristic": 101,
    "quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]]},
    "relations": [],
    "module": ["regular"],
    "checks": ["A1+A1op"],
}


def write_job(tmp_path, name="job.json", **over):
    data = dict(A2_JOB)
    data.update(over)
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


class TestExitCodes:
    def test_passing_job(self, tmp_path, capsys):
        rc = cli.main(["check", write_job(tmp_path), "--trials", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "result: pass" in out
        assert "A1+A1op" in out

    def test_failing_job(self, tmp_path, capsys):
        # Λ alone over the arrow quiver: relative epis need not be cokernels
        path = write_job(tmp_path, checks=["A2+A2op"])
        rc = cli.main(["check", path, "--trials", "20"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "result: fail" in out
        assert "epi-not-weak-cokernel" in out

    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["check", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = cli.main(["check", str(p)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_schema_error(self, tmp_path, capsys):
        rc = cli.main(["check", write_job(tmp_path, characteristic=4)])
        assert rc == 2
        assert "odd prime" in capsys.readouterr().err

    def test_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("projective cover kernel escapes the radical")
        monkeypatch.setattr(axioms, "check_A1_A1op", broken)
        rc = cli.main(["check", write_job(tmp_path)])
        assert rc == report.EXIT_INTERNAL_ERROR == 3
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "Traceback" in err and "escapes the radical" in err

    def test_internal_value_error(self, tmp_path, capsys, monkeypatch):
        # a ValueError from inside a check is a bug, not an input error
        def broken(*args, **kwargs):
            raise ValueError("cannot decide from a lower bound")
        monkeypatch.setattr(axioms, "check_A0", broken)
        rc = cli.main(["check", write_job(tmp_path, checks=["A0"])])
        assert rc == report.EXIT_INTERNAL_ERROR
        assert "internal error" in capsys.readouterr().err

    def test_input_value_error(self, tmp_path, capsys):
        rc = cli.main(["check", write_job(tmp_path), "--max-path-len", "1"])
        assert rc == report.EXIT_INPUT_ERROR
        assert "max_path_len" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trials", "--seed", "--max-path-len",
                                      "--resolution-cap"])
    def test_negative_flag(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as ei:
            cli.main(["check", write_job(tmp_path), flag, "-3"])
        assert ei.value.code == 2
        assert flag in capsys.readouterr().err

    def test_bool_seed_option(self, tmp_path, capsys):
        rc = cli.main(["check", write_job(tmp_path, options={"seed": True})])
        assert rc == 2
        assert "options.seed" in capsys.readouterr().err

    def test_empty_checks_pass(self, tmp_path, capsys):
        rc = cli.main(["check", write_job(tmp_path, checks=[])])
        assert rc == 0
        assert "result: pass" in capsys.readouterr().out


class TestInputErrorsFoundDuringChecks:
    KX = {"characteristic": 101, "quiver": {"vertices": ["1"], "arrows": [["x", "1", "1"]]}}

    def test_max_path_len_flag_applies_at_ingest(self, tmp_path, capsys):
        # x^13 = 0 needs paths of length 13; the default bound is 12
        path = write_job(tmp_path, **self.KX, relations=[[[1, ["x"] * 13]]],
                         module=["regular"], checks=[])
        assert cli.main(["check", path]) == report.EXIT_INPUT_ERROR
        assert "max_path_len is too small" in capsys.readouterr().err
        assert cli.main(["check", path, "--max-path-len", "14"]) == 0
        assert "result: pass" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["d-cluster-tilting", "d-abelian"])
    def test_incomplete_declared_list(self, tmp_path, capsys, check):
        # over k[x]/(x^3), add(Λ ⊕ S) misses k[x]/(x^2), the syzygy of S
        parts = ["regular", {"simple": "1"}]
        path = write_job(tmp_path, **self.KX, relations=[[[1, ["x"] * 3]]], module=parts,
                         declared_indecomposables=parts, checks=[{"check": check, "d": 1}])
        assert cli.main(["check", path]) == report.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: declared_indecomposables: ")
        assert '{"kind": "syzygy-of-summand", "index": 1}' in err
        assert "Traceback" not in err

    def test_complete_declared_list_still_decides(self, tmp_path, capsys):
        # with k[x]/(x^2) declared too, the list is mod Λ and the sweep fails d = 1
        parts = ["regular", {"simple": "1"}]
        path = write_job(tmp_path, **self.KX, relations=[[[1, ["x"] * 3]]], module=parts,
                         declared_indecomposables=parts + [{"syzygy": {"simple": "1"}}],
                         checks=[{"check": "d-cluster-tilting", "d": 1}])
        assert cli.main(["check", path]) == 1
        assert "result: fail" in capsys.readouterr().out


class TestJsonReport:
    def run_json(self, tmp_path, capsys, *extra, **over):
        rc = cli.main(["check", write_job(tmp_path, **over),
                       "--report", "json", "--trials", "20", *extra])
        return rc, json.loads(capsys.readouterr().out)

    def test_shape(self, tmp_path, capsys):
        rc, doc = self.run_json(tmp_path, capsys)
        assert rc == 0
        assert set(doc) == {"tool", "version", "name", "job", "seed", "trials",
                            "status", "verdicts", "disagreement", "timing_s"}
        assert doc["tool"] == "tiltbench"
        assert doc["status"] == "pass"
        assert doc["timing_s"] is None
        (verdict,) = doc["verdicts"]
        assert set(verdict) == {"name", "status", "route", "seed", "trials",
                                "details", "witness"}
        assert verdict["status"] in ("certified-pass", "sampled-pass")

    def test_byte_determinism(self, tmp_path, capsys):
        path = write_job(tmp_path, checks=["A2+A2op", "A3+A3op"])
        cli.main(["check", path, "--report", "json", "--seed", "7"])
        first = capsys.readouterr().out
        cli.main(["check", path, "--report", "json", "--seed", "7"])
        assert capsys.readouterr().out == first
        cli.main(["check", path, "--report", "json", "--seed", "8"])
        other = capsys.readouterr().out
        assert json.loads(other)["seed"] == 8

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["check", write_job(tmp_path), "--report", "json",
                       "--trials", "20", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["name"] == "cli-probe"

    def test_non_split_kronecker_job(self, tmp_path, capsys):
        """M = Lambda + DLambda + a (2, 2) module whose End is F_{101^2}, so
        Gamma has a simple of dimension 2 and a top loop at its vertex."""
        explicit = {"dims": [2, 2], "arrows": {"a": [[1, 0], [0, 1]], "b": [[0, 2], [1, 0]]}}
        rc, doc = self.run_json(
            tmp_path, capsys, "--seed", "42",
            quiver={"vertices": ["1", "2"], "arrows": [["a", "1", "2"], ["b", "1", "2"]]},
            module=["regular", "coregular", {"explicit": explicit}],
            checks=["gen-cogen-ff", {"check": "d-precluster", "d": 1},
                    {"check": "d-cluster-tilting", "d": 1}, {"check": "d-rigid", "d": 2}])
        assert rc == 1 and doc["status"] == "fail"
        got = {v["name"]: v for v in doc["verdicts"]}
        assert {name: v["status"] for name, v in got.items()} == {
            "gen-cogen-ff": "certified-pass", "2-Rigid": "fail",
            "1-precluster-tilting": "fail", "1-cluster-tilting": "fail"}
        exact = {"kind": "exact", "value": 2}
        assert got["1-precluster-tilting"]["details"]["gamma"] == {
            "domdim": exact, "selfinjective_left": {"kind": "exact", "value": 3},
            "selfinjective_right": {"kind": "exact", "value": 3}}
        assert got["1-cluster-tilting"]["details"]["gamma"] == {
            "domdim": exact, "gldim": {"kind": "exact", "value": 3}}

    def test_out_path_not_writable(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "report.json"
        rc = cli.main(["check", write_job(tmp_path), "--trials", "20", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write") and "Traceback" not in captured.err
        assert not out.parent.exists()


class TestSeedPrecedence:
    def run_seed(self, tmp_path, capsys, *extra, **over):
        cli.main(["check", write_job(tmp_path, **over),
                  "--report", "json", "--trials", "10", *extra])
        return json.loads(capsys.readouterr().out)["seed"]

    def test_default(self, tmp_path, capsys):
        assert self.run_seed(tmp_path, capsys) == 42

    def test_flag(self, tmp_path, capsys):
        assert self.run_seed(tmp_path, capsys, "--seed", "5") == 5

    def test_job_option(self, tmp_path, capsys):
        assert self.run_seed(tmp_path, capsys, options={"seed": 9}) == 9

    def test_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TILTBENCH_SEED", "13")
        assert self.run_seed(tmp_path, capsys) == 13

    def test_flag_beats_env_and_option(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TILTBENCH_SEED", "13")
        assert self.run_seed(tmp_path, capsys, "--seed", "5",
                             options={"seed": 9}) == 5

    def test_job_option_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TILTBENCH_SEED", "13")
        assert self.run_seed(tmp_path, capsys, options={"seed": 9}) == 9

    def test_bad_env(self, tmp_path, capsys, monkeypatch):
        for bad in ("many", "-3"):
            monkeypatch.setenv("TILTBENCH_SEED", bad)
            rc = cli.main(["check", write_job(tmp_path)])
            assert rc == 2, bad
            assert "TILTBENCH_SEED" in capsys.readouterr().err


class TestGenCogenTheorems:
    """Under a passing gen-cogen certificate the sampled axioms A1-A3op and
    Morita-Tachikawa's dominant dimension >= 2 are theorems; a check that
    contradicts them is a route disagreement (exit 3)."""

    def job(self, tmp_path):
        data = json.loads((CORPUS_DIR / "linear_a2_generator.json").read_text())
        data["checks"] = ["gen-cogen-ff"]
        p = tmp_path / "gen_cogen.json"
        p.write_text(json.dumps(data))
        return str(p)

    def run_json(self, tmp_path, capsys):
        rc = cli.main(["check", self.job(tmp_path), "--report", "json", "--trials", "20"])
        return rc, json.loads(capsys.readouterr().out)

    def test_unpatched_job_passes_with_both_flags(self, tmp_path, capsys):
        rc, doc = self.run_json(tmp_path, capsys)
        assert rc == 0
        (v,) = doc["verdicts"]
        assert v["status"] == "certified-pass"
        assert v["details"]["axioms_consistent"] is True
        assert v["details"]["morita_tachikawa_consistent"] is True

    def test_a_failing_sampled_axiom_is_a_disagreement(self, tmp_path, capsys, monkeypatch):
        def planted(*args, **kwargs):
            return Verdict("A3+A3op", "fail", route="planted", witness={"kind": "planted"})
        monkeypatch.setattr(axioms, "check_A3_A3op", planted)
        rc, doc = self.run_json(tmp_path, capsys)
        assert rc == report.EXIT_ROUTE_DISAGREEMENT == 3
        assert doc["status"] == "route-disagreement"
        assert doc["disagreement"]["check"]["check"] == "gen-cogen-ff"
        assert "A1-A3op" in doc["disagreement"]["error"]
        assert doc["disagreement"]["details"]["axioms_consistent"] is False

    def test_an_exact_domdim_below_2_is_a_disagreement(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(algebra_ops, "dominant_dimension",
                            lambda *args, **kwargs: algebra_ops.DimBound.exact(1))
        rc, doc = self.run_json(tmp_path, capsys)
        assert rc == 3
        assert "dominant dimension" in doc["disagreement"]["error"]

    def test_a_lower_bound_below_2_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(algebra_ops, "dominant_dimension",
                            lambda *args, **kwargs: algebra_ops.DimBound.at_least(1))
        rc, doc = self.run_json(tmp_path, capsys)
        assert rc == 0
        (v,) = doc["verdicts"]
        assert v["status"] == "certified-pass"
        assert v["details"]["morita_tachikawa_consistent"] is False


class TestDisagreementRendering:
    """exit 3 marks an internal inconsistency; it cannot be provoked by a
    well-formed input, so exercise the reporting path directly."""

    def fake_report(self):
        return report.CheckReport(
            job={}, name="synthetic", seed=1, trials=10, version="0",
            verdicts=[Verdict(name="A0", status="certified-pass", route="cert",
                              seed=1, trials=10)],
            disagreement={"check": {"check": "d-cluster-tilting", "d": 1},
                          "error": "routes disagree", "details": {}})

    def test_exit_code_and_text(self):
        rpt = self.fake_report()
        assert rpt.status == "route-disagreement"
        assert rpt.exit_code == report.EXIT_ROUTE_DISAGREEMENT == 3
        text = report.emit(rpt, "text")
        assert "ROUTE DISAGREEMENT" in text
        assert "bug in the tool" in text

    def test_json_status(self):
        doc = json.loads(report.emit(self.fake_report(), "json"))
        assert doc["status"] == "route-disagreement"
        assert doc["disagreement"]["error"] == "routes disagree"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            report.emit(self.fake_report(), "yaml")


def test_a_check_never_imports_numpy_random(tmp_path):
    """A whole `tiltbench check` in a fresh process, sampled routes and
    decompositions included, leaves numpy's random package unimported: the
    seeded draws come from `linalg.Rng`."""
    job = CORPUS_DIR / "nakayama_a3_rad2_bimodule.json"
    argv = ["check", str(job), "--report", "json", "--seed", "42",
            "--out", str(tmp_path / "report.json")]
    code = ("import sys\nfrom tiltbench import cli\n"
            f"rc = cli.main({argv!r})\n"
            "print(rc, 'numpy.random' in sys.modules)")
    src = str(Path(tiltbench.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=300, check=True)
    assert run.stdout.split() == ["1", "False"]
    assert json.loads((tmp_path / "report.json").read_text())["status"] == "fail"
