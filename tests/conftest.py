"""Shared fixtures: small algebras, their module subcategories, and a
one-shot sweep over the bundled job corpus (expensive, so session-scoped)."""
import time
from pathlib import Path

import pytest

from tiltbench import jobspec, rep, report, subcat
from tiltbench.linalg import PrimeField
from tiltbench.quiver import Quiver, build_algebra

CORPUS_DIR = Path(jobspec.__file__).parent / "corpus"


@pytest.fixture(scope="session")
def field():
    return PrimeField(101)


def make_x(alg, parts):
    return subcat.SubcategoryX(alg, rep.direct_sum(alg, parts)[0], summands=parts)


def rad2_x(n, d):
    """kA_n/rad^2 on 1 -> ... -> n with M = Lambda + S_{n-d} + S_{n-2d} + ..."""
    data = {"characteristic": 101,
            "quiver": {"vertices": [str(v) for v in range(1, n + 1)],
                       "arrows": [[f"a{v}", str(v), str(v + 1)] for v in range(1, n)]},
            "relations": [[[1, [f"a{v}", f"a{v + 1}"]]] for v in range(1, n - 1)],
            "module": ["regular"] + [{"simple": str(v)} for v in range(n - d, 0, -d)],
            "checks": [{"check": "A1+A1op"}]}
    return jobspec.parse(data).realize().x


def projectives(alg):
    """The indecomposable projectives, one per vertex."""
    return [rep.projective(alg, v) for v in range(alg.quiver.num_vertices)]


@pytest.fixture(scope="session")
def a2(field):
    q = Quiver(["1", "2"], [("a", "1", "2")])
    return build_algebra(q, [], field)


@pytest.fixture(scope="session")
def kx2(field):
    q = Quiver(["*"], [("x", "*", "*")])
    return build_algebra(q, [[(1, ["x", "x"])]], field)


@pytest.fixture(scope="session")
def kx3(field):
    q = Quiver(["*"], [("x", "*", "*")])
    return build_algebra(q, [[(1, ["x", "x", "x"])]], field)


@pytest.fixture(scope="session")
def a3rad2(field):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return build_algebra(q, [[(1, ["a", "b"])]], field)


@pytest.fixture(scope="session")
def a4rad2(field):
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    return build_algebra(q, [[(1, ["a", "b"])], [(1, ["b", "c"])]], field)


@pytest.fixture(scope="session")
def hereditary_a3(field):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return build_algebra(q, [], field)


@pytest.fixture(scope="session")
def semisimple2(field):
    return build_algebra(Quiver(["1", "2"], []), [], field)


def corpus_paths():
    return sorted(CORPUS_DIR.glob("*.json"))


class CorpusRun:
    """One report per corpus entry, all at the entry's own defaults
    (seed 42, 100 trials), computed lazily and kept for the session."""

    def __init__(self):
        self._specs = {}
        self._reports = {}
        self._timings = {}

    def names(self):
        return [p.stem for p in corpus_paths()]

    def spec(self, name):
        if name not in self._specs:
            self._specs[name] = jobspec.ingest(CORPUS_DIR / f"{name}.json")
        return self._specs[name]

    def report(self, name):
        if name not in self._reports:
            t0 = time.time()
            self._reports[name] = report.run(self.spec(name))
            self._timings[name] = time.time() - t0
        return self._reports[name]

    def timing(self, name):
        self.report(name)
        return self._timings[name]

    def verdict(self, name, check_name):
        for v in self.report(name).verdicts:
            if v.name == check_name:
                return v
        raise KeyError(f"{name}: no verdict named {check_name!r}")

    def fresh_x(self, name):
        """A RealizedJob rebuilt from scratch (for witness replays)."""
        return self.spec(name).realize()


@pytest.fixture(scope="session")
def corpus():
    return CorpusRun()
