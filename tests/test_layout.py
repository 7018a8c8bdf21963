"""Code layout: every function and method in src/tiltbench, private ones
included and dunders aside, has a caller in src/tiltbench, or is an entry
point named below, no public module-level function name is defined in two
modules, a public name that several definitions share is on the list
below, every function reads each of its parameters, no module drives the
garbage collector, and none reaches numpy's random package.

A call is any reference to the name (as a bare name or an attribute)
outside the function's own body, so a name shared by two definitions counts
for both.  Code only tests call belongs in those tests.
"""
import ast
from pathlib import Path

import pytest

import tiltbench

SRC = Path(tiltbench.__file__).parent

ENTRY_POINTS = {
    # re-runs a verdict's witness through the definitional test (README,
    # "Library use"); it calls itself on nested witnesses
    "axioms.replay_witness",
    # the localization pass of perfbench/child.py
    "functors.yoneda_morphism",
    "functors.cokernel_functor",
    "functors.psi_tilde",
    "functors.is_effaceable",
    "functors.verify_star_adjunction_sequences",
    # the functor laws: Hom(F, Yoneda X_i) against Hom(psi F, X_i) and the
    # degree-0 functor Ext
    "functors.hom_functors",
    "functors.functor_ext_yoneda",
    # the cokernel side runs on `op`; test_duality's references check the
    # left approximations it returns
    "subcat.SubcategoryX.left_approximation",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node) of every function and method in a module."""
    out = []
    stack = [(tree, module)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((f"{prefix}.{child.name}", child))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}.{child.name}"))
    return out


def _references(tree: ast.Module):
    """(name, line) of every bare name and attribute read in a module.  An
    attribute read on a name bound by `import` (`np.matmul` after `import
    numpy as np`) names another package's function, not one of ours."""
    modules = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node.attr, node.lineno


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def uncalled_functions(trees: dict[str, ast.Module]) -> list[str]:
    """Every function and method, private ones included, that no code in
    trees references outside its own body.  Dunders are exempt: Python
    calls them."""
    refs: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((module, line))
    out = []
    for module, tree in trees.items():
        for qualname, fn in _definitions(tree, module):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            if not any(where != module or not fn.lineno <= line <= fn.end_lineno
                       for where, line in refs.get(fn.name, ())):
                out.append(qualname)
    return sorted(out)


def test_public_functions_have_callers_in_src():
    # private ones too: a helper kept alive only for tests is dead code
    assert [name for name in uncalled_functions(_trees()) if name not in ENTRY_POINTS] == []


@pytest.mark.parametrize("source, want", [
    ("def _f():\n    return 1", ["m._f"]),
    ("class C:\n    def _g(self):\n        return 1", ["m.C._g"]),
    ("def _f(n):\n    return _f(n - 1)", ["m._f"]),
    ("def f():\n    return 1", ["m.f"]),
    ("def _f():\n    return 1\ng = _f", []),
    ("class C:\n    def __init__(self):\n        pass", []),
])
def test_uncalled_function_guard_sees_each_form(source, want):
    assert uncalled_functions({"m": ast.parse(source)}) == want


@pytest.mark.parametrize("source, want", [
    ("import numpy as np\nnp.matmul(a, b)", ["a", "b", "np"]),
    ("from tiltbench import rep\nrep.kernel(f)", ["f", "kernel", "rep"]),
    ("field.matmul(a, b)", ["a", "b", "field", "matmul"]),
])
def test_references_skip_attributes_of_imported_modules(source, want):
    assert sorted(name for name, _ in _references(ast.parse(source))) == want


def test_entry_points_are_still_defined_and_uncalled():
    # an entry point that gained a caller in src/ or was deleted leaves the list
    assert ENTRY_POINTS <= set(uncalled_functions(_trees()))


# Public function and method names that several definitions share, each
# checked by hand to have callers of its own: a reference to a shared name
# counts for every definition of it, so test_public_functions_have_callers_in_src
# cannot tell a dead one among them.  A new sharing definition fails
# test_shared_names_are_listed until someone has looked and listed it.
SHARED_NAMES = {
    # Representation.is_zero: resolution lengths in algebra_ops, rep's
    # decomposition, subcat's summand check; ModuleMorphism's: composites,
    # blocks and idempotents in subcat and axioms
    "is_zero": ["rep.ModuleMorphism.is_zero", "rep.Representation.is_zero"],
    # the two multiplication tables of fitting's idempotent search
    "mul": ["fitting._QuotientRing.mul", "fitting._RingData.mul"],
    # ModuleMorphism.rank backs is_injective and is_surjective
    "rank": ["linalg.PrimeField.rank", "rep.ModuleMorphism.rank"],
    # the verdict details in axioms and the report in report
    "to_json": ["algebra_ops.DimBound.to_json", "axioms.Verdict.to_json",
                "jobspec.CheckRequest.to_json", "report.CheckReport.to_json"],
}


def shared_public_names() -> dict[str, list[str]]:
    """Public function and method names with more than one definition in
    src/tiltbench, with the qualified names of those definitions."""
    owners: dict[str, list[str]] = {}
    for module, tree in _trees().items():
        for qualname, fn in _definitions(tree, module):
            if not fn.name.startswith("_"):
                owners.setdefault(fn.name, []).append(qualname)
    return {name: sorted(q) for name, q in sorted(owners.items()) if len(q) > 1}


def test_shared_names_are_listed():
    assert shared_public_names() == SHARED_NAMES


def public_functions_in_several_modules() -> dict[str, list[str]]:
    """Public module-level function names defined in more than one module,
    with the modules that define them."""
    owners: dict[str, list[str]] = {}
    for module, tree in _trees().items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                owners.setdefault(node.name, []).append(module)
    return {name: mods for name, mods in sorted(owners.items()) if len(mods) > 1}


def test_each_module_function_has_one_owner():
    # one implementation of each operation: a second module defining the
    # same public function is a second copy of it
    assert public_functions_in_several_modules() == {}


# Parameters that no code reads, each named by its contract: the abstract
# method's subclasses read it.
UNREAD_PARAMETERS = {"quiver.Algebra._reverse_into(op)"}


def unread_parameters(trees: dict[str, ast.Module]) -> list[str]:
    """qualified.name(parameter) of every parameter that its function's
    body never reads, nested functions included; a method's self or cls is
    not counted."""
    out = []
    stack = [(tree, module) for module, tree in trees.items()]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          a.vararg, a.kwarg) if p is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                out += [f"{name}({p})" for p in params
                        if p not in read and p not in ("self", "cls")]
                stack.append((child, name))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}.{child.name}"))
    return sorted(out)


def test_every_parameter_is_read():
    # a parameter nothing reads is a dead argument every caller still passes
    assert unread_parameters(_trees()) == sorted(UNREAD_PARAMETERS)


@pytest.mark.parametrize("source, want", [
    ("def f(a, b):\n    return a", ["m.f(b)"]),
    ("def f(a, *rest, k=1, **opts):\n    return a", ["m.f(k)", "m.f(opts)", "m.f(rest)"]),
    ("def f(a):\n    def g(b):\n        return a\n    return g", ["m.f.g(b)"]),
    ("class C:\n    def f(self, a):\n        return 1", ["m.C.f(a)"]),
    ("def f(a):\n    a = 1\n    return 0", ["m.f(a)"]),
])
def test_unread_parameter_guard_sees_each_form(source, want):
    assert unread_parameters({"m": ast.parse(source)}) == want


def test_unread_parameter_guard_counts_reads_in_nested_code():
    source = "def f(a, b):\n    return [lambda: a for _ in b]"
    assert unread_parameters({"m": ast.parse(source)}) == []


# what forces a collection or changes when one runs
_GC_CONTROLS = {"collect", "set_threshold", "disable", "enable", "freeze", "unfreeze"}


def gc_controls(trees: dict[str, ast.Module]) -> list[str]:
    """module:line of every use of the collector's controls, through
    `import gc` (under any name) or `from gc import ...`."""
    out = []
    for module, tree in trees.items():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names |= {a.asname or a.name for a in node.names if a.name == "gc"}
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                out += [f"{module}:{node.lineno}" for a in node.names
                        if a.name in _GC_CONTROLS or a.name == "*"]
        out += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in _GC_CONTROLS
                and isinstance(node.value, ast.Name) and node.value.id in names]
    return sorted(out)


def test_no_module_drives_the_collector():
    # a job holds no reference cycle, so reference counting frees it when it
    # is dropped, not forcing or tuning collections
    assert gc_controls(_trees()) == []


@pytest.mark.parametrize("source", [
    "import gc\ngc.collect()",
    "import gc as g\ng.set_threshold(700, 10, 1)",
    "from gc import collect",
])
def test_gc_guard_sees_each_form(source):
    assert gc_controls({"m": ast.parse(source)}) != []


def test_gc_guard_allows_reading_the_collector():
    assert gc_controls({"m": ast.parse("import gc\nstats = gc.get_stats()")}) == []


def numpy_random_uses(trees: dict[str, ast.Module]) -> list[str]:
    """module:line of every reach into numpy's random package: importing it
    or from it, reading `.random` off a name bound to numpy, or naming it
    in a string (as `importlib.import_module` would)."""
    out = []
    for module, tree in trees.items():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "numpy.random" or a.name.startswith("numpy.random."):
                        out.append(f"{module}:{node.lineno}")
                    elif a.name == "numpy" or a.name.startswith("numpy."):
                        names.add(a.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module == "numpy.random" or node.module.startswith("numpy.random."):
                    out.append(f"{module}:{node.lineno}")
                elif node.module == "numpy" and any(a.name in ("random", "*")
                                                    for a in node.names):
                    out.append(f"{module}:{node.lineno}")
            elif isinstance(node, ast.Constant) and node.value == "numpy.random":
                out.append(f"{module}:{node.lineno}")
        out += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in names]
    return sorted(out)


def test_no_module_reaches_numpy_random():
    # the seeded samplers draw from `linalg.Rng`, which gives numpy's stream
    # without the package's import time and resident memory
    assert numpy_random_uses(_trees()) == []


@pytest.mark.parametrize("source", [
    "import numpy as np\nrng = np.random.default_rng(0)",
    "import numpy\nnumpy.random.default_rng(0)",
    "import numpy.random",
    "import numpy.random as npr",
    "from numpy.random import default_rng",
    "from numpy import random",
    "import importlib\nimportlib.import_module('numpy.random')",
])
def test_numpy_random_guard_sees_each_form(source):
    assert numpy_random_uses({"m": ast.parse(source)}) != []


def test_numpy_random_guard_allows_other_numpy_and_random():
    source = "import numpy as np\nimport random\nx = np.zeros(3)\nrandom.random()"
    assert numpy_random_uses({"m": ast.parse(source)}) == []
