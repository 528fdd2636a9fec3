"""The package namespace and the import lists of its modules.

`ngd/__init__` keeps no list of public names: every public function or
class defined in one of the eight modules below is `ngd.X`, the very
object its module holds, and no such name is defined twice.  A submodule
name gives the submodule; private names and names a module only imports
(`np`, `Fraction`) are not re-exported.  The exact modules import without
numpy, and so do the commands of `ngd.cli` that only read finite
structures; no module of src/ngd imports a name it never uses: those
import lists are what keep numpy out of the exact side."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ngd
from ngd.constructions import random_metric_space

PACKAGE = Path(ngd.__file__).resolve().parent
MODULES = ("core", "constructions", "transport", "scales", "models",
           "emergent", "limits", "dsl")
SUBMODULES = MODULES + ("cli", "fixtures")
ANALYTIC = ("numpy", "ngd.models", "ngd.emergent", "ngd.limits", "ngd.dsl",
            "ngd.fixtures")


def test_every_public_name_is_read_off_its_module():
    homes = {}
    for sub in MODULES:
        module = importlib.import_module(f"ngd.{sub}")
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                homes.setdefault(name, []).append(sub)
                assert getattr(ngd, name) is obj, f"ngd.{name}"
    assert len(homes) > 100
    twice = {name: subs for name, subs in homes.items() if len(subs) > 1}
    assert not twice, f"public names defined twice: {twice}"


def test_the_package_holds_only_submodules_and_private_names():
    assert {k for k in vars(ngd) if not k.startswith("_")} <= set(SUBMODULES)


@pytest.mark.parametrize("sub", SUBMODULES)
def test_a_submodule_name_gives_the_submodule(sub):
    assert getattr(ngd, sub) is importlib.import_module(f"ngd.{sub}")


@pytest.mark.parametrize("name", ["_judge", "np", "Fraction", "__wrapped__",
                                  "no_such_name"])
def test_private_and_imported_names_are_not_reexported(name):
    with pytest.raises(AttributeError):
        getattr(ngd, name)


def _numpy_chain(importtime):
    """The chain of imports that first loaded numpy, innermost first, read
    off the stderr of `python -X importtime`: it lists each module after
    the modules it imported, indented one step deeper than its importer.
    `from package import submodule` goes around the timer, so the chain
    names the module that holds such a statement, not the submodule it
    loads, and stops short where a function ran it.  Empty if numpy was
    not imported."""
    rows = [line.split("|")[-1] for line in importtime.splitlines()
            if line.startswith("import time:") and "|" in line]
    names = [row.strip() for row in rows]
    if "numpy" not in names:
        return []
    i = names.index("numpy")
    chain, depth = ["numpy"], len(rows[i]) - len(names[i])
    for row, name in zip(rows[i + 1:], names[i + 1:]):
        if len(row) - len(name) < depth:
            chain.append(name)
            depth = len(row) - len(name)
    return chain


def _fresh_modules(code):
    """The ngd modules a fresh interpreter holds after running code; fails
    naming the import chain and the ngd modules if numpy was among them."""
    code += ("\nimport sys\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m.split('.')[0] in ('ngd', 'numpy')))\n")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, check=True)
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    chain = _numpy_chain(proc.stderr)
    assert not chain, (f"numpy imported by {' <- '.join(chain)}; "
                       f"loaded {[m for m in loaded if m[:4] == 'ngd.']}")
    return loaded


def test_the_numpy_chain_is_read_off_importtime():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import ngd.limits"],
                          capture_output=True, text=True, check=True)
    assert _numpy_chain(proc.stderr) == ["numpy", "ngd.limits"]


def test_the_exact_modules_import_without_numpy():
    assert _fresh_modules(
        "import ngd.core, ngd.constructions, ngd.transport\n"
        "from ngd import (core, transport, FiniteGroupoid, Measure,\n"
        "                 kantorovich)\n") == [
        "ngd", "ngd.constructions", "ngd.core", "ngd.transport"]


def test_the_cli_imports_without_numpy():
    assert _fresh_modules("import ngd.cli") == [
        "ngd", "ngd.cli", "ngd.constructions", "ngd.core"]


def test_the_cli_module_scope_imports_no_analytic_module():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = set()
    for node in _imports(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif node.level == 0:
            imported.add(node.module.split(".")[0])
        elif node.module is None:
            imported |= {f"ngd.{a.name}" for a in node.names}
        else:
            imported.add(f"ngd.{node.module}")
    assert not imported & set(ANALYTIC + ("ngd.scales", "ngd.transport"))


PLAN = {"space": {"points": [0, 1], "dist": [["0", "1"], ["1", "0"]]},
        "mu": ["1/2", "1/2"], "nu": ["1/4", "3/4"],
        "gamma": [["1/4", "1/4"], ["0", "1/2"]]}


@pytest.mark.parametrize("argv,absent", [
    (["validate", "space.json"], ANALYTIC + ("ngd.transport",)),
    (["validate", "plan.json", "--json"], ANALYTIC),
    (["transport", "plan.json", "--action", "kantorovich", "--json"],
     ANALYTIC),
    (["report", "--suite", "transport"], ANALYTIC),
])
def test_the_exact_commands_run_without_numpy(tmp_path, argv, absent):
    (tmp_path / "space.json").write_text(
        json.dumps(random_metric_space(seed=3, max_points=5).to_json()))
    (tmp_path / "plan.json").write_text(json.dumps(PLAN))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    loaded = _fresh_modules(f"import ngd.cli\n"
                            f"assert ngd.cli.main({argv!r}) == 0\n")
    assert not set(absent) & set(loaded)


def _imports(scope):
    """The import statements of scope itself, not of the functions in it."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            yield from _imports(node)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """A name bound by an import in a module or function is read, as a
    `Name`, somewhere in that module or function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef)))]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in _imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            unused += [f"{path.name}:{node.lineno} {bound}"
                       for bound in (a.asname or a.name.split(".")[0]
                                     for a in node.names)
                       if bound not in read]
    assert not unused, "imported and never used: " + ", ".join(unused)
