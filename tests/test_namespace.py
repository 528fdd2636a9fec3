"""The package namespace and the import lists of its modules.

`ngd/__init__` keeps no list of public names: every public function or
class defined in one of the eight modules below is `ngd.X`, the very
object its module holds, and no such name is defined twice.  A submodule
name gives the submodule; private names and names a module only imports
(`np`, `Fraction`) are not re-exported.  The exact modules import without
numpy, and no module of src/ngd imports a name it never uses: those import
lists are what keep numpy out of the exact side."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import ngd

PACKAGE = Path(ngd.__file__).resolve().parent
MODULES = ("core", "constructions", "transport", "scales", "models",
           "emergent", "limits", "dsl")
SUBMODULES = MODULES + ("cli", "fixtures")


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


def test_the_exact_modules_import_without_numpy():
    code = ("import sys\n"
            "import ngd.core, ngd.constructions, ngd.transport\n"
            "from ngd import (core, transport, FiniteGroupoid, Measure,\n"
            "                 kantorovich)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('ngd', 'numpy')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == str(["ngd", "ngd.constructions", "ngd.core",
                               "ngd.transport"])


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
