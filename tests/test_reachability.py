"""Every public top-level function or class in `ngd` is reached.

A name defined at the top level of a module in src/ngd counts as reached
when something outside its own definition refers to it: a `Name`, an
`Attribute`, or a string constant equal to the name (perfbench wraps
its targets by name).  An `Attribute` does not count for a top-level
function when some class in src/ngd defines a method of that name:
`model.dtilde(...)` reaches the method, not a function that shares its
name.  References may sit in src/ngd, tests/, demos/ or
perfbench/.  The package's re-export in `__init__` does not count, and
neither do docstrings, comments or the names of test functions.  There
is no allow-list: a name that fails here is deleted or given a caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ngd"


def _docstrings(tree):
    """The string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _references(tree):
    """(name, line, is_attribute) for every Name, Attribute and
    non-docstring string."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            yield node.value, node.lineno, False


def _public_definitions(path, tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not node.name.startswith("_")):
            yield (node.name, path, node.lineno, node.end_lineno,
                   isinstance(node, ast.ClassDef))


def _method_names(tree):
    return {item.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_every_public_name_is_reached():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    callers = list(modules)
    for sub in ("tests", "demos", "perfbench"):
        callers += sorted((ROOT / sub).rglob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in callers}

    defined = [d for p in modules for d in _public_definitions(p, trees[p])]
    assert defined, "no public definitions found"
    methods = set().union(*(_method_names(trees[p]) for p in modules))
    refs = {}
    for p, tree in trees.items():
        for ref, line, attr in _references(tree):
            refs.setdefault(ref, []).append((p, line, attr))

    unreached = []
    for name, path, first, last, is_class in defined:
        shadowed = not is_class and name in methods
        if not any((p != path or not first <= line <= last)
                   and not (attr and shadowed)
                   for p, line, attr in refs.get(name, ())):
            unreached.append(f"{path.name}:{first} {name}")
    assert not unreached, "public names nothing reaches: " + ", ".join(
        unreached)
