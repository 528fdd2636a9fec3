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

Every option is set by some caller.  A parameter with a default, of a
public top-level function, a public method or a class's `__init__`, is
set when some call in those same files passes it, by keyword or by
position.  Calls are matched by name: `f(...)` and `obj.f(...)` for a
function or method `f`, `C(...)` for the constructor of `C`.  A call
with `*args` sets every positional parameter, and one with `**kwargs`
every parameter.  Dataclass fields are state, not options, and are not
counted.  There is no allow-list here either: an option no caller sets
becomes a literal at its use, or a module constant when several
functions share it.
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


def _parse():
    """(the modules of src/ngd but __init__, {path: tree} for every file
    that may call them)."""
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    callers = list(modules)
    for sub in ("tests", "demos", "perfbench"):
        callers += sorted((ROOT / sub).rglob("*.py"))
    return modules, {p: ast.parse(p.read_text(), filename=str(p))
                     for p in callers}


def test_every_public_name_is_reached():
    modules, trees = _parse()

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


def _defaults(fn, skip):
    """(parameter, position in a call) for each parameter of fn with a
    default; the position is None for a keyword-only parameter, and skip
    drops the bound `self`."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    out = [(arg.arg, i - skip) for i, arg in enumerate(pos) if i >= first]
    out += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def _options(path, tree):
    """(label, called name, parameter, position) for each option."""
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")):
            for param, i in _defaults(node, 0):
                yield f"{path.stem}.{node.name}", node.name, param, i
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    label, called = f"{path.stem}.{node.name}", node.name
                elif not item.name.startswith("_"):
                    label = f"{path.stem}.{node.name}.{item.name}"
                    called = item.name
                else:
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                for param, i in _defaults(item, 0 if static else 1):
                    yield label, called, param, i


def _calls(tree):
    """(called name, positional count, keyword names) for every call; a
    `*args` counts as every position and a `**kwargs` as every name."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name):
            name = f.id
        elif isinstance(f, ast.Attribute):
            name = f.attr
        else:
            continue
        npos = (float("inf") if any(isinstance(a, ast.Starred)
                                    for a in node.args) else len(node.args))
        kws = {k.arg for k in node.keywords}
        yield name, npos, (None if None in kws else kws)


def test_every_option_is_set_by_some_caller():
    modules, trees = _parse()
    calls = {}
    for tree in trees.values():
        for name, npos, kws in _calls(tree):
            calls.setdefault(name, []).append((npos, kws))

    options = [o for p in modules for o in _options(p, trees[p])]
    assert options, "no options found"
    unset = [f"{label}: {param}" for label, called, param, i in options
             if not any(kws is None or param in kws
                        or (i is not None and i < npos)
                        for npos, kws in calls.get(called, ()))]
    assert not unset, "options no caller sets: " + ", ".join(unset)
