"""Every public top-level function or class in `ngd` is reached.

The four censuses below read what `ngd` runs: the modules of src/ngd,
demos/*.py and the files of perfbench/ but its tests.  A reference or a
call from a test counts for none of them: what only tests use is test
code and lives under tests/.

A name defined at the top level of a module in src/ngd counts as reached
when what `ngd` runs reaches it: the command line, the demos or the
benchmark.  The roots are demos/*.py, the files of perfbench/ but its
tests, and the statements of src/ngd that bind no name (cli.py's
`__main__` guard, which calls `main`, the console script).  From them
the census follows references through src/ngd: a reference to a name
reaches every top-level definition or assignment of that name there, and
a reached definition's own references are followed in turn, the whole
body of a reached class included.  A reference is a `Name`, an
`Attribute`, or a string constant equal to the name (perfbench wraps its
targets by name).  An `Attribute` does not reach a top-level function
when some class in src/ngd defines a method of that name:
`model.dtilde(...)` reaches the method, not a function that shares its
name.  Docstrings, comments and imports do not count.  There is no
allow-list: a name that fails here is deleted, moved into
the tests, or given a caller.

Every public method of a public class is reached too, matched by name: a
method `m` is reached when, outside its own definition, some attribute
call `obj.m(...)` in those files names it.  A bare call `m(...)` calls a function of
that name, not the method, and does not count.  A property is read, not
called, so any reference to its name counts for it.  Names starting with
`_`, dunders included, are not public.

Every option is set by some caller.  A parameter with a default, of a
public top-level function, a public method or a class's `__init__`, is
set when some call in those files passes it, by keyword or by position.  Calls are matched by name: `f(...)` and `obj.f(...)` for a
function or method `f`, `C(...)` for the constructor of `C`.  A call
with `*args` sets every positional parameter, and one with `**kwargs`
every parameter.  Dataclass fields are state, not options, and are not
counted.  There is no allow-list here either: an option no caller sets
becomes a literal at its use, or a module constant when several
functions share it; an option every caller sets to one value becomes
that value, and a None default every caller overrides becomes a
required parameter.

Every command-line flag is read.  Each flag or positional a subcommand
of `ngd` declares is read, as `args.<dest>` or `getattr(args, "<dest>")`,
by that subcommand's `cmd_*` function or by a function of cli.py that
it reaches by name, the table of report suites included.

One law kernel counts.  Outside the methods of `ngd.core.LawCheck`, no
code in src/ngd assigns to a `.checked` or `.failures` attribute, by `=`,
`+=` or `setattr`, adds to a `.witnesses` list, or passes one of those
names as a keyword: a law counts its instances and files its witnesses
through `judge` (one instance), `judge_all` (an exact batch) and
`judge_residuals` (a float batch), so that one place decides what an
instance, a failure and a witness are, and failures never exceed checked.
A law starts at zero: even `LawCheck(..., checked=1)` is a write.
"""

import argparse
import ast
import functools
from pathlib import Path

import pytest

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


def _references(tree, within=None):
    """(name, line, is_attribute) for every Name, Attribute and
    non-docstring string of tree, or of its node within."""
    docs = _docstrings(tree)
    for node in ast.walk(tree if within is None else within):
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


def _public_methods(path, tree):
    """(label, name, path, first line, last line, read) per public method
    of a public class; read is True for a property."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for item in node.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")):
                read = any(isinstance(d, ast.Name) and d.id == "property"
                           for d in item.decorator_list)
                yield (f"{path.name}:{item.lineno} {node.name}.{item.name}",
                       item.name, path, item.lineno, item.end_lineno, read)


def _method_names(tree):
    return {item.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


@functools.cache  # the four censuses read the same trees
def _parse():
    """(the modules of src/ngd but __init__, {path: tree} for them and for
    the demos and perfbench files that call them)."""
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    callers = list(modules)
    for sub in ("demos", "perfbench"):
        callers += sorted(p for p in (ROOT / sub).rglob("*.py")
                          if not p.name.startswith("test_"))
    return modules, {p: ast.parse(p.read_text(), filename=str(p))
                     for p in callers}


def _bound(node):
    """The names a top-level statement binds: a def or class its own, an
    assignment its Name targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def test_every_public_name_is_reached():
    modules, trees = _parse()
    methods = set().union(*(_method_names(trees[p]) for p in modules))
    bindings, todo = {}, []
    for p in modules:
        for node in trees[p].body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            refs, names = list(_references(trees[p], node)), _bound(node)
            for name in names:
                bindings.setdefault(name, []).append((p, node, refs))
            if not names:  # runs on import or as a script
                todo += refs
    for p, tree in trees.items():
        if p.parent != PACKAGE:
            todo += _references(tree)

    reached = set()
    while todo:
        name, _, attr = todo.pop()
        for p, node, refs in bindings.get(name, ()):
            shadowed = (attr and name in methods and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)))
            if not shadowed and (p, node.lineno) not in reached:
                reached.add((p, node.lineno))
                todo += refs

    defined = [d for p in modules for d in _public_definitions(p, trees[p])]
    assert defined, "no public definitions found"
    unreached = [f"{path.name}:{first} {name}"
                 for name, path, first, _, _ in defined
                 if (path, first) not in reached]
    assert not unreached, (
        "public names that only tests reach, or nothing: "
        + ", ".join(unreached))


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
    """(called name, positional count, keyword names, line, is_attribute)
    for every call; a `*args` counts as every position and a `**kwargs`
    as every name."""
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
        yield (name, npos, (None if None in kws else kws), node.lineno,
               isinstance(f, ast.Attribute))


def test_every_option_is_set_by_some_caller():
    modules, trees = _parse()
    calls = {}
    for tree in trees.values():
        for name, npos, kws, _, _ in _calls(tree):
            calls.setdefault(name, []).append((npos, kws))

    options = [o for p in modules for o in _options(p, trees[p])]
    assert options, "no options found"
    unset = [f"{label}: {param}" for label, called, param, i in options
             if not any(kws is None or param in kws
                        or (i is not None and i < npos)
                        for npos, kws in calls.get(called, ()))]
    assert not unset, "options no caller sets: " + ", ".join(unset)


def test_every_public_method_is_reached():
    modules, trees = _parse()
    called, read = {}, {}
    for p, tree in trees.items():
        for name, _, _, line, attr in _calls(tree):
            if attr:
                called.setdefault(name, []).append((p, line))
        for ref, line, _ in _references(tree):
            read.setdefault(ref, []).append((p, line))

    methods = [m for p in modules for m in _public_methods(p, trees[p])]
    assert methods, "no public methods found"
    unreached = [
        label for label, name, path, first, last, is_prop in methods
        if not any(p != path or not first <= line <= last
                   for p, line in (read if is_prop else called).get(name, ()))
    ]
    assert not unreached, "public methods nothing reaches: " + ", ".join(
        unreached)


def _args_read(funcs, start):
    """The dests read off `args` by funcs[start] and by every function
    of funcs it reaches by naming it."""
    seen, todo, read = set(), [start], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Name) and node.id in funcs:
                todo.append(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "args"):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[0], ast.Name)
                  and node.args[0].id == "args"
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return read


def test_every_cli_flag_is_read():
    from ngd import cli

    _, trees = _parse()
    funcs = {node.name: node for node in trees[PACKAGE / "cli.py"].body
             if isinstance(node, ast.FunctionDef)}
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert commands, "no subcommands found"
    unread = []
    for command, parser in commands.items():
        read = _args_read(funcs, parser.get_default("fn").__name__)
        unread += [f"{command} {'/'.join(a.option_strings) or a.dest}"
                   for a in parser._actions
                   if not isinstance(a, argparse._HelpAction)
                   and a.dest not in read]
    assert not unread, "flags no code reads: " + ", ".join(unread)


COUNTS = ("checked", "failures", "witnesses")


def _count_writes(node):
    """Whether node writes a LawCheck count or adds a witness: assigns to
    an attribute named in COUNTS (or to an item of one), calls setattr
    with such a name, passes one as a keyword, or calls append, extend or
    insert on `.witnesses`."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target]
        return any(isinstance(n, ast.Attribute) and n.attr in COUNTS
                   for t in targets for n in ast.walk(t))
    if not isinstance(node, ast.Call):
        return False
    if any(k.arg in COUNTS for k in node.keywords):
        return True
    f = node.func
    if isinstance(f, ast.Name) and f.id == "setattr":
        return (len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in COUNTS)
    return (isinstance(f, ast.Attribute)
            and f.attr in ("append", "extend", "insert")
            and isinstance(f.value, ast.Attribute)
            and f.value.attr == "witnesses")


def test_only_the_law_kernel_counts_and_files_witnesses():
    modules, trees = _parse()
    kernel = next(node for node in trees[PACKAGE / "core.py"].body
                  if isinstance(node, ast.ClassDef)
                  and node.name == "LawCheck")
    inside = {id(n) for n in ast.walk(kernel)}
    writes = [(p, node) for p in modules for node in ast.walk(trees[p])
              if _count_writes(node)]
    # the census sees the kernel's own writes: each of judge, judge_all
    # and judge_residuals writes checked, failures and witnesses
    assert sum(id(node) in inside for _, node in writes) >= 9
    outside = [f"{p.name}:{node.lineno}" for p, node in writes
               if id(node) not in inside]
    assert not outside, "counts written outside LawCheck: " + ", ".join(
        outside)


@pytest.mark.parametrize("code, writes", [
    ("law.checked += 1", True),
    ("law.failures = 0", True),
    ("law.witnesses[0] = {}", True),
    ("law.witnesses.append({})", True),
    ("rep.law(name).witnesses.extend(ws)", True),
    ("setattr(law, 'failures', 2)", True),
    ("LawCheck('x', checked=1)", True),
    ("LawCheck('x', note='n/a')", False),
    ("law.judge(ok, sample=k)", False),
    ("law.judge_all(3, bad, witness)", False),
    ("law.judge_residuals(resids, 1e-9)", False),
    ("n = law.checked + law.failures", False),
    ("ws = list(law.witnesses)", False),
])
def test_the_count_census_reads_each_kind_of_write(code, writes):
    tree = ast.parse(code)
    assert any(map(_count_writes, ast.walk(tree))) == writes
