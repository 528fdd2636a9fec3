"""A small term language over one analytic model.

Terms name the based/approximate operations at a chosen scale and can
take scale limits:

    Delta(0.1, (3,0), (1,0))        approximate difference of two arrows
    lim(eps -> 0, Delta(eps, (3,0), (1,0)))
    let(g, (3,0), d(g))             bind a name, take the arrow's norm
    circ(1/2, (0,0,0), (1,0,0))     based dilatation of a point

Numbers are exact rationals ("0.1" means 1/10, "3/4" is allowed).  A
tuple of scalars is a point of the model's dimension — except in the
one-dimensional Euclidean default, where a 2-tuple is an arrow written
(target, source).  A 2-tuple of points is an arrow.  The parser and the
evaluator read each operation off one table, OPERATIONS.  On arrows an
operation acts fiberwise, on points at the context's base point (default:
the group identity) or at the base dilat and circ name; a mix is an error.

Errors carry 1-based line:column positions, both at parse time (unknown
name, wrong arity, malformed syntax) and at evaluation time (type
mismatches), so a caller can point at the offending spot.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import emergent
from .limits import limit_of_values
from .scales import as_scale, dyadic_grid


class TermError(ValueError):
    """Positioned error in a term: parse- or type-level."""

    def __init__(self, message, line, col):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


def _arrow_distance(m, a, b=None):
    """d(a), the norm of an arrow, or d(a, b), their distance d~."""
    return float(m.norm(a) if b is None else m.dtilde(a, b))


def _point_distance(m, base, x, y=None):
    if y is None:  # evaluate turns this into a term error at the call
        raise ValueError("d(a) takes an arrow; for points use d(x, y)")
    return float(m.pdist(x, y))


def _dilatation(m, s, base, x, u):
    """dilat and circ on points: they name their base, x."""
    return m.point_dilatation(s, x, u)


# an operation: its least and most arguments, whether its first argument
# is a scale, its form on arrows, f(model, [scale,] *arrows), and its form
# on points, f(model, [scale,] base, *points), base the context's base
_Op = namedtuple("_Op", "lo hi scaled arrows points",
                 defaults=(False, None, None))

# the operation table; lim and let bind a name and keep their own code
OPERATIONS = {
    "delta": _Op(2, 2, True, lambda m, s, a: m.delta(s, a),
                 lambda m, s, x, u: m.point_dilatation(s, x, u)),
    "dilat": _Op(3, 3, True, emergent.arrow_dilatation, _dilatation),
    "circ": _Op(3, 3, True, None, _dilatation),  # the based operation
    "Delta": _Op(3, 3, True, emergent.Delta_eps, emergent.Delta3),
    "Sigma": _Op(3, 3, True, emergent.Sigma_eps, emergent.Sigma3),
    "inv": _Op(2, 2, True, emergent.inv_eps, emergent.inv3),
    "d": _Op(1, 2, False, _arrow_distance, _point_distance),
    "lim": _Op(2, 2),  # lim(eps -> 0, term)
    "let": _Op(3, 3),  # let(name, value, body)
}


# ---------------------------------------------------------------------------
# lexing


_TOKEN = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<arrow>->)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<num>\d+(?:\.\d+)?(?:/\d+)?)
      | (?P<lp>\()
      | (?P<rp>\))
      | (?P<comma>,)
      | (?P<minus>-)
    """,
    re.VERBOSE,
)


Token = namedtuple("Token", "kind text line col")


def tokenize(src: str) -> list:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if m is None:
            raise TermError(f"unexpected character {src[i]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            toks.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    toks.append(Token("end", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# syntax trees


@dataclass
class Num:
    value: Fraction
    line: int
    col: int


@dataclass
class Var:
    name: str
    line: int
    col: int


@dataclass
class Tup:
    items: list
    line: int
    col: int


@dataclass
class Call:
    name: str
    args: list
    line: int
    col: int
    var: str = ""  # bound name, for lim/let


def _rational(t: Token) -> Fraction:
    try:
        return Fraction(t.text)
    except (ValueError, ZeroDivisionError):  # 1/0, 0/0, 1.5/2
        raise TermError(f"not a rational number: {t.text!r}",
                        t.line, t.col) from None


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def take(self, kind, what) -> Token:
        t = self.toks[self.i]
        if t.kind != kind:
            got = t.text or "end of input"
            raise TermError(f"expected {what}, found {got!r}", t.line, t.col)
        self.i += 1
        return t

    def parse(self):
        node = self.term()
        t = self.peek()
        if t.kind != "end":
            raise TermError(
                f"unexpected {t.text!r} after the end of the term",
                t.line, t.col,
            )
        return node

    def term(self):
        t = self.peek()
        if t.kind == "minus":
            self.i += 1
            inner = self.term()
            return Call("neg", [inner], t.line, t.col)
        if t.kind == "num":
            self.i += 1
            return Num(_rational(t), t.line, t.col)
        if t.kind == "lp":
            return self.tuple_or_group()
        if t.kind == "name":
            self.i += 1
            if self.peek().kind == "lp":
                return self.call(t)
            return Var(t.text, t.line, t.col)
        got = t.text or "end of input"
        raise TermError(f"expected a term, found {got!r}", t.line, t.col)

    def terms(self) -> list:
        """One or more terms, separated by commas."""
        items = [self.term()]
        while self.peek().kind == "comma":
            self.i += 1
            items.append(self.term())
        return items

    def tuple_or_group(self):
        lp = self.take("lp", "'('")
        items = self.terms()
        self.take("rp", "',' or ')'")
        if len(items) == 1:
            return items[0]  # just grouping
        return Tup(items, lp.line, lp.col)

    def call(self, name_tok: Token):
        name = name_tok.text
        if name not in OPERATIONS:
            raise TermError(
                f"unknown operation {name!r} (have: "
                f"{', '.join(sorted(OPERATIONS))})",
                name_tok.line, name_tok.col,
            )
        self.take("lp", "'('")
        node = Call(name, [], name_tok.line, name_tok.col)

        if name == "lim":
            v = self.take("name", "a scale variable (like eps)")
            self.take("arrow", "'->'")
            z = self.take("num", "the limit point 0")
            if _rational(z) != 0:
                raise TermError(
                    "limits here go to 0 (scale limits only)", z.line, z.col
                )
            node.var = v.text
            self.take("comma", "','")
            node.args.append(self.term())
        elif name == "let":
            v = self.take("name", "a name to bind")
            node.var = v.text
            self.take("comma", "','")
            node.args.append(self.term())
            self.take("comma", "','")
            node.args.append(self.term())
        else:  # the parse above fixes the arguments of lim and let
            node.args = self.terms()
            t, have = self.peek(), len(node.args)
            lo, hi = OPERATIONS[name].lo, OPERATIONS[name].hi
            if t.kind == "rp" and have < lo:  # then lo == hi: d has lo 1
                raise TermError(f"{name} takes {lo} arguments, got {have}",
                                t.line, t.col)
            if have > hi:
                a = node.args[hi]
                raise TermError(
                    f"{name} takes at most {hi} arguments", a.line, a.col
                )
        self.take("rp", "',' or ')'")
        return node


def parse(src: str):
    """Parse one term; raises TermError with a 1-based position."""
    return _Parser(tokenize(src)).parse()


def to_text(node) -> str:
    """Print a term back to source.  parse(to_text(parse(s))) is
    parse(s) up to positions."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Tup):
        return "(" + ", ".join(to_text(x) for x in node.items) + ")"
    if isinstance(node, Call):
        if node.name == "neg":
            return "-" + to_text(node.args[0])
        binder = {"lim": [f"{node.var} -> 0"], "let": [node.var]}
        parts = binder.get(node.name, []) + [to_text(a) for a in node.args]
        return f"{node.name}({', '.join(parts)})"
    raise TypeError(f"not a term node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalContext:
    """Where a term is evaluated: the model, the base point for
    point-level operations, the scale grid for limits, and the
    environment of bound names."""

    model: object
    base: object = None
    eps_grid: list = None
    tol: float = 1e-8
    env: dict = field(default_factory=dict)
    estimates: list = field(default_factory=list)  # LimitEstimates from lim

    def __post_init__(self):
        if self.base is None:
            self.base = self.model.e()
        if self.eps_grid is None:
            # deep enough that an order-1 successive-difference trace
            # clears the default tolerance over its whole last quarter;
            # fine at the identity base, where the model operations only
            # make relative errors.  Pass a shallower grid for far-out
            # explicit bases.
            self.eps_grid = dyadic_grid(kmax=36)


def _kind(v) -> str:
    if isinstance(v, (Fraction, int, float)) or np.ndim(v) == 0:
        return "scalar"
    v = np.asarray(v)
    if v.ndim == 1:
        return "point"
    if v.ndim == 2 and v.shape[0] == 2:
        return "arrow"
    return "other"


def _past_float(node) -> TermError:
    return TermError(f"{to_text(node)} is past the largest float",
                     node.line, node.col)


def _float(v, node) -> float:
    try:
        return float(v)
    except OverflowError:  # a rational too large for a float
        raise _past_float(node) from None


def _as_point(v, ctx, node):
    if _kind(v) == "scalar" and ctx.model.dim == 1:
        return np.array([_float(v, node)])
    if _kind(v) == "point":
        p = np.asarray(v, dtype=float)
        if p.shape[-1] != ctx.model.dim:
            raise TermError(
                f"point has {p.shape[-1]} coordinates, model has "
                f"{ctx.model.dim}", node.line, node.col,
            )
        return p
    raise TermError(f"expected a point, got {_kind(v)}", node.line, node.col)


def _as_scale(v, node):
    if _kind(v) != "scalar":
        raise TermError(
            f"expected a scale (a nonzero rational), got {_kind(v)}",
            node.line, node.col,
        )
    try:
        return as_scale(v if isinstance(v, Fraction) else float(v))
    except OverflowError:  # too large a rational, or a float that overflowed
        raise _past_float(node) from None
    except ValueError as e:
        raise TermError(str(e), node.line, node.col) from None


def evaluate(node, ctx: EvalContext):
    """Evaluate a term.  Returns a Fraction/float (scalar), a point
    array, or an arrow array.  lim(...) estimates are appended to
    ctx.estimates as a side record."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name in ctx.env:
            return ctx.env[node.name]
        if node.name == "e":
            return ctx.model.e()
        raise TermError(f"unbound name {node.name!r}", node.line, node.col)
    if isinstance(node, (Tup, Call)):
        try:
            return (_tuple if isinstance(node, Tup) else _apply)(node, ctx)
        except TermError:
            raise
        except OverflowError as e:  # such as the inverse of a tiny scale
            raise TermError(f"{to_text(node)} needs a number past the "
                            f"largest float", node.line, node.col) from e
        except ValueError as e:  # the model refused the operands
            raise TermError(str(e), node.line, node.col) from e
    raise TypeError(f"not a term node: {node!r}")


def _tuple(node: Tup, ctx: EvalContext):
    vals = [evaluate(x, ctx) for x in node.items]
    kinds = [_kind(v) for v in vals]
    if all(k == "scalar" for k in kinds):
        dim, vals = ctx.model.dim, list(map(_float, vals, node.items))
        if len(vals) == dim:
            return np.array(vals)
        if len(vals) == 2 and dim == 1:
            # 1d special case: (target, source) is an arrow
            return ctx.model.arrow([vals[0]], [vals[1]])
        raise TermError(
            f"a {len(vals)}-tuple of scalars fits neither a point "
            f"(dim {dim}) nor a 1d arrow", node.line, node.col,
        )
    if len(vals) == 2 and all(k == "point" for k in kinds):
        return ctx.model.arrow(vals[0], vals[1])
    raise TermError(
        "tuples hold scalars (a point) or two points (an arrow)",
        node.line, node.col,
    )


def _bind(ctx: EvalContext, name, value) -> EvalContext:
    """ctx with name bound to value; the estimates list stays shared."""
    return replace(ctx, env={**ctx.env, name: value})


def _apply(node: Call, ctx: EvalContext):
    if node.name == "neg":
        v = evaluate(node.args[0], ctx)
        return -v if _kind(v) == "scalar" else -np.asarray(v, dtype=float)

    if node.name == "let":
        value = evaluate(node.args[0], ctx)
        return evaluate(node.args[1], _bind(ctx, node.var, value))

    if node.name == "lim":
        body, moduli = node.args[0], [s.modulus for s in ctx.eps_grid]
        values = [evaluate(body, _bind(ctx, node.var, e)) for e in moduli]
        est = limit_of_values(
            f"lim {node.var}->0 of {to_text(body)}", moduli, values,
            tol=ctx.tol,
        )
        ctx.estimates.append(est)
        return est.value

    op = OPERATIONS[node.name]
    args = [evaluate(a, ctx) for a in node.args]
    lead = [_as_scale(args[0], node.args[0])] if op.scaled else []
    operands, nodes = args[len(lead):], node.args[len(lead):]
    kinds = [_kind(v) for v in operands]
    if op.arrows and all(k == "arrow" for k in kinds):
        return op.arrows(ctx.model, *lead, *operands)
    if "arrow" not in kinds:
        points = [_as_point(v, ctx, a) for v, a in zip(operands, nodes)]
        return op.points(ctx.model, *lead, ctx.base, *points)
    want = "two arrows or two points" if op.arrows else "two points"
    raise TermError(f"{node.name} wants {want}, got {' and '.join(kinds)}",
                    node.line, node.col)


def _fmt_float(x: float) -> str:
    out = f"{x:.12g}"
    return "0" if out in ("-0", "-0.0") else out


def format_value(v) -> str:
    """Render an evaluation result the way the examples in the docs are
    written: exact rationals as fractions, floats trimmed, 1d arrows as
    (target, source) scalars."""
    if isinstance(v, Fraction):
        return str(v)
    if _kind(v) == "scalar":
        return _fmt_float(float(v))
    a = np.asarray(v, dtype=float)
    if a.ndim == 1:
        if a.shape[0] == 1:
            return _fmt_float(a[0])
        return "(" + ", ".join(_fmt_float(x) for x in a) + ")"
    if a.ndim == 2 and a.shape[0] == 2:
        return f"({format_value(a[0])}, {format_value(a[1])})"
    return repr(a)


def run(src: str, ctx: EvalContext):
    """parse + evaluate; returns (value, rendered string, estimates)."""
    node = parse(src)
    value = evaluate(node, ctx)
    return value, format_value(value), list(ctx.estimates)
