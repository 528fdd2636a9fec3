"""Emergent approximate operations of a dilation model.

At a fixed scale eps the fiberwise dilatations induce approximate
difference / sum / inverse operations on each source fiber.  As eps -> 0
they converge to the model's tangent operations; at fixed eps they obey a
battery of exact identities: each single scale gives an idempotent right
quasigroup (irq) on the fiber, the whole family composes across scales,
and the based three-argument forms satisfy distributivity-style laws.

Convention: arrow-level operations eat and return (..., 2, dim) arrows of
a PairModel; point-level ("based") operations eat and return point arrays,
with the base an explicit argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import LawCheck, ValidationReport
from .scales import Scale, as_scale


def _maxabs(x) -> float:
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def _per_sample(a, b):
    """Residual per leading-axis sample: max |a - b| over trailing axes.

    A running np.maximum over the trailing columns, one 1-d column at a
    time: exact and NaN-propagating like a row max, but numpy is slow on
    a short inner axis, and so also on (n, 3) strided views."""
    a = np.asarray(a)
    b = np.asarray(b)
    if max(a.ndim, b.ndim) <= 1:
        return np.abs(a - b)
    a, b = np.broadcast_arrays(a, b)
    n, k = a.shape[0], math.prod(a.shape[1:])
    a = a.reshape(n, k)
    b = b.reshape(n, k)
    out = np.subtract(a[:, 0], b[:, 0])
    np.abs(out, out=out)
    r = np.empty_like(out)
    for j in range(1, k):
        np.subtract(a[:, j], b[:, j], out=r)
        np.abs(r, out=r)
        np.maximum(out, r, out=out)
    return out


def _judge(check: LawCheck, resids, tol: float, **context) -> None:
    """Tick the law once per sample batch; file the worst offender as a
    witness (with any per-sample context arrays sliced at that index).
    A non-finite residual fails, and its first sample is the witness."""
    resids = np.atleast_1d(np.asarray(resids, dtype=float))
    check.tick(int(resids.size))
    worst = float(resids.max()) if resids.size else 0.0
    if not math.isfinite(worst):
        i = int(np.argmin(np.isfinite(resids)))  # first non-finite sample
    elif worst > tol:
        i = int(np.argmax(resids))
    else:
        return
    data = {"residual": float(resids[i]), "sample": i}
    for key, val in context.items():
        arr = np.asarray(val)
        data[key] = arr[i].tolist() if arr.ndim > 0 and arr.shape[0] == resids.size else val
    check.fail(**data)


# ---------------------------------------------------------------------------
# arrow-level operations


def arrow_dilatation(model, scale, base, a):
    """delta^h_eps a = delta_eps(a h^-1) . h -- contract the arrow a toward
    the base arrow h inside their common source fiber."""
    return model.compose(model.delta(scale, model.dif(a, base)), base)


def Delta_eps(model, scale, g, h):
    """Approximate difference at scale eps:

        Delta_eps(g, h) = delta^{delta_eps h}_{1/eps} (delta_eps g).

    Same-fiber arrows in, same-fiber arrow out; converges (order 1 off the
    origin, exactly in the rescaled-norm sense) to model.tangent_Delta."""
    s = as_scale(scale)
    return arrow_dilatation(model, s.inv(), model.delta(s, h), model.delta(s, g))


def Sigma_eps(model, scale, g, h):
    """Approximate sum at scale eps:

        Sigma_eps(g, h) = delta_{1/eps} [ delta_eps(g (delta_eps h)^-1) . delta_eps h ].

    For g = (p, b) and h = (q, b) it converges to the tangent sum
    (q b^-1 p, b)."""
    s = as_scale(scale)
    dh = model.delta(s, h)
    glued = model.compose(model.delta(s, model.compose(g, model.inverse(dh))), dh)
    return model.delta(s.inv(), glued)


def inv_eps(model, scale, g):
    """Approximate inverse: inv_eps(g) = Delta_eps(e(alpha g), g), the
    difference of g from the unit arrow of its fiber."""
    return Delta_eps(model, scale, model.unit_of(g), g)


def dif_eps(model, scale, g, h):
    """Blown-up exact difference, delta_{1/eps} dif(delta_eps g, delta_eps h).

    Composing with delta_eps h recovers Delta_eps (a route identity worth
    testing, not assuming); unlike Delta_eps its source moves with eps, so
    it converges to tangent_Delta only in the simple (slotwise) sense."""
    s = as_scale(scale)
    return model.delta(s.inv(), model.dif(model.delta(s, g), model.delta(s, h)))


# ---------------------------------------------------------------------------
# point-level (based) operations


def circ(model, scale, x, u):
    """x circ_eps u -- the based dilatation read as a binary operation."""
    return model.point_dilatation(scale, x, u)


def Delta3(model, scale, x, u, v):
    """Based approximate difference: delta^{delta^x_eps u}_{1/eps} delta^x_eps v."""
    s = as_scale(scale)
    return model.point_dilatation(
        s.inv(),
        model.point_dilatation(s, x, u),
        model.point_dilatation(s, x, v),
    )


def Sigma3(model, scale, x, u, v):
    """Based approximate sum: delta^x_{1/eps} delta^{delta^x_eps u}_eps v."""
    s = as_scale(scale)
    return model.point_dilatation(
        s.inv(), x,
        model.point_dilatation(s, model.point_dilatation(s, x, u), v),
    )


def inv3(model, scale, x, u):
    """Based approximate inverse: delta^{delta^x_eps u}_{1/eps} x.  Equals
    Delta3(x; u, x) -- the identity-battery check (f) confirms the two
    routes agree rather than assuming it."""
    s = as_scale(scale)
    return model.point_dilatation(s.inv(), model.point_dilatation(s, x, u), x)


# ---------------------------------------------------------------------------
# irq structures


@dataclass
class Irq:
    """Idempotent right quasigroup: two operations with

        P1:  x op (x opinv y) = x opinv (x op y) = y
        P2:  x op x = x opinv x = x
    """

    op: Callable
    opinv: Callable
    name: str = "irq"


def irq_from_dilation(model, scale) -> Irq:
    """The fiber irq u op v = delta^u_eps v (opinv uses 1/eps).

    One irq serves every source fiber: each is a copy of the group read
    through target coordinates."""
    s = as_scale(scale)
    return Irq(
        op=lambda u, v: model.point_dilatation(s, u, v),
        opinv=lambda u, v: model.point_dilatation(s.inv(), u, v),
        name=f"dilatation irq[{model.name} @ {s.value}]",
    )


@dataclass
class GammaIrq:
    """A scale-indexed irq family circ(s, x, y) with the composition law
    circ(s, x, circ(m, x, y)) = circ(s*m, x, y)."""

    op: Callable  # (scale, x, y) -> point(s)
    name: str = "scale-indexed irq family"

    def at(self, scale) -> Irq:
        s = as_scale(scale)
        return Irq(
            op=lambda u, v: self.op(s, u, v),
            opinv=lambda u, v: self.op(s.inv(), u, v),
            name=f"{self.name} @ {s.value}",
        )


def gamma_irq_from_dilation(model) -> GammaIrq:
    return GammaIrq(op=model.point_dilatation,
                    name=f"dilatation family[{model.name}]")


def iterate_irq(Q: Irq, k: int) -> Callable:
    """The k-fold iterate: apply op (k > 0) or opinv (k < 0) |k| times in
    the second argument; k = 0 is the identity there."""

    def op(x, y):
        f = Q.op if k >= 0 else Q.opinv
        for _ in range(abs(k)):
            y = f(x, y)
        return y

    return op


def _dyadic_exponent(scale) -> int:
    m = as_scale(scale).modulus
    num, den = m.numerator, m.denominator
    if num == 1 and den & (den - 1) == 0:
        return den.bit_length() - 1
    if den == 1 and num & (num - 1) == 0:
        return -(num.bit_length() - 1)
    raise ValueError(f"not a dyadic scale: {m}")


def z_irq_from_iterates(Q: Irq) -> GammaIrq:
    """Integer-indexed family built by iterating one irq: the scale 2^-k
    stands for the exponent k, so the family's composition law is the
    iterate law (op_s)_k = op_{s^k} in disguise."""

    def op(scale, x, y):
        return iterate_irq(Q, _dyadic_exponent(scale))(x, y)

    return GammaIrq(op=op, name=f"Z iterates of {Q.name}")


# ---------------------------------------------------------------------------
# checks


def default_scale_grid():
    """The 5-point dyadic grid used by the identity batteries."""
    return [Scale(Fraction(1, 2 ** k)) for k in range(1, 6)]


def sample_point_quads(model, rng, n=1000, radius=4.0):
    """Four independent point clouds (x, u, v, w) in the gauge ball."""
    return tuple(model.sample_points(rng, n, radius) for _ in range(4))


def check_irq(Q: Irq, xs, ys) -> ValidationReport:
    """P1 and P2 on sampled pairs (xs[i], ys[i])."""
    tol = 1e-10
    rep = ValidationReport(subject=Q.name)
    p1 = LawCheck("P1: x op (x opinv y) = x opinv (x op y) = y")
    p2 = LawCheck("P2: x op x = x opinv x = x")
    rep.add(p1, p2)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    _judge(p1, _per_sample(Q.op(xs, Q.opinv(xs, ys)), ys), tol, x=xs, y=ys)
    _judge(p1, _per_sample(Q.opinv(xs, Q.op(xs, ys)), ys), tol, x=xs, y=ys)
    _judge(p2, _per_sample(Q.op(xs, xs), xs), tol, x=xs)
    _judge(p2, _per_sample(Q.opinv(xs, xs), xs), tol, x=xs)
    return rep


def check_gamma_irq(Q: GammaIrq, xs, ys) -> ValidationReport:
    """Per-scale irq axioms plus the composition law over a grid of
    (s, m) scale pairs."""
    grid = default_scale_grid()
    rep = ValidationReport(subject=Q.name)
    comp = LawCheck("composition: x circ_s (x circ_m y) = x circ_{sm} y")
    for s in grid:
        rep.merge(check_irq(Q.at(s), xs, ys))
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    for s in grid:
        for m in grid:
            lhs = Q.op(s, xs, Q.op(m, xs, ys))
            rhs = Q.op(s.mul(m), xs, ys)
            _judge(comp, _per_sample(lhs, rhs), 1e-10,
                   s=str(s.value), m=str(m.value), x=xs, y=ys)
    rep.add(comp)
    return rep


def check_pplay(Q: GammaIrq, samples, tol=1e-10) -> ValidationReport:
    """The identity battery for the based operations derived from a scale
    family: difference/sum inversion, inverse transport, associativity
    transport, and distributivity of the dilatations over the difference.

    samples is a tuple (x, u, v, w) of point arrays; the battery runs each
    identity at every scale of default_scale_grid() (and, for the
    distributivity law, over every pair of its scales).  Failures carry
    the worst sample as a witness."""
    grid = default_scale_grid()
    x, u, v, w = (np.asarray(a, dtype=float) for a in samples)

    def C(s, a, b):
        return Q.op(s, a, b)

    def D3(s, a, b, c):
        return C(s.inv(), C(s, a, b), C(s, a, c))

    def S3(s, a, b, c):
        return C(s.inv(), a, C(s, C(s, a, b), c))

    def I3(s, a, b):
        return C(s.inv(), C(s, a, b), a)

    rep = ValidationReport(subject=f"identity battery[{Q.name}]")
    a_ = LawCheck("(a) based difference undoes based sum")
    b_ = LawCheck("(b) based sum undoes based difference")
    c_ = LawCheck("(c) difference = sum against the based inverse")
    d_ = LawCheck("(d) inverse is involutive across the moved base")
    e_ = LawCheck("(e) sum transports associativity across fibers")
    f_ = LawCheck("(f) inverse = difference with the base")
    g_ = LawCheck("(g) summing from the base point is the identity")
    k_ = LawCheck("(k) dilatations distribute over the based difference")
    rep.add(a_, b_, c_, d_, e_, f_, g_, k_)

    for s in grid:
        xu = C(s, x, u)  # the moved base x circ_s u, shared by several laws
        iu = I3(s, x, u)
        _judge(a_, _per_sample(D3(s, x, u, S3(s, x, u, v)), v), tol,
               eps=str(s.value), x=x, u=u, v=v)
        _judge(b_, _per_sample(S3(s, x, u, D3(s, x, u, v)), v), tol,
               eps=str(s.value), x=x, u=u, v=v)
        _judge(c_, _per_sample(D3(s, x, u, v), S3(s, xu, iu, v)), tol,
               eps=str(s.value), x=x, u=u, v=v)
        _judge(d_, _per_sample(I3(s, xu, iu), u), tol,
               eps=str(s.value), x=x, u=u)
        _judge(e_, _per_sample(S3(s, x, u, S3(s, xu, v, w)),
                               S3(s, x, S3(s, x, u, v), w)), tol,
               eps=str(s.value), x=x, u=u, v=v, w=w)
        _judge(f_, _per_sample(iu, D3(s, x, u, x)), tol,
               eps=str(s.value), x=x, u=u)
        _judge(g_, _per_sample(S3(s, x, x, u), u), tol,
               eps=str(s.value), x=x, u=u)
        for m in grid:
            sm = s.mul(m)
            lhs = D3(s, x, C(m, x, u), C(m, x, v))
            rhs = C(m, C(sm, x, u), D3(sm, x, u, v))
            _judge(k_, _per_sample(lhs, rhs), tol,
                   eps=str(s.value), mu=str(m.value), x=x, u=u, v=v)
    return rep


def check_based_compat(model, n=300) -> ValidationReport:
    """Right translation by u^-1 intertwines the based three-argument
    operations with the two-argument arrow operations:

        Delta_eps(h u^-1, g u^-1) = (Delta3(eps; u, g, h), u)
        Sigma_eps(h u^-1, g u^-1) = (Sigma3(eps; u, g, h), u)

    where g, h, u are fiber points, a u^-1 is the arrow (point, u), and
    the right side is the arrow with the stated target and source u.
    The points are sampled around the group identity."""
    rng = np.random.default_rng(20)
    rep = ValidationReport(subject=f"based/two-argument compatibility[{model.name}]")
    cd = LawCheck("arrow difference = based difference, right-translated")
    cs = LawCheck("arrow sum = based sum, right-translated")
    rep.add(cd, cs)

    gp, hp, up = (model.sample_points(rng, n, 4.0, center=model.e())
                  for _ in range(3))
    hu = model.arrow(hp, up)  # h u^-1 in pair coordinates
    gu = model.arrow(gp, up)
    for s in default_scale_grid():
        lhs = Delta_eps(model, s, hu, gu)
        rhs = model.arrow(Delta3(model, s, up, gp, hp), up)
        _judge(cd, _per_sample(lhs, rhs), 1e-10, eps=str(s.value), u=up, g=gp, h=hp)
        lhs = Sigma_eps(model, s, hu, gu)
        rhs = model.arrow(Sigma3(model, s, up, gp, hp), up)
        _judge(cs, _per_sample(lhs, rhs), 1e-10, eps=str(s.value), u=up, g=gp, h=hp)
    return rep
