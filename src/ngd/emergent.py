"""Emergent approximate operations of a dilation model.

At a fixed scale eps the fiberwise dilatations induce approximate
difference / sum / inverse operations on each source fiber (Delta_eps,
Sigma_eps, inv_eps) and their based three-argument forms (Delta3,
Sigma3, inv3).  As eps -> 0 they converge to the model's tangent
operations; at fixed eps they obey a battery of exact identities, checked
here: each single scale gives an idempotent right quasigroup (Irq) on the
fiber, the whole dilatation family (GammaIrq) composes across scales, and
the based forms satisfy distributivity-style laws.  Each float law is
judged by LawCheck.judge_residuals, one instance per sample.  The
batteries sweep their scales in chunks (ngd.scales.chunks, k n <=
CHUNK_POINTS): one kernel call per identity and chunk, then one judge per
scale row, as a per-scale loop would.  So a GammaIrq's op must take a
ScaleBatch as well as a Scale.
A check computes each shared cloud once: `_moved_base_ops` takes the moved
base x circ_s u where Delta3, Sigma3 and inv3 take u, and `_gather` keeps
a sweep's clouds for every scale pair that reads them.

Convention: arrow-level operations eat and return (..., 2, dim) arrows of
a PairModel; point-level ("based") operations eat and return point arrays,
with the base an explicit argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import LawCheck, ValidationReport
from .scales import ScaleBatch, as_scale, batch, chunks, dyadic_grid


def _maxabs(x) -> float:
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def _per_sample(a, b, lead=1):
    """Residual per sample of the first `lead` axes: max |a - b| over the
    axes after them, NaN-propagating, and 0 where they hold no entry.
    Clouds and arrows are column-major (see ngd.models), so the max runs
    down contiguous coordinate columns."""
    d = np.abs(d := np.subtract(a, b), out=d)  # in place
    return d if d.ndim <= lead else np.max(
        d, axis=tuple(range(lead, d.ndim)), initial=0.0)


def _judge_rows(check, S, a, b, tol, own, **context):
    """Judge the chunk S's result a against b a scale at a time (a lone
    Scale's one row a view), one instance per sample.  own maps witness
    keys to scale columns of the chunk, each row filing str(t.value) of
    its scales first; check is one law, or a list of one per scale."""
    a = a if isinstance(S, ScaleBatch) else a[None]
    cols = [[str(t.value) for t in col.scales] for col in own.values()]
    rows = [dict(zip(own, values)) for values in zip(*cols)]
    checks = check if isinstance(check, list) else [check] * len(rows)
    for c, r, row in zip(checks, _per_sample(a, b, 2), rows):
        c.judge_residuals(r, tol, **row, **context)


def _pair_chunks(grid, n):
    """grid's (s, m, s m) triples, s major, by chunk, with their columns."""
    for chunk in chunks([(s, m, s.mul(m)) for s in grid for m in grid], n):
        yield (chunk, *map(batch, zip(*chunk)))


# ---------------------------------------------------------------------------
# arrow-level operations


def arrow_dilatation(model, scale, base, a):
    """delta^h_eps a = delta_eps(a h^-1) . h -- contract the arrow a toward
    the base arrow h inside their common source fiber: the arrow from
    alpha(h) to delta^{omega(h)}_eps omega(a)."""
    model._common_source(a, base)
    return model.arrow(model.point_dilatation(scale, model.target(base),
                                              model.target(a)),
                       model.source(base))


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


# ---------------------------------------------------------------------------
# point-level (based) operations


def _moved_base_ops(C, s):
    """Delta3, Sigma3 and inv3 at scale s of the scale family C (a GammaIrq's
    op, or a model's point_dilatation), each taking the moved base
    ab = a circ_s b where the based forms take b, so that a check computes
    a moved base it shares once:

        D3(a, ab, c) = ab circ_{1/s} (a circ_s c)
        S3(a, ab, c) = a circ_{1/s} (ab circ_s c)
        I3(a, ab)    = ab circ_{1/s} a"""
    si = s.inv()
    return (lambda a, ab, c: C(si, ab, C(s, a, c)),
            lambda a, ab, c: C(si, a, C(s, ab, c)),
            lambda a, ab: C(si, ab, a))


def Delta3(model, scale, x, u, v):
    """Based approximate difference: delta^{delta^x_eps u}_{1/eps} delta^x_eps v."""
    s, pd = as_scale(scale), model.point_dilatation
    return _moved_base_ops(pd, s)[0](x, pd(s, x, u), v)


def Sigma3(model, scale, x, u, v):
    """Based approximate sum: delta^x_{1/eps} delta^{delta^x_eps u}_eps v."""
    s, pd = as_scale(scale), model.point_dilatation
    return _moved_base_ops(pd, s)[1](x, pd(s, x, u), v)


def inv3(model, scale, x, u):
    """Based approximate inverse: delta^{delta^x_eps u}_{1/eps} x.  Equals
    Delta3(x; u, x) -- the identity-battery check (f) confirms the two
    routes agree rather than assuming it."""
    s, pd = as_scale(scale), model.point_dilatation
    return _moved_base_ops(pd, s)[2](x, pd(s, x, u))


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
    scale: object = None  # of GammaIrq.at: a ScaleBatch's ops give a row each


@dataclass
class GammaIrq:
    """A scale-indexed irq family circ(s, x, y) with the composition law
    circ(s, x, circ(m, x, y)) = circ(s*m, x, y).  op takes a Scale or a
    ScaleBatch, whose k results it stacks on a leading axis."""

    op: Callable  # (scale or ScaleBatch, x, y) -> point(s)
    name: str = "scale-indexed irq family"

    def at(self, scale) -> Irq:
        s = as_scale(scale)
        return Irq(
            op=lambda u, v: self.op(s, u, v),
            opinv=lambda u, v: self.op(s.inv(), u, v),
            name=f"{self.name} @ {', '.join(str(t.value) for t in s.scales)}",
            scale=s,
        )


def gamma_irq_from_dilation(model) -> GammaIrq:
    return GammaIrq(op=model.point_dilatation,
                    name=f"dilatation family[{model.name}]")


# ---------------------------------------------------------------------------
# checks


def sample_point_quads(model, rng, n=1000, radius=4.0):
    """Four independent point clouds (x, u, v, w) in the gauge ball."""
    return tuple(model.sample_points(rng, n, radius) for _ in range(4))


def check_irq(Q: Irq, xs, ys) -> ValidationReport:
    """P1 and P2 on sampled pairs (xs[i], ys[i]), per scale of a batch."""
    tol = 1e-10
    rep = ValidationReport(subject=Q.name)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    S, own = Q.scale, {"eps": Q.scale}
    p1 = [LawCheck("P1: x op (x opinv y) = x opinv (x op y) = y")
          for _ in S.scales]
    p2 = [LawCheck("P2: x op x = x opinv x = x") for _ in S.scales]
    for laws in zip(p1, p2):
        rep.add(*laws)
    _judge_rows(p1, S, Q.op(xs, Q.opinv(xs, ys)), ys, tol, own, x=xs, y=ys)
    _judge_rows(p1, S, Q.opinv(xs, Q.op(xs, ys)), ys, tol, own, x=xs, y=ys)
    _judge_rows(p2, S, Q.op(xs, xs), xs, tol, own, x=xs)
    _judge_rows(p2, S, Q.opinv(xs, xs), xs, tol, own, x=xs)
    return rep


def check_gamma_irq(Q: GammaIrq, xs, ys) -> ValidationReport:
    """Per-scale irq axioms plus the composition law over a grid of
    (s, m) scale pairs."""
    grid = dyadic_grid(kmax=5)
    rep = ValidationReport(subject=Q.name)
    comp = LawCheck("composition: x circ_s (x circ_m y) = x circ_{sm} y")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    for chunk in chunks(grid, len(xs)):
        rep.merge(check_irq(Q.at(batch(chunk)), xs, ys))
    # x circ_t y once for each t of the grid and each product s m
    ts = list(dict.fromkeys(grid + [s.mul(m) for s in grid for m in grid]))
    at = _gather(ts, len(xs), lambda t: [Q.op(t, xs, ys)])
    for chunk, s, m, _ in _pair_chunks(grid, len(xs)):
        _, ms, sms = zip(*chunk)
        (my,), (smy,) = at(ms), at(sms)
        _judge_rows(comp, s, Q.op(s, xs, my), smy, 1e-10, {"s": s, "m": m},
                    x=xs, y=ys)
    rep.add(comp)
    return rep


def check_pplay(Q: GammaIrq, samples) -> ValidationReport:
    """The identity battery for the based operations derived from a scale
    family: difference/sum inversion, inverse transport, associativity
    transport, and distributivity of the dilatations over the difference.

    samples is a tuple (x, u, v, w) of point arrays; the battery runs each
    identity at every scale of dyadic_grid(kmax=5) (and, for the
    distributivity law, over every pair of its scales), judged per scale at
    1e-10.  Failures carry the worst sample as a witness."""
    grid = dyadic_grid(kmax=5)
    x, u, v, w = (np.asarray(a, dtype=float) for a in samples)
    n = len(x)

    C = Q.op
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

    for s in map(batch, chunks(grid, n)):
        eps = {"eps": s}
        D3, S3, I3 = _moved_base_ops(C, s)
        si = s.inv()
        # each cloud here is read by several laws: the moved bases of u, x
        # and s3 from x, and xu circ_s v, the inner step of S3(x, xu, v);
        # so s3, (a)'s D3(x, xu, s3) and (f)'s D3(x, xu, x) take one call
        xu, xx = C(s, x, u), C(s, x, x)
        xuv = C(s, xu, v)
        iu, d3, s3 = I3(x, xu), D3(x, xu, v), C(si, x, xuv)
        xui, xs3 = C(s, xu, iu), C(s, x, s3)
        _judge_rows(a_, s, C(si, xu, xs3), v, 1e-10, eps, x=x, u=u, v=v)
        _judge_rows(b_, s, S3(x, xu, d3), v, 1e-10, eps, x=x, u=u, v=v)
        _judge_rows(c_, s, d3, S3(xu, xui, v), 1e-10, eps, x=x, u=u, v=v)
        _judge_rows(d_, s, I3(xu, xui), u, 1e-10, eps, x=x, u=u)
        _judge_rows(e_, s, S3(x, xu, S3(xu, xuv, w)), S3(x, xs3, w), 1e-10,
                    eps, x=x, u=u, v=v, w=w)
        _judge_rows(f_, s, iu, C(si, xu, xx), 1e-10, eps, x=x, u=u)
        _judge_rows(g_, s, S3(x, xx, u), u, 1e-10, eps, x=x, u=u)

    # (k): the clouds of m or of sm alone, swept once over their scales
    at_m = _gather(grid, n, lambda m: (C(m, x, u), C(m, x, v)))
    at_sm = _gather(list(dict.fromkeys(s.mul(m) for s in grid for m in grid)),
                    n, lambda sm: ((ab := C(sm, x, u)),
                                   _moved_base_ops(C, sm)[0](x, ab, v)))
    for chunk, s, m, _ in _pair_chunks(grid, n):
        _, ms, sms = zip(*chunk)
        (mu, mv), (smu, smd) = at_m(ms), at_sm(sms)
        lhs = _moved_base_ops(C, s)[0](x, C(s, x, mu), mv)
        _judge_rows(k_, s, lhs, C(m, smu, smd), 1e-10, {"eps": s, "mu": m},
                    x=x, u=u, v=v)
    return rep


def _gather(scales, n, f):
    """f swept over scales a chunk at a time; returns take(keys): f's clouds
    at keys as a chunk's input, stacked by the storage rule (ngd.models)."""
    rows = {}
    for chunk in chunks(scales, n):
        S = batch(chunk)
        clouds = f(S) if isinstance(S, ScaleBatch) else [[a] for a in f(S)]
        rows.update(zip(chunk, zip(*clouds)))
    return lambda keys: [c[0] if len(c) == 1 else np.stack(
        [r.T for r in c]).transpose(0, 2, 1) for c in zip(*map(rows.get, keys))]


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
    for s in map(batch, chunks(dyadic_grid(kmax=5), n)):
        for law, arrow_op, based_op in ((cd, Delta_eps, Delta3),
                                        (cs, Sigma_eps, Sigma3)):
            _judge_rows(law, s, arrow_op(model, s, hu, gu), model.arrow(
                based_op(model, s, up, gp, hp), up), 1e-10, {"eps": s}, u=up,
                g=gp, h=hp)
    return rep
