"""Analytic dilation models: pair groupoids over homogeneous groups.

A carrier group supplies mul/inv/identity, a one-parameter family of
automorphisms D_eps with D_eps D_mu = D_{eps mu}, and a gauge that is
exactly homogeneous (gauge(D_eps w) = |eps| gauge(w)).  The model is the
pair groupoid of the group: an arrow is the ordered pair (target, source),
stored as an ndarray of shape (..., 2, dim); composition glues matching
points, the norm is the gauge of the group difference, and

    delta_eps(p, q) = (q . D_eps(q^-1 p), q)

dilates each source fiber.  Everything is numpy-vectorized over leading
axes.

Two concrete carriers ship: Euclidean space (any dimension) and the first
Heisenberg group with its anisotropic dilations and Cygan gauge.

Every emergent operation is a composition of based dilatations
delta^x_s y = x . D_s(x^-1 y), so each carrier supplies that map as one
fused kernel, `point_dilatation(s, x, y)`, with the same floating-point
roundings, operation for operation, as mul(x, dil(s, mul(inv(x), y))).
PairModel.point_dilatation always delegates to it.  A carrier subclass
that overrides mul, inv or dil must keep its kernel consistent (or
override the kernel too); tests/test_models.py checks the two routes
bit for bit on every carrier class in the package.

The Heisenberg kernels work one coordinate column at a time and write
into a preallocated output: numpy is several times slower on a loop
whose inner axis has length 3, which is what whole-array arithmetic on
(n, 3) slot views of (n, 2, 3) arrows, or on a (3,) base broadcast
against a cloud, runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import LawCheck, ValidationReport
from .emergent import _judge, _maxabs
from .limits import uniform_limit
from .scales import Scale, as_scale, dyadic_grid


# ---------------------------------------------------------------------------
# carrier groups


class EuclideanGroup:
    """R^n with addition; dilations are scalar, gauge is the 2-norm."""

    def __init__(self, dim: int = 1):
        self.dim = dim

    name = "euclidean"

    def e(self):
        return np.zeros(self.dim)

    def mul(self, a, b):
        return np.asarray(a) + np.asarray(b)

    def inv(self, a):
        return -np.asarray(a)

    def dil(self, s: float, a):
        return float(s) * np.asarray(a)

    def point_dilatation(self, s: float, x, y):
        """x . D_s(x^-1 y) = x + s (y - x); goes through dil, so a
        subclass that changes the dilation changes this too."""
        x = np.asarray(x)
        return x + self.dil(s, np.asarray(y) - x)

    def gauge(self, a):
        return np.sqrt(np.sum(np.asarray(a) ** 2, axis=-1))

    def sample(self, rng, n, radius, center=None):
        """n points with gauge(center^-1 p) <= radius (rejection from the
        bounding cube)."""
        out = np.empty((n, self.dim))
        got = 0
        while got < n:
            cand = rng.uniform(-radius, radius, size=(2 * (n - got) + 8, self.dim))
            keep = cand[self.gauge(cand) <= radius]
            take = min(len(keep), n - got)
            out[got : got + take] = keep[:take]
            got += take
        if center is not None:
            out = self.mul(center, out)
        return out


class HeisenbergGroup:
    """First Heisenberg group on R^3:
    (x1,y1,t1)(x2,y2,t2) = (x1+x2, y1+y2, t1+t2+(x1 y2 - y1 x2)/2),
    dilations D_eps(x,y,t) = (eps x, eps y, eps^2 t), Cygan gauge
    ((x^2+y^2)^2 + 16 t^2)^(1/4) -- exactly homogeneous."""

    dim = 3
    name = "heisenberg"

    def e(self):
        return np.zeros(3)

    def mul(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        x1, y1, t1 = a[..., 0], a[..., 1], a[..., 2]
        x2, y2, t2 = b[..., 0], b[..., 1], b[..., 2]
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
        o2 = out[..., 2]
        np.add(x1, x2, out=out[..., 0])
        np.add(y1, y2, out=out[..., 1])
        np.add(t1, t2, out=o2)
        # an array even for one point, so the in-place steps below work
        c = np.multiply(x1, y2, out=np.empty(out.shape[:-1]))
        c -= y1 * x2
        c *= 0.5
        o2 += c
        return out

    def inv(self, a):
        return -np.asarray(a)

    def dil(self, s: float, a):
        a = np.asarray(a, dtype=float)
        s = float(s)
        out = np.empty(a.shape)
        np.multiply(a[..., 0], s, out=out[..., 0])
        np.multiply(a[..., 1], s, out=out[..., 1])
        np.multiply(a[..., 2], s * s, out=out[..., 2])
        return out

    def point_dilatation(self, s: float, x, y):
        """x . D_s(x^-1 y) in one pass.

        The result is bit-identical to mul(x, dil(s, mul(inv(x), y))):
        each rounding of that route is kept.  (-a) + b is b - a exactly,
        and (-x1) y2 - (-y1) x2 is y1 x2 - x1 y2 exactly.  The closed
        form t1 + s^2 (t2 - t1) + s (1 - s) (x1 y2 - y1 x2) / 2 is the
        same map but rounds differently."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s = float(s)
        x1, y1, t1 = x[..., 0], x[..., 1], x[..., 2]
        x2, y2, t2 = y[..., 0], y[..., 1], y[..., 2]
        out = np.empty(np.broadcast_shapes(x.shape, y.shape))
        o0, o1, o2 = out[..., 0], out[..., 1], out[..., 2]
        c = np.empty(out.shape[:-1])
        t = np.empty(out.shape[:-1])
        # D_s(x^-1 y), column by column
        np.subtract(x2, x1, out=o0)
        o0 *= s
        np.subtract(y2, y1, out=o1)
        o1 *= s
        np.multiply(y1, x2, out=c)
        np.multiply(x1, y2, out=t)
        c -= t
        c *= 0.5
        np.subtract(t2, t1, out=o2)
        o2 += c
        o2 *= s * s
        # x . D_s(x^-1 y)
        np.multiply(x1, o1, out=c)
        np.multiply(y1, o0, out=t)
        c -= t
        c *= 0.5
        o0 += x1
        o1 += y1
        o2 += t1
        o2 += c
        return out

    def gauge(self, a):
        a = np.asarray(a)
        r2 = a[..., 0] ** 2 + a[..., 1] ** 2
        return (r2**2 + 16.0 * a[..., 2] ** 2) ** 0.25

    def sample(self, rng, n, radius, center=None):
        out = np.empty((n, 3))
        got = 0
        tb = radius**2 / 4.0  # |t| <= gauge^2 / 4 on the ball
        while got < n:
            m = 2 * (n - got) + 8
            cand = np.stack(
                [
                    rng.uniform(-radius, radius, size=m),
                    rng.uniform(-radius, radius, size=m),
                    rng.uniform(-tb, tb, size=m),
                ],
                axis=-1,
            )
            keep = cand[self.gauge(cand) <= radius]
            take = min(len(keep), n - got)
            out[got : got + take] = keep[:take]
            got += take
        if center is not None:
            out = self.mul(center, out)
        return out


# ---------------------------------------------------------------------------
# domains


@dataclass
class DomainSpec:
    """Scale-indexed norm-sublevel domains dom(s) = {d <= threshold(|s|)}."""

    threshold: object  # callable Fraction -> Fraction/float

    def bound(self, scale) -> float:
        return float(self.threshold(as_scale(scale).modulus))

    def contains(self, model, arrows, scale) -> np.ndarray:
        return model.norm(arrows) <= self.bound(scale) + 1e-12


# ---------------------------------------------------------------------------
# the pair model


class PairModel:
    """Pair groupoid of a carrier group, with fiberwise dilations."""

    def __init__(self, group, name=None, gauge=None, domain=None):
        self.group = group
        self.name = name or group.name
        self._gauge = gauge if gauge is not None else group.gauge
        self.domain = domain

    @property
    def dim(self):
        return self.group.dim

    # -- points -------------------------------------------------------------

    def e(self):
        return self.group.e()

    def pdiff(self, q, p):
        """Group difference q^-1 p (the element translating q to p)."""
        return self.group.mul(self.group.inv(q), p)

    def pdist(self, p, q):
        return self._gauge(self.pdiff(q, p))

    def point_dilatation(self, scale, x, y):
        """delta^x_eps y = x . D_eps(x^-1 y): dilate y toward the base x,
        by the carrier's fused kernel."""
        return self.group.point_dilatation(
            float(as_scale(scale).modulus), x, y)

    # -- arrows: ndarray (..., 2, dim), slot 0 = target, slot 1 = source ----

    def arrow(self, target, source):
        target = np.asarray(target, dtype=float)
        source = np.asarray(source, dtype=float)
        shape = np.broadcast_shapes(target.shape, source.shape)
        out = np.empty(shape[:-1] + (2,) + shape[-1:])
        for k in range(shape[-1]):  # 1-d copies, see the module docstring
            out[..., 0, k] = target[..., k]
            out[..., 1, k] = source[..., k]
        return out

    def target(self, a):
        return np.asarray(a)[..., 0, :]

    def source(self, a):
        return np.asarray(a)[..., 1, :]

    alpha_coords = source

    def unit(self, x):
        return self.arrow(x, x)

    def unit_of(self, a):
        s = self.source(a)
        return self.arrow(s, s)

    def compose(self, a, b):
        """m(a, b): b happens first; needs source(a) = target(b)."""
        gap = np.max(np.abs(self.source(a) - self.target(b)))
        if gap > 1e-8:
            raise ValueError(f"arrows not composable (endpoint gap {gap:.3g})")
        return self.arrow(self.target(a), self.source(b))

    def inverse(self, a):
        return np.asarray(a)[..., ::-1, :]

    def norm(self, a):
        return self._gauge(self.pdiff(self.source(a), self.target(a)))

    def dif(self, a, b):
        """dif(a, b) = a b^-1 for arrows sharing a source."""
        gap = np.max(np.abs(self.source(a) - self.source(b)))
        if gap > 1e-8:
            raise ValueError(f"dif needs a common source (gap {gap:.3g})")
        return self.arrow(self.target(a), self.target(b))

    def dtilde(self, a, b):
        return self.norm(self.dif(a, b))

    def delta(self, scale, a):
        """The dilation: contract each arrow inside its own source fiber."""
        src = self.source(a)
        return self.arrow(
            self.point_dilatation(scale, src, self.target(a)), src
        )

    # -- tangent data (limits of the rescaled structure; exact here) --------

    def tangent_pair_dist(self, a, b):
        """Limit of (1/|eps|) d(dif(delta_eps a, delta_eps b))."""
        return self.pdist(self.target(a), self.target(b))

    def tangent_norm(self, a):
        """Limit of (1/|eps|) d(delta_eps a)."""
        return self.norm(a)

    def tangent_Delta(self, a, b):
        """Limit of the approximate difference: (b q^-1 p, b)."""
        base = self.source(a)
        return self.arrow(
            self.group.mul(base, self.pdiff(self.target(b), self.target(a))),
            base,
        )

    def tangent_bar_dilatation(self, mu, x, u, v):
        """Limit of delta^x_{1/eps} delta^{delta^x_eps u}_mu delta^x_eps v;
        here exactly u . D_mu(u^-1 v), independent of the base x.  It is
        the carrier's map even where a model overrides point_dilatation."""
        return self.group.point_dilatation(float(as_scale(mu).modulus), u, v)

    def tangent_point_dist(self, u, v):
        return self.pdist(u, v)

    # -- sampling -----------------------------------------------------------

    def sample_points(self, rng, n, radius=4.0, center=None):
        return self.group.sample(rng, n, radius, center=center)

    def sample_fiber_arrows(self, rng, n, radius=4.0, base=None):
        """Arrows (p_i, base) in one source fiber; base defaults to the
        group identity (which also keeps float cancellation noise at the
        relative level for the nilpotent carrier)."""
        if base is None:
            base = self.e()
        pts = self.group.sample(rng, n, radius, center=base)
        return self.arrow(pts, np.broadcast_to(base, pts.shape))

    def probe_fiber_arrows(self, base=None):
        """Deterministic axis probes: arrows along each coordinate axis at
        a few lengths.  These catch direction-dependent degeneracies that
        random sampling can miss."""
        if base is None:
            base = self.e()
        vecs = []
        for i in range(self.dim):
            for s in (0.25, 1.0, 3.5):
                w = np.zeros(self.dim)
                w[i] = s
                vecs.append(w)
                vecs.append(-w)
        pts = self.group.mul(base, np.array(vecs))
        return self.arrow(pts, np.broadcast_to(base, pts.shape))


def euclidean_model(dim: int = 1, domain=None) -> PairModel:
    return PairModel(EuclideanGroup(dim), name="euclidean", domain=domain)


def heisenberg_model() -> PairModel:
    return PairModel(HeisenbergGroup(), name="heisenberg")


def restricted_euclidean_model(dim: int = 1) -> PairModel:
    """Euclidean model with genuine scale-indexed domains
    dom(s) = {d <= 4/|s|} (constants A=2 < B=4 make the inclusion chain
    work for all |eps| <= 1)."""
    return euclidean_model(
        dim=dim,
        domain=DomainSpec(lambda m: Fraction(4) / m),
    )


# ---------------------------------------------------------------------------
# the induced structure on same-source pairs


class DoubleModel:
    """Same-source arrow pairs of a PairModel, with the fiber norm
    d~(a, b) = d(a b^-1) and the induced dilation

        delta~_eps(a, b) = (delta_eps(a b^-1) . b, b).

    A pair is stored as ndarray (..., 2, 2, dim): slot 0 is a, slot 1 is b.
    The difference map pair -> a b^-1 intertwines delta~ with delta.
    """

    def __init__(self, base: PairModel):
        self.base = base
        self.name = f"double[{base.name}]"
        self.domain = None

    @property
    def dim(self):
        return self.base.dim

    def pair(self, a, b):
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        return np.stack([a, b], axis=-3)

    def first(self, P):
        return np.asarray(P)[..., 0, :, :]

    def second(self, P):
        return np.asarray(P)[..., 1, :, :]

    def alpha_coords(self, P):
        return self.second(P)

    def unit_of(self, P):
        b = self.second(P)
        return self.pair(b, b)

    def inverse(self, P):
        return np.asarray(P)[..., ::-1, :, :]

    def compose(self, P, Q):
        """(a, b) after (b, c) -> (a, c)."""
        gap = np.max(np.abs(self.second(P) - self.first(Q)))
        if gap > 1e-8:
            raise ValueError(f"pairs not composable (gap {gap:.3g})")
        return self.pair(self.first(P), self.second(Q))

    def dif_map(self, P):
        return self.base.dif(self.first(P), self.second(P))

    def norm(self, P):
        return self.base.norm(self.dif_map(P))

    def delta(self, scale, P):
        a, b = self.first(P), self.second(P)
        moved = self.base.compose(
            self.base.delta(scale, self.base.dif(a, b)), b
        )
        return self.pair(moved, b)

    def sample_fiber_arrows(self, rng, n, radius=4.0, base=None):
        a = self.base.sample_fiber_arrows(rng, n, radius, base=base)
        b = self.base.sample_fiber_arrows(rng, n, radius, base=base)
        return self.pair(a, b)


# ---------------------------------------------------------------------------
# scale-action checks


def check_A1(model, arrows) -> ValidationReport:
    """The dilations are a scale action on arrows that preserves each
    source fiber: alpha(delta_s a) = alpha(a); delta_s delta_r = delta_{sr};
    delta_1 = id."""
    tol = 1e-9
    scales = [Scale(Fraction(1, 2)), Scale(Fraction(1, 8)),
              Scale(Fraction(2)), Scale(Fraction(8)), Scale(Fraction(3, 4))]
    rep = ValidationReport(subject=f"A1[{model.name}]")
    fib = LawCheck("delta preserves the source fiber")
    act = LawCheck("delta_s delta_r = delta_{s r}")
    one = LawCheck("delta_1 = id")
    rep.add(fib, act, one)

    _judge(one, [_maxabs(model.delta(Scale.one(), arrows) - arrows)], tol)
    for s in scales:
        da = model.delta(s, arrows)
        _judge(fib, [_maxabs(model.alpha_coords(da)
                             - model.alpha_coords(arrows))], tol, scale=str(s))
        for r2 in scales:
            lhs = model.delta(s, model.delta(r2, arrows))
            rhs = model.delta(s.mul(r2), arrows)
            _judge(act, [_maxabs(lhs - rhs)], tol, s=str(s), r=str(r2))
    return rep


def check_A2(model, arrows) -> ValidationReport:
    """Dilations fix the unit arrows, and d(delta_eps a) -> 0 uniformly on
    the sampled bounded set."""
    grid = dyadic_grid()
    rep = ValidationReport(subject=f"A2[{model.name}]")
    fixed = LawCheck("unit arrows are fixed")
    rep.add(fixed)
    units = model.unit_of(arrows)
    for s in grid[:4] + grid[-1:]:
        _judge(fixed, [_maxabs(model.delta(s, units) - units)], 1e-12,
               scale=str(s))
    # vanishing is what matters; the trend check does the work
    rep.limits.append(uniform_limit(
        "A2: sup d(delta_eps a) -> 0",
        lambda s: model.norm(model.delta(s, arrows)), 0.0, grid, 0.25,
        atol=1e-13, require_decreasing=True))
    return rep


def check_A0(model) -> ValidationReport:
    """Scale-indexed domain bookkeeping for models with DomainSpec domains.

    For sublevel domains dom(s) = {d <= T(|s|)} and exactly homogeneous
    norms the inclusion chain

      {d <= |eps|} < delta_eps{d <= A} < dom(1/eps) < delta_eps{d <= B}
                   < delta_eps(dom(eps))      (within one source fiber)

    reduces to  |eps| <= |eps| A <= T(1/|eps|) <= |eps| B <= |eps| T(|eps|).
    Both the inequalities and sampled membership witnesses are checked, and
    the difference clause: dif(delta_eps g, delta_eps h) lands in dom(1/eps)
    for d(g), d(h) <= R and |eps| <= 1."""
    import random as _random

    rep = ValidationReport(subject=f"A0[{model.name}]")
    if model.domain is None:
        triv = LawCheck("domains are global; inclusion chain trivial",
                        note="no DomainSpec on this model")
        triv.tick()
        rep.add(triv)
        return rep
    A, B, R = Fraction(2), Fraction(4), Fraction(2)
    samples = 200
    grid = dyadic_grid(kmax=12)
    rng = np.random.default_rng(20260818)

    chain = LawCheck(f"threshold chain with A={A}, B={B}")
    member = LawCheck("sampled membership agrees with the chain")
    diffcl = LawCheck(f"dif(delta_eps g, delta_eps h) in dom(1/eps) for d <= {R}")
    rep.add(chain, member, diffcl)
    T = model.domain.threshold
    for s in grid:
        m = s.modulus
        chain.tick()
        ok = (
            m <= m * A
            and m * A <= T(1 / m)
            and T(1 / m) <= m * B
            and m * B <= m * T(m)
        )
        if not ok:
            chain.fail(eps=str(m), T_inv=str(T(1 / m)),
                       A_term=str(m * A), B_term=str(m * B))

    # membership witnesses through the actual predicates
    for s in grid[:6]:
        arrows = model.sample_fiber_arrows(rng, samples, radius=float(B))
        img = model.delta(s, arrows)
        inside_A = model.norm(arrows) <= float(A)
        member.tick()
        # delta_eps({d<=A}) must land inside dom(1/eps)
        ok = model.domain.contains(model, img, s.inv())
        if not bool(np.all(ok[inside_A])):
            member.fail(eps=str(s.modulus), clause="delta_eps{d<=A} in dom(1/eps)")
        # arrows of dom(1/eps) with the sampled radius must be delta_eps
        # images of {d <= B}: pull back by delta_{1/eps} and check the norm
        in_dom = model.domain.contains(model, arrows, s.inv())
        back = model.delta(s.inv(), arrows)
        member.tick()
        if not bool(np.all(model.norm(back)[in_dom] <= float(B) + 1e-9)):
            member.fail(eps=str(s.modulus), clause="dom(1/eps) in delta_eps{d<=B}")

    pairs_rng = np.random.default_rng(7)
    g = model.sample_fiber_arrows(pairs_rng, samples, radius=float(R))
    h = model.sample_fiber_arrows(pairs_rng, samples, radius=float(R))
    for s in grid[:6]:
        diffcl.tick()
        dd = model.dif(model.delta(s, g), model.delta(s, h))
        if not bool(np.all(model.domain.contains(model, dd, s.inv()))):
            diffcl.fail(eps=str(s.modulus))
    return rep


def check_dilation_morphism(model: PairModel) -> ValidationReport:
    """The induced dilation on same-source pairs intertwines the difference
    map (dif o delta~ = delta o dif) and is itself a scale action with
    vanishing pair norm."""
    dm = DoubleModel(model)
    P = dm.sample_fiber_arrows(np.random.default_rng(618), 300)
    rep = ValidationReport(subject=f"induced double dilation[{model.name}]")
    inter = LawCheck("dif o delta~_s = delta_s o dif")
    rep.add(inter)
    for s in [Scale(Fraction(1, 2)), Scale(Fraction(1, 16)), Scale(Fraction(4))]:
        lhs = dm.dif_map(dm.delta(s, P))
        rhs = model.delta(s, dm.dif_map(P))
        _judge(inter, [_maxabs(lhs - rhs)], 1e-9, scale=str(s))
    rep.merge(check_A1(dm, P))
    rep.merge(check_A2(dm, P))
    return rep


# ---------------------------------------------------------------------------
# deformations: conjugate the structure by delta_mu


class DeformedModel:
    """The mu-deformation of a pair model: same arrows, composition and
    inverse conjugated through delta_mu, norm rescaled by 1/|mu|:

        m_mu(a, b)  = delta_{1/mu}( delta_mu(a) delta_mu(b) )
        d_mu(a)     = d(delta_mu a) / |mu|
        dif_mu(a,b) = delta_{1/mu}( dif(delta_mu a, delta_mu b) )

    alpha is unchanged; omega_mu(a) = omega(delta_mu a)."""

    def __init__(self, base: PairModel, mu):
        self.base = base
        self.mu = as_scale(mu)
        self.name = f"{base.name}@mu={self.mu.modulus}"

    def m(self, a, b):
        db = self.base
        composed = db.compose(db.delta(self.mu, a), db.delta(self.mu, b))
        return db.delta(self.mu.inv(), composed)

    def inverse(self, a):
        db = self.base
        return db.delta(self.mu.inv(), db.inverse(db.delta(self.mu, a)))

    def omega_coords(self, a):
        return self.base.target(self.base.delta(self.mu, a))

    def alpha_coords(self, a):
        return self.base.source(a)

    def norm(self, a):
        return self.base.norm(self.base.delta(self.mu, a)) / float(
            self.mu.modulus
        )

    def dif(self, a, b):
        db = self.base
        return db.delta(
            self.mu.inv(), db.dif(db.delta(self.mu, a), db.delta(self.mu, b))
        )

    def dtilde(self, a, b):
        return self.base.dtilde(
            self.base.delta(self.mu, a), self.base.delta(self.mu, b)
        ) / float(self.mu.modulus)

    def double_delta(self, scale, a, b):
        """The induced pair dilation of the deformed structure, computed by
        conjugating the base one with delta_mu x delta_mu."""
        db = self.base
        dm = DoubleModel(db)
        P = dm.pair(db.delta(self.mu, a), db.delta(self.mu, b))
        out = dm.delta(scale, P)
        return (
            db.delta(self.mu.inv(), dm.first(out)),
            db.delta(self.mu.inv(), dm.second(out)),
        )


def deform(model: PairModel, mu) -> DeformedModel:
    return DeformedModel(model, mu)


def check_deformation(model: PairModel, mu) -> ValidationReport:
    """The deformed structure is a normed groupoid on samples, the deformed
    difference map is norm preserving (d_mu o dif_mu = dtilde_mu, exactly),
    and is a morphism for the deformed composition."""
    tol = 1e-9
    rng = np.random.default_rng(41)
    dm = deform(model, mu)
    db = model
    rep = ValidationReport(subject=f"deformation[{dm.name}]")

    base = db.e()
    p, q, r = (db.sample_points(rng, 300) for _ in range(3))
    B = np.broadcast_to(base, p.shape)

    # composable chain for the deformed composition: omega_mu(b) must equal
    # alpha(a), i.e. source(a) = target(delta_mu b)
    b_arr = db.arrow(q, B)
    mid = dm.omega_coords(b_arr)
    a_arr = db.arrow(p, mid)
    c_arr = db.arrow(r, B)

    assoc = LawCheck("deformed composition is associative")
    unit = LawCheck("unit arrows are deformed units")
    invl = LawCheck("deformed inverse inverts")
    rep.add(assoc, unit, invl)

    # a after b after c: build the middle sources to match
    b2 = db.arrow(q, dm.omega_coords(c_arr))
    a2 = db.arrow(p, dm.omega_coords(b2))
    lhs = dm.m(dm.m(a2, b2), c_arr)
    rhs = dm.m(a2, dm.m(b2, c_arr))
    _judge(assoc, [_maxabs(lhs - rhs)], tol)

    # one instance; np.max keeps a NaN in either residual
    r1 = _maxabs(dm.m(a_arr, db.unit(db.source(a_arr))) - a_arr)
    r2 = _maxabs(dm.m(db.unit(dm.omega_coords(a_arr)), a_arr) - a_arr)
    _judge(unit, [np.max([r1, r2])], tol)

    lhs = dm.m(dm.inverse(a_arr), a_arr)
    _judge(invl, [_maxabs(lhs - db.unit(db.source(a_arr)))], tol)

    # norm-preserving morphism: d_mu(dif_mu(g,h)) = dtilde_mu(g,h)
    pres = LawCheck("d_mu(dif_mu(g,h)) = dtilde_mu(g,h)")
    morph = LawCheck("dif_mu is a morphism for the deformed composition")
    conj = LawCheck("induced pair dilation = conjugated pair dilation")
    rep.add(pres, morph, conj)

    g = db.arrow(p, B)
    h = db.arrow(q, B)
    l_ = db.arrow(r, B)
    _judge(pres, [_maxabs(dm.norm(dm.dif(g, h)) - dm.dtilde(g, h))], tol)

    lhs = dm.dif(g, l_)
    rhs = dm.m(dm.dif(g, h), dm.dif(h, l_))
    _judge(morph, [_maxabs(lhs - rhs)], tol)

    for s in [Scale(Fraction(1, 4)), Scale(Fraction(1, 2))]:
        via_conj = dm.double_delta(s, g, h)
        # direct route: the deformed structure's own induced dilation,
        # built from deformed dif / composition
        direct_first = dm.m(db.delta(s, dm.dif(g, h)), h)
        _judge(conj, [np.max([_maxabs(via_conj[0] - direct_first),
                              _maxabs(via_conj[1] - h)])], tol, scale=str(s))
    return rep
