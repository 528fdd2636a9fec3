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

Storage rule: shapes are (..., dim) for points and (..., 2, dim) for
arrows.  Every cloud or arrow array the package allocates comes from
_empty: batch axes, such as the k scales of a ScaleBatch, outermost, and
each (n, dim) or (n, 2, dim) block column-major (numpy order "F").  Each
coordinate column of a block, in either slot of an arrow, is then one
contiguous run, which numpy's ufuncs walk with a long inner loop; with
row-major blocks that inner axis has length dim, and with order "F" over
a (k, n, dim) batch it has length k, several times slower either way.  A
kernel's scale is a float, or a ScaleBatch's (k, 1) column, which maps
an (n, dim) cloud to a (k, n, dim) batch, scale by scale.  An array of
_FLOOR floats or more (256 KiB, past glibc's 128 KiB mmap threshold,
where each fresh block faults its pages in) views a buffer on this
thread's free list, owned by whoever holds a view of it; _empty reuses
it, last handed out first, once only the list holds it.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import LawCheck, ValidationReport
from .emergent import (_judge_rows, _maxabs, _pair_chunks, _per_sample,
                       arrow_dilatation)
from .limits import uniform_limit
from .scales import Scale, as_scale, batch, chunks, dyadic_grid, kernel_modulus


# ---------------------------------------------------------------------------
# carrier groups


_FLOOR = 1 << 15
_free = threading.local()  # its __dict__: size -> flat buffers
_IDLE = (lambda free: sys.getrefcount(free[0]))([np.empty(1)])  # no other ref


def _empty(shape, block=2):
    """An uninitialised float array of shape, laid out by the storage
    rule: its trailing block axes column-major, the axes before them
    outermost; from _FLOOR floats up, on a buffer of the free list."""
    lead = max(len(shape) - block, 0)
    dims, size = shape[:lead] + shape[lead:][::-1], math.prod(shape)
    out = np.empty(dims) if size < _FLOOR else _take(size).reshape(dims)
    return out.T if lead == 0 else out.transpose(
        *range(lead), *range(len(shape) - 1, lead - 1, -1))


def _take(size):
    """The idle buffer of size floats handed out last, or a new one."""
    free = vars(_free).setdefault(size, [])
    i = next((i for i in range(len(free) - 1, -1, -1)
              if sys.getrefcount(free[i]) == _IDLE), None)
    free.append(np.empty(size) if i is None else free.pop(i))
    return free[-1]


def _shape(s, *operands):
    """The shape of a kernel's result: its operands broadcast against
    each other and against a (k, 1) scale column s, whose k leads."""
    if isinstance(s, np.ndarray):
        operands += (s[..., None],)
    elif len(operands) == 1:
        return np.shape(operands[0])
    return np.broadcast(*operands).shape


def _ball_sample(group, rng, n, radius, center, draw):
    """n points of the gauge ball of radius around center, by rejection
    from draw(m), which returns m candidates from a box around the ball
    at the identity: the accepted ones are kept by index, in order."""
    out = _empty((n, group.dim))
    got = 0
    while got < n:
        cand = draw(2 * (n - got) + 8)
        keep = np.flatnonzero(group.gauge(cand) <= radius)[:n - got]
        for j in range(group.dim):  # clip: keep is in range, out unbuffered
            np.take(cand[:, j], keep, out=out[got:got + len(keep), j],
                    mode="clip")
        got += len(keep)
    return out if center is None else group.mul(center, out)


class EuclideanGroup:
    """R^n with addition; dilations are scalar, gauge is the 2-norm."""

    def __init__(self, dim: int = 1):
        self.dim = dim

    name = "euclidean"
    # the deepest dyadic grid 2^-1 .. 2^-KMAX whose dilated points the
    # gauge resolves: it squares coordinates, and 2^-2 KMAX must stay a
    # normal float
    max_grid_depth = (1 - sys.float_info.min_exp) // 2

    def e(self):
        return np.zeros(self.dim)

    def mul(self, a, b):
        return np.add(a, b, out=_empty(_shape(None, a, b)))

    def inv(self, a):
        return np.negative(a, out=_empty(np.shape(a)))

    def dil(self, s: float, a):
        out = _empty(_shape(s, a))
        if isinstance(s, np.ndarray):
            s = s[..., None]  # a (k, 1, 1) column scales each block
        return np.multiply(s, a, out=out)

    def point_dilatation(self, s: float, x, y):
        """x . D_s(x^-1 y) = x + s (y - x); goes through dil, so a
        subclass that changes the dilation changes this too."""
        d = self.dil(s, np.subtract(y, x, out=_empty(_shape(None, y, x))))
        return np.add(x, d, out=d)

    def gauge(self, a):
        a = np.asarray(a)  # squares summed left to right in any layout
        r = np.square(a[..., 0], out=_empty(a.shape[:-1], 1))
        for k in range(1, a.shape[-1]):
            r += a[..., k] ** 2
        return np.sqrt(r, out=r)[()]  # [()]: a numpy scalar for one point

    def sample(self, rng, n, radius, center=None):
        """n points with gauge(center^-1 p) <= radius (rejection from the
        bounding cube)."""
        return _ball_sample(self, rng, n, radius, center, lambda m:
                            rng.uniform(-radius, radius, size=(m, self.dim)))


class HeisenbergGroup:
    """First Heisenberg group on R^3:
    (x1,y1,t1)(x2,y2,t2) = (x1+x2, y1+y2, t1+t2+(x1 y2 - y1 x2)/2),
    dilations D_eps(x,y,t) = (eps x, eps y, eps^2 t), Cygan gauge
    ((x^2+y^2)^2 + 16 t^2)^(1/4) -- exactly homogeneous."""

    dim = 3
    name = "heisenberg"
    # as for EuclideanGroup, but the gauge takes 4th powers
    max_grid_depth = (1 - sys.float_info.min_exp) // 4
    e, inv = EuclideanGroup.e, EuclideanGroup.inv  # 0 and -a, as in R^3

    def mul(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        x1, y1, t1 = a[..., 0], a[..., 1], a[..., 2]
        x2, y2, t2 = b[..., 0], b[..., 1], b[..., 2]
        out = _empty(_shape(None, a, b))
        o2 = out[..., 2]
        np.add(x1, x2, out=out[..., 0])
        np.add(y1, y2, out=out[..., 1])
        np.add(t1, t2, out=o2)
        # an array even for one point, so the in-place steps below work
        c = np.multiply(x1, y2, out=_empty(out.shape[:-1], 1))
        c -= y1 * x2
        c *= 0.5
        o2 += c
        return out

    def dil(self, s: float, a):
        a = np.asarray(a, dtype=float)
        out = _empty(_shape(s, a))
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
        x1, y1, t1 = x[..., 0], x[..., 1], x[..., 2]
        x2, y2, t2 = y[..., 0], y[..., 1], y[..., 2]
        out = _empty(_shape(s, x, y))
        o0, o1, o2 = out[..., 0], out[..., 1], out[..., 2]
        c = _empty(out.shape[:-1], 1)
        t = _empty(out.shape[:-1], 1)
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
        a = np.asarray(a)  # as written: numpy scalar math for one point
        r = np.square(a[..., 0], out=_empty(a.shape[:-1], 1))[()]
        r += a[..., 1] ** 2
        r **= 2
        r += 16.0 * a[..., 2] ** 2
        r **= 0.25
        return r

    def sample(self, rng, n, radius, center=None):
        tb = radius**2 / 4.0  # |t| <= gauge^2 / 4 on the ball
        return _ball_sample(self, rng, n, radius, center, lambda m: np.stack(
            [rng.uniform(-radius, radius, size=m),
             rng.uniform(-radius, radius, size=m),
             rng.uniform(-tb, tb, size=m)], axis=-1))


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


def _slots(first, second, k):
    """An array holding first and second (broadcast against each other)
    in the two slots of a new axis before their last k axes, laid out by
    the storage rule with the sample axis before those k."""
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    shape = _shape(None, first, second)
    out = _empty(shape[:-k] + (2,) + shape[-k:], k + 2)
    tail = (slice(None),) * k
    out[(..., 0) + tail] = first
    out[(..., 1) + tail] = second
    return out


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
        return self.group.point_dilatation(kernel_modulus(scale), x, y)

    # -- arrows: ndarray (..., 2, dim), slot 0 = target, slot 1 = source ----

    def arrow(self, target, source):
        return _slots(target, source, 1)

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
        gap = _maxabs(self.source(a) - self.target(b))
        if gap > 1e-8:
            raise ValueError(f"arrows not composable (endpoint gap {gap:.3g})")
        return self.arrow(self.target(a), self.source(b))

    def inverse(self, a):
        return np.asarray(a)[..., ::-1, :]

    def norm(self, a):
        return self._gauge(self.pdiff(self.source(a), self.target(a)))

    def _common_source(self, a, b):
        gap = _maxabs(self.source(a) - self.source(b))
        if gap > 1e-8:
            raise ValueError(f"dif needs a common source (gap {gap:.3g})")

    def dif(self, a, b):
        """dif(a, b) = a b^-1 for arrows sharing a source."""
        self._common_source(a, b)
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
        return self.group.point_dilatation(kernel_modulus(mu), u, v)

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
        return self.arrow(self.group.sample(rng, n, radius, center=base), base)

    def probe_fiber_arrows(self, base):
        """Deterministic axis probes: arrows from base along each
        coordinate axis at a few lengths.  These catch direction-dependent
        degeneracies that random sampling can miss."""
        vecs = []
        for i in range(self.dim):
            for s in (0.25, 1.0, 3.5):
                w = np.zeros(self.dim)
                w[i] = s
                vecs.append(w)
                vecs.append(-w)
        return self.arrow(self.group.mul(base, np.array(vecs)), base)


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

    def pair(self, a, b):
        return _slots(a, b, 2)

    def first(self, P):
        return np.asarray(P)[..., 0, :, :]

    def second(self, P):
        return np.asarray(P)[..., 1, :, :]

    def alpha_coords(self, P):
        return self.second(P)

    def unit_of(self, P):
        b = self.second(P)
        return self.pair(b, b)

    def compose(self, P, Q):
        """(a, b) after (b, c) -> (a, c)."""
        gap = _maxabs(self.second(P) - self.first(Q))
        if gap > 1e-8:
            raise ValueError(f"pairs not composable (gap {gap:.3g})")
        return self.pair(self.first(P), self.second(Q))

    def dif_map(self, P):
        return self.base.dif(self.first(P), self.second(P))

    def norm(self, P):
        return self.base.norm(self.dif_map(P))

    def delta(self, scale, P):
        a, b = self.first(P), self.second(P)
        return self.pair(arrow_dilatation(self.base, scale, b, a), b)

    def sample_fiber_arrows(self, rng, n, radius=4.0, base=None):
        a = self.base.sample_fiber_arrows(rng, n, radius, base=base)
        b = self.base.sample_fiber_arrows(rng, n, radius, base=base)
        return self.pair(a, b)


# ---------------------------------------------------------------------------
# scale-action checks

# the scales of the scale-action laws, and of the induced double dilation
_A1_SCALES = tuple(map(as_scale, ("1/2", "1/8", 2, 8, "3/4")))
_MORPHISM_SCALES = tuple(map(as_scale, ("1/2", "1/16", 4)))


def check_A1(model, arrows) -> ValidationReport:
    """The dilations are a scale action on arrows that preserves each
    source fiber: alpha(delta_s a) = alpha(a); delta_s delta_r = delta_{sr};
    delta_1 = id."""
    tol = 1e-9
    rep = ValidationReport(subject=f"A1[{model.name}]")
    fib = LawCheck("delta preserves the source fiber")
    act = LawCheck("delta_s delta_r = delta_{s r}")
    one = LawCheck("delta_1 = id")
    rep.add(fib, act, one)

    one.judge_residuals(_per_sample(model.delta(Scale.one(), arrows), arrows),
                        tol)
    for s in map(batch, chunks(_A1_SCALES, len(arrows))):
        _judge_rows(fib, s, model.alpha_coords(model.delta(s, arrows)),
                    model.alpha_coords(arrows), tol, {"scale": s})
    for _, s, r, sr in _pair_chunks(_A1_SCALES, len(arrows)):
        _judge_rows(act, s, model.delta(s, model.delta(r, arrows)),
                    model.delta(sr, arrows), tol, {"s": s, "r": r})
    return rep


def check_A2(model, arrows) -> ValidationReport:
    """Dilations fix the unit arrows, and d(delta_eps a) -> 0 uniformly on
    the sampled bounded set."""
    grid = dyadic_grid()
    rep = ValidationReport(subject=f"A2[{model.name}]")
    fixed = LawCheck("unit arrows are fixed")
    rep.add(fixed)
    units = model.unit_of(arrows)
    for s in map(batch, chunks(grid[:4] + grid[-1:], len(arrows))):
        _judge_rows(fixed, s, model.delta(s, units), units, 1e-12,
                    {"scale": s})
    # vanishing is what matters; the trend check does the work
    rep.limits.append(uniform_limit(
        "A2: sup d(delta_eps a) -> 0",
        lambda s: model.norm(model.delta(s, arrows)), np.zeros(len(arrows)),
        grid, 0.25, atol=1e-13, require_decreasing=True))
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
    rep = ValidationReport(subject=f"A0[{model.name}]")
    if model.domain is None:
        law = LawCheck("domains are global; inclusion chain trivial",
                       note="no DomainSpec on this model")
        law.judge(True)
        return rep.add(law)
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
        chain.judge(m <= m * A and m * A <= T(1 / m) and T(1 / m) <= m * B
                    and m * B <= m * T(m), build=lambda: dict(
                        eps=str(m), T_inv=str(T(1 / m)), A_term=str(m * A),
                        B_term=str(m * B)))

    # membership witnesses through the actual predicates
    for s in grid[:6]:
        arrows = model.sample_fiber_arrows(rng, samples, radius=float(B))
        img = model.delta(s, arrows)
        inside_A = model.norm(arrows) <= float(A)
        # delta_eps({d<=A}) must land inside dom(1/eps)
        ok = model.domain.contains(model, img, s.inv())
        member.judge(np.all(ok[inside_A]), build=lambda: dict(
            eps=str(s.modulus), clause="delta_eps{d<=A} in dom(1/eps)"))
        # arrows of dom(1/eps) with the sampled radius must be delta_eps
        # images of {d <= B}: pull back by delta_{1/eps} and check the norm
        in_dom = model.domain.contains(model, arrows, s.inv())
        back = model.delta(s.inv(), arrows)
        member.judge(np.all(model.norm(back)[in_dom] <= float(B) + 1e-9),
                     build=lambda: dict(eps=str(s.modulus), clause=(
                         "dom(1/eps) in delta_eps{d<=B}")))

    pairs_rng = np.random.default_rng(7)
    g = model.sample_fiber_arrows(pairs_rng, samples, radius=float(R))
    h = model.sample_fiber_arrows(pairs_rng, samples, radius=float(R))
    for s in grid[:6]:
        dd = model.dif(model.delta(s, g), model.delta(s, h))
        diffcl.judge(np.all(model.domain.contains(model, dd, s.inv())),
                     build=lambda: dict(eps=str(s.modulus)))
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
    for s in map(batch, chunks(_MORPHISM_SCALES, len(P))):
        _judge_rows(inter, s, dm.dif_map(dm.delta(s, P)),
                    model.delta(s, dm.dif_map(P)), 1e-9, {"scale": s})
    rep.merge(check_A1(dm, P))
    rep.merge(check_A2(dm, P))
    return rep
