"""Numerical certification of the small-scale limit structure.

Everything here turns "f_eps converges to f uniformly on bounded sets"
into a judged artifact: sample a bounded set once (seeded), sweep a
decreasing scale grid, record the sup-residual per scale, fit a
convergence order on the log-log tail, and pass/fail at a stated
tolerance.  The shipped carrier groups have exactly homogeneous gauges,
so most of their residual traces sit at the float-noise floor ("exact");
the machinery still earns its keep on perturbed variants and planted
fixtures, where residuals are genuinely positive and the fitted order is
informative.

The drivers certify, over a BoundedSampler:

  * check_A3      -- rescaled fiber distance -> tangent pair distance,
                     plus distance laws and the nondegeneracy clause
  * check_A4weak  -- two-scale based dilatations -> tangent dilatations
  * check_A3mod_A4-- rescaled norm, approximate difference, and the
                     norm-of-difference identities
  * cone_check    -- exact homogeneity of the limit distance
  * gh_estimate   -- metric distortion of the rescaled snapshots
  * fiber_dilatation_structure -- the induced per-fiber metric structure
  * translation_groupoid / check_translation_groupoid -- the rescaled
                     translation action and its isometry/closure laws

All point/arrow residuals are max-abs coordinate differences: a gauge of
a noise-level coordinate error is ~sqrt(noise) for the nilpotent carrier,
which would bury genuine convergence orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import LawCheck, ValidationReport
from .scales import Scale, as_scale, dyadic_grid
from .emergent import (Delta_eps, Sigma3, dif_eps, inv3, _judge, _maxabs,
                       _per_sample)


# ---------------------------------------------------------------------------
# limit estimates


@dataclass
class LimitEstimate:
    """Residual trace of one limit claim along a decreasing scale grid."""

    axiom: str
    eps: list
    residuals: list
    order: float | None = None
    passed: bool = False
    note: str = ""
    value: object = None  # estimated limit value(s), when meaningful

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if self.residuals:
            body = (f"residual {self.residuals[-1]:.3e} "
                    f"@ eps={self.eps[-1]:.3e}")
        else:
            body = "no data"
        msg = f"[{tag}] {self.axiom} ({body}"
        if self.order is not None:
            msg += f", order {self.order:.2f}"
        msg += ")"
        if self.note:
            msg += f"  -- {self.note}"
        return msg

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "eps": [float(e) for e in self.eps],
            "residual": [float(r) for r in self.residuals],
            "order": self.order,
            "pass": self.passed,
            "note": self.note,
        }


def estimate_from_residuals(axiom, eps, residuals, tol, atol=1e-13,
                            require_decreasing=False) -> LimitEstimate:
    """Judge a residual sequence along a decreasing scale grid.

    Pass means the whole last quarter of the grid sits below tol (and,
    with require_decreasing, the tail has not grown past the head).  The
    order is the least-squares slope of log2(residual) against log2(eps)
    over the last (up to 8) points above the noise floor atol; a trace
    entirely below the floor is reported as exact, order None.  A NaN or
    infinite residual anywhere fails the trace, and the note names it."""
    eps = [float(e) for e in eps]
    residuals = [float(r) for r in residuals]
    n = len(residuals)
    if n == 0:
        return LimitEstimate(axiom, eps, residuals, passed=False,
                             note="empty grid")
    q = max(1, n // 4)
    tail, head = residuals[-q:], residuals[:q]
    eventually = max(tail) < tol
    # a trace living under the noise floor has no trend worth flagging
    trend_ok = max(tail) <= max(max(head) + 1e-12, atol)
    # Python's max skips a NaN that is not first, so look for one outright
    bad = next((i for i, r in enumerate(residuals) if not math.isfinite(r)),
               None)

    order = None
    note = ""
    above = [(e, r) for e, r in zip(eps, residuals)
             if r > atol and math.isfinite(r)]
    if not above:
        if bad is None:
            note = "exact (all residuals at the noise floor)"
    elif len(above) >= 3:
        pts = above[-8:]
        le = np.log2([p[0] for p in pts])
        lr = np.log2([p[1] for p in pts])
        order = float(np.polyfit(le, lr, 1)[0])
    else:
        note = "too few resolvable points to fit an order"

    passed = eventually and (trend_ok or not require_decreasing) and bad is None
    if not trend_ok:
        grew = f"tail max {max(tail):.3e} exceeds head max {max(head):.3e}"
        note = f"{note}; {grew}" if note else grew
    if bad is not None:
        nf = f"non-finite residual {residuals[bad]} at eps={eps[bad]:.6g}"
        note = f"{note}; {nf}" if note else nf
    return LimitEstimate(axiom, eps, residuals, order=order, passed=passed,
                         note=note)


def richardson(eps, values, order):
    """One extrapolation step on a geometric grid: cancel the leading
    eps^order error term of the final value."""
    v = [np.asarray(x, dtype=float) for x in values]
    if len(v) < 2 or order is None:
        return v[-1]
    ratio = float(eps[-2]) / float(eps[-1])
    fac = ratio ** order - 1.0
    if fac <= 0:
        return v[-1]
    return v[-1] + (v[-1] - v[-2]) / fac


def limit_of_values(axiom, eps, values, candidate=None,
                    tol=1e-8) -> LimitEstimate:
    """Limit of a value sequence along a scale grid.  With a candidate the
    residual is |value - candidate| per grid point; without one it is the
    successive difference (and the estimated limit is the final value,
    Richardson-extrapolated when the fitted order is close to 1)."""
    vals = [np.asarray(v, dtype=float) for v in values]
    if candidate is not None:
        cand = np.asarray(candidate, dtype=float)
        resid = [_maxabs(v - cand) for v in vals]
        grid = list(eps)
    else:
        resid = [_maxabs(vals[i] - vals[i - 1]) for i in range(1, len(vals))]
        grid = list(eps)[1:]
    est = estimate_from_residuals(axiom, grid, resid, tol=tol)
    if est.order is not None and abs(est.order - 1.0) <= 0.2:
        est.value = richardson(eps, vals, est.order)
        est.note = (est.note + "; " if est.note else "") + \
            "limit Richardson-extrapolated at order ~1"
    else:
        est.value = vals[-1]
    return est


def uniform_limit(axiom, fam, candidate, grid=None, tol=1e-8, atol=5e-13,
                  require_decreasing=False) -> LimitEstimate:
    """Uniform-on-samples convergence of a scale family fam(s) (returning
    an array over the fixed sample set) to a candidate array.  The
    residual per grid point is the sup over samples of the max-abs
    coordinate difference.  Every limit driver sweeps its grid here; a
    trace "sup f_eps -> 0" of a nonnegative f uses candidate 0.0."""
    if grid is None:
        grid = dyadic_grid()
    cand = np.asarray(candidate, dtype=float)
    residuals = [_maxabs(np.asarray(fam(s)) - cand) for s in grid]
    return estimate_from_residuals(
        axiom, [float(s.modulus) for s in grid], residuals,
        tol=tol, atol=atol, require_decreasing=require_decreasing)


# ---------------------------------------------------------------------------
# bounded sampling


@dataclass
class BoundedSampler:
    """Seeded sampler of one bounded chunk of a model: points in the gauge
    ball of `radius` around `base`, and fiber arrows over `base` with norm
    at most `radius`.  Reports should quote describe(): uniformity on
    bounded sets is certified over these samples and nothing more.

    The default base is the group identity.  That is not just convenience:
    off-origin bases pay an absolute cancellation cost of ~1e-15 in float,
    which the 1/eps blow-ups amplify; the based checks stay honest because
    every operation here is base-covariant (verified separately at looser
    tolerance)."""

    model: object
    radius: float = 4.0
    n: int = 200
    seed: int = 7
    base: object = None

    def __post_init__(self):
        if self.base is None:
            self.base = self.model.e()
        self.base = np.asarray(self.base, dtype=float)

    def _rng(self):
        return np.random.default_rng(self.seed)

    def points(self):
        return self.model.sample_points(self._rng(), self.n, self.radius,
                                        center=self.base)

    def point_tuple(self, k):
        rng = self._rng()
        return tuple(
            self.model.sample_points(rng, self.n, self.radius,
                                     center=self.base)
            for _ in range(k)
        )

    def fiber_arrows(self):
        return self.model.sample_fiber_arrows(self._rng(), self.n,
                                              self.radius, base=self.base)

    def arrow_pairs(self):
        rng = self._rng()
        g = self.model.sample_fiber_arrows(rng, self.n, self.radius,
                                           base=self.base)
        h = self.model.sample_fiber_arrows(rng, self.n, self.radius,
                                           base=self.base)
        return g, h

    def describe(self) -> str:
        return (f"{self.n} samples, radius {self.radius}, seed {self.seed}, "
                f"base {np.round(self.base, 4).tolist()}")


def rescaled_distance(model, scale, x, u, v):
    """d^x_eps(u, v) = (1/|eps|) dist(delta^x_eps u, delta^x_eps v)."""
    s = as_scale(scale)
    m = float(s.modulus)
    return model.pdist(model.point_dilatation(s, x, u),
                       model.point_dilatation(s, x, v)) / m


def rescaled_pair_distance(model, scale, g, h):
    """(1/|eps|) d(dif(delta_eps g, delta_eps h)) on same-fiber arrows."""
    s = as_scale(scale)
    m = float(s.modulus)
    return model.norm(model.dif(model.delta(s, g), model.delta(s, h))) / m


# ---------------------------------------------------------------------------
# axiom drivers

# the dilatation scales mu of the two-scale and cone checks
MUS = (Scale(Fraction(1, 2)), Scale(Fraction(1, 4)), Scale(Fraction(3, 4)))
# the one small scale at which the exact (starred) identities are sampled
EPS_STAR = Scale(Fraction(1, 10000))


def check_A3(model, sampler=None, grid=None, tol=1e-8) -> ValidationReport:
    """Rescaled fiber distance converges to the tangent pair distance,
    which behaves like a distance and is nondegenerate.

    The sample set is the sampler's random same-fiber arrow pairs plus
    deterministic axis probes (paired against the unit arrow), so a
    direction-dependent collapse -- the classic failure when a homogeneous
    structure is measured with a flat norm -- cannot hide from the
    nondegeneracy clause."""
    if sampler is None:
        sampler = BoundedSampler(model)
    if grid is None:
        grid = dyadic_grid()
    g, h = sampler.arrow_pairs()
    probes = model.probe_fiber_arrows(base=sampler.base)
    punits = np.broadcast_to(model.unit(sampler.base), probes.shape)
    G = np.concatenate([g, probes], axis=0)
    H = np.concatenate([h, punits], axis=0)

    rep = ValidationReport(subject=f"A3[{model.name}] ({sampler.describe()})")
    dt0 = model.tangent_pair_dist(G, H)
    rep.limits.append(uniform_limit(
        "A3: rescaled fiber distance -> tangent pair distance",
        lambda s: rescaled_pair_distance(model, s, G, H), dt0, grid, tol))

    diag = LawCheck("tangent distance vanishes on the diagonal")
    sym = LawCheck("tangent distance is symmetric")
    tri = LawCheck("tangent distance satisfies the triangle inequality")
    nondeg = LawCheck("nondegeneracy: distinct arrows keep positive tangent distance")
    rep.add(diag, sym, tri, nondeg)

    _judge(diag, np.abs(model.tangent_pair_dist(G, G)), 1e-12)
    _judge(sym, np.abs(dt0 - model.tangent_pair_dist(H, G)), 1e-12)
    L = np.roll(G, 1, axis=0)  # same fiber, so a legal third corner
    slack = (model.tangent_pair_dist(G, L)
             - dt0 - model.tangent_pair_dist(H, L))
    _judge(tri, np.maximum(slack, 0.0), 1e-12)

    gap = _per_sample(model.target(G), model.target(H))
    finest = rescaled_pair_distance(model, grid[-1], G, H)
    sep_mask = gap > 0.05
    degenerate = sep_mask & ((dt0 <= 1e-7) | (finest <= 1e-7))
    nondeg.tick(int(sep_mask.sum()))
    for i in np.nonzero(degenerate)[0][:3]:
        nondeg.fail(
            target_g=model.target(G)[i].tolist(),
            target_h=model.target(H)[i].tolist(),
            tangent_distance=float(dt0[i]),
            rescaled_at_finest=float(finest[i]),
        )
    return rep


def two_scale_dilatation(model, scale, mu, x, u, v):
    """delta^x_{1/eps} delta^{delta^x_eps u}_mu delta^x_eps v -- the
    conjugated dilatation whose small-eps limit is the tangent dilatation."""
    s = as_scale(scale)
    return model.point_dilatation(
        s.inv(), x,
        model.point_dilatation(
            mu,
            model.point_dilatation(s, x, u),
            model.point_dilatation(s, x, v),
        ),
    )


def check_A4weak(model, sampler=None, grid=None,
                 tol=1e-8) -> ValidationReport:
    """The two-scale based dilatations converge (per mu) to the tangent
    dilatation, and at u = x they collapse to the plain based dilatation."""
    if sampler is None:
        sampler = BoundedSampler(model)
    u, v = sampler.point_tuple(2)
    x = np.broadcast_to(sampler.base, u.shape)
    rep = ValidationReport(subject=f"A4weak[{model.name}] ({sampler.describe()})")
    for mu in MUS:
        rep.limits.append(uniform_limit(
            f"A4weak[mu={mu.value}]: two-scale dilatation -> tangent dilatation",
            lambda s: two_scale_dilatation(model, s, mu, x, u, v),
            model.tangent_bar_dilatation(mu, x, u, v), grid, tol))
    basecase = LawCheck("tangent dilatation at u = x is the based dilatation")
    rep.add(basecase)
    for mu in MUS:
        lhs = model.tangent_bar_dilatation(mu, x, x, v)
        rhs = model.point_dilatation(mu, x, v)
        _judge(basecase, _per_sample(lhs, rhs), 1e-12, mu=str(mu.value))
    return rep


def check_A3mod_A4(model, sampler=None, grid=None,
                   tol=1e-8) -> ValidationReport:
    """The strong-limit clauses: the rescaled norm converges to the tangent
    norm, the approximate difference converges to the tangent difference
    (order 1 for the shipped carriers), the blown-up exact difference
    converges slotwise to the same limit, and the norm-of-difference
    identities hold at the sampled scale eps_star.

    The starred identities are algebraically exact for the shipped models,
    which is what makes a 1e-10 tolerance at eps_star = 1e-4 honest; the
    convergence of the difference operation itself is a genuine O(eps)
    statement and is judged by trend and fitted order, not by a tiny
    absolute tolerance."""
    if sampler is None:
        sampler = BoundedSampler(model)
    G, H = sampler.arrow_pairs()
    rep = ValidationReport(subject=f"strong limits[{model.name}] ({sampler.describe()})")

    rep.limits.append(uniform_limit(
        "A3mod: rescaled norm -> tangent norm",
        lambda s: model.norm(model.delta(s, G)) / float(s.modulus),
        model.tangent_norm(G), grid, tol))

    tD = model.tangent_Delta(G, H)
    rep.limits.append(uniform_limit(
        "A4: approximate difference -> tangent difference",
        lambda s: Delta_eps(model, s, G, H), tD, grid, 1e-3,
        require_decreasing=True))
    rep.limits.append(uniform_limit(
        "blown-up difference -> tangent difference (slotwise)",
        lambda s: dif_eps(model, s, G, H), tD, grid, 1e-3,
        require_decreasing=True))

    star = EPS_STAR
    bridge = LawCheck("pair distance = norm of the limit difference (at eps*)")
    route = LawCheck("dilating the blown-up difference back recovers it (at eps*)")
    exact = LawCheck("tangent pair distance = tangent norm of tangent difference")
    rep.add(bridge, route, exact)

    lhs = rescaled_pair_distance(model, star, G, H)
    rhs = model.norm(model.delta(star, tD)) / float(star.modulus)
    _judge(bridge, np.abs(lhs - rhs), 1e-10, eps_star=str(star.value))

    back = model.delta(star, dif_eps(model, star, G, H))
    direct = model.dif(model.delta(star, G), model.delta(star, H))
    _judge(route, _per_sample(back, direct), 1e-10,
           eps_star=str(star.value))

    _judge(exact, np.abs(model.tangent_pair_dist(G, H)
                         - model.tangent_norm(tD)), 1e-12)
    return rep


def cone_check(model, sampler=None) -> ValidationReport:
    """The limit distance is exactly homogeneous under the based
    dilatations (sampled at eps_star), and the two-scale dilatation based
    at its own center is the plain based dilatation."""
    if sampler is None:
        sampler = BoundedSampler(model)
    u, v = sampler.point_tuple(2)
    x = np.broadcast_to(sampler.base, u.shape)
    star = EPS_STAR
    rep = ValidationReport(subject=f"metric cone[{model.name}] ({sampler.describe()})")
    homog = LawCheck("rescaled distance is homogeneous under based dilatations")
    basecase = LawCheck("two-scale dilatation centered at its base = based dilatation")
    rep.add(homog, basecase)
    base_d = rescaled_distance(model, star, x, u, v)
    for mu in MUS:
        du = model.point_dilatation(mu, x, u)
        dv = model.point_dilatation(mu, x, v)
        lhs = rescaled_distance(model, star, x, du, dv)
        _judge(homog, np.abs(lhs - float(mu.modulus) * base_d), 1e-10,
               mu=str(mu.value))
        emp = two_scale_dilatation(model, star, mu, x, x, v)
        _judge(basecase, _per_sample(emp, model.point_dilatation(mu, x, v)),
               1e-10, mu=str(mu.value))
    return rep


def gh_estimate(model, sampler=None, grid=None,
                tol=1e-8) -> LimitEstimate:
    """Distortion of the identity correspondence between the rescaled ball
    and the tangent ball: sup over sampled pairs of
    |d^x_eps(u,v) - tangent distance|.  Half the distortion bounds the
    metric (Gromov-Hausdorff-style) distance between the two snapshots."""
    if sampler is None:
        sampler = BoundedSampler(model)
    u, v = sampler.point_tuple(2)
    x = np.broadcast_to(sampler.base, u.shape)
    est = uniform_limit(
        "GH: rescaled ball -> tangent ball (correspondence distortion)",
        lambda s: rescaled_distance(model, s, x, u, v),
        model.tangent_point_dist(u, v), grid, tol)
    half = est.residuals[-1] / 2.0
    est.note = (est.note + "; " if est.note else "") + \
        f"metric distance <= final distortion / 2 = {half:.3e}"
    return est


# ---------------------------------------------------------------------------
# the induced structure on one fiber


@dataclass
class FiberStructure:
    """One source fiber of a model, read as a metric space with based
    dilatations: carrier = target coordinates, distance = the fiber norm
    distance, dilatations = the based point dilatations."""

    model: object
    x: object  # names the fiber; the formulas read points only

    def dist(self, u, v):
        return self.model.pdist(u, v)

    def dil(self, scale, u, v):
        return self.model.point_dilatation(scale, u, v)


def fiber_dilatation_structure(model, x=None, sampler=None):
    """Extract the fiber structure at x and certify the metric-space
    axioms on it: the based dilatations form a scale action fixing their
    base, they contract (distance to the base image -> 0), the rescaled
    distance converges to the tangent distance, and the two-scale
    dilatations converge -- all with bases sampled across the fiber, not
    just at the group identity.

    Off-origin bases pay float cancellation that the 1/eps side of the
    two-scale dilatation amplifies by 1/eps^2 for the nilpotent carrier,
    so this driver uses a moderate grid (2^-1 .. 2^-6) and a matching
    noise floor; the base-at-identity drivers cover the fine-grid end."""
    if x is None:
        x = model.e()
    if sampler is None:
        sampler = BoundedSampler(model, base=x, n=100, seed=11)
    grid = dyadic_grid(kmax=6)
    fiber = FiberStructure(model, np.asarray(x, dtype=float))
    u, v, w = sampler.point_tuple(3)

    rep = ValidationReport(subject=f"fiber structure[{model.name}] at "
                                   f"{np.round(fiber.x, 3).tolist()} "
                                   f"({sampler.describe()})")
    act = LawCheck("based dilatations form a scale action fixing the base")
    rep.add(act)
    for s in [Scale(Fraction(1, 2)), Scale(Fraction(1, 8)), Scale(Fraction(4))]:
        for r in [Scale(Fraction(1, 2)), Scale(Fraction(3, 4))]:
            lhs = fiber.dil(s, u, fiber.dil(r, u, v))
            rhs = fiber.dil(s.mul(r), u, v)
            _judge(act, _per_sample(lhs, rhs), 1e-9,
                   s=str(s.value), r=str(r.value))
        _judge(act, _per_sample(fiber.dil(s, u, u), u), 1e-12, s=str(s.value))
    _judge(act, _per_sample(fiber.dil(Scale.one(), u, v), v), 1e-12)

    rep.limits.append(uniform_limit(
        "fiber A2: dist(u, delta^u_eps v) -> 0",
        lambda s: fiber.dist(u, fiber.dil(s, u, v)), 0.0, grid, 0.25,
        atol=1e-10, require_decreasing=True))
    rep.limits.append(uniform_limit(
        "fiber A3: rescaled based distance -> tangent distance",
        lambda s: fiber.dist(fiber.dil(s, u, v), fiber.dil(s, u, w))
        / float(s.modulus),
        model.tangent_point_dist(v, w), grid, 1e-8, atol=1e-10))
    for mu in MUS[:2]:
        rep.limits.append(uniform_limit(
            f"fiber A4weak[mu={mu.value}]: two-scale dilatation converges",
            lambda s: two_scale_dilatation(model, s, mu, u, v, w),
            model.tangent_bar_dilatation(mu, u, v, w), grid, 1e-8,
            atol=1e-10))
    return fiber, rep


# ---------------------------------------------------------------------------
# the translation structure at a fixed scale


class TranslationGroupoid:
    """The rescaled translation structure at one scale: objects are the
    rescaled based distances d^y_eps, and the arrow with parameter u
    (a fiber point) acts by v -> based-sum(u, v), an isometry from the
    object at the moved base x circ_eps u to the object at x.  Composition
    and inverses come from the identity battery: composing the arrow at x
    with parameter u after the arrow at the moved base with parameter v
    gives the arrow at x with parameter based-sum(u, v), and the inverse
    parameter is the based approximate inverse."""

    def __init__(self, model, x, scale):
        self.model = model
        self.x = np.asarray(x, dtype=float)
        self.scale = as_scale(scale)

    def moved_base(self, u):
        return self.model.point_dilatation(self.scale, self.x, u)

    def dist(self, base, u, v):
        return rescaled_distance(self.model, self.scale, base, u, v)

    def apply(self, u, v):
        return Sigma3(self.model, self.scale, self.x, u, v)

    # composing parameters is the same based sum that acts on points
    compose_params = apply

    def inverse_param(self, u):
        return inv3(self.model, self.scale, self.x, u)


def _translation_laws(T, u, v, w, tol) -> ValidationReport:
    model, x, s = T.model, T.x, T.scale
    rep = ValidationReport(
        subject=f"translation structure[{model.name}] at eps={s.value}")
    iso = LawCheck("arrows are isometries between rescaled distances")
    clos = LawCheck("composition closes: translation after translation is a translation")
    unit = LawCheck("the base-parameter translation is the identity")
    invl = LawCheck("the inverse translation undoes the translation")
    tang = LawCheck("rescaled distance agrees with the tangent distance")
    rep.add(iso, clos, unit, invl, tang)

    xb = np.broadcast_to(x, u.shape)
    mb = T.moved_base(u)
    lhs = T.dist(xb, T.apply(u, v), T.apply(u, w))
    rhs = rescaled_distance(model, s, mb, v, w)
    _judge(iso, np.abs(lhs - rhs), tol, eps=str(s.value), u=u)

    inner = Sigma3(model, s, mb, v, w)
    _judge(clos, _per_sample(T.apply(u, inner),
                             T.apply(T.compose_params(u, v), w)), tol,
           eps=str(s.value), u=u, v=v, w=w)

    _judge(unit, _per_sample(Sigma3(model, s, xb, xb, u), u), tol,
           eps=str(s.value))

    undone = Sigma3(model, s, mb, T.inverse_param(u), T.apply(u, v))
    _judge(invl, _per_sample(undone, v), tol, eps=str(s.value), u=u, v=v)

    _judge(tang, np.abs(T.dist(xb, u, v) - model.tangent_point_dist(u, v)),
           tol, eps=str(s.value))
    return rep


def _translation_points(model, rng, n):
    return tuple(model.sample_points(rng, n, 4.0, center=model.e())
                 for _ in range(3))


def translation_groupoid(model, scale=Fraction(1, 2), points=None, n=1000,
                         tol=1e-12):
    """Build the translation structure at one scale, based at the group
    identity, and certify its laws on sampled triples.  Returns
    (structure, report)."""
    if points is None:
        points = _translation_points(model, np.random.default_rng(23), n)
    u, v, w = points
    T = TranslationGroupoid(model, model.e(), scale)
    return T, _translation_laws(T, u, v, w, tol)


def check_translation_groupoid(model, rng=None, n=1000,
                               tol=1e-12) -> ValidationReport:
    """Criterion-grade driver: the translation laws at a couple of honest
    scales (the blow-up side amplifies float noise by 1/eps^2 on the
    nilpotent carrier, so tiny eps would test the arithmetic, not the
    structure)."""
    if rng is None:
        rng = np.random.default_rng(23)
    pts = _translation_points(model, rng, n)
    rep = ValidationReport(subject=f"translation structure[{model.name}]")
    for s in (Fraction(1, 2), Fraction(1, 4)):
        _, part = translation_groupoid(model, scale=s, points=pts, tol=tol)
        rep.merge(part)
    return rep
