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
                     norm-of-difference identities, the differences read
                     off target columns by based dilatations (equal to the
                     arrow route, as check_based_compat certifies)
  * cone_check    -- exact homogeneity of the limit distance
  * gh_estimate   -- metric distortion of the rescaled snapshots
  * fiber_dilatation_structure -- the induced per-fiber metric structure
  * check_translation_groupoid -- the based sum Sigma3 and inverse inv3
                     as isometries between rescaled distances

All point/arrow residuals are max-abs coordinate differences: a gauge of
a noise-level coordinate error is ~sqrt(noise) for the nilpotent carrier,
which would bury genuine convergence orders.  As in ngd.emergent, a check
computes each shared cloud once: `report --suite all` makes 424 carrier
kernel calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itruediv  # d /= m: in place, or a new numpy scalar

import numpy as np

from .core import LawCheck, ValidationReport
from .scales import (CHUNK_POINTS, Scale, ScaleBatch, chunks, dyadic_grid,
                     kernel_modulus)
from .emergent import _maxabs, _moved_base_ops, _per_sample


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


def limit_of_values(axiom, eps, values, tol=1e-8) -> LimitEstimate:
    """Limit of a value sequence along a scale grid.  The residual is the
    successive difference, and the estimated limit is the final value,
    Richardson-extrapolated when the fitted order p is close to 1; then
    it also passes if its residuals are finite and the tail bound
    r_last / (ratio^p - 1), the differences still to come, is below tol.
    A trace against a known limit is judged by estimate_from_residuals."""
    vals = [np.asarray(v, dtype=float) for v in values]
    resid = [_maxabs(vals[i] - vals[i - 1]) for i in range(1, len(vals))]
    est = estimate_from_residuals(axiom, list(eps)[1:], resid, tol=tol)
    if est.order is not None and abs(est.order - 1.0) <= 0.2:
        est.value = richardson(eps, vals, est.order)
        est.note = (est.note + "; " if est.note else "") + \
            "limit Richardson-extrapolated at order ~1"
        if not est.passed:
            fac = (float(eps[-2]) / float(eps[-1])) ** est.order - 1.0
            bound = resid[-1] / fac if fac > 0 else math.inf
            if bound < tol and all(map(math.isfinite, resid)):
                est.passed = True
                est.note += f"; tail bound {bound:.3e} < tol"
    else:
        est.value = vals[-1]
    return est


def uniform_limit(axiom, fam, candidate, grid=None, tol=1e-8, atol=5e-13,
                  require_decreasing=False) -> LimitEstimate:
    """Uniform-on-samples convergence of a scale family to a candidate
    array: fam(S) returns, for a ScaleBatch S of k scales, the family's
    arrays over the fixed sample set stacked on a leading axis of k.  The
    residual per grid point is the sup over samples of the max-abs
    coordinate difference.  Every limit driver sweeps its grid here; a
    trace "sup f_eps -> 0" of a nonnegative f uses candidate np.zeros(n)."""
    return uniform_limits([axiom], lambda s: [fam(s)], [candidate], grid,
                          tol, atol, require_decreasing)[0]


def uniform_limits(axioms, fams, candidates, grid=None, tol=1e-8,
                   atol=5e-13, require_decreasing=False) -> list:
    """uniform_limit of several families swept together: the grid is cut
    into chunks (ngd.scales.chunks) for n the longest leading (sample) axis
    of the candidates, or one scale each if none has one.  fams(S) returns
    one array per axiom for a chunk S, a ScaleBatch, so each kernel runs
    once per chunk, on a (k, n, dim) batch, and work the families share is
    done once.  Residuals are reduced per scale: chunking changes no trace."""
    if grid is None:
        grid = dyadic_grid()
    cands = [np.asarray(c, dtype=float) for c in candidates]
    n = max((len(c) for c in cands if c.ndim), default=CHUNK_POINTS)
    residuals = [[] for _ in axioms]
    for chunk in chunks(grid, n):
        for r, f, c in zip(residuals, fams(ScaleBatch.of(chunk)), cands):
            r += _per_sample(f, c).tolist()
    eps = [s._float for s in grid]
    return [estimate_from_residuals(axiom, eps, r, tol=tol, atol=atol,
                                    require_decreasing=require_decreasing)
            for axiom, r in zip(axioms, residuals)]


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

    def point_tuple(self, k):
        rng = self._rng()
        return tuple(
            self.model.sample_points(rng, self.n, self.radius,
                                     center=self.base)
            for _ in range(k)
        )

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
    pd = model.point_dilatation
    return itruediv(model.pdist(pd(scale, x, u),
                                pd(scale, x, v)), kernel_modulus(scale))


def rescaled_pair_distance(model, scale, g, h):
    """(1/|eps|) d(dif(delta_eps g, delta_eps h)) on same-fiber arrows,
    read off the dilated targets without building the arrows."""
    pd, src, tgt = model.point_dilatation, model.source, model.target
    return itruediv(model.pdist(pd(scale, src(g), tgt(g)),
                                pd(scale, src(h), tgt(h))),
                    kernel_modulus(scale))


def rescaled_norm(model, scale, a):
    """(1/|eps|) d(delta_eps a), read off the dilated target."""
    src = model.source(a)
    return itruediv(model.pdist(model.point_dilatation(
        scale, src, model.target(a)), src), kernel_modulus(scale))


# ---------------------------------------------------------------------------
# axiom drivers

# the dilatation scales mu of the two-scale and cone checks
MUS = (Scale(Fraction(1, 2)), Scale(Fraction(1, 4)), Scale(Fraction(3, 4)))
# the one small scale at which the exact (starred) identities are sampled
EPS_STAR = Scale(Fraction(1, 10000))
# the scales s of the fiber scale action
_ACTION_S = (Scale(Fraction(1, 2)), Scale(Fraction(1, 8)), Scale(Fraction(4)))


def check_A3(model, sampler, grid=None, tol=1e-8) -> ValidationReport:
    """Rescaled fiber distance converges to the tangent pair distance,
    which behaves like a distance and is nondegenerate.

    The sample set is the sampler's random same-fiber arrow pairs plus
    deterministic axis probes (paired against the unit arrow), so a
    direction-dependent collapse -- the classic failure when a homogeneous
    structure is measured with a flat norm -- cannot hide from the
    nondegeneracy clause."""
    if grid is None:
        grid = dyadic_grid()
    g, h = sampler.arrow_pairs()
    probes = model.probe_fiber_arrows(sampler.base)
    G = np.concatenate([g, probes], axis=0)
    H = np.concatenate([h, np.broadcast_to(model.unit(sampler.base),
                                           probes.shape)], axis=0)

    rep = ValidationReport(subject=f"A3[{model.name}] ({sampler.describe()})")
    dt0 = model.tangent_pair_dist(G, H)
    chunk = []  # the sweep's last chunk, whose last row is the finest scale

    def pair_distance(s):
        chunk[:] = [rescaled_pair_distance(model, s, G, H)]
        return chunk[0]

    rep.limits.append(uniform_limit(
        "A3: rescaled fiber distance -> tangent pair distance",
        pair_distance, dt0, grid, tol))

    diag = LawCheck("tangent distance vanishes on the diagonal")
    sym = LawCheck("tangent distance is symmetric")
    tri = LawCheck("tangent distance satisfies the triangle inequality")
    nondeg = LawCheck("nondegeneracy: distinct arrows keep positive tangent distance")
    rep.add(diag, sym, tri, nondeg)

    diag.judge_residuals(np.abs(model.tangent_pair_dist(G, G)), 1e-12)
    sym.judge_residuals(np.abs(dt0 - model.tangent_pair_dist(H, G)), 1e-12)
    L = np.roll(G, 1, axis=0)  # same fiber, so a legal third corner
    slack = (model.tangent_pair_dist(G, L)
             - dt0 - model.tangent_pair_dist(H, L))
    tri.judge_residuals(np.maximum(slack, 0.0), 1e-12)

    tg, th = model.target(G), model.target(H)
    finest = chunk[0][-1]
    sep_mask = _per_sample(tg, th) > 0.05
    # a NaN distance is degenerate too: it compares False with anything
    degenerate = sep_mask & ~((dt0 > 1e-7) & (finest > 1e-7))
    nondeg.judge_all(int(sep_mask.sum()), np.argwhere(degenerate),
                     lambda i: dict(target_g=tg[i].tolist(),
                                    target_h=th[i].tolist(),
                                    tangent_distance=float(dt0[i]),
                                    rescaled_at_finest=float(finest[i])))
    return rep


def check_A4weak(model, sampler, grid=None, tol=1e-8) -> ValidationReport:
    """The two-scale based dilatations converge (per mu) to the tangent
    dilatation, and at u = x they collapse to the plain based dilatation."""
    u, v = sampler.point_tuple(2)
    x = np.broadcast_to(sampler.base, u.shape)
    pd = model.point_dilatation
    rep = ValidationReport(subject=f"A4weak[{model.name}] ({sampler.describe()})")

    def per_mu(s):  # delta^x_eps u and delta^x_eps v once for every mu
        du, dv, si = pd(s, x, u), pd(s, x, v), s.inv()
        return [pd(si, x, pd(mu, du, dv)) for mu in MUS]

    rep.limits.extend(uniform_limits(
        [f"A4weak[mu={mu.value}]: two-scale dilatation -> tangent dilatation"
         for mu in MUS], per_mu,
        [model.tangent_bar_dilatation(mu, x, u, v) for mu in MUS], grid, tol))
    basecase = LawCheck("tangent dilatation at u = x is the based dilatation")
    rep.add(basecase)
    for mu in MUS:
        lhs = model.tangent_bar_dilatation(mu, x, x, v)
        rhs = model.point_dilatation(mu, x, v)
        basecase.judge_residuals(_per_sample(lhs, rhs), 1e-12,
                                 mu=str(mu.value))
    return rep


def check_A3mod_A4(model, sampler, grid=None,
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
    absolute tolerance.  The difference traces are read off target
    columns by based dilatations, as every sampled arrow has source base;
    check_based_compat certifies that this equals the arrow route."""
    G, H = sampler.arrow_pairs()
    base, tg, th = sampler.base, model.target(G), model.target(H)
    pd = model.point_dilatation
    rep = ValidationReport(subject=f"strong limits[{model.name}] ({sampler.describe()})")

    rep.limits.append(uniform_limit(
        "A3mod: rescaled norm -> tangent norm",
        lambda s: rescaled_norm(model, s, G), model.tangent_norm(G), grid,
        tol))

    tD = model.tangent_Delta(G, H)
    tt = model.target(tD)  # its source is base

    def approx(s):
        """The target t of Delta_s(G, H) = (t, base), and per scale the
        slotwise residual of dif_s(G, H) = (t, dh) against (tt, base)."""
        dh = pd(s, base, th)
        t = pd(s.inv(), dh, pd(s, base, tg))
        return [t, np.maximum(_per_sample(t, tt), _per_sample(dh, base))]

    rep.limits.extend(uniform_limits(
        ["A4: approximate difference -> tangent difference",
         "blown-up difference -> tangent difference (slotwise)"],
        approx, [tt, 0.0], grid, 1e-3, require_decreasing=True))

    star = EPS_STAR
    bridge = LawCheck("pair distance = norm of the limit difference (at eps*)")
    route = LawCheck("dilating the blown-up difference back recovers it (at eps*)")
    exact = LawCheck("tangent pair distance = tangent norm of tangent difference")
    rep.add(bridge, route, exact)

    lhs = rescaled_pair_distance(model, star, G, H)
    rhs = rescaled_norm(model, star, tD)
    bridge.judge_residuals(np.abs(lhs - rhs), 1e-10,
                           eps_star=str(star.value))

    dg, dh = pd(star, base, tg), pd(star, base, th)
    back = pd(star, dh, pd(star.inv(), dh, dg))
    route.judge_residuals(_per_sample(back, dg), 1e-10,
                          eps_star=str(star.value))

    exact.judge_residuals(np.abs(model.tangent_pair_dist(G, H)
                                 - model.tangent_norm(tD)), 1e-12)
    return rep


def cone_check(model, sampler) -> ValidationReport:
    """The limit distance is exactly homogeneous under the based
    dilatations (sampled at eps_star), and the two-scale dilatation based
    at its own center is the plain based dilatation."""
    u, v = sampler.point_tuple(2)
    x = np.broadcast_to(sampler.base, u.shape)
    star = EPS_STAR
    rep = ValidationReport(subject=f"metric cone[{model.name}] ({sampler.describe()})")
    homog = LawCheck("rescaled distance is homogeneous under based dilatations")
    basecase = LawCheck("two-scale dilatation centered at its base = based dilatation")
    rep.add(homog, basecase)
    pd = model.point_dilatation
    sx, sv = pd(star, x, x), pd(star, x, v)  # read at every mu
    base_d = itruediv(model.pdist(pd(star, x, u), sv), kernel_modulus(star))
    for mu in MUS:
        du, dv = pd(mu, x, u), pd(mu, x, v)
        lhs = rescaled_distance(model, star, x, du, dv)
        homog.judge_residuals(np.abs(lhs - float(mu.modulus) * base_d),
                              1e-10, mu=str(mu.value))
        # the two-scale dilatation delta^x_{1/eps*} delta^{sx}_mu sv at u = x
        emp = pd(star.inv(), x, pd(mu, sx, sv))
        basecase.judge_residuals(_per_sample(emp, dv), 1e-10,
                                 mu=str(mu.value))
    return rep


def gh_estimate(model, sampler, grid=None, tol=1e-8) -> LimitEstimate:
    """Distortion of the identity correspondence between the rescaled ball
    and the tangent ball: sup over sampled pairs of
    |d^x_eps(u,v) - tangent distance|.  Half the distortion bounds the
    metric (Gromov-Hausdorff-style) distance between the two snapshots."""
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


def fiber_dilatation_structure(model, x=None, sampler=None):
    """Extract the fiber structure at x and certify the metric-space
    axioms on it: the based dilatations form a scale action fixing their
    base, they contract (distance to the base image -> 0), the rescaled
    distance converges to the tangent distance, and the two-scale
    dilatations converge -- all with bases sampled across the fiber, not
    just at the group identity.  Returns (x, report), x the fiber's base
    point as a float array: the CLI and the benchmark read the report at
    [1], and the tangent-limits demo unpacks the pair.

    Off-origin bases pay float cancellation that the 1/eps side of the
    two-scale dilatation amplifies by 1/eps^2 for the nilpotent carrier,
    so this driver uses a moderate grid (2^-1 .. 2^-6) and a matching
    noise floor; the base-at-identity drivers cover the fine-grid end."""
    x = np.asarray(model.e() if x is None else x, dtype=float)
    if sampler is None:
        sampler = BoundedSampler(model, base=x, n=100, seed=11)
    grid = dyadic_grid(kmax=6)
    dist, dil = model.pdist, model.point_dilatation
    u, v, w = sampler.point_tuple(3)

    rep = ValidationReport(subject=f"fiber structure[{model.name}] at "
                                   f"{np.round(x, 3).tolist()} "
                                   f"({sampler.describe()})")
    act = LawCheck("based dilatations form a scale action fixing the base")
    rep.add(act)
    rv = [(r, dil(r, u, v)) for r in MUS[::2]]  # r = 1/2, 3/4, at every s
    for s in _ACTION_S:
        for r, dv in rv:
            act.judge_residuals(_per_sample(dil(s, u, dv), dil(
                s.mul(r), u, v)), 1e-9, s=str(s.value), r=str(r.value))
        act.judge_residuals(_per_sample(dil(s, u, u), u), 1e-12,
                            s=str(s.value))
    act.judge_residuals(_per_sample(dil(Scale.one(), u, v), v), 1e-12)

    rep.limits.append(uniform_limit(
        "fiber A2: dist(u, delta^u_eps v) -> 0",
        lambda s: dist(u, dil(s, u, v)), np.zeros(len(u)),
        grid, 0.25, atol=1e-10, require_decreasing=True))

    def shared(s):  # delta^u_eps v and delta^u_eps w once for A3 and every mu
        dv, dw, si = dil(s, u, v), dil(s, u, w), s.inv()
        return [dist(dv, dw) / kernel_modulus(s)] + [
            dil(si, u, dil(mu, dv, dw)) for mu in MUS[:2]]

    rep.limits.extend(uniform_limits(
        ["fiber A3: rescaled based distance -> tangent distance"]
        + [f"fiber A4weak[mu={mu.value}]: two-scale dilatation converges"
           for mu in MUS[:2]], shared,
        [model.tangent_point_dist(v, w)]
        + [model.tangent_bar_dilatation(mu, u, v, w) for mu in MUS[:2]],
        grid, 1e-8, atol=1e-10))
    return x, rep


# ---------------------------------------------------------------------------
# the translation structure at a fixed scale


def _translation_laws(model, s, u, v, w) -> ValidationReport:
    """The translation laws at scale s, based at the group identity x: the
    arrow with parameter u acts by v -> u o v = Sigma3(x; u, v), an
    isometry from the rescaled distance at the moved base x circ_s u to the
    one at x; after the arrow at the moved base with parameter v it is the
    arrow with parameter u o v, and inv3(x; u) is its inverse parameter.
    Every law is judged at 1e-12, on clouds computed once each."""
    rep = ValidationReport(
        subject=f"translation structure[{model.name}] at eps={s.value}")
    iso = LawCheck("arrows are isometries between rescaled distances")
    clos = LawCheck("composition closes: translation after translation is a translation")
    unit = LawCheck("the base-parameter translation is the identity")
    invl = LawCheck("the inverse translation undoes the translation")
    tang = LawCheck("rescaled distance agrees with the tangent distance")
    rep.add(iso, clos, unit, invl, tang)

    x = np.asarray(model.e(), dtype=float)
    xb = np.broadcast_to(x, u.shape)
    pd, mod = model.point_dilatation, kernel_modulus(s)
    _, S3, I3 = _moved_base_ops(pd, s)
    mb = pd(s, x, u)  # the moved base x circ_s u
    mv, mw = pd(s, mb, v), pd(s, mb, w)  # its dilatations, read thrice
    uv, uw = pd(s.inv(), x, mv), pd(s.inv(), x, mw)  # u o v = S3(x, mb, v)
    xuv = pd(s, x, uv)  # the moved base of u o v, read twice
    lhs = itruediv(model.pdist(xuv, pd(s, xb, uw)), mod)
    iso.judge_residuals(np.abs(lhs - itruediv(model.pdist(mv, mw), mod)),
                        1e-12, eps=str(s.value), u=u)

    clos.judge_residuals(_per_sample(S3(x, mb, S3(mb, mv, w)), S3(x, xuv, w)),
                         1e-12, eps=str(s.value), u=u, v=v, w=w)

    unit.judge_residuals(_per_sample(S3(xb, pd(s, xb, xb), u), u), 1e-12,
                         eps=str(s.value))

    undone = S3(mb, pd(s, mb, I3(x, mb)), uv)
    invl.judge_residuals(_per_sample(undone, v), 1e-12, eps=str(s.value),
                         u=u, v=v)

    tang.judge_residuals(np.abs(itruediv(model.pdist(mb, pd(s, xb, v)), mod)
                                - model.tangent_point_dist(u, v)),
                         1e-12, eps=str(s.value))
    return rep


def check_translation_groupoid(model, rng=None, n=1000) -> ValidationReport:
    """Criterion-grade driver: the translation laws on n sampled triples
    around the group identity, at a couple of honest scales (the blow-up
    side amplifies float noise by 1/eps^2 on the nilpotent carrier, so
    tiny eps would test the arithmetic, not the structure)."""
    if rng is None:
        rng = np.random.default_rng(23)
    u, v, w = (model.sample_points(rng, n, 4.0, center=model.e())
               for _ in range(3))
    rep = ValidationReport(subject=f"translation structure[{model.name}]")
    for s in MUS[:2]:  # 1/2 and 1/4
        rep.merge(_translation_laws(model, s, u, v, w))
    return rep
