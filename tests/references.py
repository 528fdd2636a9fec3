"""What only the tests use: references, fixtures and test data.

`ngd` ships what its command line, its demos and its benchmark run, and
tests/test_reachability.py holds it to that.  The names here are reached
from tests alone, so they live with the tests:

- references the tests compare `ngd` against:
  - `dif_eps`, the blown-up exact difference, a second route to
    Delta_eps and to the tangent difference;
  - `GroupoidMorphism`, `check_morphism` and `double_difference_morphism`,
    which judge the arrow map of dif as a morphism, apart from
    check_double_norm;
  - `DeformedModel` and `check_deformation`, the pair-model laws judged
    again on the structure conjugated by delta_mu;
  - `check_strict_category`, a category judged with the two clauses that
    hold for groupoids but fail on the transport category;
  - the per-scale checks, one kernel call per scale or scale pair, that
    the batteries of `ngd` replaced with chunks of scales:
    `ref_check_pplay` (recomputing every intermediate), `ref_check_irq`,
    `ref_check_gamma_irq`, `ref_check_based_compat`, `ref_check_A1`,
    `ref_check_A2` and `ref_check_dilation_morphism`;
  - the checks that each recomputed the clouds they share, before each
    shared cloud was computed once: `ref_translation_laws` and
    `ref_cone_check`, with `two_scale_dilatation`;
  - `ref_ball_sample`, the ball sampler that kept its points by a boolean
    mask;
- fixtures fed to the honest checkers: `iterate_irq` and
  `z_irq_from_iterates`, an integer-indexed irq family built by iterating
  one irq, which takes a ScaleBatch as the carrier kernels do;
  - `basis_potentials`, a transportation basis's potentials walked out
    from scratch, against which the solver's kept tree is judged;
- test data: `parse_error_samples`, the malformed terms the parser must
  reject, each with the position its error names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ngd.constructions import _dif_map, _double_of, _double_pairs
from ngd.core import (FiniteGroupoid, LawCheck, ValidationReport,
                      _table_laws, _tables, check_category_with_inverses)
from ngd.emergent import (Delta3, Delta_eps, GammaIrq, Irq, Sigma3, Sigma_eps,
                          _per_sample, inv3)
from ngd.limits import EPS_STAR, MUS, rescaled_distance, uniform_limit
from ngd.models import DoubleModel, PairModel, _empty
from ngd.scales import Scale, ScaleBatch, as_scale, dyadic_grid


# ---------------------------------------------------------------------------
# the groupoid-only clauses on a category


def check_strict_category(C, norm=None, joint_kernel=True):
    """check_category_with_inverses, then the norm laws of the table norm
    (zero exactly on the arrows h^-1 h, subadditive, inversion invariant)
    and, with joint_kernel, the law that the joint seminorm kernel holds
    such arrows only.  Groupoids satisfy both clauses; the transport
    category fails both, which is why ngd does not judge them there."""
    rep = check_category_with_inverses(C)
    units = C.unit_like()
    if norm is not None:
        rep.add(*_table_laws(
            C.arrows, C.compose, C.inverse, units, _tables([None], [norm]),
            ("d = 0 exactly on arrows h^-1 h", "d subadditive",
             "d inversion invariant")))
    if joint_kernel and C.seminorms is not None:
        ker = LawCheck("joint seminorm kernel  subset of arrows h^-1 h")
        rep.add(ker)
        for g, values in enumerate(zip(*C.seminorms.values)):
            if g not in units:
                ker.judge(any(values), g=C.arrows[g])
    return rep


# ---------------------------------------------------------------------------
# the blown-up exact difference


def dif_eps(model, scale, g, h):
    """Blown-up exact difference, delta_{1/eps} dif(delta_eps g, delta_eps h).

    Composing with delta_eps h recovers Delta_eps (a route identity worth
    testing, not assuming); unlike Delta_eps its source moves with eps, so
    it converges to tangent_Delta only in the simple (slotwise) sense."""
    s = as_scale(scale)
    return model.delta(s.inv(), model.dif(model.delta(s, g), model.delta(s, h)))


# ---------------------------------------------------------------------------
# morphisms of finite groupoids


@dataclass
class GroupoidMorphism:
    """Arrow map between finite groupoids (objects ride along)."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    arrow_map: list
    name: str = "F"


def check_morphism(M: GroupoidMorphism) -> ValidationReport:
    comp = LawCheck("preserves composition")
    invo = LawCheck("preserves inversion")
    ends = LawCheck("preserves unit arrows / endpoints")
    rep = ValidationReport(subject=f"morphism {M.name}").add(comp, invo, ends)
    F = M.arrow_map
    G, H = M.source, M.target
    for (g, h), k in G.compose.items():
        comp.judge(H.compose.get((F[g], F[h])) == F[k],
                   g=G.arrows[g], h=G.arrows[h])
    (ga, go), (ha, ho) = G.endpoints(), H.endpoints()
    for g in range(len(G.arrows)):
        invo.judge(F[G.inverse[g]] == H.inverse[F[g]], g=G.arrows[g])
        ends.judge(F[ga[g]] == ha[F[g]] and F[go[g]] == ho[F[g]],
                   g=G.arrows[g])
    return rep


def double_difference_morphism(G, D):
    """The map (g, h) -> g h^-1 from the double groupoid to G.  Returns a
    GroupoidMorphism; it preserves norms (d~ = d o dif) on the nose,
    which check_double_norm judges through this arrow map.  A D that is
    not the double groupoid of G raises ValueError."""
    return GroupoidMorphism(source=_double_of(G, D), target=G,
                            arrow_map=_dif_map(G, _double_pairs(G)),
                            name="dif")


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


def check_deformation(model: PairModel, mu) -> ValidationReport:
    """The deformed structure is a normed groupoid on samples, the deformed
    difference map is norm preserving (d_mu o dif_mu = dtilde_mu, exactly),
    and is a morphism for the deformed composition."""
    tol = 1e-9
    rng = np.random.default_rng(41)
    dm = DeformedModel(model, mu)
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
    assoc.judge_residuals(_per_sample(lhs, rhs), tol)

    # one instance per sample; np.maximum keeps a NaN in either residual
    r1 = _per_sample(dm.m(a_arr, db.unit(db.source(a_arr))), a_arr)
    r2 = _per_sample(dm.m(db.unit(dm.omega_coords(a_arr)), a_arr), a_arr)
    unit.judge_residuals(np.maximum(r1, r2), tol)

    lhs = dm.m(dm.inverse(a_arr), a_arr)
    invl.judge_residuals(_per_sample(lhs, db.unit(db.source(a_arr))), tol)

    # norm-preserving morphism: d_mu(dif_mu(g,h)) = dtilde_mu(g,h)
    pres = LawCheck("d_mu(dif_mu(g,h)) = dtilde_mu(g,h)")
    morph = LawCheck("dif_mu is a morphism for the deformed composition")
    conj = LawCheck("induced pair dilation = conjugated pair dilation")
    rep.add(pres, morph, conj)

    g = db.arrow(p, B)
    h = db.arrow(q, B)
    l_ = db.arrow(r, B)
    pres.judge_residuals(np.abs(dm.norm(dm.dif(g, h)) - dm.dtilde(g, h)), tol)

    lhs = dm.dif(g, l_)
    rhs = dm.m(dm.dif(g, h), dm.dif(h, l_))
    morph.judge_residuals(_per_sample(lhs, rhs), tol)

    for s in [Scale(Fraction(1, 4)), Scale(Fraction(1, 2))]:
        via_conj = dm.double_delta(s, g, h)
        # direct route: the deformed structure's own induced dilation,
        # built from deformed dif / composition
        direct_first = dm.m(db.delta(s, dm.dif(g, h)), h)
        conj.judge_residuals(np.maximum(_per_sample(via_conj[0], direct_first),
                                        _per_sample(via_conj[1], h)), tol,
                             scale=str(s.value))
    return rep


# ---------------------------------------------------------------------------
# an irq family built by iteration


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
    iterate law (op_s)_k = op_{s^k} in disguise.  For a ScaleBatch of k
    scales and (n, dim) point clouds (or (k, n, dim) batches of them) it
    stacks the k per-scale iterates on a leading axis."""

    def op(scale, x, y):
        s = as_scale(scale)
        if not isinstance(s, ScaleBatch):
            return iterate_irq(Q, _dyadic_exponent(s))(x, y)
        shape = np.broadcast_shapes(np.shape(x), np.shape(y),
                                    (len(s.scales), 1, 1))
        return np.stack([
            iterate_irq(Q, _dyadic_exponent(t))(a, b) for t, a, b in
            zip(s.scales, np.broadcast_to(x, shape), np.broadcast_to(y, shape))])

    return GammaIrq(op=op, name=f"Z iterates of {Q.name}")


# ---------------------------------------------------------------------------
# the per-scale checks


def ref_check_pplay(Q, samples, tol=1e-10):
    """check_pplay one scale at a time, every intermediate recomputed."""
    grid = dyadic_grid(kmax=5)
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
        xu = C(s, x, u)
        iu = I3(s, x, u)
        a_.judge_residuals(_per_sample(D3(s, x, u, S3(s, x, u, v)), v), tol,
                           eps=str(s.value), x=x, u=u, v=v)
        b_.judge_residuals(_per_sample(S3(s, x, u, D3(s, x, u, v)), v), tol,
                           eps=str(s.value), x=x, u=u, v=v)
        c_.judge_residuals(_per_sample(D3(s, x, u, v), S3(s, xu, iu, v)), tol,
                           eps=str(s.value), x=x, u=u, v=v)
        d_.judge_residuals(_per_sample(I3(s, xu, iu), u), tol,
                           eps=str(s.value), x=x, u=u)
        e_.judge_residuals(_per_sample(S3(s, x, u, S3(s, xu, v, w)),
                                       S3(s, x, S3(s, x, u, v), w)), tol,
                           eps=str(s.value), x=x, u=u, v=v, w=w)
        f_.judge_residuals(_per_sample(iu, D3(s, x, u, x)), tol,
                           eps=str(s.value), x=x, u=u)
        g_.judge_residuals(_per_sample(S3(s, x, x, u), u), tol,
                           eps=str(s.value), x=x, u=u)
        for m in grid:
            sm = s.mul(m)
            lhs = D3(s, x, C(m, x, u), C(m, x, v))
            rhs = C(m, C(sm, x, u), D3(sm, x, u, v))
            k_.judge_residuals(_per_sample(lhs, rhs), tol,
                               eps=str(s.value), mu=str(m.value), x=x, u=u, v=v)
    return rep


def ref_check_irq(Q: Irq, xs, ys) -> ValidationReport:
    """check_irq of one irq."""
    tol = 1e-10
    rep = ValidationReport(subject=Q.name)
    p1 = LawCheck("P1: x op (x opinv y) = x opinv (x op y) = y")
    p2 = LawCheck("P2: x op x = x opinv x = x")
    rep.add(p1, p2)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    eps = str(Q.scale.value)
    p1.judge_residuals(_per_sample(Q.op(xs, Q.opinv(xs, ys)), ys), tol,
                       eps=eps, x=xs, y=ys)
    p1.judge_residuals(_per_sample(Q.opinv(xs, Q.op(xs, ys)), ys), tol,
                       eps=eps, x=xs, y=ys)
    p2.judge_residuals(_per_sample(Q.op(xs, xs), xs), tol, eps=eps, x=xs)
    p2.judge_residuals(_per_sample(Q.opinv(xs, xs), xs), tol, eps=eps, x=xs)
    return rep


def ref_check_gamma_irq(Q: GammaIrq, xs, ys) -> ValidationReport:
    """check_gamma_irq one scale and one (s, m) pair at a time."""
    grid = dyadic_grid(kmax=5)
    rep = ValidationReport(subject=Q.name)
    comp = LawCheck("composition: x circ_s (x circ_m y) = x circ_{sm} y")
    for s in grid:
        rep.merge(ref_check_irq(Q.at(s), xs, ys))
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    for s in grid:
        for m in grid:
            lhs = Q.op(s, xs, Q.op(m, xs, ys))
            rhs = Q.op(s.mul(m), xs, ys)
            comp.judge_residuals(_per_sample(lhs, rhs), 1e-10,
                                 s=str(s.value), m=str(m.value), x=xs, y=ys)
    rep.add(comp)
    return rep


def ref_check_based_compat(model, n=300) -> ValidationReport:
    """check_based_compat one scale at a time."""
    rng = np.random.default_rng(20)
    rep = ValidationReport(subject=f"based/two-argument compatibility[{model.name}]")
    cd = LawCheck("arrow difference = based difference, right-translated")
    cs = LawCheck("arrow sum = based sum, right-translated")
    rep.add(cd, cs)

    gp, hp, up = (model.sample_points(rng, n, 4.0, center=model.e())
                  for _ in range(3))
    hu = model.arrow(hp, up)
    gu = model.arrow(gp, up)
    for s in dyadic_grid(kmax=5):
        lhs = Delta_eps(model, s, hu, gu)
        rhs = model.arrow(Delta3(model, s, up, gp, hp), up)
        cd.judge_residuals(_per_sample(lhs, rhs), 1e-10, eps=str(s.value), u=up, g=gp, h=hp)
        lhs = Sigma_eps(model, s, hu, gu)
        rhs = model.arrow(Sigma3(model, s, up, gp, hp), up)
        cs.judge_residuals(_per_sample(lhs, rhs), 1e-10, eps=str(s.value), u=up, g=gp, h=hp)
    return rep


def ref_check_A1(model, arrows) -> ValidationReport:
    """check_A1 one scale and one (s, r) pair at a time."""
    tol = 1e-9
    scales = [Scale(Fraction(1, 2)), Scale(Fraction(1, 8)),
              Scale(Fraction(2)), Scale(Fraction(8)), Scale(Fraction(3, 4))]
    rep = ValidationReport(subject=f"A1[{model.name}]")
    fib = LawCheck("delta preserves the source fiber")
    act = LawCheck("delta_s delta_r = delta_{s r}")
    one = LawCheck("delta_1 = id")
    rep.add(fib, act, one)

    one.judge_residuals(_per_sample(model.delta(Scale.one(), arrows), arrows),
                        tol)
    for s in scales:
        da = model.delta(s, arrows)
        fib.judge_residuals(_per_sample(model.alpha_coords(da),
                                        model.alpha_coords(arrows)), tol,
                            scale=str(s.value))
        for r2 in scales:
            lhs = model.delta(s, model.delta(r2, arrows))
            rhs = model.delta(s.mul(r2), arrows)
            act.judge_residuals(_per_sample(lhs, rhs), tol, s=str(s.value),
                                r=str(r2.value))
    return rep


def ref_check_A2(model, arrows) -> ValidationReport:
    """check_A2 with its fixed-unit law one scale at a time."""
    grid = dyadic_grid()
    rep = ValidationReport(subject=f"A2[{model.name}]")
    fixed = LawCheck("unit arrows are fixed")
    rep.add(fixed)
    units = model.unit_of(arrows)
    for s in grid[:4] + grid[-1:]:
        fixed.judge_residuals(_per_sample(model.delta(s, units), units),
                              1e-12, scale=str(s.value))
    rep.limits.append(uniform_limit(
        "A2: sup d(delta_eps a) -> 0",
        lambda s: model.norm(model.delta(s, arrows)), np.zeros(len(arrows)),
        grid, 0.25, atol=1e-13, require_decreasing=True))
    return rep


def ref_check_dilation_morphism(model: PairModel) -> ValidationReport:
    """check_dilation_morphism one scale at a time, with the per-scale
    A1 and A2 of the double model."""
    dm = DoubleModel(model)
    P = dm.sample_fiber_arrows(np.random.default_rng(618), 300)
    rep = ValidationReport(subject=f"induced double dilation[{model.name}]")
    inter = LawCheck("dif o delta~_s = delta_s o dif")
    rep.add(inter)
    for s in [Scale(Fraction(1, 2)), Scale(Fraction(1, 16)), Scale(Fraction(4))]:
        lhs = dm.dif_map(dm.delta(s, P))
        rhs = model.delta(s, dm.dif_map(P))
        inter.judge_residuals(_per_sample(lhs, rhs), 1e-9, scale=str(s.value))
    rep.merge(ref_check_A1(dm, P))
    rep.merge(ref_check_A2(dm, P))
    return rep


# ---------------------------------------------------------------------------
# the checks that recomputed their shared clouds


def two_scale_dilatation(model, scale, mu, x, u, v):
    """delta^x_{1/eps} delta^{delta^x_eps u}_mu delta^x_eps v -- the
    conjugated dilatation whose small-eps limit is the tangent dilatation."""
    s, pd = as_scale(scale), model.point_dilatation
    return pd(s.inv(), x, pd(mu, pd(s, x, u), pd(s, x, v)))


def ref_translation_laws(model, s, u, v, w) -> ValidationReport:
    """limits._translation_laws with each Sigma3 and inv3 computed whole."""
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
    mb = model.point_dilatation(s, x, u)  # the moved base x circ_s u
    uv = Sigma3(model, s, x, u, v)
    lhs = rescaled_distance(model, s, xb, uv, Sigma3(model, s, x, u, w))
    rhs = rescaled_distance(model, s, mb, v, w)
    iso.judge_residuals(np.abs(lhs - rhs), 1e-12, eps=str(s.value), u=u)

    inner = Sigma3(model, s, mb, v, w)
    clos.judge_residuals(_per_sample(Sigma3(model, s, x, u, inner),
                                     Sigma3(model, s, x, uv, w)), 1e-12,
                         eps=str(s.value), u=u, v=v, w=w)

    unit.judge_residuals(_per_sample(Sigma3(model, s, xb, xb, u), u), 1e-12,
                         eps=str(s.value))

    undone = Sigma3(model, s, mb, inv3(model, s, x, u), uv)
    invl.judge_residuals(_per_sample(undone, v), 1e-12, eps=str(s.value), u=u, v=v)

    tang.judge_residuals(np.abs(rescaled_distance(model, s, xb, u, v)
                                - model.tangent_point_dist(u, v)),
                         1e-12, eps=str(s.value))
    return rep


def ref_cone_check(model, sampler) -> ValidationReport:
    """limits.cone_check with every dilated cloud computed again at each
    mu."""
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
        homog.judge_residuals(np.abs(lhs - float(mu.modulus) * base_d), 1e-10,
                              mu=str(mu.value))
        emp = two_scale_dilatation(model, star, mu, x, x, v)
        basecase.judge_residuals(_per_sample(emp, model.point_dilatation(mu, x, v)),
                                 1e-10, mu=str(mu.value))
    return rep


# ---------------------------------------------------------------------------
# the boolean-mask ball sampler


def ref_ball_sample(group, rng, n, radius, center, draw):
    """models._ball_sample keeping the accepted candidates by a boolean
    mask and a slice copy."""
    out = _empty((n, group.dim))
    got = 0
    while got < n:
        cand = draw(2 * (n - got) + 8)
        keep = cand[group.gauge(cand) <= radius]
        take = min(len(keep), n - got)
        out[got : got + take] = keep[:take]
        got += take
    return out if center is None else group.mul(center, out)


# ---------------------------------------------------------------------------
# transportation bases


def basis_potentials(cost, basis, anchors):
    """The potentials of a transportation basis, from scratch.

    Nodes are rows 0..n-1 and columns n..2n-1, joined by the basic cells
    x * n + y.  The walk starts at the anchors {node: potential} and sets
    pi[x] - pi[n + y] = c(x, y) on every cell it crosses.  With anchors
    {0: 0} and a spanning basis, u = pi[:n] and v = -pi[n:] are the row
    and column potentials with u_0 = 0 and u_x + v_y = c(x, y) on every
    basic cell.  A node the walk cannot reach raises KeyError."""
    n = len(cost)
    adj = [[] for _ in range(2 * n)]
    for k in basis:
        x, y = divmod(k, n)
        adj[x].append(n + y)
        adj[n + y].append(x)
    pi, order = dict(anchors), list(anchors)
    for p in order:
        for q in adj[p]:
            if q not in pi:
                if q < n:
                    pi[q] = pi[p] + cost[q][p - n]
                else:
                    pi[q] = pi[p] - cost[p][q - n]
                order.append(q)
    return [pi[q] for q in range(2 * n)]


# ---------------------------------------------------------------------------
# malformed DSL inputs (for the CLI's positioned parse errors)


def parse_error_samples():
    """Expressions the term parser must reject, with the 1-based
    line:column it should point at."""
    return [
        ("Delta(0.1, (3,0)", 1, 17),            # unclosed call
        ("Sigma(1/2, (1,0), (2,0)))", 1, 25),   # trailing junk
        ("frob((1,0), (2,0))", 1, 1),           # unknown operation
        ("inv(1/2)", 1, 8),                     # arity too low
        ("d()", 1, 3),                          # arity too low
        ("lim(eps -> 1, d((1,0)))", 1, 12),     # limits go to zero here
        ("circ(1/2, (1,0),, (2,0))", 1, 17),    # empty argument
        ("Delta(1/2, (1,0), (2,0)\n  ", 2, 3),  # unclosed, multiline
    ]
