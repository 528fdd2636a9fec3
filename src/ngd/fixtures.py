"""Planted defects: structures that are wrong in one known way each.

Every fixture here is built to FAIL a specific honest check with a
specific witness.  They guard the checkers themselves: a test suite
that only ever sees correct models cannot tell a working validator
from `return True`.  Nothing in this module is weakened to pass —
the suite runner below is expected to come back red, and the CLI
maps that to a nonzero exit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .constructions import (FiniteMetricSpace, check_double_norm,
                            check_fiber_distances, double_groupoid,
                            pair_groupoid)
from .core import (
    FiniteGroupoid,
    SeminormFamily,
    ValidationReport,
    LawCheck,
    _common,
    check_norm,
    check_seminorm_family,
    validate_groupoid,
)
from .emergent import (_judge_rows, check_pplay, gamma_irq_from_dilation,
                       sample_point_quads)
from .limits import BoundedSampler, check_A3
from .models import EuclideanGroup, HeisenbergGroup, PairModel
from .scales import batch, chunks, dyadic_grid, kernel_modulus
from .transport import (_OUTER, Coupling, MarginalMismatch, Measure,
                        _basis_tree, _built, _judge_outer, _northwest_corner,
                        _read_basis, check_kantorovich_certificate,
                        compose_plans, kantorovich, product_plan,
                        two_point_space)


# ---------------------------------------------------------------------------
# analytic models, each broken in one place


class _SquaredDilationGroup(EuclideanGroup):
    """Euclidean carrier whose dilation contracts by s^2 instead of s."""

    def dil(self, s: float, a):
        return super().dil(s * s, a)


def wrong_exponent_euclidean() -> PairModel:
    """Looks Euclidean (the plane), but the dilation exponent is wrong.

    The family still composes (s^2 mu^2 = (s mu)^2), so the purely
    algebraic identities all hold; what fails is everything that pins
    the numeric scale: norm homogeneity d(delta_s a) = |s| d(a) gives
    |s|^2 instead, and the rescaled distances (1/|eps|) d(...) collapse
    to zero, so the limit distance is degenerate."""
    return PairModel(_SquaredDilationGroup(2),
                     name="euclidean-2d (squared dilation)")


class _DroppedCorrectionModel(PairModel):
    """Point dilatation computed additively: x + D_eps(x^-1 y).

    The group-multiplication wrapper around the contracted difference is
    dropped.  At the origin both recipes agree, so origin-based spot
    checks pass; off the origin the based operations stop inverting each
    other."""

    def point_dilatation(self, scale, x, y):
        d = self.group.dil(kernel_modulus(scale), self.pdiff(x, y))
        return np.add(x, d, out=d)


def dropped_correction_heisenberg() -> PairModel:
    return _DroppedCorrectionModel(
        HeisenbergGroup(), name="heisenberg (dropped correction term)"
    )


class _NaNBelowHeisenbergGroup(HeisenbergGroup):
    """Heisenberg carrier whose dilatation kernel returns NaN below
    scale 0.2.  The kernel is what breaks, not dil: the fused kernel never
    calls dil, so a NaN dil would not be reached."""

    def point_dilatation(self, s: float, x, y):
        out = super().point_dilatation(s, x, y)
        # a (k, 1) column s: only the blocks of its scales below 0.2
        np.copyto(out, np.nan, where=np.expand_dims(np.less(s, 0.2), -1))
        return out


def nan_below_heisenberg() -> PairModel:
    """Every based identity at a small scale compares NaN with NaN.  A
    judge that only asks `residual > tol` sees False there and passes;
    the honest one fails on the non-finite residual."""
    return PairModel(
        _NaNBelowHeisenbergGroup(), name="heisenberg (NaN below eps = 0.2)"
    )


def _horizontal_gauge(a):
    a = np.asarray(a, dtype=float)
    return np.sqrt(a[..., 0] ** 2 + a[..., 1] ** 2)


def flat_gauge_heisenberg() -> PairModel:
    """Heisenberg carrier measured with the flat horizontal gauge.

    The rescaled distances converge beautifully (the gauge is exactly
    homogeneous for the dilations), but the limit is only a
    pseudo-distance: any two points differing in the vertical coordinate
    alone are at distance zero.  The axis probes in check_A3 find that
    witness; random sampling essentially never does."""
    return PairModel(
        HeisenbergGroup(),
        name="heisenberg (flat horizontal gauge)",
        gauge=_horizontal_gauge,
    )


# ---------------------------------------------------------------------------
# broken finite tables


def _three_point_space() -> FiniteMetricSpace:
    return FiniteMetricSpace(
        points=["a", "b", "c"],
        dist=[[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    )


def retargeted_compose_groupoid():
    """A pair groupoid with one composition entry pointed at the wrong
    arrow, so the typing laws (and associativity) break there."""
    G = pair_groupoid(two_point_space())
    # (0<-1)(1<-0) should be (0<-0); send it to (1<-1) instead
    bad = dict(G.compose)
    bad[(1, 2)] = 3
    return FiniteGroupoid(G.arrows, bad, G.inverse, G.norm)


def inflated_norm_groupoid():
    """Symmetric norm table that overshoots the two-leg path a<-b<-c,
    violating subadditivity while keeping inversion invariance."""
    G = pair_groupoid(_three_point_space())
    norm = list(G.norm)
    labels = G.arrows
    i_ac = labels.index("a<-c")
    i_ca = labels.index("c<-a")
    norm[i_ac] = Fraction(100)
    norm[i_ca] = Fraction(100)
    return FiniteGroupoid(G.arrows, G.compose, G.inverse, norm)


def broken_loops():
    """Two copies of Z/4 side by side, with r1 r2 sent to the unit r0:
    every table stays total on each object, but right translation no
    longer preserves d~ and associativity fails."""
    compose = {(b + g, b + h): b + (g + h) % 4
               for b in (0, 4) for g in range(4) for h in range(4)}
    compose[(1, 2)] = 0
    return FiniteGroupoid(
        [c + str(k) for c in "rs" for k in range(4)], compose,
        [b + -g % 4 for b in (0, 4) for g in range(4)],
        [Fraction(min(g, 4 - g)) for g in range(4)] * 2)


def misplaced_composite_groupoid():
    """The pair groupoid of four points at distance 1 with (a<-b)(b<-c)
    sent to d<-a: every composite the fiber laws read exists, but this
    one leaves the fiber of alpha(b<-c) = c, where right translation
    looks for it."""
    G = pair_groupoid(FiniteMetricSpace(
        list("abcd"), [[int(i != j) for j in range(4)] for i in range(4)]))
    at = G.arrows.index
    bad = dict(G.compose)
    bad[(at("a<-b"), at("b<-c"))] = at("d<-a")
    return FiniteGroupoid(G.arrows, bad, G.inverse, G.norm)


def off_pair_double_groupoid():
    """(G, D): G the pair groupoid of the three-point space, D its double
    groupoid with the norm at the pair [a<-b;c<-b] raised from
    d((a<-b)(b<-c)) = 2 to 3, so d~ = d o dif fails there alone."""
    G = pair_groupoid(_three_point_space())
    D = double_groupoid(G)
    norm = list(D.norm)
    norm[D.arrows.index("[a<-b;c<-b]")] += 1
    return G, FiniteGroupoid(D.arrows, D.compose, D.inverse, norm)


def non_separating_seminorms():
    """A seminorm family that is identically zero: subadditive,
    inversion invariant, vanishing on units — and separating nothing."""
    G = pair_groupoid(two_point_space())
    fam = SeminormFamily(
        names=["collapse"],
        values=[[Fraction(0)] * len(G.arrows)],
    )
    return G, fam


# ---------------------------------------------------------------------------
# transport data that refuses to compose


def mismatched_transport_pair():
    """Two valid plans whose middle marginals differ by 1/100 at point
    index 0.  Close enough to tempt renormalization; composing them must
    raise instead."""
    X = two_point_space()
    h = Fraction(1, 2)
    gamma = Coupling(X, ((h, 0), (0, h)))  # nu = (1/2, 1/2)
    off = Fraction(1, 100)
    mu2 = Measure(X, (h - off, h + off))
    gamma_prime = Coupling(
        X, ((h - off, 0), (0, h + off)), mu=mu2, nu=mu2
    )
    return gamma, gamma_prime


def unpivoted_transport_basis():
    """The exact transport solver stopped before its first pivot.

    Three points with c between a and b: d(a, b) = 2, d(a, c) =
    d(b, c) = 1; mu = (1/2, 1/2, 0), nu = (0, 1/2, 1/2).  The
    northwest-corner basis ships a to b and b to c at cost 3/2, while the
    optimum sends a to c and leaves b in place at cost 1/2.  Its plan is
    a coupling and the c-transform of its tree potential is 1-Lipschitz,
    so only the zero-gap and complementary-slackness laws of the
    certificate can catch it.  Returns (mu, nu, gamma, u)."""
    X = FiniteMetricSpace(
        points=["a", "b", "c"],
        dist=[[0, 2, 1], [2, 0, 1], [1, 1, 0]],
    )
    h = Fraction(1, 2)
    mu = Measure(X, (h, h, 0))
    nu = Measure(X, (0, h, h))
    supply, demand, L = _common(mu._int, nu._int)
    cost, D = X._int
    basis = _northwest_corner(supply, demand)
    flows, u = _read_basis(cost, basis, _basis_tree(cost, basis)[-1])
    return (mu, nu, tuple(tuple(Fraction(v, L) for v in row) for row in flows),
            tuple(Fraction(v, D) for v in u))


def marginal_off_by_one_unit():
    """The certified optimum for mu = (1/2, 1/3, 1/6), nu = (1/6, 1/3, 1/2)
    on three points of a line, less one unit of L = 6 at the cell (a, a):
    row a sums to 1/3 against 1/2.  d = 0 there, so cost, gap and
    slackness stay the optimum's and only the marginal law can catch it.
    Returns (mu, nu, gamma, u) with the certified potential u."""
    sixth = Fraction(1, 6)
    mu = Measure(_three_point_space(), (3 * sixth, 2 * sixth, sixth))
    nu = Measure(mu.space, mu.weights[::-1])
    res = kantorovich(mu, nu)
    gamma = [list(row) for row in res.plan.gamma]
    gamma[0][0] -= sixth
    return mu, nu, gamma, res.potential.values


def composite_off_by_one_unit():
    """The composite of mu (x) mu and mu (x) nu on three points of a line,
    mu = (1/2, 1/3, 1/6) and nu its mirror, built by the trusted
    constructor with (0, 1/2, 1/2) as its second marginal: one unit of
    L = 6 moved from point 0 to 1.  Only the outer-marginal law sees it."""
    sixth = Fraction(1, 6)
    mu = Measure(_three_point_space(), (3 * sixth, 2 * sixth, sixth))
    nu = Measure(mu.space, mu.weights[::-1])
    ab = compose_plans(product_plan(mu, mu), product_plan(mu, nu))
    return _built(mu.space, *ab._int, mu,
                  Measure(mu.space, (0, 3 * sixth, 3 * sixth)))


# ---------------------------------------------------------------------------
# the planted suite


def run_planted_suite(seed: int = 0, samples: int = 200):
    """Run each planted fixture through the honest checker it is built
    to fail.  Returns a list of (name, ValidationReport).  A healthy
    library produces a RED list here: every report must contain at
    least one failed law.  The CLI turns that red into exit code 1."""
    n = min(samples, 120)

    def nondegeneracy(model):
        return check_A3(model, BoundedSampler(model, n=n, seed=seed),
                        grid=dyadic_grid(kmax=8))

    def battery(model, offset):
        quads = sample_point_quads(model, np.random.default_rng(seed + offset),
                                   n=n)
        return check_pplay(gamma_irq_from_dilation(model), quads)

    wrong = wrong_exponent_euclidean()
    arrows = wrong.sample_fiber_arrows(np.random.default_rng(seed), samples)
    rep = ValidationReport(subject=wrong.name)
    hom = LawCheck("d(delta_s a) = |s| d(a)")
    rep.add(hom)
    for s in map(batch, chunks(dyadic_grid(kmax=4), len(arrows))):
        _judge_rows(hom, s, wrong.norm(wrong.delta(s, arrows)),
                    kernel_modulus(s) * wrong.norm(arrows), 1e-9, {"scale": s})
    out = [
        ("squared dilation exponent vs norm homogeneity", rep),
        ("squared dilation exponent vs limit nondegeneracy",
         nondegeneracy(wrong)),
        ("dropped correction term vs based-operation identities",
         battery(dropped_correction_heisenberg(), 1)),
        ("NaN dilatations below eps = 0.2 vs the identity battery",
         battery(nan_below_heisenberg(), 2)),
        ("flat horizontal gauge vs limit nondegeneracy",
         nondegeneracy(flat_gauge_heisenberg())),
        ("retargeted composition vs groupoid typing",
         validate_groupoid(retargeted_compose_groupoid())),
        ("broken loops vs right translation of fiber distances",
         check_fiber_distances(broken_loops())),
        ("composite outside its fiber vs right translation",
         check_fiber_distances(misplaced_composite_groupoid())),
        ("double norm off at one pair vs d~ = d o dif",
         check_double_norm(*off_pair_double_groupoid())),
        ("inflated norm entry vs subadditivity",
         check_norm(inflated_norm_groupoid())),
        ("identically zero seminorms vs separation",
         check_seminorm_family(*non_separating_seminorms())),
    ]

    rep = ValidationReport(subject="mismatched transport pair")
    law = LawCheck("planted pair has matching middle marginals")
    rep.add(law)
    gamma, gamma_prime = mismatched_transport_pair()
    try:
        compose_plans(gamma, gamma_prime)
        law.note = "composed silently — the mismatch went unnoticed"
        law.judge(False, index=None)
    except MarginalMismatch as e:
        law.judge(False, index=e.index, left=str(e.left), right=str(e.right))
    out.append(("mismatched middle marginals vs composability", rep))

    h = Fraction(1, 2)  # a 2 x 3 plan, a 2-value potential: each sum right
    mu = Measure(_three_point_space(), (h, h, 0))
    for name, planted in (
            ("unpivoted transport basis", unpivoted_transport_basis()),
            ("plan one unit short of its marginal",
             marginal_off_by_one_unit()),
            ("misshapen 2 x 3 plan and potential",
             (mu, mu, ((h, 0, 0), (0, h, 0)), (0, 0)))):
        out.append((f"{name} vs the optimality certificate",
                    check_kantorovich_certificate(*planted)))

    rep = ValidationReport(subject="composite off by one unit")
    law = LawCheck(_OUTER)
    rep.add(law)
    _judge_outer(law, composite_off_by_one_unit())
    out.append(("composite one unit off its second marginal vs its "
                "factors' outer marginals", rep))
    return out
