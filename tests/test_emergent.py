"""Approximate operations induced by the dilations, and the quasigroup
structure they carry at every fixed scale."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ngd.core import LawCheck
from ngd.emergent import (
    Delta3,
    Delta_eps,
    Sigma3,
    Sigma_eps,
    check_based_compat,
    check_gamma_irq,
    check_irq,
    check_pplay,
    gamma_irq_from_dilation,
    inv_eps,
    sample_point_quads,
)
from ngd.fixtures import dropped_correction_heisenberg, nan_below_heisenberg
from ngd.models import euclidean_model, heisenberg_model
from ngd.scales import Scale
from references import dif_eps, iterate_irq, z_irq_from_iterates

E1 = euclidean_model(dim=1)
H = heisenberg_model()

coords = st.floats(min_value=-6, max_value=6, allow_nan=False,
                   allow_infinity=False)


def arrow1(target, source):
    """A single dim-1 arrow as the (1, 2, 1) array the model vectorizes."""
    return np.array([[[float(target)], [float(source)]]])


class TestFrozenEuclideanValues:
    """Hand-computed values for the flat line at eps = 1/10.  These pin
    the operation ORDER as much as the numbers: the first arrow argument
    is the g of g - h + eps h."""

    s = Scale(Fraction(1, 10))

    def test_approximate_difference(self):
        out = Delta_eps(E1, self.s, arrow1(3, 0), arrow1(1, 0))
        assert np.allclose(out[0, 0, 0], 2.1, atol=1e-14)

    def test_approximate_sum(self):
        out = Sigma_eps(E1, self.s, arrow1(3, 0), arrow1(1, 0))
        assert np.allclose(out[0, 0, 0], 3.9, atol=1e-14)

    def test_approximate_inverse(self):
        out = inv_eps(E1, self.s, arrow1(2, 0))
        assert np.allclose(out[0, 0, 0], -1.8, atol=1e-14)

    def test_difference_sum_round_trip(self):
        # Sigma_eps(Delta_eps(g, h), h) = g is exact groupoid algebra:
        # the action law undoes every dilation the two operations apply
        g, h = arrow1(3, 0), arrow1(1, 0)
        assert np.allclose(
            Sigma_eps(E1, self.s, Delta_eps(E1, self.s, g, h), h), g,
            atol=1e-12,
        )


class TestFrozenHeisenbergValues:
    """The based difference at the identity has a closed form on the first
    layer: for u = (1,0,0), v = (0,1,0) it is (eps-1, 1, (eps-1)/2) at
    every scale, and the based sum converges to the group product."""

    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])

    def test_based_difference_formula_at_every_scale(self):
        e = H.e()
        for k in range(1, 16):
            eps = 1.0 / 2**k
            out = Delta3(H, Scale(Fraction(1, 2**k)), e, self.u, self.v)
            want = np.array([eps - 1.0, 1.0, (eps - 1.0) / 2.0])
            assert np.allclose(out, want, atol=1e-12), k

    def test_based_sum_approaches_group_product(self):
        e = H.e()
        want = H.group.mul(self.u, self.v)  # = (1, 1, 1/2)
        resid = [
            np.max(np.abs(
                Sigma3(H, Scale(Fraction(1, 2**k)), e, self.u, self.v)
                - want
            ))
            for k in range(1, 24)
        ]
        assert resid[-1] < 1e-6
        assert resid[-1] < resid[0]

    def test_arrow_level_orientation_mirrors_the_based_one(self):
        # arrow-level Delta_eps(g, h) reads "g minus h"; the based route
        # reads "v relative to u" -- the two frozen values must cross-match
        e = np.zeros(3)
        g = H.arrow(self.u, e)
        h = H.arrow(self.v, e)
        s = Scale(Fraction(1, 4))
        arrow_out = H.target(Delta_eps(H, s, h, g))
        based_out = Delta3(H, s, e, self.u, self.v)
        assert np.allclose(arrow_out, based_out, atol=1e-13)


class TestIrqLaws:
    """P1/P2 for the dilatation quasigroup at a fixed scale, on arbitrary
    (bounded) float points."""

    Q = gamma_irq_from_dilation(H).at(Fraction(1, 2))

    @given(st.tuples(coords, coords, coords).map(np.array),
           st.tuples(coords, coords, coords).map(np.array))
    @settings(max_examples=60, deadline=None)
    def test_p1_both_ways(self, x, y):
        assert np.allclose(self.Q.op(x, self.Q.opinv(x, y)), y, atol=1e-9)
        assert np.allclose(self.Q.opinv(x, self.Q.op(x, y)), y, atol=1e-9)

    @given(st.tuples(coords, coords, coords).map(np.array))
    @settings(max_examples=40, deadline=None)
    def test_p2_idempotence(self, x):
        assert np.allclose(self.Q.op(x, x), x, atol=1e-12)
        assert np.allclose(self.Q.opinv(x, x), x, atol=1e-12)


def test_irq_report_on_samples():
    rng = np.random.default_rng(0)
    for model in (E1, H):
        xs = model.sample_points(rng, 400)
        ys = model.sample_points(rng, 400)
        Q = gamma_irq_from_dilation(model).at(Fraction(1, 2))
        rep = check_irq(Q, xs, ys)
        assert rep.passed, rep.summary()


def test_scale_family_composition_law():
    rng = np.random.default_rng(1)
    for model in (E1, H):
        xs = model.sample_points(rng, 300)
        ys = model.sample_points(rng, 300)
        rep = check_gamma_irq(gamma_irq_from_dilation(model), xs, ys)
        assert rep.passed, rep.summary()


def test_iterates_realize_dyadic_scales():
    """(op_s)^k = op_{s^k}: iterating the half-scale dilatation k times
    is the 2^-k dilatation, both directions of k."""
    rng = np.random.default_rng(2)
    x = H.sample_points(rng, 100)
    y = H.sample_points(rng, 100)
    Q = gamma_irq_from_dilation(H).at(Fraction(1, 2))
    for k in (-3, -2, -1, 1, 2, 3):
        got = iterate_irq(Q, k)(x, y)
        want = H.point_dilatation(Scale(Fraction(1, 2) ** k), x, y)
        assert np.allclose(got, want, atol=1e-9), k


def test_integer_indexed_family_from_iterates():
    rng = np.random.default_rng(3)
    x = H.sample_points(rng, 150)
    y = H.sample_points(rng, 150)
    Z = z_irq_from_iterates(gamma_irq_from_dilation(H).at(Fraction(1, 2)))
    rep = check_gamma_irq(Z, x, y)
    assert rep.passed, rep.summary()


def test_identity_battery_both_models():
    rng = np.random.default_rng(4)
    for model in (E1, H):
        quads = sample_point_quads(model, rng, n=300)
        rep = check_pplay(gamma_irq_from_dilation(model), quads)
        assert rep.passed, rep.summary()


def test_based_and_arrow_operations_agree():
    for model in (E1, H):
        rep = check_based_compat(model)
        assert rep.passed, rep.summary()


def test_route_identity_for_the_blown_up_difference():
    # composing dif_eps with delta_eps h recovers Delta_eps
    rng = np.random.default_rng(5)
    g = H.sample_fiber_arrows(rng, 200)
    h = H.sample_fiber_arrows(rng, 200)
    s = Scale(Fraction(1, 8))
    via_dif = H.compose(dif_eps(H, s, g, h), H.delta(s, h))
    assert np.allclose(via_dif, Delta_eps(H, s, g, h), atol=1e-10)


def test_dropped_correction_term_fails_the_battery():
    """Mutation check: erase the bracket term of the based dilatation and
    the battery must notice away from the origin."""
    rng = np.random.default_rng(6)
    bad = dropped_correction_heisenberg()
    quads = sample_point_quads(bad, rng, n=120)
    rep = check_pplay(gamma_irq_from_dilation(bad), quads)
    assert not rep.passed
    broken = [c for c in rep.laws if not c.passed]
    assert broken and broken[0].witnesses


def test_judge_fails_a_non_finite_residual_with_its_first_sample():
    for bad in (np.nan, np.inf):
        law = LawCheck("demo")
        resid = np.array([0.0, 1e-20, bad, 1e-20, np.nan])
        law.judge_residuals(resid, 1e-10, x=np.arange(5.0))
        assert not law.passed and (law.checked, law.failures) == (5, 2)
        w = law.witnesses[0]
        assert w["sample"] == 2 and w["x"] == 2.0
    law = LawCheck("finite and small")
    law.judge_residuals(np.array([0.0, 1e-20]), 1e-10)
    assert law.passed


def test_irq_witnesses_name_their_scale_and_count_each_sample():
    """check_irq judges P1 (two clauses) and P2 per sample at each scale of
    its batch, and a failing law's witness names that scale as eps."""
    bad = nan_below_heisenberg()
    x, y = sample_point_quads(bad, np.random.default_rng(3), n=40)[:2]
    rep = check_gamma_irq(gamma_irq_from_dilation(bad), x, y)
    irq = [c for c in rep.laws if c.law.startswith(("P1", "P2"))]
    assert [c.checked for c in irq] == [80] * 10  # two clauses of 40 each
    failed = [c for c in irq if not c.passed]
    assert [c.witnesses[0]["eps"] for c in failed] == [
        "1/8", "1/8", "1/16", "1/16", "1/32", "1/32"]
    assert all(0 < c.failures <= c.checked for c in failed)


def test_nan_kernel_fails_the_battery():
    """Mutation check: NaN dilatations below eps = 0.2 compare NaN with
    NaN, which `residual > tol` alone would let through."""
    bad = nan_below_heisenberg()
    quads = sample_point_quads(bad, np.random.default_rng(7), n=60)
    rep = check_pplay(gamma_irq_from_dilation(bad), quads)
    assert not rep.passed
    broken = [c for c in rep.laws if not c.passed]
    assert broken and all(np.isnan(c.witnesses[0]["residual"]) for c in broken)
    # every output is NaN at those scales, so the first sample is the witness
    assert all(c.witnesses[0]["sample"] == 0 for c in broken)
