"""Certification of the zero-scale limit structures: residual judging,
extrapolation, the limit axioms on both models, and the planted failures
the estimators must catch."""

import numpy as np
import pytest
from fractions import Fraction

from ngd.fixtures import flat_gauge_heisenberg, wrong_exponent_euclidean
from ngd.limits import (
    BoundedSampler,
    check_A3,
    check_A3mod_A4,
    check_A4weak,
    check_translation_groupoid,
    cone_check,
    estimate_from_residuals,
    fiber_dilatation_structure,
    gh_estimate,
    limit_of_values,
    richardson,
    translation_groupoid,
    uniform_limit,
)
from ngd.models import euclidean_model, heisenberg_model
from ngd.scales import Scale, dyadic_grid

E2 = euclidean_model(dim=2)
H = heisenberg_model()


class TestResidualJudging:
    eps = [2.0**-k for k in range(1, 21)]

    def test_order_one_trace_passes(self):
        resid = [3.0 * e for e in self.eps]
        est = estimate_from_residuals("demo", self.eps, resid, tol=1e-4)
        assert est.passed
        assert est.order == pytest.approx(1.0, abs=0.05)

    def test_order_two_trace_reports_two(self):
        resid = [0.7 * e**2 for e in self.eps]
        est = estimate_from_residuals("demo", self.eps, resid, tol=1e-4)
        assert est.passed
        assert est.order == pytest.approx(2.0, abs=0.05)

    def test_stalled_trace_fails(self):
        resid = [3.0 * e + 0.01 for e in self.eps]
        est = estimate_from_residuals("demo", self.eps, resid, tol=1e-4)
        assert not est.passed

    def test_noise_floor_means_exact(self):
        resid = [1e-16] * len(self.eps)
        est = estimate_from_residuals("demo", self.eps, resid, tol=1e-8)
        assert est.passed
        assert "noise floor" in est.note

    def test_non_finite_residual_fails_wherever_it_sits(self):
        for bad in (np.nan, np.inf):
            for i in (0, 5, 18):  # head, middle, inside the tail
                resid = [3.0 * e for e in self.eps]
                resid[i] = bad
                est = estimate_from_residuals("demo", self.eps, resid,
                                              tol=1e-4)
                assert not est.passed, (bad, i)
                assert "non-finite residual" in est.note
                assert est.order == pytest.approx(1.0, abs=0.05)

    def test_growing_tail_fails_even_below_tol(self):
        resid = [1e-7 * 2**k for k in range(20)]  # grows as eps shrinks
        est = estimate_from_residuals(
            "demo", self.eps, resid, tol=1.0, require_decreasing=True
        )
        assert not est.passed


def test_richardson_cancels_order_one_error():
    eps = [2.0**-k for k in range(1, 12)]
    values = [5.0 + 3.0 * e for e in eps]
    assert richardson(eps, values, 1.0) == pytest.approx(5.0, abs=1e-12)


def test_limit_of_values_vector_mode():
    # candidate-free: residuals are successive differences, the limit is
    # the Richardson-extrapolated last value (exact for a pure eps term)
    eps = [2.0**-k for k in range(1, 31)]
    values = [np.array([1.0 + e, -2.0 + 3 * e]) for e in eps]
    est = limit_of_values("vec", eps, values, tol=1e-6)
    assert est.passed, est.line()
    assert np.allclose(est.value, [1.0, -2.0], atol=1e-9)


def test_limit_of_values_with_candidate():
    eps = [2.0**-k for k in range(1, 31)]
    values = [np.array([1.0 + e]) for e in eps]
    est = limit_of_values("cand", eps, values, candidate=np.array([1.0]),
                          tol=1e-6)
    assert est.passed
    bad = limit_of_values("cand", eps, values, candidate=np.array([1.5]),
                          tol=1e-6)
    assert not bad.passed


def test_uniform_limit_on_a_family():
    xs = np.linspace(-1, 1, 50)

    def fam(s):
        return xs + float(s.modulus) * np.cos(xs)

    est = uniform_limit("unif", fam, xs, grid=dyadic_grid(kmax=30),
                        tol=1e-6)
    assert est.passed, est.line()
    assert est.order == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("model", [E2, H], ids=["euclidean", "heisenberg"])
class TestLimitAxioms:
    def sampler(self, model):
        return BoundedSampler(model, n=120, seed=3)

    def test_rescaled_distance_converges(self, model):
        rep = check_A3(model, self.sampler(model))
        assert rep.passed, rep.summary()

    def test_two_scale_dilatations_converge(self, model):
        rep = check_A4weak(model, self.sampler(model))
        assert rep.passed, rep.summary()

    def test_strong_limit_bridge(self, model):
        rep = check_A3mod_A4(model, self.sampler(model))
        assert rep.passed, rep.summary()

    def test_limit_cone_structure(self, model):
        rep = cone_check(model, self.sampler(model))
        assert rep.passed, rep.summary()

    def test_distortion_estimate(self, model):
        est = gh_estimate(model, self.sampler(model))
        assert est.passed, est.line()

    def test_fiber_structure_at_an_off_origin_base(self, model):
        x = np.full(model.group.dim, 0.5)
        _, rep = fiber_dilatation_structure(model, x=x)
        assert rep.passed, rep.summary()

    def test_translation_structure(self, model):
        rep = check_translation_groupoid(model, n=300)
        assert rep.passed, rep.summary()


def test_translation_arrows_move_the_base():
    T, rep = translation_groupoid(H, scale=Fraction(1, 16), n=200)
    assert rep.passed, rep.summary()
    rng = np.random.default_rng(11)
    u = H.sample_points(rng, 5)
    moved = T.moved_base(u)
    assert moved.shape == u.shape
    # at scale eps the moved base is x . D_eps(u): tiny but not fixed
    assert not np.allclose(moved, T.x)


def test_wrong_exponent_diverges():
    """The squared-exponent family still satisfies the action laws, so the
    divergence only shows up in the limit estimates — the rescaled
    distance runs away instead of converging."""
    bad = wrong_exponent_euclidean()
    rep = check_A3(bad, BoundedSampler(bad, n=80, seed=5),
                   grid=dyadic_grid(kmax=8))
    assert not rep.passed


def test_flat_gauge_fails_nondegeneracy_with_witness():
    bad = flat_gauge_heisenberg()
    rep = check_A3(bad, BoundedSampler(bad, n=80, seed=5))
    assert not rep.passed
    broken = [c for c in rep.laws if not c.passed]
    assert broken, rep.summary()
    w = broken[0].witnesses[0]
    # the witness pair is vertical: distinct points at tangent distance 0
    assert "target_g" in w and "target_h" in w