"""Certification of the zero-scale limit structures: residual judging,
extrapolation, the limit axioms on both models, and the planted failures
the estimators must catch."""

import contextlib
import io
import json
from dataclasses import asdict

import numpy as np
import pytest
from fractions import Fraction

from ngd import cli, limits, models, scales, transport
from ngd.core import LawCheck
from ngd.emergent import (_per_sample, check_gamma_irq, check_pplay,
                          gamma_irq_from_dilation, sample_point_quads)
from ngd.fixtures import (
    dropped_correction_heisenberg,
    flat_gauge_heisenberg,
    nan_below_heisenberg,
    wrong_exponent_euclidean,
)
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
    uniform_limit,
)
from ngd.models import DoubleModel, check_A2, euclidean_model, heisenberg_model
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


def test_order_one_trace_with_a_large_tail_still_fails():
    """1 + 1e6 eps on 2^-1 .. 2^-36 converges at order 1, but the
    differences still to come sum to 1e6 2^-36, about 1.5e-5 > tol."""
    eps = [2.0**-k for k in range(1, 37)]
    est = limit_of_values("big", eps, [1.0 + 1e6 * e for e in eps])
    assert est.order == pytest.approx(1.0, abs=0.05)
    assert not est.passed and "tail bound" not in est.note


def test_residuals_against_a_candidate():
    """A trace against a known limit: max |v - candidate| per scale."""
    eps = [2.0**-k for k in range(1, 31)]
    values = [np.array([1.0 + e]) for e in eps]

    def against(c):
        return estimate_from_residuals(
            "cand", eps, [np.max(np.abs(v - c)) for v in values], tol=1e-6)

    assert against(np.array([1.0])).passed
    assert not against(np.array([1.5])).passed


def test_uniform_limit_on_a_family():
    xs = np.linspace(-1, 1, 50)

    def fam(s):  # a chunk of k scales: s.modulus is their (k, 1) column
        return xs + s.modulus * np.cos(xs)

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
    s, x = Scale(Fraction(1, 16)), H.e()
    rng = np.random.default_rng(23)
    u, v, w = (H.sample_points(rng, 200, 4.0, center=x) for _ in range(3))
    rep = limits._translation_laws(H, s, u, v, w)
    assert rep.passed, rep.summary()
    rng = np.random.default_rng(11)
    u = H.sample_points(rng, 5)
    moved = H.point_dilatation(s, x, u)
    assert moved.shape == u.shape
    # at scale eps the moved base is x . D_eps(u): tiny but not fixed
    assert not np.allclose(moved, x)


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

# ---------------------------------------------------------------------------
# the scale grid as one batch axis


SWEPT = {
    "heisenberg": heisenberg_model,
    "euclidean3": lambda: euclidean_model(dim=3),
    "wrong_exponent": wrong_exponent_euclidean,
    "dropped_correction": dropped_correction_heisenberg,
    "nan_below": nan_below_heisenberg,
    "flat_gauge": flat_gauge_heisenberg,
}


def _sweeps(model, n):
    """The traces of every driver that sweeps a grid, on n-point clouds,
    as JSON text: a NaN residual equals itself, -0.0 differs from 0.0."""
    sampler = BoundedSampler(model, n=n, seed=5)
    arrows = sampler.arrow_pairs()[0]
    pairs = DoubleModel(model).pair(*sampler.arrow_pairs())
    ests = (check_A3(model, sampler).limits
            + check_A4weak(model, sampler).limits
            + check_A3mod_A4(model, sampler).limits
            + [gh_estimate(model, sampler)]
            + fiber_dilatation_structure(
                model, sampler=BoundedSampler(model, n=n, seed=11))[1].limits
            + check_A2(model, arrows).limits
            + check_A2(DoubleModel(model), pairs).limits)
    return json.dumps([e.to_json() for e in ests], sort_keys=True)


def _chunk_sizes(monkeypatch):
    """Record the size of every chunk of scales a sweep hands its families."""
    sizes = []

    class Recorded(limits.ScaleBatch):
        @staticmethod
        def of(chunk):  # a shared batch is built once, handed out often
            sizes.append(len(chunk))
            return scales.ScaleBatch.of(chunk)

    monkeypatch.setattr(limits, "ScaleBatch", Recorded)
    return sizes


@pytest.mark.parametrize("name", sorted(SWEPT))
@pytest.mark.parametrize("n", [200, limits.CHUNK_POINTS // 7,
                               limits.CHUNK_POINTS + 1])
def test_batched_sweeps_match_one_scale_per_chunk(monkeypatch, name, n):
    """Each scale enters its kernels as the float it would alone and is
    reduced on its own, so every trace is the one-scale-per-chunk trace
    bit for bit: residuals, order, note and verdict, planted carriers and
    their NaNs included."""
    model = SWEPT[name]()
    sizes = _chunk_sizes(monkeypatch)
    got = _sweeps(model, n)
    if n == 200:  # the whole grid goes in one chunk
        assert set(sizes) == {20, 6}
    elif n > limits.CHUNK_POINTS:
        assert set(sizes) == {1}
    else:  # chunks of several scales, the last one short
        assert max(sizes) > 1 and min(sizes) < max(sizes)
    monkeypatch.setattr(scales, "CHUNK_POINTS", 1)
    sizes.clear()
    assert got == _sweeps(model, n)
    assert set(sizes) == {1}


def _count_sweep_kernels(monkeypatch):
    """The scale (float or column shape) of every carrier point_dilatation
    call made inside uniform_limits, and of every call made outside."""
    inside, calls, outside = [], [], []
    sweep = limits.uniform_limits

    def counting_sweep(*args, **kwargs):
        inside.append(1)
        try:
            return sweep(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(limits, "uniform_limits", counting_sweep)
    for cls in (models.HeisenbergGroup, models.EuclideanGroup):
        def counting(self, s, x, y, kernel=cls.point_dilatation):
            (calls if inside else outside).append(np.shape(s))
            return kernel(self, s, x, y)

        monkeypatch.setattr(cls, "point_dilatation", counting)
    return calls, outside


def test_report_sweeps_run_each_kernel_once_per_chunk(monkeypatch):
    """report --suite all sweeps 18 times on 200-point clouds, each grid in
    one chunk: 50 kernel calls, where one scale per call made 804."""
    calls, _ = _count_sweep_kernels(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", "--suite", "all", "--json"]) == 0
    assert len(calls) == 50
    # the whole grid as one column, or a float mu of a two-scale dilatation
    assert set(calls) == {(20, 1), (6, 1), ()}


def test_report_makes_its_kernel_calls_in_chunks(monkeypatch):
    """report --suite all makes 424 carrier kernel calls in all, where
    one scale per call outside the sweeps made 1,574: the batteries, the
    irq family, A1, A2's fixed units, the induced double dilation and the
    planted homogeneity law each take a chunk of scales per call, and
    each check computes a cloud it shares once (492 calls when each law
    computed its own)."""
    calls, outside = _count_sweep_kernels(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", "--suite", "all", "--json"]) == 0
    assert len(calls) + len(outside) == 424


# Carrier kernel calls of each analytic-batch check, per carrier, at
# CHUNK_POINTS + 1 points: one scale per chunk, as at 2e4 points.  Each
# check computes a cloud it shares once; 783 calls in all (868 when each
# law computed its own).
KERNEL_CENSUS = {
    "check_pplay": 257,
    "check_gamma_irq": 65,
    "check_A3": 40,
    "check_A4weak": 169,
    "check_A3mod_A4": 87,
    "cone_check": 21,
    "gh_estimate": 40,
    "check_translation_groupoid": 42,
    "fiber_dilatation_structure": 62,
}


@pytest.mark.parametrize("model", [H, euclidean_model(dim=3)],
                         ids=["heisenberg", "euclidean3"])
def test_analytic_batch_checks_make_the_census_kernel_calls(monkeypatch,
                                                            model):
    n = scales.CHUNK_POINTS + 1
    quads = sample_point_quads(model, np.random.default_rng(0), n)
    G = gamma_irq_from_dilation(model)
    runs = {
        "check_pplay": lambda: check_pplay(G, quads),
        "check_gamma_irq": lambda: check_gamma_irq(G, *quads[:2]),
        "check_translation_groupoid": lambda: check_translation_groupoid(
            model, n=n),
        "fiber_dilatation_structure": lambda: fiber_dilatation_structure(
            model, sampler=BoundedSampler(model, n=n)),
    }
    for name in ("check_A3", "check_A4weak", "check_A3mod_A4", "cone_check",
                 "gh_estimate"):
        runs[name] = lambda check=getattr(limits, name): check(
            model, BoundedSampler(model, n=n))
    calls, outside = _count_sweep_kernels(monkeypatch)
    census = {}
    for name, run in runs.items():
        run()
        census[name] = len(calls) + len(outside)
        calls.clear()
        outside.clear()
    assert census == KERNEL_CENSUS


def test_report_checks_only_the_plans_and_measures_it_reads(monkeypatch):
    """report --suite all runs the checked construction on the three plans
    the seven-plan fixture writes out (two marginal checks each) and on 11
    measures (the fixture's, its plans' marginals and the duality
    check's).  When every plan the algebra built was settled, the report
    ran 1,578 plan settles, 3,156 marginal checks and 756 measure checks:
    the built plans are trusted now, and check_transport judges their
    marginals as a counted law."""
    checked = []
    for cls, name in ((transport.Coupling, "__post_init__"),
                      (transport.Coupling, "_marginal"),
                      (transport.Measure, "__post_init__")):
        def counting(self, *args, run=getattr(cls, name),
                     key=f"{cls.__name__}.{name}"):
            checked.append(key)
            return run(self, *args)

        monkeypatch.setattr(cls, name, counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", "--suite", "all", "--json"]) == 0
    assert [checked.count(key) for key in (
        "Coupling.__post_init__", "Coupling._marginal",
        "Measure.__post_init__")] == [3, 6, 11]


def test_large_clouds_sweep_one_scale_per_call(monkeypatch):
    """At 2e4 points a chunk is one scale: check_A3 and check_A4weak make
    the per-scale calls they made before the grid became a batch axis."""
    calls, outside = _count_sweep_kernels(monkeypatch)
    sampler = BoundedSampler(H, n=20000, seed=1)
    check_A3(H, sampler)
    assert len(calls) == 20 * 2
    assert not outside  # the finest scale is read off the last chunk
    calls.clear()
    check_A4weak(H, sampler)
    assert len(calls) == 20 * (2 + 2 * len(limits.MUS))
    assert set(calls) == {(1, 1), ()}


@pytest.mark.parametrize("model", [H, euclidean_model(dim=3)],
                         ids=["heisenberg", "euclidean3"])
def test_translation_laws_compute_the_based_sum_once_per_scale(monkeypatch,
                                                               model):
    """Per scale, 21 kernel calls: u o v = Sigma3(x; u, v), the moved
    base x circ_s u, its dilatations of v and w and the moved base of
    u o v are each computed once and read by every law that needs them
    (30 when only u o v was shared, 36 when each law computed it
    again)."""
    calls, outside = _count_sweep_kernels(monkeypatch)
    rep = check_translation_groupoid(model, n=50)
    assert rep.passed, rep.summary()
    assert not calls and len(outside) == 2 * 21


def test_check_A3_reads_the_finest_scale_off_its_sweep(monkeypatch):
    """On a report cloud the grid is one 20-scale chunk, and the
    nondegeneracy clause reads the finest scale off its last row: no
    kernel call outside the sweep."""
    calls, outside = _count_sweep_kernels(monkeypatch)
    check_A3(H, BoundedSampler(H))
    assert calls == [(20, 1)] * 2
    assert not outside


def _recomputed_nondegeneracy(model, sampler, grid):
    """check_A3's nondegeneracy clause with the finest scale computed
    again, one Scale per kernel call."""
    g, h = sampler.arrow_pairs()
    probes = model.probe_fiber_arrows(sampler.base)
    G = np.concatenate([g, probes], axis=0)
    H = np.concatenate([h, np.broadcast_to(model.unit(sampler.base),
                                           probes.shape)], axis=0)
    dt0 = model.tangent_pair_dist(G, H)
    finest = limits.rescaled_pair_distance(model, grid[-1], G, H)
    sep_mask = _per_sample(model.target(G), model.target(H)) > 0.05
    degenerate = sep_mask & ~((dt0 > 1e-7) & (finest > 1e-7))
    law = LawCheck("nondegeneracy: distinct arrows keep positive tangent "
                   "distance")
    for i in np.nonzero(sep_mask)[0]:
        law.judge(not degenerate[i], build=lambda: dict(
            target_g=model.target(G)[i].tolist(),
            target_h=model.target(H)[i].tolist(),
            tangent_distance=float(dt0[i]),
            rescaled_at_finest=float(finest[i])))
    return law


@pytest.mark.parametrize("n", [120, limits.CHUNK_POINTS + 1])
def test_nondegeneracy_matches_the_recomputed_finest_scale(n):
    """The witnesses of the red flat-gauge report are float for float
    those of a one-scale call at the finest scale, with the grid in one
    chunk and with one scale per chunk."""
    model, grid = flat_gauge_heisenberg(), dyadic_grid(kmax=8)
    sampler = BoundedSampler(model, n=n, seed=0)
    law = check_A3(model, sampler, grid).laws[-1]
    ref = _recomputed_nondegeneracy(model, sampler, grid)
    assert not law.passed and law.witnesses
    assert json.dumps(asdict(law)) == json.dumps(asdict(ref))


def test_nan_distances_fail_the_nondegeneracy_law():
    """nan_below_heisenberg dilates to NaN below eps = 0.2, so the rescaled
    distance at the finest scale is NaN for every sample: a degenerate
    distance, not a positive one, and every one of them is counted."""
    model = nan_below_heisenberg()
    rep = check_A3(model, BoundedSampler(model, n=50), dyadic_grid(kmax=8))
    law = rep.law("nondegeneracy: distinct arrows keep positive tangent "
                  "distance")
    assert law.checked == law.failures == 68
    assert all(np.isnan(w["rescaled_at_finest"]) for w in law.witnesses)
