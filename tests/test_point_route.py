"""The point route of the emergent traces against the arrow route it
replaced.

`check_A3mod_A4` reads its difference traces off target columns through
`point_dilatation`, `check_pplay`, `cone_check` and the translation laws
compute each shared intermediate once, and `arrow_dilatation` builds only
its result arrow.  The references (below, and `ref_check_pplay`,
`ref_cone_check` and `ref_translation_laws` in tests/references.py) are
the earlier implementations, kept verbatim: they build every arrow and
recompute every intermediate.  Every report must come out byte-identical,
witnesses and their order included, on every carrier class, planted ones
too.  Reports are compared as JSON text, so a NaN residual compares equal
to itself and -0.0 differs from 0.0."""

import json
from fractions import Fraction

import numpy as np
import pytest

from ngd import limits, models, scales
from ngd.core import LawCheck, ValidationReport
from ngd.emergent import (
    Delta_eps,
    GammaIrq,
    Sigma_eps,
    _per_sample,
    arrow_dilatation,
    check_gamma_irq,
    check_pplay,
    gamma_irq_from_dilation,
    inv_eps,
    sample_point_quads,
)
from ngd.fixtures import (
    dropped_correction_heisenberg,
    flat_gauge_heisenberg,
    nan_below_heisenberg,
    wrong_exponent_euclidean,
)
from ngd.limits import (
    EPS_STAR,
    MUS,
    BoundedSampler,
    check_A3mod_A4,
    check_A4weak,
    fiber_dilatation_structure,
    rescaled_norm,
    rescaled_pair_distance,
    uniform_limit,
)
from ngd.models import (
    DoubleModel,
    euclidean_model,
    heisenberg_model,
    restricted_euclidean_model,
)
from ngd.scales import Scale, as_scale, dyadic_grid
from references import (
    dif_eps,
    ref_check_pplay,
    ref_cone_check,
    ref_translation_laws,
    two_scale_dilatation,
    z_irq_from_iterates,
)

CARRIERS = {
    "heisenberg": heisenberg_model,
    "euclidean1": lambda: euclidean_model(dim=1),
    "euclidean3": lambda: euclidean_model(dim=3),
    "restricted_euclidean": restricted_euclidean_model,
    "dropped_correction": dropped_correction_heisenberg,
    "wrong_exponent": wrong_exponent_euclidean,
    "nan_below": nan_below_heisenberg,
    "flat_gauge": flat_gauge_heisenberg,
}


@pytest.fixture(params=sorted(CARRIERS))
def model(request):
    return CARRIERS[request.param]()


# ---------------------------------------------------------------------------
# the arrow-route references


def ref_arrow_dilatation(model, scale, base, a):
    return model.compose(model.delta(scale, model.dif(a, base)), base)


def ref_Delta_eps(model, scale, g, h):
    s = as_scale(scale)
    return ref_arrow_dilatation(model, s.inv(), model.delta(s, h),
                                model.delta(s, g))


def ref_check_A3mod_A4(model, sampler, grid=None, tol=1e-8):
    G, H = sampler.arrow_pairs()
    rep = ValidationReport(subject=f"strong limits[{model.name}] ({sampler.describe()})")

    rep.limits.append(uniform_limit(
        "A3mod: rescaled norm -> tangent norm",
        lambda s: rescaled_norm(model, s, G), model.tangent_norm(G), grid,
        tol))

    tD = model.tangent_Delta(G, H)
    rep.limits.append(uniform_limit(
        "A4: approximate difference -> tangent difference",
        lambda s: ref_Delta_eps(model, s, G, H), tD, grid, 1e-3,
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
    rhs = rescaled_norm(model, star, tD)
    bridge.judge_residuals(np.abs(lhs - rhs), 1e-10, eps_star=str(star.value))

    back = model.delta(star, dif_eps(model, star, G, H))
    direct = model.dif(model.delta(star, G), model.delta(star, H))
    route.judge_residuals(_per_sample(back, direct), 1e-10,
                          eps_star=str(star.value))

    exact.judge_residuals(np.abs(model.tangent_pair_dist(G, H)
                                 - model.tangent_norm(tD)), 1e-12)
    return rep


# ---------------------------------------------------------------------------
# comparisons


def _text(obj):
    return json.dumps(obj, sort_keys=True)


def same_report(a, b):
    assert _text(a.to_json()) == _text(b.to_json())
    assert _text([c.witnesses for c in a.laws]) == \
        _text([c.witnesses for c in b.laws])


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(_bits(a), _bits(b))


def _off_origin(model):
    return np.linspace(0.5, -0.75, model.dim)


@pytest.mark.parametrize("seed", [0, 7, 23])
@pytest.mark.parametrize("kmax", [None, 6])
def test_strong_limits_match_the_arrow_route(model, seed, kmax):
    grid = None if kmax is None else dyadic_grid(kmax)
    sampler = BoundedSampler(model, n=150, seed=seed)
    got = check_A3mod_A4(model, sampler, grid)
    same_report(got, ref_check_A3mod_A4(model, sampler, grid))


@pytest.mark.parametrize("seed", [3, 11])
def test_strong_limits_match_off_the_origin(model, seed):
    sampler = BoundedSampler(model, n=150, seed=seed, base=_off_origin(model))
    for grid in (None, dyadic_grid(6)):
        same_report(check_A3mod_A4(model, sampler, grid),
                    ref_check_A3mod_A4(model, sampler, grid))


def test_strong_limits_stay_red_on_the_nan_kernel():
    """NaN dilatations fail every trace and the starred route law with a
    non-finite residual, as on the arrow route."""
    bad = nan_below_heisenberg()
    rep = check_A3mod_A4(bad, BoundedSampler(bad, n=50))
    notes = [e.note for e in rep.limits if not e.passed]
    assert len(notes) == 3 and all("non-finite" in n for n in notes)
    assert not rep.law("dilating the blown-up difference back recovers it "
                       "(at eps*)").passed


@pytest.mark.parametrize("seed", [1, 5])
def test_battery_matches_the_recomputing_reference(model, seed):
    quads = sample_point_quads(model, np.random.default_rng(seed), n=80)
    G = gamma_irq_from_dilation(model)
    for Q in (G, z_irq_from_iterates(G.at(Fraction(1, 2)))):
        same_report(check_pplay(Q, quads), ref_check_pplay(Q, quads))


def _counting_family(model):
    """The dilatation family of model, recording the kernel scale of each
    call of its op (a float's shape () or a ScaleBatch column's)."""
    calls = []
    G = gamma_irq_from_dilation(model)

    def op(s, a, b):
        calls.append(np.shape(scales.kernel_modulus(s)))
        return G.op(s, a, b)

    return GammaIrq(op=op, name=G.name), calls


def test_battery_computes_each_shared_cloud_once():
    Q, calls = _counting_family(heisenberg_model())
    quads = sample_point_quads(heisenberg_model(), np.random.default_rng(2), 8)
    check_pplay(Q, quads)
    new = len(calls)
    calls.clear()
    ref_check_pplay(Q, quads)
    # the 5 scales in one chunk: 24 kernel calls; 2 for the m-side clouds
    # of all 5 m; 3 for those of the 9 distinct products sm; 4 for the 25
    # (s, m) pairs in one chunk -- against 455 one scale at a time
    assert (new, len(calls)) == (24 + 2 + 3 + 4, 455)


def test_battery_takes_one_float_scale_a_call_on_large_clouds():
    """At 2e4 points a chunk is one scale, which reaches the kernels as a
    float: per scale 24 kernel calls; 10 for the m-side clouds; 3 for each
    of the 9 distinct products sm; 4 per (s, m) pair.  The irq family
    makes its 6 calls per scale, 1 for x circ_t y at each of the 10
    distinct scales t of the grid and its products, and 1 per pair."""
    H = heisenberg_model()
    Q, calls = _counting_family(H)
    quads = sample_point_quads(H, np.random.default_rng(2), 20000)
    check_pplay(Q, quads)
    assert len(calls) == 5 * 24 + 10 + 9 * 3 + 25 * 4 == 257
    assert set(calls) == {()}
    calls.clear()
    check_gamma_irq(Q, quads[0], quads[1])
    assert len(calls) == 5 * 6 + 10 + 25 == 65
    assert set(calls) == {()}


# ---------------------------------------------------------------------------
# the arrow operations


def _arrow_inputs(model, rng, n):
    """Same-fiber arrow clouds off the origin, and single arrows
    broadcast against them."""
    base = _off_origin(model)
    g = model.sample_fiber_arrows(rng, n, base=base)
    h = model.sample_fiber_arrows(rng, n, base=base)
    return [(g, h), (g[0], h[0]), (g, h[0]), (g[0], h)] if n else [(g, h)]


@pytest.mark.parametrize("n", [0, 1, 40])
def test_arrow_dilatation_matches_the_three_arrow_route(model, n):
    rng = np.random.default_rng(n + 4)
    for g, h in _arrow_inputs(model, rng, n):
        for s in (Scale(Fraction(1, 8)), Scale(Fraction(3)), EPS_STAR):
            same_bits(arrow_dilatation(model, s, h, g),
                      ref_arrow_dilatation(model, s, h, g))
            same_bits(Delta_eps(model, s, g, h), ref_Delta_eps(model, s, g, h))
            same_bits(inv_eps(model, s, g),
                      ref_Delta_eps(model, s, model.unit_of(g), g))
    D = DoubleModel(model)
    P = D.sample_fiber_arrows(rng, n)
    s = Scale(Fraction(1, 4))
    moved = ref_arrow_dilatation(model, s, D.second(P), D.first(P))
    same_bits(D.delta(s, P), D.pair(moved, D.second(P)))


def test_arrow_dilatation_builds_one_arrow(monkeypatch):
    H = heisenberg_model()
    g, h = _arrow_inputs(H, np.random.default_rng(0), 30)[0]
    built = _count_slots(monkeypatch)
    arrow_dilatation(H, Scale(Fraction(1, 2)), h, g)
    assert len(built) == 1


def test_arrow_dilatation_refuses_arrows_of_different_fibers():
    E = euclidean_model(dim=2)
    a = E.arrow(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    b = E.arrow(np.array([3.0, 0.0]), np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match=r"^dif needs a common source \(gap 2\)$"):
        arrow_dilatation(E, Scale(Fraction(1, 2)), b, a)


# ---------------------------------------------------------------------------
# empty arrows


def test_arrow_operations_accept_empty_arrows(model):
    """An empty cloud has no endpoint gap: the gap max over zero entries
    is 0, not numpy's zero-size reduction error."""
    none = model.sample_fiber_arrows(np.random.default_rng(0), 0)
    assert none.shape == (0, 2, model.dim)
    s = Scale(Fraction(1, 4))
    for out in (model.compose(none, none), model.dif(none, none),
                Delta_eps(model, s, none, none),
                Sigma_eps(model, s, none, none), inv_eps(model, s, none),
                dif_eps(model, s, none, none)):
        assert out.shape == (0, 2, model.dim)


def test_strong_limits_report_on_an_empty_sampler(model):
    sampler = BoundedSampler(model, n=0)
    rep = check_A3mod_A4(model, sampler, dyadic_grid(6))
    same_report(rep, ref_check_A3mod_A4(model, sampler, dyadic_grid(6)))
    assert all(c.checked == 0 for c in rep.laws)


# ---------------------------------------------------------------------------
# no arrow buffers per scale


def _count_slots(monkeypatch):
    """Count the arrow (and pair) buffers models._slots allocates."""
    built = []
    slots = models._slots

    def counting(*args):
        built.append(args)
        return slots(*args)

    monkeypatch.setattr(models, "_slots", counting)
    return built


def test_strong_limits_build_no_arrows_per_scale(monkeypatch):
    built = _count_slots(monkeypatch)
    counts = []
    for kmax in (4, 20):
        built.clear()
        H = heisenberg_model()
        check_A3mod_A4(H, BoundedSampler(H, n=50), dyadic_grid(kmax))
        counts.append(len(built))
    # the two sampled arrow clouds and the tangent difference
    assert counts == [3, 3]


# ---------------------------------------------------------------------------
# the two-scale sweeps share their dilated clouds


def ref_A4weak_sweeps(model, sampler, grid):
    """The A4weak sweeps as they were: each mu recomputes delta^x_eps u
    and delta^x_eps v."""
    u, v = sampler.point_tuple(2)
    x = np.broadcast_to(sampler.base, u.shape)
    return [uniform_limit(
        f"A4weak[mu={mu.value}]: two-scale dilatation -> tangent dilatation",
        lambda s: two_scale_dilatation(model, s, mu, x, u, v),
        model.tangent_bar_dilatation(mu, x, u, v), grid, 1e-8)
        for mu in MUS]


def ref_fiber_sweeps(model):
    """The fiber sweeps as they were: every sweep dilates its own clouds."""
    x = model.e()
    u, v, w = BoundedSampler(model, base=x, n=100, seed=11).point_tuple(3)
    grid = dyadic_grid(kmax=6)
    pd = model.point_dilatation
    return [uniform_limit(
        "fiber A2: dist(u, delta^u_eps v) -> 0",
        lambda s: model.pdist(u, pd(s, u, v)), 0.0, grid, 0.25,
        atol=1e-10, require_decreasing=True), uniform_limit(
        "fiber A3: rescaled based distance -> tangent distance",
        lambda s: model.pdist(pd(s, u, v), pd(s, u, w)) / s.modulus,
        model.tangent_point_dist(v, w), grid, 1e-8, atol=1e-10)] + [
        uniform_limit(
            f"fiber A4weak[mu={mu.value}]: two-scale dilatation converges",
            lambda s: two_scale_dilatation(model, s, mu, u, v, w),
            model.tangent_bar_dilatation(mu, u, v, w), grid, 1e-8,
            atol=1e-10) for mu in MUS[:2]]


def _traces(estimates):
    return _text([e.to_json() for e in estimates])


@pytest.mark.parametrize("kmax", [None, 6])
def test_two_scale_sweeps_match_the_recomputing_reference(model, kmax):
    grid = None if kmax is None else dyadic_grid(kmax)
    sampler = BoundedSampler(model, n=60, seed=3)
    got = check_A4weak(model, sampler, grid).limits
    assert _traces(got) == _traces(
        ref_A4weak_sweeps(model, sampler, grid or dyadic_grid()))
    assert _traces(fiber_dilatation_structure(model)[1].limits) == \
        _traces(ref_fiber_sweeps(model))


@pytest.mark.parametrize("n", [200, scales.CHUNK_POINTS + 1])
def test_shared_clouds_match_the_recomputing_references(model, n):
    """The translation laws and the cone check, each shared cloud computed
    once, against their forms that computed each Sigma3, inv3 and
    two-scale dilatation whole; 1/8 is below the NaN kernel's 0.2."""
    sampler = BoundedSampler(model, n=n, seed=3)
    same_report(limits.cone_check(model, sampler),
                ref_cone_check(model, sampler))
    rng = np.random.default_rng(n)
    u, v, w = (model.sample_points(rng, n, 4.0, center=model.e())
               for _ in range(3))
    for s in (Scale(Fraction(1, 2)), Scale(Fraction(1, 4)),
              Scale(Fraction(1, 8))):
        same_report(limits._translation_laws(model, s, u, v, w),
                    ref_translation_laws(model, s, u, v, w))


def _count_point_dilatations(monkeypatch, model):
    calls = []
    pd = model.point_dilatation

    def counting(s, x, y):
        calls.append(s)
        return pd(s, x, y)

    monkeypatch.setattr(model, "point_dilatation", counting)
    return calls


def test_two_scale_sweeps_compute_each_cloud_once(monkeypatch):
    # one scale per chunk, so that the counts below are per scale
    monkeypatch.setattr(scales, "CHUNK_POINTS", 1)
    H = heisenberg_model()
    calls = _count_point_dilatations(monkeypatch, H)
    sampler = BoundedSampler(H, n=20)
    counts = []
    for run in (lambda: check_A4weak(H, sampler),
                lambda: ref_A4weak_sweeps(H, sampler, dyadic_grid()),
                lambda: fiber_dilatation_structure(H),
                lambda: ref_fiber_sweeps(H)):
        calls.clear()
        run()
        counts.append(len(calls))
    # A4weak: two clouds per scale, then 2 calls per (mu, scale) and 3 for
    # the base case, against 4 per (mu, scale); fiber structure: 18 calls
    # for the scale action (delta^u_r v once per r), 1 per scale for A2,
    # then two clouds per scale shared by A3 and 2 calls per (mu, scale),
    # against 1 + 2 + 2 * 4 per scale
    assert counts == [20 * 2 + 3 * 20 * 2 + 3, 3 * 20 * 4,
                      18 + 6 + 6 * 2 + 2 * 6 * 2, 6 * (1 + 2 + 2 * 4)]
