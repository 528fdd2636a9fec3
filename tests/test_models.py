"""Analytic pair models: the two carrier groups, dilation axioms, and the
deformation machinery."""

import inspect
import json

import numpy as np
import pytest
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ngd import fixtures, models
from ngd.emergent import _per_sample
from ngd.models import (
    DomainSpec,
    EuclideanGroup,
    HeisenbergGroup,
    PairModel,
    check_A0,
    check_A1,
    check_A2,
    check_dilation_morphism,
    euclidean_model,
    heisenberg_model,
    restricted_euclidean_model,
)
from ngd.scales import CHUNK_POINTS, Scale, dyadic_grid
import references
from references import DeformedModel, check_deformation, ref_ball_sample

coords = st.floats(min_value=-8, max_value=8, allow_nan=False,
                   allow_infinity=False)


def hpoints():
    return st.tuples(coords, coords, coords).map(np.array)


class TestHeisenbergGroup:
    """Exact group laws for the nilpotent carrier, checked pointwise.
    Products involve one multiplication and one addition per slot, so
    1e-12 absolute slack is generous."""

    G = HeisenbergGroup()

    @given(hpoints(), hpoints(), hpoints())
    @settings(max_examples=80, deadline=None)
    def test_associativity(self, a, b, c):
        lhs = self.G.mul(self.G.mul(a, b), c)
        rhs = self.G.mul(a, self.G.mul(b, c))
        assert np.allclose(lhs, rhs, atol=1e-10)

    @given(hpoints())
    @settings(max_examples=50, deadline=None)
    def test_inverse_and_identity(self, a):
        e = self.G.e()
        assert np.allclose(self.G.mul(a, self.G.inv(a)), e, atol=1e-12)
        assert np.allclose(self.G.mul(self.G.inv(a), a), e, atol=1e-12)
        assert np.allclose(self.G.mul(a, e), a)

    @given(hpoints())
    @settings(max_examples=50, deadline=None)
    def test_gauge_homogeneity(self, a):
        # the layered dilation scales the gauge on the nose
        for s in (0.5, 0.75, 4.0):
            lhs = self.G.gauge(self.G.dil(s, a))
            assert np.isclose(lhs, s * self.G.gauge(a),
                              rtol=1e-12, atol=1e-13)

    @given(hpoints(), hpoints())
    @settings(max_examples=50, deadline=None)
    def test_dilation_is_a_group_morphism(self, a, b):
        lhs = self.G.dil(0.5, self.G.mul(a, b))
        rhs = self.G.mul(self.G.dil(0.5, a), self.G.dil(0.5, b))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_center_is_vertical(self):
        a = np.array([0.0, 0.0, 2.5])
        b = np.array([1.0, -3.0, 0.5])
        assert np.allclose(self.G.mul(a, b), self.G.mul(b, a))

    def test_noncommutative_off_center(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert not np.allclose(self.G.mul(a, b), self.G.mul(b, a))


class TestEuclideanGroup:
    G = EuclideanGroup(dim=2)

    @given(st.tuples(coords, coords).map(np.array),
           st.tuples(coords, coords).map(np.array))
    @settings(max_examples=40, deadline=None)
    def test_abelian(self, a, b):
        assert np.allclose(self.G.mul(a, b), self.G.mul(b, a))

    def test_gauge_is_the_norm(self):
        assert self.G.gauge(np.array([3.0, 4.0])) == pytest.approx(5.0)


@pytest.mark.parametrize("model", [euclidean_model(dim=2),
                                   heisenberg_model()],
                         ids=["euclidean", "heisenberg"])
class TestDilationAxioms:
    def test_action_laws(self, model):
        rng = np.random.default_rng(5)
        arrows = model.sample_fiber_arrows(rng, 300)
        rep = check_A1(model, arrows)
        assert rep.passed, rep.summary()

    def test_vanishing_norms(self, model):
        rng = np.random.default_rng(6)
        arrows = model.sample_fiber_arrows(rng, 300)
        rep = check_A2(model, arrows)
        assert rep.passed, rep.summary()

    def test_induced_double_dilation(self, model):
        rep = check_dilation_morphism(model)
        assert rep.passed, rep.summary()

    def test_norm_homogeneity_is_exact_scaling(self, model):
        rng = np.random.default_rng(7)
        arrows = model.sample_fiber_arrows(rng, 200)
        for s in dyadic_grid(kmax=5):
            resid = np.max(np.abs(
                model.norm(model.delta(s, arrows))
                - float(s.modulus) * model.norm(arrows)
            ))
            assert resid < 1e-10


def test_trivial_domain_report_on_unrestricted_models():
    rep = check_A0(euclidean_model())
    assert rep.passed
    assert any("no DomainSpec" in c.note for c in rep.laws)


def test_restricted_model_domain_bookkeeping():
    rep = check_A0(restricted_euclidean_model())
    assert rep.passed, rep.summary()


LAW_FAULTS = json.loads((Path(__file__).parent / "data" /
                         "law_faults.json").read_text())


@pytest.mark.parametrize("name, threshold", [
    ("A0 threshold shrunk to 1/eps", lambda m: 1 / m),
    ("A0 threshold inflated to 100/eps", lambda m: 100 / m)],
    ids=["shrunk", "inflated"])
def test_a_broken_domain_threshold_fails_A0_with_witnesses(
        name, threshold, monkeypatch):
    """Each law of check_A0 with its (checked, failures, witnesses), each
    witness by its repr, as the implementation that ticked and failed
    each law by hand reported them (tests/data/law_faults.json)."""
    model = restricted_euclidean_model()
    monkeypatch.setattr(model, "domain", DomainSpec(threshold))
    assert [[c.law, c.checked, c.failures, list(map(repr, c.witnesses))]
            for c in check_A0(model).laws] == LAW_FAULTS[name]


def test_pair_distance_is_left_invariant():
    model = heisenberg_model()
    rng = np.random.default_rng(8)
    p = model.sample_points(rng, 100)
    q = model.sample_points(rng, 100)
    g = model.group.sample(rng, 1, 4.0)[0]
    lhs = model.pdist(model.group.mul(g, p), model.group.mul(g, q))
    assert np.allclose(lhs, model.pdist(p, q), atol=1e-9)


def test_deformation_keeps_the_axioms():
    for mu in [Scale(Fraction(1, 2)), Scale(3)]:
        rep = check_deformation(heisenberg_model(), mu)
        assert rep.passed, rep.summary()


def test_deformed_norm_collapses_for_homogeneous_models():
    # d(delta_mu a) = |mu| d(a) exactly, so the 1/|mu| rescaling cancels
    model = euclidean_model(dim=1)
    dm = DeformedModel(model, Scale(Fraction(1, 4)))
    rng = np.random.default_rng(9)
    arrows = model.sample_fiber_arrows(rng, 50)
    assert np.allclose(dm.norm(arrows), model.norm(arrows), atol=1e-13)


# ---------------------------------------------------------------------------
# NaN residuals fail: every residual law goes through LawCheck.judge_residuals


def test_scale_action_laws_count_one_instance_per_sample():
    model = heisenberg_model()
    arrows = model.sample_fiber_arrows(np.random.default_rng(8), 30)
    counts = {c.law: c.checked for c in check_A1(model, arrows).laws}
    assert counts == {"delta preserves the source fiber": 5 * 30,
                      "delta_s delta_r = delta_{s r}": 25 * 30,
                      "delta_1 = id": 30}
    assert [c.checked for c in check_A2(model, arrows).laws] == [5 * 30]
    rep = check_dilation_morphism(model)  # 300 pairs, three scales
    assert rep.law("dif o delta~_s = delta_s o dif").checked == 3 * 300


def test_planted_homogeneity_fails_each_sample_and_names_the_worst():
    rep = dict(fixtures.run_planted_suite())[
        "squared dilation exponent vs norm homogeneity"]
    (law,) = rep.laws
    assert (law.checked, law.failures) == (4 * 200, 4 * 200)
    model = fixtures.wrong_exponent_euclidean()
    arrows = model.sample_fiber_arrows(np.random.default_rng(0), 200)
    for w, s in zip(law.witnesses, dyadic_grid(kmax=4)):
        resid = np.abs(model.norm(model.delta(s, arrows))
                       - float(s.value) * model.norm(arrows))
        assert w["scale"] == str(s.value)
        assert w["sample"] == int(np.argmax(resid))
        assert w["residual"] == pytest.approx(resid.max())


def test_action_law_is_red_on_nan_dilatations():
    model = fixtures.nan_below_heisenberg()
    arrows = model.sample_fiber_arrows(np.random.default_rng(5), 50)
    rep = check_A1(model, arrows)
    assert not rep.passed
    bad = [c for c in rep.laws if not c.passed]
    assert not np.isfinite(bad[0].witnesses[0]["residual"])


def test_intertwining_law_is_red_on_nan_dilatations():
    rep = check_dilation_morphism(fixtures.nan_below_heisenberg())
    assert rep.laws[0].law == "dif o delta~_s = delta_s o dif"
    assert not rep.laws[0].passed


def test_deformation_is_red_on_nan_dilatations():
    rep = check_deformation(fixtures.nan_below_heisenberg(), Fraction(1, 8))
    assert rep.laws and not any(c.passed for c in rep.laws)


class _NaNLeftUnitDeformation(DeformedModel):
    """Composing after a unit arrow gives NaN; nothing else changes."""

    def m(self, a, b):
        out = super().m(a, b)
        if np.array_equal(self.base.source(a), self.base.target(a)):
            out[...] = np.nan
        return out


def test_deformation_judges_the_second_unit_residual(monkeypatch):
    # the first unit residual stays finite, so max(r1, r2) would hide it
    monkeypatch.setattr(references, "DeformedModel", _NaNLeftUnitDeformation)
    rep = check_deformation(heisenberg_model(), Fraction(1, 2))
    bad = [c.law for c in rep.laws if not c.passed]
    assert bad == ["unit arrows are deformed units"]
    assert np.isnan(rep.law(bad[0]).witnesses[0]["residual"])


# ---------------------------------------------------------------------------
# fused kernels: bit for bit the three-step route


# carrier classes whose kernel is broken on purpose (a planted defect)
PLANTED_KERNELS = {fixtures._NaNBelowHeisenbergGroup}


def _carrier_classes():
    found = set()
    for mod in (models, fixtures):
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if issubclass(cls, (EuclideanGroup, HeisenbergGroup)):
                found.add(cls)
    return sorted(found, key=lambda c: c.__qualname__)


def _carriers(skip=()):
    out = []
    for cls in _carrier_classes():
        if cls in skip:
            continue
        if issubclass(cls, EuclideanGroup):
            out += [cls(dim) for dim in (1, 2, 3, 9)]
        else:
            out.append(cls())
    return out


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _three_step(g, s, x, y):
    return g.mul(x, g.dil(s, g.mul(g.inv(x), y)))


def _clouds(g, n, seed):
    rng = np.random.default_rng(seed)
    x = g.sample(rng, n, 4.0)
    y = g.sample(rng, n, 4.0)
    if n >= 4:  # signed zeros and shared coordinates
        x[0] = 0.0
        y[1] = -0.0
        x[2] = y[2]
        x[3, 0] = -0.0
    return x, y


SCALES = (2.0**-36, 0.125, 1.0, 8.0)


def test_every_carrier_class_is_covered():
    names = {c.__name__ for c in _carrier_classes()}
    assert {"EuclideanGroup", "HeisenbergGroup", "_SquaredDilationGroup",
            "_NaNBelowHeisenbergGroup"} <= names


@pytest.mark.parametrize("g", _carriers(),
                         ids=lambda g: f"{type(g).__name__}-{g.dim}")
@pytest.mark.parametrize("n", [0, 1, 7, 200, CHUNK_POINTS + 1])
def test_ball_sampler_keeps_the_points_of_the_mask_route(g, n, monkeypatch):
    """Kept by index, the sampler draws the same candidates and keeps the
    same points, in the same order and layout, as by a boolean mask, and
    leaves the rng where that route left it."""
    for center in (None, np.linspace(0.5, -0.75, g.dim)):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = g.sample(rng, n, 4.0, center=center)
        with monkeypatch.context() as m:
            m.setattr(models, "_ball_sample", ref_ball_sample)
            ref = g.sample(ref_rng, n, 4.0, center=center)
        assert got.shape == (n, g.dim) and got.strides == ref.strides
        assert np.array_equal(_bits(got), _bits(ref))
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("g", _carriers(skip=PLANTED_KERNELS),
                         ids=lambda g: f"{type(g).__name__}-{g.dim}")
@pytest.mark.parametrize("n", [0, 1, 257])
def test_kernel_is_bitwise_the_three_step_route(g, n):
    x, y = _clouds(g, n, seed=n + g.dim)
    slots = np.stack([y, x], axis=-2)  # strided views, as arrows hold them
    bases = [(x, y), (slots[..., 1, :], slots[..., 0, :])]
    if n:
        bases += [(x[0], y), (x, y[0]), (x[0], y[0]),
                  (np.broadcast_to(x[0], x.shape), y)]
    for s in SCALES:
        for bx, by in bases:
            got = g.point_dilatation(s, bx, by)
            want = _three_step(g, s, bx, by)
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want)), (s, np.shape(bx))


@pytest.mark.parametrize("n", [0, 1, 257])
def test_heisenberg_mul_and_dil_keep_the_stacked_formulas(n):
    g = HeisenbergGroup()
    a, b = _clouds(g, n, seed=n)
    for p, q in [(a, b)] + ([(a[0], b), (a, b[0])] if n else []):
        p, q = np.asarray(p), np.asarray(q)
        want = np.stack([
            p[..., 0] + q[..., 0], p[..., 1] + q[..., 1],
            p[..., 2] + q[..., 2]
            + 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]),
        ], axis=-1)
        assert np.array_equal(_bits(g.mul(p, q)), _bits(want))
    for s in SCALES:
        want = np.stack([s * a[..., 0], s * a[..., 1], s * s * a[..., 2]],
                        axis=-1)
        assert np.array_equal(_bits(g.dil(s, a)), _bits(want))


def test_pair_model_delegates_to_the_carrier_kernel():
    class Marked(EuclideanGroup):
        def point_dilatation(self, s, x, y):
            return ("kernel", s)

    assert PairModel(Marked(2)).point_dilatation(
        Scale(Fraction(1, 4)), None, None) == ("kernel", 0.25)


def test_arrow_broadcasts_a_base_against_a_cloud():
    model = heisenberg_model()
    pts = model.sample_points(np.random.default_rng(3), 5)
    base = pts[0]
    for src in (base, np.broadcast_to(base, pts.shape)):
        a = model.arrow(pts, src)
        assert a.shape == (5, 2, 3)
        assert np.array_equal(model.target(a), pts)
        assert np.array_equal(model.source(a), np.broadcast_to(base, pts.shape))
    assert model.arrow(base, base).shape == (2, 3)


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (50, 3), (0, 2, 3),
                                   (1, 2, 3), (50, 2, 3)])
def test_per_sample_is_the_row_max(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    a = rng.normal(size=shape)
    b = rng.normal(size=shape)
    if shape[0] >= 50:
        a[7].flat[-1] = np.nan  # NaN in the last column only
        b[11].flat[0] = np.nan
        a[13] = b[13]  # an all-zero row
    got = _per_sample(a, b)
    assert got.shape == (shape[0],)
    if shape[0]:
        want = np.abs(a - b).reshape(shape[0], -1).max(axis=1)
        assert np.array_equal(got, want, equal_nan=True)
    if shape[0] >= 50:
        assert np.isnan(got[7]) and np.isnan(got[11]) and got[13] == 0.0


# ---------------------------------------------------------------------------
# storage: column-major clouds and arrows, the same bits in every layout


def _columns_contiguous(a):
    """Every coordinate column, in every slot, is one contiguous run."""
    return all(a[(...,) + k].flags.c_contiguous
               for k in np.ndindex(a.shape[1:]))


def _in_layouts(*arrays):
    """The same arrays, C-ordered, F-ordered, and as the slot views of
    one C-ordered and one F-ordered stack (as arrows hold their points)."""
    stack = np.stack(arrays, axis=1)
    fstack = np.asfortranarray(stack)
    return [tuple(np.ascontiguousarray(a) for a in arrays),
            tuple(np.asfortranarray(a) for a in arrays),
            tuple(stack[:, j] for j in range(len(arrays))),
            tuple(fstack[:, j] for j in range(len(arrays)))]


def _same_in_every_layout(op, args, per_row=True):
    """op gives the same bits on args in every layout and on an n = 3
    cloud, with contiguous columns out; with per_row, also on single
    samples."""
    want = op(*args)
    for variant in _in_layouts(*args):
        got = op(*variant)
        assert np.array_equal(_bits(got), _bits(want))
        if got.ndim > 1:
            assert _columns_contiguous(got)
    assert np.array_equal(_bits(op(*(a[:3] for a in args))), _bits(want[:3]))
    for i in (0, 5, len(want) - 1) if per_row else ():
        assert np.array_equal(_bits(op(*(a[i] for a in args))),
                              _bits(want[i]))
    return want


def _layout_models(g):
    out = [PairModel(g)]
    if type(g) is HeisenbergGroup:
        out += [fixtures.dropped_correction_heisenberg(),
                fixtures.flat_gauge_heisenberg()]
    return out


@pytest.mark.parametrize("g", _carriers(),
                         ids=lambda g: f"{type(g).__name__}-{g.dim}")
def test_results_do_not_depend_on_the_input_layout(g):
    x, y = _clouds(g, 257, seed=g.dim)
    z = g.sample(np.random.default_rng(5), 257, 4.0)
    for model in _layout_models(g):
        for s in SCALES:
            sc = Scale(Fraction(s))
            point_ops = [
                lambda x, y: g.mul(x, y),
                lambda x, y: g.dil(s, y),
                lambda x, y: g.gauge(y),
                lambda x, y: model.point_dilatation(sc, x, y),
                lambda x, y: model.arrow(y, x),
            ]
            for op in point_ops:
                _same_in_every_layout(op, (x, y))
                # a base broadcast against the cloud, and as one point
                got = op(np.broadcast_to(x[5], x.shape), y)
                assert np.array_equal(_bits(got), _bits(op(x[5], y)))
                assert np.array_equal(_bits(got[7]), _bits(op(x[5], y[7])))
            _same_in_every_layout(_per_sample, (x, y), per_row=False)

            a, b = np.stack([y, x], axis=1), np.stack([z, x], axis=1)
            _same_in_every_layout(lambda a, b: model.delta(sc, a), (a, b))
            _same_in_every_layout(model.dif, (a, b))
            _same_in_every_layout(_per_sample, (a, b), per_row=False)


@pytest.mark.parametrize("g", _carriers(),
                         ids=lambda g: f"{type(g).__name__}-{g.dim}")
def test_samplers_and_kernels_store_columns_contiguously(g):
    rng = np.random.default_rng(9)
    center = g.sample(rng, 1, 1.0)[0]
    x = g.sample(rng, 50, 4.0)
    y = g.sample(rng, 50, 4.0, center=center)
    for model in _layout_models(g):
        a = model.sample_fiber_arrows(rng, 50, base=center)
        P = models.DoubleModel(model).pair(a, model.arrow(y, center))
        outs = [x, y, a, P, model.probe_fiber_arrows(model.e()), g.inv(x),
                g.dil(0.5, x), g.mul(x, y), model.arrow(x, y),
                model.point_dilatation(Scale(Fraction(1, 2)), x, y),
                model.delta(Scale(Fraction(1, 2)), a)]
        for out in outs:
            assert out.shape[1:] in ((g.dim,), (2, g.dim), (2, 2, g.dim))
            assert _columns_contiguous(out)
