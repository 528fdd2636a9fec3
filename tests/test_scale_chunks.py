"""The batteries that sweep their scales in chunks, against the per-scale
checks they replaced (tests/references.py).

check_pplay, check_gamma_irq, check_A1, check_based_compat and
check_dilation_morphism make one kernel call per identity and chunk of
scales, on a (k, n, dim) batch, and judge each scale's row on its own.
Every report must match the per-scale one as JSON text, witnesses and
their order included, on the shipped carriers and on the planted ones,
at cloud sizes from empty to past one chunk: at n = 246 the 25 scale
pairs of a pair law take two chunks."""

import gc
import json
import pickle
import weakref
from fractions import Fraction

import numpy as np
import pytest

from ngd import scales
from ngd.emergent import (GammaIrq, check_based_compat, check_gamma_irq,
                          check_pplay, gamma_irq_from_dilation,
                          sample_point_quads)
from ngd.fixtures import (dropped_correction_heisenberg,
                          nan_below_heisenberg, wrong_exponent_euclidean)
from ngd.models import (DoubleModel, check_A1, check_dilation_morphism,
                        euclidean_model, heisenberg_model)
from ngd.scales import (CHUNK_POINTS, Scale, ScaleBatch, batch, chunks,
                        dyadic_grid)
from references import (ref_check_A1, ref_check_based_compat,
                        ref_check_dilation_morphism, ref_check_gamma_irq,
                        ref_check_pplay)

MODELS = {
    "heisenberg": heisenberg_model,
    "euclidean1": lambda: euclidean_model(dim=1),
    "euclidean3": lambda: euclidean_model(dim=3),
    "dropped_correction": dropped_correction_heisenberg,
    "nan_below": nan_below_heisenberg,
    "squared_dilation": wrong_exponent_euclidean,
}
SIZES = [0, 1, 8, 200, 246]


@pytest.fixture(params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


def same_report(a, b):
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)
    assert json.dumps([c.witnesses for c in a.laws], sort_keys=True) == \
        json.dumps([c.witnesses for c in b.laws], sort_keys=True)


def test_the_pair_laws_split_at_246_points():
    pairs = [(s, m) for s in dyadic_grid(5) for m in dyadic_grid(5)]
    assert [len(c) for c in chunks(pairs, 246)] == [24, 1]
    assert [len(c) for c in chunks(pairs, 200)] == [25]
    assert [len(c) for c in chunks(pairs, CHUNK_POINTS + 1)] == [1] * 25


@pytest.mark.parametrize("n", SIZES)
def test_battery_matches_the_per_scale_reference(model, n):
    quads = sample_point_quads(model, np.random.default_rng(n + 1), n=n)
    G = gamma_irq_from_dilation(model)
    same_report(check_pplay(G, quads), ref_check_pplay(G, quads))


@pytest.mark.parametrize("n", SIZES)
def test_irq_family_matches_the_per_scale_reference(model, n):
    x, y = sample_point_quads(model, np.random.default_rng(n + 2), n=n)[:2]
    G = gamma_irq_from_dilation(model)
    same_report(check_gamma_irq(G, x, y), ref_check_gamma_irq(G, x, y))


@pytest.mark.parametrize("n", SIZES)
def test_scale_action_matches_the_per_scale_reference(model, n):
    rng = np.random.default_rng(n + 3)
    arrows = model.sample_fiber_arrows(rng, n)
    same_report(check_A1(model, arrows), ref_check_A1(model, arrows))
    D = DoubleModel(model)
    pairs = D.pair(arrows, model.sample_fiber_arrows(rng, n))
    same_report(check_A1(D, pairs), ref_check_A1(D, pairs))


@pytest.mark.parametrize("n", SIZES)
def test_based_compatibility_matches_the_per_scale_reference(model, n):
    same_report(check_based_compat(model, n=n),
                ref_check_based_compat(model, n=n))


def test_dilation_morphism_matches_the_per_scale_reference(model):
    same_report(check_dilation_morphism(model),
                ref_check_dilation_morphism(model))


def test_one_scale_a_chunk_matches_the_per_scale_reference(monkeypatch):
    """With one scale a chunk every scale goes in as a float, and the
    batteries still match."""
    monkeypatch.setattr(scales, "CHUNK_POINTS", 1)
    model = nan_below_heisenberg()
    quads = sample_point_quads(model, np.random.default_rng(4), n=30)
    G = gamma_irq_from_dilation(model)
    same_report(check_pplay(G, quads), ref_check_pplay(G, quads))
    same_report(check_gamma_irq(G, *quads[:2]),
                ref_check_gamma_irq(G, *quads[:2]))


def test_stacked_clouds_follow_the_storage_rule():
    """The distributivity law gathers its m-side clouds into (k, n, dim)
    batches laid out as the kernels lay out theirs: each coordinate
    column of a block one contiguous run."""
    H = heisenberg_model()
    G = gamma_irq_from_dilation(H)
    seen = []

    def op(s, a, b):
        for arr in (a, b):
            if np.ndim(arr) == 3 and isinstance(s, ScaleBatch):
                seen.append(arr.strides[1:])
        return G.op(s, a, b)

    quads = sample_point_quads(H, np.random.default_rng(0), n=50)
    check_pplay(GammaIrq(op=op, name=G.name), quads)
    assert seen and set(seen) == {(8, 50 * 8)}


def test_a_batch_inverts_once():
    """ScaleBatch.inv() builds its k inverse scales and their column once:
    the batteries call it many times per chunk."""
    S = ScaleBatch(dyadic_grid(kmax=5))
    assert S.inv() is S.inv()
    assert S.inv().inv().scales == S.scales
    assert np.array_equal(S.inv().inv().modulus, S.modulus)
    assert [s.value for s in S.inv().scales] == [2**k for k in range(1, 6)]


SHARED = [Scale(Fraction(3, 7)), dyadic_grid(5)[2], Scale(2**500),
          Scale(Fraction(1, 3**50))]


@pytest.mark.parametrize("s", SHARED, ids=str)
@pytest.mark.parametrize("m", SHARED, ids=str)
def test_products_and_inverses_are_shared_and_exact(s, m):
    """The same operands give the same object, equal to (and hashing as)
    a Scale built afresh from the exact value."""
    assert s.mul(m) is s.mul(m) and s.inv() is s.inv()
    for got, want in ((s.mul(m), Scale(s.value * m.value)),
                      (s.inv(), Scale(1 / s.value))):
        assert got == want and hash(got) == hash(want)
        assert type(got.value) is Fraction and got.value == want.value
        assert got._float == want._float


def test_a_user_scale_is_freed_after_a_grid_scale_multiplied_it():
    """A product is kept by the left operand only while the right one
    lives, so the grid's scales hold on to no user scale."""
    grid = dyadic_grid(5)
    kept = [len(s._memo) for s in grid]
    user = Scale(Fraction(5, 9))
    ref = weakref.ref(user)
    for s in grid:
        s.mul(user), user.mul(s), user.inv()
    product = weakref.ref(grid[0].mul(user))
    del user
    gc.collect()
    assert ref() is None and product() is None
    assert [len(s._memo) for s in grid] == kept


def test_a_scale_that_keeps_results_pickles_as_its_value():
    s = dyadic_grid(3)[1]
    s.mul(s), s.inv()
    t = pickle.loads(pickle.dumps(s))
    assert t == s and t is not s and t._memo == {}
    assert t.mul(t) == s.mul(s) and t.inv() == s.inv()


def test_a_chunk_has_one_batch_with_a_read_only_column():
    chunk = dyadic_grid(5)[1:4]
    S = batch(chunk)
    assert S is batch(list(chunk)) is ScaleBatch.of(tuple(chunk))
    assert S.inv() is batch(chunk).inv()
    with pytest.raises(ValueError):
        S.modulus[0, 0] = 1.0
    with pytest.raises(ValueError):
        S.modulus += 1.0
    assert S.modulus.tolist() == [[0.25], [0.125], [0.0625]]
    assert batch(chunk[:1]) is chunk[0]  # a lone scale goes in as itself


def test_a_scale_keeps_the_batches_of_its_last_chunks_only():
    head, grid = Scale(Fraction(1, 3)), dyadic_grid(20)
    kept = [ScaleBatch.of([head] + grid[:k])
            for k in range(1, 8 + 3)]
    assert ScaleBatch.of([head] + grid[:3]) is kept[2]
    assert ScaleBatch.of([head] + grid[:1]) is not kept[0]  # dropped
    assert len([k for k in head._memo if type(k) is tuple]) == \
        8


@pytest.mark.parametrize("kmax", [1, 5, 20, 36])
def test_dyadic_grid_is_a_fresh_list_of_the_dyadic_scales(kmax):
    """The Scales are built once per kmax; each call hands out its own
    list of them, so a caller's grid + [...] or append leaves the next
    call's grid alone."""
    first, second = dyadic_grid(kmax), dyadic_grid(kmax)
    assert first == second and first is not second
    assert [s.value for s in first] == [Fraction(1, 2**k)
                                        for k in range(1, kmax + 1)]
    assert all(type(s.value) is Fraction for s in first)
    first.append(scales.Scale(3))
    first[0] = scales.Scale(5)
    third = dyadic_grid(kmax)
    assert third == second and len(third) == kmax
    assert third[0].value == Fraction(1, 2)
