"""Kernel buffers handed out again (ngd.models._empty).

An array of at least _FLOOR floats views a flat buffer that stays on the
allocating thread's free list and is handed out again once the list
alone references it.  These tests pin what makes that safe: a result
that is still alive, whole or through a slot or column view, never
shares memory with a later result; a released buffer at the floor is
reused and one below it never is; a repeated check at 2x10^4 points
finds every buffer it needs on the lists; and threads running a
battery at once get the serial reports."""

import json
import sys
import threading

import numpy as np
import pytest

from ngd import models
from ngd.emergent import (check_pplay, gamma_irq_from_dilation,
                          sample_point_quads)
from ngd.fixtures import dropped_correction_heisenberg
from ngd.limits import BoundedSampler, check_A3
from ngd.models import PairModel, euclidean_model, heisenberg_model
from ngd.scales import Scale, ScaleBatch
from test_models import _carrier_classes

# points per cloud: every kernel result on them is pooled, even at dim 1
N = models._FLOOR + 8


def _carriers():
    euclidean = models.EuclideanGroup
    return [g for cls in _carrier_classes()
            for g in ([cls(1), cls(3)] if issubclass(cls, euclidean)
                      else [cls()])]


def _pooled():
    """{size: number of buffers} on this thread's free lists."""
    return {size: len(free) for size, free in vars(models._free).items()}


def _results(g, x, y):
    """An arrow, then one result of each carrier kernel, each made only
    once the one before it is consumed."""
    col = ScaleBatch([Scale(1), Scale(2)]).modulus if g.dim == 1 else 0.5
    yield PairModel(g).arrow(x, y)
    yield g.mul(x, y)
    yield g.inv(x)
    yield g.dil(col, x)
    yield g.point_dilatation(col, x, y)
    yield g.gauge(np.stack([x, y]))


@pytest.mark.parametrize("keep", ["whole", "slot", "column"])
@pytest.mark.parametrize("g", _carriers(),
                         ids=lambda g: f"{type(g).__name__}-{g.dim}")
def test_a_live_result_never_shares_memory_with_a_later_one(g, keep):
    rng = np.random.default_rng(g.dim)
    x, y = g.sample(rng, N, 2.0), g.sample(rng, N, 2.0)
    model = PairModel(g)
    rounds = []
    for _ in range(2):  # the second round runs on the first one's buffers
        live = []
        for r in _results(g, x, y):
            slot = model.source(r) if r.shape[-2:] == (2, g.dim) else r[-1]
            view = {"whole": r, "slot": slot, "column": r[..., 0]}[keep]
            del r, slot
            assert not any(np.shares_memory(view, old) for old in live)
            live.append(view)
        rounds.append({v.base.ctypes.data for v in live})
        del live, view
    assert rounds[0] & rounds[1]


def test_a_released_buffer_is_reused_at_the_floor_and_never_below():
    for shape, block in (((models._FLOOR,), 1), ((models._FLOOR // 2, 2), 2),
                         ((2, models._FLOOR // 6, 3), 2)):
        a = models._empty(shape, block)
        first = a.__array_interface__["data"][0]
        b = models._empty(shape, block)
        assert not np.shares_memory(a, b)
        del a
        c = models._empty(shape, block)
        assert c.__array_interface__["data"][0] == first
        assert c.shape == shape and not np.shares_memory(b, c)
    before = _pooled()
    small = [models._empty((models._FLOOR - 1,), 1),
             models._empty((models._FLOOR // 2 - 1, 2)),
             models._empty((3, 5, 2, 3), 2)]
    assert _pooled() == before
    assert not any(np.shares_memory(s, buf) for s in small
                   for free in vars(models._free).values() for buf in free)


@pytest.mark.parametrize("model", [heisenberg_model(), euclidean_model(3)],
                         ids=["heisenberg", "euclidean3"])
def test_a_second_check_A3_at_2e4_points_adds_no_buffer(model):
    first = check_A3(model, BoundedSampler(model, n=20000, seed=3))
    before = _pooled()
    second = check_A3(model, BoundedSampler(model, n=20000, seed=3))
    assert _pooled() == before
    assert second.passed and second.to_json() == first.to_json()


@pytest.mark.parametrize("model", [heisenberg_model(), euclidean_model(3),
                                   dropped_correction_heisenberg()],
                         ids=["heisenberg", "euclidean3",
                              "dropped_correction"])
def test_check_pplay_in_threads_at_once_matches_serial_runs(model):
    """Three threads, more than the two cores this was written on, switch
    every 10 us; each pools its own buffers (12000-point clouds are past
    the floor) and must get the report a serial run gets."""
    G = gamma_irq_from_dilation(model)
    quads = [sample_point_quads(model, np.random.default_rng(seed), n=12000)
             for seed in range(3)]

    def run(q):
        rep = check_pplay(G, q)
        return json.dumps(rep.to_json()), [c.witnesses for c in rep.laws]

    serial = [run(q) for q in quads]
    got, pools = [None] * 3, [None] * 3
    start = threading.Barrier(3)

    def worker(i):
        start.wait()
        got[i] = run(quads[i])
        pools[i] = [b for free in vars(models._free).values() for b in free]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial
    assert all(pools)  # each thread pooled buffers, and none another's
    ids = [{id(b) for b in pool} for pool in pools]
    assert sum(map(len, ids)) == len(set().union(*ids))
