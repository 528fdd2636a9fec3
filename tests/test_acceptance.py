"""Acceptance battery: one test per advertised guarantee.

Every test drives a whole guarantee end to end at its stated tolerance
and prints exactly one `criterion N: PASS/FAIL` line (visible under
`pytest -s`).  Budgeted criteria assert their wall-clock limit too, so a
performance regression fails loudly rather than silently rotting.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from ngd import (
    BoundedSampler,
    Delta_eps,
    Measure,
    Scale,
    Sigma_eps,
    check_A3,
    check_A3mod_A4,
    check_double_norm,
    check_fiber_distances,
    check_norm,
    check_pplay,
    check_separability,
    check_translation_groupoid,
    cone_check,
    dyadic_grid,
    estimate_from_residuals,
    euclidean_model,
    fiber_distances,
    gamma_irq_from_dilation,
    heisenberg_model,
    inv_eps,
    kantorovich,
    lip1_vertices,
    norm_d,
    norm_from_fiber_distances,
    pair_groupoid,
    random_metric_space,
    seminorm_rho,
    validate_groupoid,
)
from ngd.emergent import Delta3, Sigma3, sample_point_quads
from ngd.fixtures import flat_gauge_heisenberg, run_planted_suite
from ngd.transport import (
    compose_plans,
    random_composable_chain,
    random_coupling_between,
    two_point_space,
)
from references import parse_error_samples

F = Fraction


@contextmanager
def criterion(n, text):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL - {text}")
        raise
    print(f"criterion {n}: PASS - {text}")


def _mods(s):
    return [float(sc.modulus) for sc in s]


def _off(values, candidate):
    """The residual trace max |v - candidate| of a sequence of values."""
    return [float(np.max(np.abs(np.asarray(v) - candidate))) for v in values]


# -- 1: exact finite battery ------------------------------------------------


def test_criterion_01_finite_spaces_exact_rational():
    t0 = time.perf_counter()
    with criterion(1, "50 random rational spaces: pair groupoid laws, norm, "
                      "separation, double norm, fiber round trips, all exact"):
        for seed in range(50):
            X = random_metric_space(seed, max_points=8)
            G = pair_groupoid(X)
            rep = validate_groupoid(G)
            rep.merge(check_norm(G)).merge(check_separability(G))
            assert rep.passed, rep.summary()
            assert check_double_norm(G).passed
            fib = fiber_distances(G)
            assert norm_from_fiber_distances(G, fib) == G.norm
            assert check_fiber_distances(G).passed
        took = time.perf_counter() - t0
        assert took < 5.0, f"took {took:.2f}s, budget 5s"


# -- 2: Euclidean closed forms ----------------------------------------------


def test_criterion_02_euclidean_closed_forms():
    with criterion(2, "euclidean difference hits (2.1, 0) to 1e-12; sum and "
                      "inverse converge at fitted order 1.00 +/- 0.05"):
        E = euclidean_model(2)
        o = np.zeros(2)
        g = E.arrow(np.array([3.0, 0.0]), o)
        h = E.arrow(np.array([1.0, 0.0]), o)

        d = Delta_eps(E, Scale(F(1, 10)), g, h)
        assert np.max(np.abs(E.target(d) - [2.1, 0.0])) < 1e-12

        grid = dyadic_grid(kmax=30)
        sums = [E.target(Sigma_eps(E, s, g, h)) for s in grid]
        est = estimate_from_residuals("Sigma -> g + h", _mods(grid),
                                      _off(sums, [4.0, 0.0]), tol=1e-6)
        assert est.passed, est.note
        assert abs(est.order - 1.0) <= 0.05, est.order

        k = E.arrow(np.array([2.0, 0.0]), o)
        invs = [E.target(inv_eps(E, s, k)) for s in grid]
        est = estimate_from_residuals("inv -> -g", _mods(grid),
                                      _off(invs, [-2.0, 0.0]), tol=1e-6)
        assert est.passed, est.note
        assert abs(est.order - 1.0) <= 0.05, est.order


# -- 3: Heisenberg closed forms and the bridge identities -------------------


def test_criterion_03_heisenberg_forms_and_bridge():
    t0 = time.perf_counter()
    with criterion(3, "heisenberg based difference exact at every scale, sum "
                      "-> group product, gauge identity, cone + bridge "
                      "identities at 1e-10"):
        H = heisenberg_model()
        e = np.zeros(3)
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])

        scales = [Scale(F(1, 2) ** k) for k in range(1, 21)]
        scales += [Scale(F(1, 10)), Scale(F(1, 3)), Scale(F(3, 7))]
        for s in scales:
            eps = float(s.modulus)
            want = np.array([eps - 1.0, 1.0, (eps - 1.0) / 2.0])
            got = Delta3(H, s, e, u, v)
            assert np.max(np.abs(got - want)) < 1e-12, (eps, got)

        grid = dyadic_grid(kmax=30)
        diffs = [Delta3(H, s, e, u, v) for s in grid]
        est = estimate_from_residuals("Delta -> tangent difference",
                                      _mods(grid),
                                      _off(diffs, [-1.0, 1.0, -0.5]), tol=1e-6)
        assert est.passed, est.note

        sums = [Sigma3(H, s, e, u, v) for s in grid]
        est = estimate_from_residuals("Sigma -> group product", _mods(grid),
                                      _off(sums, H.group.mul(u, v)), tol=1e-6)
        assert est.passed, est.note

        rng = np.random.default_rng(3)
        p = H.sample_points(rng, 1000)
        q = H.sample_points(rng, 1000)
        gauge_of_difference = H.group.gauge(H.group.mul(H.group.inv(q), p))
        assert np.array_equal(H.tangent_point_dist(p, q), gauge_of_difference)

        sampler = BoundedSampler(H, n=1000, seed=5)
        assert cone_check(H, sampler).passed
        assert check_A3mod_A4(H, sampler).passed  # eps* = 1e-4, tol 1e-10

        took = time.perf_counter() - t0
        assert took < 10.0, f"took {took:.2f}s, budget 10s"


# -- 4: the identity battery, honest and planted ----------------------------


def test_criterion_04_identity_battery_and_planted_fixtures():
    with criterion(4, "identity battery at 1e-10 on 10^3 quads per model; "
                      "every planted fixture fails with evidence"):
        for model in (euclidean_model(2), heisenberg_model()):
            Q = gamma_irq_from_dilation(model)
            quads = sample_point_quads(model, np.random.default_rng(11),
                                       n=1000)
            rep = check_pplay(Q, quads)
            assert rep.passed, rep.summary()

        suite = run_planted_suite(seed=0)
        for name, rep in suite:
            assert not rep.passed, f"{name} unexpectedly passed"
            law_evidence = any(
                c.failures and c.witnesses for c in rep.laws
            )
            est_evidence = any(not e.passed for e in rep.limits)
            assert law_evidence or est_evidence, f"{name} failed silently"
        assert len(suite) == 16
        placed = dict(suite)[
            "composite outside its fiber vs right translation"].law(
            "g u lies in the fiber of alpha(u)")
        assert placed.witnesses == [{"composite": "(a<-b)(b<-c)",
                                     "lands": "d<-a"}]


# -- 5: exact transport -----------------------------------------------------


def test_criterion_05_transport_duality_and_associativity():
    t0 = time.perf_counter()
    with criterion(5, "kantorovich = 1/4 exactly, plan norm dominates every "
                      "vertex seminorm, 100 exact associativity triples"):
        X2 = two_point_space()
        mu = Measure(X2, (F(1, 2), F(1, 2)))
        nu = Measure(X2, (F(1, 4), F(3, 4)))
        res = kantorovich(mu, nu)
        assert res.primal == F(1, 4) and res.dual == F(1, 4)

        verts = lip1_vertices(X2)
        rng = random.Random(7)
        plans = [res.plan] + [
            random_coupling_between(mu, nu, rng) for _ in range(20)
        ]
        for plan in plans:
            for vert in verts:
                assert norm_d(plan) >= seminorm_rho(vert, plan)

        for trial in range(100):
            space = random_metric_space(1000 + trial, max_points=5)
            a, b, c = random_composable_chain(
                space, random.Random(trial), full_support=True)
            left = compose_plans(compose_plans(a, b), c)
            right = compose_plans(a, compose_plans(b, c))
            assert left.gamma == right.gamma  # exact rationals

        took = time.perf_counter() - t0
        assert took < 5.0, f"took {took:.2f}s, budget 5s"


# -- 6: the flat gauge cannot fake nondegeneracy ----------------------------


def test_criterion_06_flat_gauge_fails_nondegeneracy():
    with criterion(6, "flat-gauge heisenberg fails nondegeneracy with a "
                      "zero-distance witness pair"):
        model = flat_gauge_heisenberg()
        rep = check_A3(model, BoundedSampler(model, n=200, seed=2))
        assert not rep.passed
        law = rep.law(
            "nondegeneracy: distinct arrows keep positive tangent distance")
        assert law.failures and law.witnesses
        w = law.witnesses[0]
        assert w["tangent_distance"] <= 1e-7
        assert w["target_g"] != w["target_h"]


# -- 7: translation structure -----------------------------------------------


def test_criterion_07_translation_groupoid_both_models():
    with criterion(7, "translation isometries and closure at 1e-12 on 10^3 "
                      "triples per model"):
        for model in (euclidean_model(2), heisenberg_model()):
            rep = check_translation_groupoid(model, n=1000)
            assert rep.passed, rep.summary()


# -- 8: CLI contract ---------------------------------------------------------


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ngd.cli", *argv],
        capture_output=True, text=True)


def test_criterion_08_cli_exit_codes(capsys):
    with criterion(8, "report exits 0 per model, planted suite exits 1, "
                      "parse errors exit 2 with positions"):
        for model in ("euclidean", "heisenberg"):
            proc = _cli("report", "--suite", "all", "--model", model)
            assert proc.returncode == 0, proc.stdout + proc.stderr

        proc = _cli("report", "--suite", "planted", "--samples", "120")
        assert proc.returncode == 1, proc.stdout + proc.stderr

        from ngd import cli

        for expr, line, col in parse_error_samples():
            code = cli.main(["eval", expr])
            err = capsys.readouterr().err
            assert code == 2, expr
            assert f"line {line}, col {col}" in err, (expr, err)
