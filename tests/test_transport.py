"""Exact transport plans on finite metric spaces: composition through
disintegration, the plan norm, Lipschitz seminorms, and Kantorovich
duality solved by rational simplex."""

import dataclasses
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngd import fixtures, transport
from ngd.constructions import FiniteMetricSpace, random_metric_space
from ngd.core import _common, _matrix_over_lcm, _over_lcm
from ngd.fixtures import (composite_off_by_one_unit,
                          marginal_off_by_one_unit, run_planted_suite,
                          unpivoted_transport_basis)
from ngd.transport import (
    Coupling,
    LipFunction,
    MarginalMismatch,
    Measure,
    check_kantorovich_certificate,
    check_kantorovich_duality,
    check_transport,
    compose_plans,
    diag_plan,
    inverse_plan,
    is_invtrans,
    kantorovich,
    lip1_vertices,
    lip1_witness,
    map_plan,
    norm_d,
    product_plan,
    random_composable_chain,
    random_coupling_from,
    random_coupling_between,
    random_measure,
    seminorm_rho,
    solve_lp,
    two_point_space,
)
from references import basis_potentials

X2 = two_point_space()


def line3():
    return FiniteMetricSpace(
        points=[0, 1, 2],
        dist=[
            [Fraction(0), Fraction(1), Fraction(2)],
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(2), Fraction(1), Fraction(0)],
        ],
    )


def frac_weights(n):
    """Strategy: n positive rational weights summing to one."""
    return st.lists(
        st.integers(min_value=1, max_value=20), min_size=n, max_size=n
    ).map(lambda ks: tuple(Fraction(k, sum(ks)) for k in ks))


# ---------------------------------------------------------------------------
# measures and plans


def test_measure_must_sum_to_one():
    with pytest.raises(ValueError):
        Measure(X2, (Fraction(1, 2), Fraction(1, 3)))


def test_measure_rejects_negative_mass():
    with pytest.raises(ValueError):
        Measure(X2, (Fraction(3, 2), Fraction(-1, 2)))


def test_coupling_checks_declared_marginals():
    mu = Measure(X2, (Fraction(1, 2), Fraction(1, 2)))
    bad = Measure(X2, (Fraction(1, 4), Fraction(3, 4)))
    gamma = ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    Coupling(X2, gamma, mu=mu, nu=mu)  # fine
    with pytest.raises(ValueError, match="second marginal"):
        Coupling(X2, gamma, mu=mu, nu=bad)


def test_diag_and_product_plans():
    mu = Measure(X2, (Fraction(1, 4), Fraction(3, 4)))
    assert norm_d(diag_plan(mu)) == 0
    prod = product_plan(mu, mu)
    assert prod.gamma[0][1] == Fraction(3, 16)
    assert norm_d(prod) == 2 * Fraction(1, 4) * Fraction(3, 4)


def test_map_plan_and_push_forward():
    mu = Measure(X2, (Fraction(1, 3), Fraction(2, 3)))
    swap = map_plan([1, 0], mu)
    assert swap.nu.weights == (Fraction(2, 3), Fraction(1, 3))
    assert norm_d(swap) == 1


def test_a_negative_image_index_raises():
    """The image measure f # mu is map_plan(f, mu).nu, its one route: an
    index -1 is refused, not read as the last point."""
    mu = Measure(X2, (Fraction(1, 3), Fraction(2, 3)))
    with pytest.raises(ValueError, match="map undefined at support point 0"):
        map_plan([-1, 0], mu)
    assert not hasattr(transport, "push_forward")


def test_map_plan_reads_the_map_only_on_the_support():
    """A callable map need not be defined off supp(mu): the dict below
    knows point 0 only, and mu puts no mass on point 1."""
    plan = map_plan({0: 1}.__getitem__, Measure(X2, (1, 0)))
    assert [list(row) for row in plan.gamma] == [[0, 1], [0, 0]]


# ---------------------------------------------------------------------------
# composition


def test_composition_follows_the_disintegration_sum():
    mu = Measure(X2, (Fraction(1, 2), Fraction(1, 2)))
    nu = Measure(X2, (Fraction(1, 4), Fraction(3, 4)))
    gamma = Coupling(
        X2,
        ((Fraction(1, 4), Fraction(1, 4)), (Fraction(0), Fraction(1, 2))),
        mu=mu, nu=nu,
    )
    gp = Coupling(
        X2,
        ((Fraction(1, 4), Fraction(0)), (Fraction(1, 4), Fraction(1, 2))),
    )
    out = compose_plans(gamma, gp)
    assert out.gamma == (
        (Fraction(1, 3), Fraction(1, 6)),
        (Fraction(1, 6), Fraction(1, 3)),
    )
    assert out.mu.weights == mu.weights


def test_mismatch_carries_the_first_offending_index():
    mu = Measure(X2, (Fraction(1, 2), Fraction(1, 2)))
    nu2 = Measure(X2, (Fraction(49, 100), Fraction(51, 100)))
    with pytest.raises(MarginalMismatch) as exc:
        compose_plans(diag_plan(mu), diag_plan(nu2))
    assert exc.value.index == 0
    assert exc.value.left == Fraction(1, 2)
    assert exc.value.right == Fraction(49, 100)


def test_identity_plans_are_neutral():
    rng = random.Random(7)
    space = line3()
    for _ in range(20):
        mu = random_measure(space, rng)
        g = random_coupling_between(mu, random_measure(space, rng), rng)
        assert compose_plans(diag_plan(g.mu), g) == g
        assert compose_plans(g, diag_plan(g.nu)) == g


def test_composition_is_exactly_associative():
    """Including through zero-mass middle points — the double sums are
    literally identical, so == is the right assertion."""
    rng = random.Random(1)
    for trial in range(100):
        space = random_metric_space(seed=trial, max_points=5)
        full = trial % 2 == 0
        a, b, c = random_composable_chain(space, rng, full_support=full)
        assert compose_plans(compose_plans(a, b), c) == compose_plans(
            a, compose_plans(b, c)
        )


def test_inverse_is_an_involutive_antimorphism():
    rng = random.Random(2)
    space = line3()
    for _ in range(25):
        a = random_coupling_from(random_measure(space, rng), rng)
        b = random_coupling_from(a.nu, rng)
        assert inverse_plan(inverse_plan(a)) == a
        assert inverse_plan(compose_plans(a, b)) == compose_plans(
            inverse_plan(b), inverse_plan(a)
        )
        assert norm_d(inverse_plan(a)) == norm_d(a)


# ---------------------------------------------------------------------------
# the norm and the Lipschitz seminorms


class TestPlanNorm:
    @given(frac_weights(2), frac_weights(2))
    @settings(max_examples=40, deadline=None)
    def test_norm_zero_iff_diagonal_on_two_points(self, wmu, wnu):
        mu, nu = Measure(X2, wmu), Measure(X2, wnu)
        rng = random.Random(5)
        g = random_coupling_between(mu, nu, rng)
        offdiag = g.gamma[0][1] + g.gamma[1][0]
        assert (norm_d(g) == 0) == (offdiag == 0)

    @given(frac_weights(3), frac_weights(3), frac_weights(3))
    @settings(max_examples=30, deadline=None)
    def test_subadditive_along_composition(self, w1, w2, w3):
        space = line3()
        rng = random.Random(9)
        a = random_coupling_between(Measure(space, w1),
                                    Measure(space, w2), rng)
        b = random_coupling_between(Measure(space, w2),
                                    Measure(space, w3), rng)
        assert norm_d(compose_plans(a, b)) <= norm_d(a) + norm_d(b)


def test_lip1_witness_finds_violations():
    space = line3()
    assert lip1_witness(space, (Fraction(0), Fraction(1), Fraction(2))) is None
    w = lip1_witness(space, (Fraction(0), Fraction(5), Fraction(0)))
    assert w is not None


def test_lip_function_validates():
    with pytest.raises(ValueError):
        LipFunction(line3(), (Fraction(0), Fraction(3), Fraction(0)))


def test_a_lip_function_needs_one_value_per_point():
    with pytest.raises(ValueError, match="^one value per point, please$"):
        LipFunction(line3(), (Fraction(0), Fraction(1)))


def test_plans_on_two_spaces_are_refused():
    mu = Measure(X2, (Fraction(1, 2), Fraction(1, 2)))
    nu = Measure(line3(), (Fraction(1, 3),) * 3)
    with pytest.raises(ValueError, match="^operands live on different "
                                         "spaces$"):
        product_plan(mu, nu)


def test_seminorm_sees_only_the_marginals():
    mu = Measure(X2, (Fraction(1, 2), Fraction(1, 2)))
    nu = Measure(X2, (Fraction(1, 4), Fraction(3, 4)))
    u = LipFunction(X2, (Fraction(1), Fraction(0)))
    rng = random.Random(3)
    vals = {
        seminorm_rho(u, random_coupling_between(mu, nu, rng))
        for _ in range(10)
    }
    assert len(vals) == 1  # rho_u factors through (mu, nu)
    assert vals.pop() == Fraction(1, 4)


def test_lip1_vertices_two_points():
    vs = set(lip1_vertices(X2))
    assert vs == {(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))}


def test_lip1_vertices_line():
    vs = set(lip1_vertices(line3()))
    assert (Fraction(0), Fraction(1), Fraction(2)) in vs
    # every vertex is 1-Lipschitz and pinned at the first point
    for v in vs:
        assert v[0] == 0
        assert lip1_witness(line3(), v) is None


def test_lip1_vertices_refuses_six_points():
    space = FiniteMetricSpace(points=list(range(6)),
                              dist=[[int(i != j) for j in range(6)]
                                    for i in range(6)])
    with pytest.raises(ValueError, match="refusing n = 6 > 5$"):
        lip1_vertices(space)


def elimination_lip1_vertices(space):
    """The reference enumerator: one exact Gaussian elimination per
    (n-1)-subset of the difference constraints turned into equalities,
    kept when the system is regular and its solution 1-Lipschitz."""
    n = space.n_points()
    if n == 1:
        return [(Fraction(0),)]
    cons = [(x, y) for x in range(n) for y in range(n) if x != y]

    def row(x, y):
        r = [Fraction(0)] * (n - 1)
        if x > 0:
            r[x - 1] += 1
        if y > 0:
            r[y - 1] -= 1
        return r

    def solve_square(M, rhs):
        k = len(M)
        M = [list(r) + [b] for r, b in zip(M, rhs)]
        for col in range(k):
            piv = next((r for r in range(col, k) if M[r][col] != 0), None)
            if piv is None:
                return None
            M[col], M[piv] = M[piv], M[col]
            pv = M[col][col]
            M[col] = [v / pv for v in M[col]]
            for r in range(k):
                if r != col and M[r][col] != 0:
                    f = M[r][col]
                    M[r] = [a - f * b for a, b in zip(M[r], M[col])]
        return [M[r][k] for r in range(k)]

    verts = set()
    for sub in combinations(cons, n - 1):
        sol = solve_square([row(*c) for c in sub],
                           [space.dist[x][y] for x, y in sub])
        if sol is None:
            continue
        u = (Fraction(0),) + tuple(sol)
        if all(u[x] - u[y] <= space.dist[x][y] for x, y in cons):
            verts.add(u)
    return sorted(verts)


def test_lip1_vertices_match_the_elimination_reference():
    """The tree walk finds exactly the vertices elimination finds, in
    the same order."""
    spaces = [FiniteMetricSpace(points=[0], dist=[[Fraction(0)]]), X2,
              line3()]
    spaces += [random_metric_space(seed=s, max_points=5) for s in range(9)]
    assert {sp.n_points() for sp in spaces} == {1, 2, 3, 4, 5}
    for space in spaces:
        assert lip1_vertices(space) == elimination_lip1_vertices(space)


def sweep_coupling_between(mu, nu, rng):
    """The reference for random_coupling_between: the same random cells,
    then the leftover masses swept row by row, northwest first."""
    n = mu.space.n_points()
    rows, cols = list(mu.weights), list(nu.weights)
    g = [[Fraction(0)] * n for _ in range(n)]
    cells = [(x, y) for x in range(n) for y in range(n)]
    rng.shuffle(cells)
    for x, y in cells:
        cap = min(rows[x], cols[y])
        if cap == 0:
            continue
        t = cap * Fraction(rng.randint(0, 8), 8)
        g[x][y] += t
        rows[x] -= t
        cols[y] -= t
    y = 0
    for x in range(n):
        while rows[x] > 0:
            t = min(rows[x], cols[y])
            g[x][y] += t
            rows[x] -= t
            cols[y] -= t
            if cols[y] == 0 and rows[x] > 0:
                y += 1
    return tuple(tuple(r) for r in g)


def test_random_coupling_between_matches_the_sweep_reference():
    rng = random.Random(12)
    for trial in range(60):
        space = random_metric_space(seed=trial, max_points=6)
        if trial % 2:
            mu, nu = (measure_with_zeros(space, rng) for _ in range(2))
        else:
            mu, nu = (random_measure(space, rng, full_support=trial % 4 == 0)
                      for _ in range(2))
        got = random_coupling_between(mu, nu, random.Random(trial))
        assert got.gamma == sweep_coupling_between(mu, nu,
                                                   random.Random(trial))


def test_plan_norm_dominates_every_vertex_seminorm():
    rng = random.Random(4)
    space = line3()
    for _ in range(15):
        mu = random_measure(space, rng)
        nu = random_measure(space, rng)
        g = random_coupling_between(mu, nu, rng)
        for v in lip1_vertices(space):
            u = LipFunction(space, v)
            assert seminorm_rho(u, g) <= norm_d(g)


# ---------------------------------------------------------------------------
# invertible transports


def test_swap_is_an_invertible_transport():
    mu = Measure(X2, (Fraction(1, 2), Fraction(1, 2)))
    swap = map_plan([1, 0], mu)
    w = is_invtrans(swap)
    assert w is not None
    fwd, bwd = w
    assert list(fwd) == [1, 0] and list(bwd) == [1, 0]


def test_quarter_uniform_is_not_invertible():
    mu = Measure(X2, (Fraction(1, 2), Fraction(1, 2)))
    assert is_invtrans(product_plan(mu, mu)) is None


def test_invertibility_matches_the_two_sided_dual_route():
    """gamma is an invertible transport iff BOTH gamma^-1 o gamma and
    gamma o gamma^-1 are diagonal.  The one-sided version is false in
    general: this plan's gamma^-1 o gamma is diagonal on the support but
    it is no map."""
    rng = random.Random(6)
    for trial in range(60):
        space = random_metric_space(seed=trial + 1000, max_points=4)
        mu = random_measure(space, rng, full_support=(trial % 2 == 0))
        g = random_coupling_between(
            mu, random_measure(space, rng, full_support=(trial % 3 == 0)),
            rng,
        )
        n = space.n_points()
        perm = list(range(n))
        rng.shuffle(perm)
        for plan in (g, map_plan(perm, mu)):
            # compose_plans(p, p^-1) runs mu -> nu -> mu, and vice versa
            two_sided = (
                compose_plans(plan, inverse_plan(plan))
                == diag_plan(plan.mu)
                and compose_plans(inverse_plan(plan), plan)
                == diag_plan(plan.nu)
            )
            assert (is_invtrans(plan) is not None) == two_sided, plan.gamma


def test_one_sided_diagonality_is_not_enough():
    # half the mass of point 0 goes each way; nothing is a map here, yet
    # the mu -> nu -> mu round trip collapses to the diagonal because mu
    # is a point mass
    gamma = Coupling(
        X2, ((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(0))),
    )
    round_trip = compose_plans(gamma, inverse_plan(gamma))
    assert round_trip == diag_plan(gamma.mu)
    # ... while the other side is the full product plan, not a diagonal
    other = compose_plans(inverse_plan(gamma), gamma)
    assert other == product_plan(gamma.nu, gamma.nu)
    assert is_invtrans(gamma) is None


# ---------------------------------------------------------------------------
# exact duality


def test_wasserstein_quarter_oracle():
    mu = Measure(X2, (Fraction(1, 2), Fraction(1, 2)))
    nu = Measure(X2, (Fraction(1, 4), Fraction(3, 4)))
    assert kantorovich(mu, nu).primal == Fraction(1, 4)


def test_kantorovich_point_masses_on_the_line():
    space = line3()
    d0 = Measure(space, (Fraction(1), Fraction(0), Fraction(0)))
    d2 = Measure(space, (Fraction(0), Fraction(0), Fraction(1)))
    res = kantorovich(d0, d2)
    assert res.primal == res.dual == Fraction(2)
    assert res.potential.values[0] - res.potential.values[2] == Fraction(2)


def test_duality_battery_on_random_spaces():
    rng = random.Random(8)
    for seed in (3, 14, 15):
        space = random_metric_space(seed=seed, max_points=5)
        pairs = [
            (random_measure(space, rng), random_measure(space, rng))
            for _ in range(3)
        ]
        rep = check_kantorovich_duality(space, pairs)
        assert rep.passed, rep.summary()


def test_optimal_value_is_a_lip1_vertex_value():
    """On small spaces the dual optimum is attained at a vertex of the
    Lipschitz ball — cross-check the simplex against enumeration."""
    rng = random.Random(10)
    for seed in (2, 7):
        space = random_metric_space(seed=seed, max_points=4)
        mu = random_measure(space, rng)
        nu = random_measure(space, rng)
        best = max(
            abs(sum(u[x] * (mu.weights[x] - nu.weights[x])
                    for x in range(space.n_points())))
            for u in lip1_vertices(space)
        )
        assert kantorovich(mu, nu).primal == best


def test_solve_lp_rejects_infeasible():
    # x >= 0 with x_1 + x_2 = -1 has no solution
    A = [[Fraction(1), Fraction(1)]]
    b = [Fraction(-1)]
    c = [Fraction(1), Fraction(1)]
    with pytest.raises(ArithmeticError):
        solve_lp(A, b, c)


def test_solve_lp_rejects_unbounded():
    # min -x_1 subject to x_1 - x_2 = 0: x_1 = x_2 grows without bound
    with pytest.raises(ArithmeticError, match="^LP is unbounded$"):
        solve_lp([[1, -1]], [0], [-1, 0])


def test_solve_lp_handles_redundant_rows():
    A = [
        [Fraction(1), Fraction(1)],
        [Fraction(2), Fraction(2)],  # same constraint, doubled
    ]
    b = [Fraction(1), Fraction(2)]
    c = [Fraction(1), Fraction(3)]
    val, x = solve_lp(A, b, c)
    assert val == Fraction(1)
    assert x == [Fraction(1), Fraction(0)]


def dense_lp_values(mu, nu):
    """The transport problem as two dense LPs solved by solve_lp: the
    n^2-variable transportation LP and the Lipschitz dual (free u split
    as p - q, one slack per ordered pair).  Returns (primal, dual)."""
    space = mu.space
    n = space.n_points()
    d = space.dist
    A, b = [], []
    for x in range(n):
        A.append([int(k // n == x) for k in range(n * n)])
        b.append(mu[x])
    for y in range(n - 1):  # the last column sum is implied
        A.append([int(k % n == y) for k in range(n * n)])
        b.append(nu[y])
    primal, _ = solve_lp(A, b, [d[k // n][k % n] for k in range(n * n)])
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    A, b = [], []
    for k, (x, y) in enumerate(pairs):
        row = [0] * (2 * n + len(pairs))
        row[x], row[n + x], row[y], row[n + y] = 1, -1, -1, 1
        row[2 * n + k] = 1
        A.append(row)
        b.append(d[x][y])
    c = [nu[x] - mu[x] for x in range(n)]
    c += [-v for v in c] + [0] * len(pairs)
    neg_dual, _ = solve_lp(A, b, c)
    return primal, -neg_dual


def uniform_space(n):
    return FiniteMetricSpace(
        points=list(range(n)),
        dist=[[int(x != y) for y in range(n)] for x in range(n)],
    )


def point_mass(space, i):
    n = space.n_points()
    return Measure(space, tuple(Fraction(int(x == i)) for x in range(n)))


def test_kantorovich_matches_the_dense_lp_oracle():
    """The transportation simplex against solve_lp on both dense LPs, on
    the small spaces of the acceptance battery and on degenerate
    families (uniform metric, mu = nu, point masses) that force ties."""
    rng = random.Random(5)
    spaces = [random_metric_space(s, max_points=8) for s in range(50)]
    spaces = [X for X in spaces if X.n_points() <= 5]
    assert len(spaces) == 29
    spaces += [random_metric_space(1000 + t, max_points=5) for t in range(25)]
    problems = [
        (random_measure(X, rng, full_support=k % 2 == 0),
         random_measure(X, rng, full_support=False))
        for k, X in enumerate(spaces)
    ]
    for n in (2, 3, 4, 5):
        U = uniform_space(n)
        mu = random_measure(U, rng, full_support=False)
        problems += [
            (mu, random_measure(U, rng)),
            (mu, mu),
            (point_mass(U, 0), point_mass(U, n - 1)),
            (point_mass(U, 1), point_mass(U, 1)),
        ]
    for mu, nu in problems:
        res = kantorovich(mu, nu)
        assert (res.primal, res.dual) == dense_lp_values(mu, nu)


def solve_in_steps(mu, nu):
    """kantorovich's solver on (mu, nu), step by step from its least-cost
    start: (cost, basis, tree, anchors), the optimal basis and the tree
    kept with it, and anchors the potentials of the nodes the first tree
    hung from its root."""
    supply, demand, _ = _common(mu._int, nu._int)
    cost, _ = mu.space._int
    basis = transport._least_cost(cost, supply, demand)
    tree = transport._basis_tree(cost, basis)
    parent, cell, depth, kids, pi = tree
    anchors = {q: pi[q] for q in kids[-1]}
    transport._pivot_to_optimum(cost, basis, tree)
    return cost, basis, tree, anchors


def assert_strong_tree(cost, basis, tree):
    """The tree holds exactly its basis cells and prices each at zero,
    and it is strongly feasible: a cell of zero flow points up, from its
    row to its column above."""
    parent, cell, depth, kids, pi = tree
    n = len(cost)
    root = 2 * n
    assert sum(map(len, kids)) == root and depth[root] == 0
    for q in range(root):
        p = parent[q]
        assert q in kids[p] and depth[q] == depth[p] + 1
        if cell[q] < 0:  # an artificial arc
            assert p == root
            continue
        x, y = divmod(cell[q], n)
        assert {p, q} == {x, n + y} and pi[x] - pi[n + y] == cost[x][y]
        assert basis[cell[q]] > 0 or q == x
    assert sorted(basis) == sorted(k for k in cell if k >= 0)


def assert_optimal_tree(cost, basis, tree, anchors):
    """The tree holds its basis, strongly feasible and optimal, and the
    potentials it kept are those walked out afresh from the basis."""
    assert_strong_tree(cost, basis, tree)
    kids, pi = tree[3], tree[4]
    n = len(cost)
    root = 2 * n
    # an artificial arc keeps its first potential
    assert all(pi[q] == anchors[q] for q in kids[root])
    assert min(c - pi[x] + pi[n + y] for x, row in enumerate(cost)
               for y, c in enumerate(row)) == 0
    assert basis_potentials(
        cost, basis, {q: pi[q] for q in kids[root]}) == pi[:root]


def degenerate_problems(rng, n):
    """Problems on the uniform metric of n points that force tied reduced
    costs and zero flows: mu = nu, point masses, sparse supports, and a
    spread sent to one point, whose columns of zero demand the first
    tree hangs from its artificial root."""
    U = uniform_space(n)
    mu = random_measure(U, rng, full_support=False)
    spread = Measure(U, (Fraction(1, n),) * n)
    return [
        (mu, mu),
        (spread, spread),
        (point_mass(U, 0), point_mass(U, n - 1)),
        (point_mass(U, n // 2), point_mass(U, n // 2)),
        (mu, random_measure(U, rng, full_support=False)),
        (random_measure(U, rng, full_support=False), point_mass(U, 0)),
        (spread, point_mass(U, n - 1)),
        (point_mass(U, n - 1), spread),
    ]


def test_kantorovich_ends_and_certifies_on_degenerate_families():
    """Up to n = 12, every degenerate solve ends, and ends certified; its
    value is the dense LPs' where n <= 5.  The solver has no pivot cap:
    that it returns at all is the strongly feasible tree's doing."""
    rng = random.Random(12)
    rooted = 0
    for n in range(1, 13):
        for mu, nu in degenerate_problems(rng, n):
            cost, basis, tree, anchors = solve_in_steps(mu, nu)
            assert_optimal_tree(cost, basis, tree, anchors)
            rooted += len(anchors) > 1
            res = kantorovich(mu, nu)
            assert check_kantorovich_certificate(
                mu, nu, res.plan.gamma, res.potential.values).passed
            if n <= 5:
                assert (res.primal, res.dual) == dense_lp_values(mu, nu)
    assert rooted > 12


def test_least_cost_on_a_zero_cost_books_the_northwest_staircase():
    """On a zero cost every cell ties, so the stable sort visits them in
    row-major order, and the least-cost basis is the northwest corner:
    2n - 1 cells from (0, 0) to (n - 1, n - 1), in booking order, each
    one step right of or below the last, and their flows a coupling of
    the two margins.  A staircase is a spanning tree, so those margins
    fix its flows.  Zero entries, and all-zero margins, included."""
    rng = random.Random(5)
    for n in range(1, 8):
        zero = [[0] * n] * n
        for k in range(80):
            supply, demand = [0] * n, [0] * n  # k = 0: all-zero margins
            if k:
                supply = [rng.randint(0, 6) * (rng.random() < 0.7)
                          for _ in range(n)]
                for _ in range(sum(supply)):
                    demand[rng.randrange(n)] += 1
            basis = transport._least_cost(zero, supply, demand)
            cells = [divmod(c, n) for c in basis]
            assert len(cells) == 2 * n - 1
            assert cells[0] == (0, 0) and cells[-1] == (n - 1, n - 1)
            assert all((x1 - x0, y1 - y0) in ((0, 1), (1, 0))
                       for (x0, y0), (x1, y1) in zip(cells, cells[1:]))
            rows, cols = [0] * n, [0] * n
            for (x, y), flow in zip(cells, basis.values()):
                assert flow >= 0
                rows[x] += flow
                cols[y] += flow
            assert (rows, cols) == (supply, demand)


def test_the_first_tree_holds_the_least_cost_basis_strongly_feasible():
    """The least-cost start books 2n - 1 cells, a coupling of the two
    marginals, and the tree walked out of it holds exactly the cells it
    keeps, strongly feasible and each priced at zero.  Zero-mass points
    book diagonal cells of zero flow; a column reached through a cell of
    zero flow hangs from the root instead, and the cell leaves the basis.
    The optimal basis the solver leaves is a forest once a node hangs
    from the root: walked out afresh, each component hangs from it."""
    rng = random.Random(3)
    problems = []
    for n in range(1, 9):
        problems += degenerate_problems(rng, n)
        X = random_metric_space(n, max_points=8)
        problems += [(random_measure(X, rng, full_support=False),
                      random_measure(X, rng, full_support=full))
                     for full in (True, False)]
    zero_diagonal = rooted = forests = 0
    for mu, nu in problems:
        n = mu.space.n_points()
        supply, demand, _ = _common(mu._int, nu._int)
        cost, _ = mu.space._int
        basis = transport._least_cost(cost, supply, demand)
        booked = dict(basis)
        assert len(booked) == 2 * n - 1 and min(booked.values()) >= 0
        rows, cols = [0] * n, [0] * n
        for k, v in booked.items():
            rows[k // n] += v
            cols[k % n] += v
        assert (rows, cols) == (supply, demand)
        zero_diagonal += any(not booked.get(x * n + x, 1) for x in range(n))

        tree = transport._basis_tree(cost, basis)
        assert_strong_tree(cost, basis, tree)
        top = tree[3][-1]
        assert basis.items() <= booked.items()
        assert len(basis) + len(top) == 2 * n  # one arc above each node
        rooted += len(top) > 1

        transport._pivot_to_optimum(cost, basis, tree)
        forest = dict(basis)
        again = transport._basis_tree(cost, forest)
        assert_strong_tree(cost, forest, again)
        assert len(forest) + len(again[3][-1]) == 2 * n
        forests += len(basis) < 2 * n - 1
    assert zero_diagonal > 40 and rooted > 40 and forests > 40


@pytest.mark.parametrize("seed", range(8))
def test_the_kept_tree_holds_its_basis_potentials(seed):
    """On random problems the kept tree is optimal and its potentials are
    its basis's.  With full support and weights whose partial sums never
    tie, the least-cost start books no cell of zero flow, so nothing
    hangs from the artificial root but row 0: the basis spans, and its
    potentials are walked out from u_0 = 0."""
    space = random_metric_space(seed, max_points=9)
    n = space.n_points()
    rng = random.Random(seed)
    for full in (True, False):
        mu = random_measure(space, rng, full_support=full)
        nu = random_measure(space, rng, full_support=full)
        cost, basis, tree, anchors = solve_in_steps(mu, nu)
        assert_optimal_tree(cost, basis, tree, anchors)
        if full:
            assert anchors == {0: 0} and len(basis) == 2 * n - 1


def test_kantorovich_on_the_one_point_space():
    X1 = FiniteMetricSpace(points=["a"], dist=[[0]])
    one = Measure(X1, (Fraction(1),))
    res = kantorovich(one, one)
    assert res.primal == res.dual == 0
    assert res.potential.values == (Fraction(0),)
    assert res.plan.gamma == ((Fraction(1),),)
    assert res.pivots == 0


def assert_certified_at(n, seed, pivots):
    """One solve at n points, far beyond the dense tableaux: random
    rational edge weights closed by exact shortest paths (on numerators
    over 840, the lcm of the weights' denominators), the certificate
    checked against this test's own d, mu and nu.  The solver is
    deterministic, so its pivot count is pinned."""
    rng = random.Random(seed)
    w = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            w[x][y] = w[y][x] = rng.randint(1, 24) * 840 // rng.randint(1, 8)
    for k in range(n):
        wk = w[k]
        for x, row in enumerate(w):
            via = row[k]
            for y in range(n):
                if x != y and via + wk[y] < row[y]:
                    row[y] = via + wk[y]
    d = [[Fraction(v, 840) for v in row] for row in w]
    a = [rng.randint(0, 12) for _ in range(n)]
    b = [rng.randint(1, 12) for _ in range(n)]
    mu = [Fraction(v, sum(a)) for v in a]
    nu = [Fraction(v, sum(b)) for v in b]
    X = FiniteMetricSpace(points=list(range(n)), dist=d)
    res = kantorovich(Measure(X, mu), Measure(X, nu))
    g, u = res.plan.gamma, res.potential.values
    assert all(v >= 0 for row in g for v in row)
    assert [sum(row) for row in g] == mu
    assert [sum(g[x][y] for x in range(n)) for y in range(n)] == nu
    assert all(
        u[x] - u[y] <= d[x][y] for x in range(n) for y in range(n)
    )
    cost = sum(d[x][y] * g[x][y] for x in range(n) for y in range(n))
    value = sum(u[x] * (mu[x] - nu[x]) for x in range(n))
    assert cost == value == res.primal == res.dual == norm_d(res.plan)
    assert res.pivots == pivots
    assert res.den_bits == den_bits_of(res) > 1


def test_kantorovich_certificate_at_thirty_points():
    assert_certified_at(30, seed=30, pivots=11)


def test_kantorovich_certificate_at_sixty_points():
    assert_certified_at(60, seed=60, pivots=27)


def test_certificate_catches_the_unpivoted_basis(monkeypatch):
    """The northwest-corner basis is feasible and its potential is
    1-Lipschitz, so only the gap and slackness laws can see that it is
    not optimal.  A solver that stops before pivoting must be refused."""
    mu, nu, gamma, u = unpivoted_transport_basis()
    rep = check_kantorovich_certificate(mu, nu, gamma, u)
    verdicts = {c.law: c.passed for c in rep.laws}
    assert verdicts == {
        "plan is a coupling of (mu, nu), exactly": True,
        "potential is 1-Lipschitz": True,
        "sum d gamma = sum u (mu - nu), exactly": False,
        "u(x) - u(y) = d(x, y) on every occupied cell": False,
    }
    assert rep.law("sum d gamma = sum u (mu - nu), exactly").witnesses == [
        {"primal": "3/2", "dual": "1/2"}
    ]

    # the least-cost start leaves b in place and sends a to c: optimal
    res = kantorovich(mu, nu)
    assert res.primal == Fraction(1, 2) and res.pivots == 0
    assert check_kantorovich_certificate(
        mu, nu, res.plan.gamma, res.potential.values
    ).passed

    # on a line at 0, 2, 3, 5 the start ships the cheapest move, 3 to 2,
    # which leaves 0 to 5: cost 3, where 0 to 2 and 3 to 5 cost 2
    P = [0, 2, 3, 5]
    line = FiniteMetricSpace(points=P, dist=[[abs(a - b) for b in P]
                                             for a in P])
    half = Fraction(1, 2)
    mu = Measure(line, (half, 0, half, 0))
    nu = Measure(line, (0, half, 0, half))
    res = kantorovich(mu, nu)
    assert res.primal == 2 and res.pivots == 2
    monkeypatch.setattr(  # no pivot: phi is the first tree's c-transform
        transport, "_pivot_to_optimum", lambda cost, basis, tree: (
            0, transport._c_transform(cost, tree[-1][4:8])))
    with pytest.raises(AssertionError, match="certificate failed"):
        kantorovich(mu, nu)


def test_certificate_names_a_lipschitz_witness_and_a_bad_marginal():
    mu = Measure(X2, (Fraction(1, 2), Fraction(1, 2)))
    nu = Measure(X2, (Fraction(1, 4), Fraction(3, 4)))
    gamma = ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    rep = check_kantorovich_certificate(mu, nu, gamma, (Fraction(2), 0))
    assert rep.law("potential is 1-Lipschitz").witnesses[0]["pair"] == (0, 1)
    marg = rep.law("plan is a coupling of (mu, nu), exactly")
    assert marg.witnesses[0] == {"column": 0, "sum": "1/2", "marginal": "1/4"}


def test_certificate_takes_u_and_d_over_one_lcm_for_the_lipschitz_sweep():
    """d is over halves.  u over thirds takes both sides over 6, u over
    quarters scales d alone, and u over 1 scales u alone; each fails at
    its one bad pair, with the Fraction reference agreeing."""
    h = Fraction(1, 2)
    halves = FiniteMetricSpace(points=[0, 1, 2],
                               dist=[[0, h, 1], [h, 0, h], [1, h, 0]])
    gamma = ((0, 0, 1), (0,) * 3, (0,) * 3)
    for u, pair, difference in (
            ((Fraction(2, 3), 0, Fraction(1, 3)), (0, 1), "2/3"),
            ((0, Fraction(3, 4), Fraction(1, 4)), (1, 0), "3/4"),
            ((1, 0, 0), (0, 1), "1")):
        rep = assert_certificates_agree(
            point_mass(halves, 0), point_mass(halves, 2), gamma, u)
        lip = rep.law("potential is 1-Lipschitz")
        assert (lip.checked, lip.failures) == (6, 1)
        assert lip.witnesses[0] == {"pair": pair, "difference": difference,
                                    "d": "1/2"}


def test_certificate_names_an_off_sum_before_a_negative_cell():
    """Row 0 has an off sum and a negative cell: its sum is its witness,
    and the lines are walked on to name the negative cells of row 2 and
    of columns 0 and 1, and column 2's sum.  The gap and slackness laws
    read the plan's negative cells as empty: they see 5 occupied cells,
    cost 5/6, against u = 0."""
    space = line3()
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    spread = Measure(space, (third,) * 3)
    gamma = ((3 * sixth, -sixth, 2 * sixth), (0, 2 * sixth, 0),
             (-sixth, sixth, 2 * sixth))
    rep = assert_certificates_agree(spread, spread, gamma, (0, 0, 0))
    marg = rep.law("plan is a coupling of (mu, nu), exactly")
    assert (marg.checked, marg.failures) == (6, 5)
    assert marg.witnesses == [
        {"row": 0, "sum": "2/3", "marginal": "1/3"},
        {"cell": (2, 0), "mass": "-1/6"},
        {"cell": (2, 0), "mass": "-1/6"},
        {"cell": (0, 1), "mass": "-1/6"},
        {"column": 2, "sum": "2/3", "marginal": "1/3"},
    ]
    assert rep.law("potential is 1-Lipschitz").passed
    gap = rep.law("sum d gamma = sum u (mu - nu), exactly")
    assert gap.witnesses == [{"primal": "5/6", "dual": "0"}]
    slack = rep.law("u(x) - u(y) = d(x, y) on every occupied cell")
    assert (slack.checked, slack.failures) == (5, 2)
    assert slack.witnesses[0] == {"cell": (0, 2), "difference": "0",
                                  "d": "2"}


def test_kantorovich_result_unpacks_to_four_and_counts_pivots():
    # a point mass has a single coupling, which the first basis already is
    space = line3()
    spread = Measure(space, (Fraction(1, 3),) * 3)
    res = kantorovich(point_mass(space, 0), spread)
    plan, potential, primal, dual = res
    assert (plan, potential, primal, dual) == (
        res.plan, res.potential, res.primal, res.dual
    )
    assert primal == Fraction(1) and res.pivots == 0


def test_kantorovich_judges_its_potential_lipschitz_once(monkeypatch):
    # the certificate judges the potential; the result does not judge it
    # again, yet holds the same LipFunction a checked construction gives
    # in the integer form the certificate reads: one call, on phi over D,
    # and phi is the row minima of the last pricing scan
    calls, core = [], transport._lip1_pairs
    scans, c_transform = [], transport._c_transform

    def counted(space, u):
        calls.append(u)
        return core(space, u)

    def scanned(cost, v):
        scans.append(c_transform(cost, v))
        return scans[-1]

    monkeypatch.setattr(transport, "_lip1_pairs", counted)
    monkeypatch.setattr(transport, "_c_transform", scanned)
    space = random_metric_space(3, max_points=6)
    rng = random.Random(3)
    res = kantorovich(random_measure(space, rng), random_measure(space, rng))
    assert len(calls) == 1
    (num, D), = calls
    assert D == space._int[1]
    assert num is scans[res.pivots]  # the last scan's, before the sweep's
    assert len(scans) == res.pivots + 2
    assert tuple(Fraction(v, D) for v in num) == res.potential.values
    assert res.potential == LipFunction(space, res.potential.values)
    assert all(type(v) is Fraction for v in res.potential.values)


def den_bits_of(res):
    entries = [v for row in res.plan.gamma for v in row]
    return max(v.denominator.bit_length()
               for v in entries + list(res.potential.values))


def test_kantorovich_reports_denominator_growth():
    mu = Measure(X2, (Fraction(1, 2), Fraction(1, 2)))
    nu = Measure(X2, (Fraction(1, 4), Fraction(3, 4)))
    res = kantorovich(mu, nu)
    assert res.den_bits == 3  # the plan's quarters; the potential is integral
    assert len(tuple(res)) == 4


# ---------------------------------------------------------------------------
# the integer kernels against the definitional Fraction loops
#
# compose_plans, norm_d, seminorm_rho and the Coupling marginals sum
# integer numerators over a common denominator.  The references below are
# the definitions written as chained Fraction arithmetic; kernel and
# reference must agree with ==, entry by entry.


def ref_compose(gamma, gamma_prime):
    """The triple loop: sum over y with nu(y) > 0 of
    gamma(x,y) gamma'(y,z) / nu(y)."""
    n = gamma.space.n_points()
    nu = gamma.nu.weights
    out = [[Fraction(0)] * n for _ in range(n)]
    for y in range(n):
        if nu[y] == 0:
            continue
        for x in range(n):
            gxy = gamma.gamma[x][y]
            if gxy == 0:
                continue
            w = gxy / nu[y]
            row = gamma_prime.gamma[y]
            for z in range(n):
                if row[z]:
                    out[x][z] += w * row[z]
    return tuple(tuple(r) for r in out)


def ref_norm_d(gamma):
    """d(x, y) gamma(x, y) summed over the support."""
    d = gamma.space.dist
    total = Fraction(0)
    for x, row in enumerate(gamma.gamma):
        for y, w in enumerate(row):
            if w:
                total += d[x][y] * w
    return total


def ref_seminorm_rho(u, gamma):
    """|(u(x) - u(y)) gamma(x, y) summed over the support|."""
    total = Fraction(0)
    for x, row in enumerate(gamma.gamma):
        for y, w in enumerate(row):
            if w:
                total += (u[x] - u[y]) * w
    return abs(total)


def ref_marginals(g):
    """Row and column sums by chained Fraction addition."""
    n = len(g)
    rows = tuple(sum(row) for row in g)
    cols = tuple(sum(g[i][j] for i in range(n)) for j in range(n))
    return rows, cols


def line_space(n, rng):
    """n distinct random rational positions on a line, |p - q| apart."""
    pos = rng.sample(range(1, 40), n)
    scale = rng.randint(1, 7)
    return FiniteMetricSpace(
        points=list(range(n)),
        dist=[[Fraction(abs(p - q), scale) for q in pos] for p in pos],
    )


def measure_with_zeros(space, rng):
    """Random weights in 0..5 with point 0 always empty (when n > 1)."""
    n = space.n_points()
    w = [rng.randint(0, 5) for _ in range(n)]
    if n > 1:
        w[0] = 0
    if sum(w) == 0:
        w[-1] = 1
    return Measure(space, tuple(Fraction(v, sum(w)) for v in w))


def assert_kernels_match(plans, potentials):
    """Every kernel against its reference, on every plan (and every
    composable ordered pair)."""
    for p in plans:
        assert all(type(v) is Fraction for row in p.gamma for v in row)
        assert (p.mu.weights, p.nu.weights) == ref_marginals(p.gamma)
        assert norm_d(p) == ref_norm_d(p)
        assert type(norm_d(p)) is Fraction
        for u in potentials:
            assert seminorm_rho(u, p) == ref_seminorm_rho(u, p)
            assert seminorm_rho(u.values, p) == ref_seminorm_rho(u, p)
    for a in plans:
        for b in plans:
            if a.nu.weights != b.mu.weights:
                continue
            ab = compose_plans(a, b)
            assert ab.gamma == ref_compose(a, b)
            assert all(type(v) is Fraction for row in ab.gamma for v in row)
            assert (ab.mu, ab.nu) == (a.mu, b.nu)


def potentials_on(space):
    """1-Lipschitz potentials: +-d(., p) for every point p."""
    n = space.n_points()
    return [
        LipFunction(space, tuple(sign * space.dist[x][p] for x in range(n)))
        for p in range(n) for sign in (1, -1)
    ]


@pytest.mark.parametrize("n", range(1, 8))
def test_kernels_match_the_fraction_loops_on_seeded_chains(n):
    """Chains at n = 1..7: full-support ones, ones with zero-mass middle
    points (whole zero rows and columns), and the library's random
    chains with sparse rows."""
    rng = random.Random(500 + n)
    for trial in range(3):
        space = line_space(n, rng)
        m0, m1, m2, m3 = (measure_with_zeros(space, rng) for _ in range(4))
        zero_chain = [
            random_coupling_between(m0, m1, rng),
            random_coupling_between(m1, m2, rng),
            random_coupling_between(m2, m3, rng),
        ]
        if n > 1:
            assert m1[0] == 0
            assert all(row[0] == 0 for row in zero_chain[0].gamma)
            assert all(v == 0 for v in zero_chain[1].gamma[0])
        chains = [
            zero_chain,
            random_composable_chain(space, rng, full_support=True),
            random_composable_chain(space, rng, full_support=False),
        ]
        for a, b, c in chains:
            assert_kernels_match([a, b, c, compose_plans(a, b)],
                                 potentials_on(space))
            assert compose_plans(compose_plans(a, b), c).gamma == ref_compose(
                Coupling(space, ref_compose(a, b)), c
            )


def test_kernels_match_the_fraction_loops_on_map_plans():
    rng = random.Random(41)
    for n in range(1, 8):
        space = line_space(n, rng)
        for _ in range(4):
            f = tuple(rng.randrange(n) for _ in range(n))
            g = tuple(rng.randrange(n) for _ in range(n))
            mu = measure_with_zeros(space, rng)
            first = map_plan(f, mu)
            second = map_plan(g, first.nu)
            assert_kernels_match([first, second, inverse_plan(first)],
                                 potentials_on(space))


def test_kernels_match_the_fraction_loops_on_the_fixture_category():
    _, plans, _ = transport.transport_category_fixture()
    potentials = [LipFunction(X2, u) for u in lip1_vertices(X2)]
    assert_kernels_match(plans, potentials)


def test_kernels_match_the_fraction_loops_on_product_and_diag_plans():
    rng = random.Random(43)
    for n in range(1, 8):
        space = line_space(n, rng)
        mu, nu, rho = (random_measure(space, rng, full_support=k != 1)
                       for k in range(3))
        plans = [
            diag_plan(mu), diag_plan(nu), diag_plan(rho),
            product_plan(mu, nu), product_plan(nu, rho),
            product_plan(mu, mu), product_plan(nu, mu),
            random_coupling_between(mu, nu, rng),
        ]
        assert_kernels_match(plans, potentials_on(space))


# ---------------------------------------------------------------------------
# every construction check still fires


def test_coupling_refuses_floats_and_bools():
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="exact rational"):
        Coupling(X2, ((0.5, 0), (0, half)))
    with pytest.raises(ValueError, match="exact rational"):
        Coupling(X2, ((half, False), (0, half)))


def test_coupling_refuses_negative_entries_and_bad_shapes():
    with pytest.raises(ValueError, match="negative coupling entry -1/2"):
        Coupling(X2, ((Fraction(1), Fraction(-1, 2)),
                      (Fraction(1, 2), Fraction(0))))
    with pytest.raises(ValueError, match="not n x n"):
        Coupling(X2, ((Fraction(1, 2), 0, 0), (0, Fraction(1, 2))))
    with pytest.raises(ValueError, match="not n x n"):
        Coupling(X2, ((Fraction(1, 2), Fraction(1, 2)),))


def test_coupling_names_the_first_offending_marginal_index():
    third = Fraction(1, 3)
    g = ((third, 0, 0), (0, third, 0), (0, 0, third))
    off = Measure(line3(), (third, Fraction(1, 6), Fraction(1, 2)))
    with pytest.raises(ValueError, match="first marginal .* index 1: 1/6"):
        Coupling(line3(), g, mu=off)
    with pytest.raises(ValueError, match="second marginal .* index 1: 1/6"):
        Coupling(line3(), g, nu=off)
    with pytest.raises(ValueError, match="total mass 5/6 != 1"):
        Coupling(line3(), ((third, 0, 0), (0, third, 0),
                           (0, 0, Fraction(1, 6))))


def test_compose_mismatch_names_the_middle_index():
    third = Fraction(1, 3)
    space = line3()
    uniform = diag_plan(Measure(space, (third,) * 3))
    shifted = diag_plan(Measure(space, (third, Fraction(1, 6),
                                        Fraction(1, 2))))
    with pytest.raises(MarginalMismatch) as exc:
        compose_plans(uniform, shifted)
    assert (exc.value.index, exc.value.left, exc.value.right) == (
        1, third, Fraction(1, 6)
    )


def test_seminorm_refuses_a_potential_that_is_not_1_lipschitz():
    plan = diag_plan(Measure(line3(), (Fraction(1, 3),) * 3))
    with pytest.raises(ValueError, match="not 1-Lipschitz"):
        seminorm_rho((Fraction(0), Fraction(3), Fraction(0)), plan)
    with pytest.raises(ValueError, match="exact rational"):
        seminorm_rho((0.0, 1, 2), plan)


# ---------------------------------------------------------------------------
# the full battery


def test_transport_battery_two_points():
    rep = check_transport(seed=0, samples=30)
    assert rep.passed, rep.summary()


def test_transport_battery_bigger_space():
    rep = check_transport(random_metric_space(seed=21, max_points=5),
                          seed=1, samples=20)
    assert rep.passed, rep.summary()


def test_transport_battery_checks_every_law_on_eight_points():
    """No Lip1 law is left at checked=0 past five points: each is judged
    at the certified Kantorovich potential."""
    space = random_metric_space(seed=0, max_points=8)
    assert space.n_points() == 8
    rep = check_transport(space, samples=10)
    assert rep.passed, rep.summary()
    assert all(law.checked > 0 for law in rep.laws), rep.summary()


def test_domination_fails_with_the_potential_as_witness(monkeypatch):
    """Halve d: some sampled plan then has d(a) < rho_{u*}(a), and the
    law names the optimal potential kantorovich returned."""
    honest_norm, honest_kantorovich = transport.norm_d, transport.kantorovich
    potentials = set()

    def spy(mu, nu):
        res = honest_kantorovich(mu, nu)
        potentials.add(res.potential.values)
        return res

    monkeypatch.setattr(transport, "norm_d", lambda g: honest_norm(g) / 2)
    monkeypatch.setattr(transport, "kantorovich", spy)
    rep = check_transport(line3(), seed=0, samples=20)
    dom = rep.law(
        "d >= rho_u for every 1-Lipschitz u (attained at the optimal "
        "potential)")
    assert not dom.passed and dom.witnesses
    assert all(w["u"] in potentials for w in dom.witnesses)


# ---------------------------------------------------------------------------
# the integer forms against the Fraction-built references
#
# Measures, plans and spaces keep their integer forms from construction,
# the plan constructors build their results over a common denominator,
# and the certificate sums in integers.  The references below build the
# same objects with Fraction arithmetic: entries as Fractions, marginals
# as chained Fraction sums, and the certificate as chained Fraction
# additions.  Both must agree with ==, and refuse with the same text.


def ref_coupling(space, gamma, mu=None, nu=None):
    """A Coupling as the Fraction path builds it: (gamma, mu weights, nu
    weights), or the ValueError Coupling(...) raises, with its text."""
    n = space.n_points()
    g = tuple(tuple(Fraction(v) for v in row) for row in gamma)
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError("coupling matrix is not n x n")
    for row in g:
        for v in row:
            if v < 0:
                raise ValueError(f"negative coupling entry {v}")
    out = []
    for what, declared, sums in zip(("first marginal", "second marginal"),
                                    (mu, nu), ref_marginals(g)):
        if declared is None:
            if sum(sums) != 1:
                raise ValueError(f"total mass {sum(sums)} != 1")
            out.append(sums)
            continue
        for i, (a, b) in enumerate(zip(declared.weights, sums)):
            if a != b:
                raise ValueError(
                    f"declared {what} differs from the matrix at point "
                    f"index {i}: {a} != {b}")
        out.append(declared.weights)
    return g, out[0], out[1]


def ref_random_measure(space, rng, full_support):
    n = space.n_points()
    w = [
        Fraction(rng.randint(1, 12)) if full_support or rng.random() < 0.75
        else Fraction(0)
        for _ in range(n)
    ]
    if sum(w) == 0:
        w[rng.randrange(n)] = Fraction(1)
    total = sum(w)
    return tuple(v / total for v in w)


def ref_coupling_from(mu, rng, full_support):
    n = mu.space.n_points()
    g = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        if mu[x] == 0:
            continue
        props = [
            Fraction(rng.randint(1, 12))
            if full_support or rng.random() < 0.7 else Fraction(0)
            for _ in range(n)
        ]
        if sum(props) == 0:
            props[rng.randrange(n)] = Fraction(1)
        total = sum(props)
        g[x] = [mu[x] * p / total for p in props]
    return g


def kantorovich_reference(mu, nu):
    """The solver's optimal flows as Fractions over L, read off the basis
    the way the plan used to be built: (gamma, mu weights, nu weights)."""
    *_, L = _common(mu._int, nu._int)
    cost, basis, tree, _ = solve_in_steps(mu, nu)
    flows = transport._read_basis(len(cost), basis)
    return (tuple(tuple(Fraction(v, L) for v in row) for row in flows),
            mu.weights, nu.weights)


def ref_plans(mu, nu, f):
    """(plan, reference) pairs for every plan constructor, on measures
    mu and nu of one space and a map f."""
    n = mu.space.n_points()
    X = mu.space
    diag = [[mu[x] if x == y else 0 for y in range(n)] for x in range(n)]
    image = [Fraction(0)] * n
    mapped = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        image[f[x]] += mu[x]
        mapped[x][f[x]] += mu[x]
    plan = map_plan(f, mu)
    assert plan.nu.weights == tuple(image)
    pairs = [
        (diag_plan(mu), ref_coupling(X, diag, mu, mu)),
        (product_plan(mu, nu), ref_coupling(
            X, [[a * b for b in nu.weights] for a in mu.weights], mu, nu)),
        (plan, ref_coupling(X, mapped, mu)),
        (inverse_plan(plan), ref_coupling(
            X, list(zip(*plan.gamma)), plan.nu, plan.mu)),
    ]
    for full in (True, False):
        seed = n * 7 + full
        a, b = random.Random(seed), random.Random(seed)
        pairs.append((random_coupling_from(mu, a, full),
                      ref_coupling(X, ref_coupling_from(mu, b, full), mu)))
        assert a.getstate() == b.getstate()
        a, b = random.Random(seed), random.Random(seed)
        pairs.append((random_coupling_between(mu, nu, a), ref_coupling(
            X, sweep_coupling_between(mu, nu, b), mu, nu)))
        assert a.getstate() == b.getstate()
    first = pairs[-1][0]
    for second in (diag_plan(nu), inverse_plan(first), pairs[-2][0]):
        if second.mu.weights == nu.weights:
            pairs.append((compose_plans(first, second), ref_coupling(
                X, ref_compose(first, second), mu, second.nu)))
    pairs.append((kantorovich(mu, nu).plan, kantorovich_reference(mu, nu)))
    return pairs


def measure_pairs(seed):
    """Two measure pairs on random_metric_space(seed): one with full
    support, one where point 0 carries no mass (on either side)."""
    space = random_metric_space(seed=seed, max_points=6)
    rng = random.Random(seed)
    pairs = []
    for full in (True, False):
        state = rng.getstate()
        mu = random_measure(space, rng, full_support=full)
        after = rng.getstate()
        rng.setstate(state)
        assert mu.weights == ref_random_measure(space, rng, full)
        assert rng.getstate() == after
        pairs.append((mu, random_measure(space, rng, full_support=full)))
    pairs.append(tuple(measure_with_zeros(space, rng) for _ in range(2)))
    return pairs


@pytest.mark.parametrize("seed", range(9))
def test_plan_constructors_match_the_fraction_references(seed):
    for mu, nu in measure_pairs(seed):
        space = mu.space
        assert space._int == _matrix_over_lcm(space.dist)
        n = space.n_points()
        f = tuple((x * 5 + seed) % n for x in range(n))
        for plan, (g, mu_w, nu_w) in ref_plans(mu, nu, f):
            # gamma, weights, JSON and repr, built from _int on first
            # read, are those of the Fraction constructors
            want = Coupling(space, g, mu=Measure(space, mu_w),
                            nu=Measure(space, nu_w))
            assert plan == want and (plan.mu, plan.nu) == (want.mu, want.nu)
            assert plan.gamma == want.gamma == g
            assert (plan.mu.weights, plan.nu.weights) == (mu_w, nu_w)
            assert plan.to_json() == want.to_json()
            assert repr(plan) == repr(want)
            assert norm_d(plan) == ref_norm_d(plan)
            assert norm_d(plan) is norm_d(plan)  # once per plan
            assert plan._int == _matrix_over_lcm(g)
            for m in (plan.mu, plan.nu):
                assert m._int == _over_lcm(m.weights)


def refusal(build):
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


def test_refusals_read_like_the_fraction_path():
    space = line3()
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    off = Measure(space, (third, sixth, Fraction(1, 2)))
    cases = [
        (((third, 0, 0), (0, Fraction(1, 2), -sixth), (0, 0, third)), {}),
        (((third, 0, 0), (0, third, 0), (0, 0, third)), {"mu": off}),
        (((third, 0, 0), (0, third, 0), (0, 0, third)), {"nu": off}),
        (((third, 0, 0), (0, third, 0), (0, 0, sixth)), {}),
    ]
    texts = set()
    for gamma, declared in cases:
        text = refusal(lambda: Coupling(space, gamma, **declared))
        assert text == refusal(lambda: ref_coupling(space, gamma,
                                                    **declared))
        texts.add(text)
    assert texts == {
        "negative coupling entry -1/6",
        "declared first marginal differs from the matrix at point index "
        "1: 1/6 != 1/3",
        "declared second marginal differs from the matrix at point index "
        "1: 1/6 != 1/3",
        "total mass 5/6 != 1",
    }


def ref_certificate(mu, nu, gamma, u):
    """The certificate as chained Fraction additions."""
    space = mu.space
    n = space.n_points()
    d = space.dist
    rep = transport.ValidationReport(
        subject=f"transport certificate on {n} points")
    marg = transport.LawCheck("plan is a coupling of (mu, nu), exactly")
    lip = transport.LawCheck("potential is 1-Lipschitz")
    gap = transport.LawCheck("sum d gamma = sum u (mu - nu), exactly")
    slack = transport.LawCheck(
        "u(x) - u(y) = d(x, y) on every occupied cell")
    rep.add(marg, lip, gap, slack)
    lines = [("row", i, [(i, y) for y in range(n)], mu[i]) for i in range(n)]
    lines += [("column", i, [(x, i) for x in range(n)], nu[i])
              for i in range(n)]
    for side, i, cells, want in lines:  # each row and column is one instance
        total = sum(gamma[x][y] for x, y in cells)
        negative = [(x, y) for x, y in cells if gamma[x][y] < 0]
        if total != want:
            marg.judge(False, **{side: i}, sum=str(total), marginal=str(want))
        else:
            marg.judge(not negative, build=lambda: dict(
                cell=negative[0],
                mass=str(gamma[negative[0][0]][negative[0][1]])))
    for x in range(n):
        for y in range(n):
            if x != y:
                lip.judge(u[x] - u[y] <= d[x][y], pair=(x, y),
                          difference=str(u[x] - u[y]), d=str(d[x][y]))
    occupied = [
        (x, y) for x in range(n) for y in range(n) if gamma[x][y] > 0
    ]
    primal = sum(d[x][y] * gamma[x][y] for x, y in occupied)
    dual = sum(u[x] * (mu[x] - nu[x]) for x in range(n))
    gap.judge(primal == dual, primal=str(primal), dual=str(dual))
    for x, y in occupied:
        slack.judge(u[x] - u[y] == d[x][y], cell=(x, y),
                    difference=str(u[x] - u[y]), d=str(d[x][y]))
    return rep


def assert_certificates_agree(mu, nu, gamma, u):
    got = check_kantorovich_certificate(mu, nu, gamma, u)
    assert got.to_json() == ref_certificate(mu, nu, gamma, u).to_json()
    assert all(law.failures <= law.checked for law in got.laws)
    return got


def failing_laws(rep):
    return [law.law for law in rep.laws if not law.passed]


def test_certificate_matches_the_fraction_reference_on_every_answer():
    for seed in range(9):
        for mu, nu in measure_pairs(seed):
            for a, b in ((mu, nu), (nu, mu), (mu, mu)):
                res = kantorovich(a, b)
                assert assert_certificates_agree(
                    a, b, res.plan.gamma, res.potential.values).passed
    rep = assert_certificates_agree(*unpivoted_transport_basis())
    assert failing_laws(rep) == [
        "sum d gamma = sum u (mu - nu), exactly",
        "u(x) - u(y) = d(x, y) on every occupied cell",
    ]


def test_certificate_matches_the_fraction_reference_on_perturbed_pairs():
    """Four perturbations of certified optima, each aimed at one law.

    A one-unit cut on the diagonal breaks only the marginals, and a raised
    potential at a massless point breaks only the Lipschitz law.  With
    exact marginals and a 1-Lipschitz u, the gap is the sum of the
    occupied cells' slack times their mass, so the gap and slackness laws
    fail together: once from a plan moved off the tight cells, once from
    a potential lowered under a source point."""
    space = line3()
    half, third = Fraction(1, 2), Fraction(1, 3)
    mu = Measure(space, (half, half, 0))
    nu = Measure(space, (half, 0, half))
    res = kantorovich(mu, nu)
    g, u = res.plan.gamma, res.potential.values
    assert (g, u) == (((half, 0, 0), (0, 0, half), (0, 0, 0)), (0, 1, 0))

    even = Measure(space, (third, third, third))
    cut_u = kantorovich(even, even).potential.values
    cut = ((0, 0, 0), (0, third, 0), (0, 0, third))  # L = 3, one unit off
    lifted = kantorovich(mu, mu).potential.values
    lifted = lifted[:2] + (lifted[2] + 5,)  # point 2 carries no mass
    moved = ((0, 0, half), (half, 0, 0), (0, 0, 0))  # costs 3/2, not 1/2
    lowered = (0, half, 0)
    cases = [
        ((even, even, cut, cut_u),
         ["plan is a coupling of (mu, nu), exactly"]),
        ((mu, mu, diag_plan(mu).gamma, lifted),
         ["potential is 1-Lipschitz"]),
        ((mu, nu, moved, u),
         ["sum d gamma = sum u (mu - nu), exactly",
          "u(x) - u(y) = d(x, y) on every occupied cell"]),
        ((mu, nu, g, lowered),
         ["sum d gamma = sum u (mu - nu), exactly",
          "u(x) - u(y) = d(x, y) on every occupied cell"]),
    ]
    for args, laws in cases:
        assert failing_laws(assert_certificates_agree(*args)) == laws


def test_certificate_matches_the_fraction_reference_on_random_damage():
    """Seeded one-unit damage to plans and potentials: every witness the
    integer certificate writes is the one the Fraction sums write."""
    rng = random.Random(99)
    for seed in range(9):
        for mu, nu in measure_pairs(seed):
            res = kantorovich(mu, nu)
            n = mu.space.n_points()
            for _ in range(4):
                g = [list(row) for row in res.plan.gamma]
                u = list(res.potential.values)
                x, y = rng.randrange(n), rng.randrange(n)
                unit = Fraction(rng.choice([-1, 1]), rng.randint(1, 12))
                if rng.random() < 0.5:
                    g[x][y] += unit
                else:
                    u[x] += unit
                assert_certificates_agree(mu, nu, g, u)


def test_each_row_and_column_fails_the_marginal_law_at_most_once():
    """The marginal law has 2n instances, the rows and the columns: each
    fails on its sum, or else on a negative cell it holds, never once per
    cell.  An all -1 plan breaks every sum; a plan with every sum right
    and two negative cells fails the two rows and two columns holding
    them."""
    third = Fraction(1, 3)
    even = Measure(uniform_space(3), (third,) * 3)
    title = "plan is a coupling of (mu, nu), exactly"
    rep = assert_certificates_agree(even, even, [[-1] * 3] * 3, (0, 0, 0))
    assert (rep.law(title).checked, rep.law(title).failures) == (6, 6)
    assert rep.law(title).witnesses == [
        {side: i, "sum": "-3", "marginal": "1/3"}
        for side in ("row", "column") for i in range(3)]
    signed = [[2 * third, -third, 0], [-third, 2 * third, 0], [0, 0, third]]
    marg = assert_certificates_agree(even, even, signed, (0, 0, 0)).law(title)
    assert (marg.checked, marg.failures) == (6, 4)
    assert [w["cell"] for w in marg.witnesses] == [(0, 1), (1, 0), (1, 0),
                                                   (0, 1)]  # rows, columns
    assert {w["mass"] for w in marg.witnesses} == {"-1/3"}


def test_every_violating_pair_fails_the_lipschitz_law():
    """n(n - 1) ordered pairs, one failure per pair the potential breaks:
    u = (0, 5, 10) at mutual distance 1 breaks three."""
    even = Measure(uniform_space(3), (Fraction(1, 3),) * 3)
    rep = assert_certificates_agree(even, even, diag_plan(even).gamma,
                                    (0, 5, 10))
    assert failing_laws(rep) == ["potential is 1-Lipschitz"]
    lip = rep.law("potential is 1-Lipschitz")
    assert (lip.checked, lip.failures) == (6, 3)
    assert lip.witnesses == [
        {"pair": (1, 0), "difference": "5", "d": "1"},
        {"pair": (2, 0), "difference": "10", "d": "1"},
        {"pair": (2, 1), "difference": "5", "d": "1"}]


def test_planted_off_by_one_unit_fails_the_marginal_law_only():
    mu, nu, gamma, u = marginal_off_by_one_unit()
    assert _common(mu._int, nu._int)[2] == 6
    rep = assert_certificates_agree(mu, nu, gamma, u)
    assert failing_laws(rep) == ["plan is a coupling of (mu, nu), exactly"]
    marg = rep.law("plan is a coupling of (mu, nu), exactly")
    assert marg.witnesses == [
        {"row": 0, "sum": "1/3", "marginal": "1/2"},
        {"column": 0, "sum": "0", "marginal": "1/6"},
    ]
    # one unit of L = 6 back on the cell gives the certified optimum
    fixed = [list(row) for row in gamma]
    fixed[0][0] += Fraction(1, 6)
    assert check_kantorovich_certificate(mu, nu, fixed, u).passed


HALF = Fraction(1, 2)
COUPLING = "plan is a coupling of (mu, nu), exactly"
LIPSCHITZ = "potential is 1-Lipschitz"


@pytest.mark.parametrize("gamma, u, law, witness", [
    (((HALF, 0, 0), (0, HALF, 0)), (0, 0, 0), COUPLING, {"shape": (2, 3)}),
    (((HALF, 0), (0, HALF), (0, 0)), (0, 0, 0), COUPLING, {"shape": (3, 2)}),
    (((HALF, 0, 0), (0, HALF), (0, 0, 0)), (0, 0, 0), COUPLING,
     {"shape": (3, 2, 3)}),
    (((HALF, 0, 0), (0, HALF, 0), (0, 0, 0)), (0, 0), LIPSCHITZ,
     {"length": 2}),
], ids=["2x3 plan", "3x2 plan", "ragged plan", "two-value potential"])
def test_certificate_judges_the_shape_of_plan_and_potential(gamma, u, law,
                                                            witness):
    """With mu = nu = (1/2, 1/2, 0) on three points, every row and column
    that zip pairs up sums right, so without the shape clauses each of
    these passed every law.  A misshapen pair fails on its shape, and
    the gap and slackness laws, which need both whole, read nothing."""
    mu = Measure(line3(), (HALF, HALF, 0))
    rep = check_kantorovich_certificate(mu, mu, gamma, u)
    assert failing_laws(rep) == [law]
    assert rep.law(law).witnesses == [witness]
    assert [c.checked for c in rep.laws] == [6, 6, 0, 0]
    square = ((HALF, 0, 0), (0, HALF, 0), (0, 0, 0))
    assert check_kantorovich_certificate(mu, mu, square, (0, 0, 0)).passed


def test_planted_suite_holds_a_misshapen_certificate():
    """A 2 x 3 plan with a two-value potential has its own certificate
    report, right after the plan one unit short; each of the two lists the
    four certificate laws once, so rep.law reaches every one of them."""
    names = [name for name, _ in run_planted_suite()]
    suite = dict(run_planted_suite())
    short = "plan one unit short of its marginal vs the optimality certificate"
    shape = "misshapen 2 x 3 plan and potential vs the optimality certificate"
    assert names.index(shape) == names.index(short) + 1
    laws = [c.law for c in suite[short].laws]
    assert [c.law for c in suite[shape].laws] == laws
    assert len(set(laws)) == 4
    assert [suite[shape].law(law).witnesses for law in laws[:2]] == [
        [{"shape": (2, 3)}], [{"length": 2}]]
    assert not suite[shape].passed


# ---------------------------------------------------------------------------
# gamma and weights are built from the integer forms on first read


def test_built_plans_hold_integers_until_gamma_is_read():
    space = random_metric_space(5, max_points=5)
    a, b, _ = random_composable_chain(space, random.Random(5))
    res = kantorovich(a.mu, b.nu)
    plans = [compose_plans(a, b), inverse_plan(a), res.plan]
    for p in plans:
        assert "gamma" not in vars(p), p
        assert all("weights" not in vars(m) for m in (p.mu, p.nu))
    assert compose_plans(a, b) == plans[0] and a.nu == b.mu
    assert all("weights" not in vars(m) for m in (a.nu, b.mu))
    for p in plans:
        g = p.gamma
        assert vars(p)["gamma"] is g and p.gamma is g
        assert g == tuple(tuple(Fraction(v, p._int[1]) for v in row)
                          for row in p._int[0])
        assert inverse_plan(p).gamma == tuple(zip(*g))
    assert str(res.primal) == str(norm_d(res.plan)) == str(res.dual)
    # any other missing name keeps Python's own error
    for obj, typo in ((res.plan, "gamme"), (res.plan.mu, "wieghts")):
        with pytest.raises(AttributeError, match=(
                f"^'{type(obj).__name__}' object has no attribute '{typo}'$")):
            getattr(obj, typo)


def test_measures_compare_by_their_integer_form():
    X = line3()
    third = Fraction(1, 3)
    m = random_measure(X, random.Random(2))
    same = Measure(X, m.weights)
    assert "weights" in vars(same)
    fresh = map_plan(lambda x: x, m).nu
    assert fresh == m == same and "weights" not in vars(fresh)
    assert Measure(X, (third, third, third)) != Measure(
        X, (third, 2 * third, 0))
    assert Measure(X, (1, 0, 0)) != Measure(two_point_space(), (1, 0))
    assert m != m.weights


def test_check_transport_reads_the_potentials_integer_form(monkeypatch):
    """seminorm_rho reads the integer form kantorovich hands its potential:
    no _over_lcm call inside it, and every rho is the Fraction sum."""
    inside, recounted, rhos = [], [], []
    over_lcm, rho = transport._over_lcm, transport.seminorm_rho

    def counting(values):
        if inside:
            recounted.append(values)
        return over_lcm(values)

    def recording(u, gamma):
        inside.append(u)
        try:
            got = rho(u, gamma)
        finally:
            inside.pop()
        rhos.append((got, u, gamma))
        return got

    monkeypatch.setattr(transport, "_over_lcm", counting)
    monkeypatch.setattr(transport, "seminorm_rho", recording)
    rep = check_transport(random_metric_space(2, max_points=5), seed=3,
                          samples=12)
    assert rep.passed, rep.summary()
    assert len(rhos) > 12 * 5 and not recounted
    for got, u, gamma in rhos:
        want = abs(sum(v * (m - w) for v, m, w in zip(
            u.values, gamma.mu.weights, gamma.nu.weights)))
        assert got == want
        # the integer form is in lowest terms, as one built from values
        assert u == LipFunction(u.space, u.values)
        assert u._int == _over_lcm(u.values)


# ---------------------------------------------------------------------------
# the trusted plan algebra against the checked route
#
# The plans the algebra builds adopt the marginals it guarantees and are
# reduced only where the operation can break lowest terms.  Rebuilt by
# Coupling(...), with their declared marginals and without, each must come
# out the same: one integer form, one mu and one nu.


def assert_checked_route_agrees(plan):
    space = plan.space
    declared = Coupling(space, plan.gamma, mu=plan.mu, nu=plan.nu)
    summed = Coupling(space, plan.gamma)
    assert plan._int == declared._int == summed._int
    assert all(type(row) is tuple for row in plan._int[0])
    assert (plan.mu, plan.nu) == (summed.mu, summed.nu)


def built_plans(space, rng):
    """Every plan constructor on space, on measures with full support, with
    zero-mass points (point 0 empty) and with a map that merges all mass
    onto point 0; then their inverses and every composable pair."""
    n = space.n_points()
    plans = []
    for full in (True, False):
        mu, nu = (random_measure(space, rng, full_support=full)
                  for _ in range(2))
        zero = measure_with_zeros(space, rng)
        merged = map_plan([0] * n, zero)
        assert merged.nu._int == ((1,) + (0,) * (n - 1), 1)
        f = tuple(rng.randrange(n) for _ in range(n))
        plans += [
            diag_plan(mu), diag_plan(zero), product_plan(mu, zero),
            product_plan(zero, nu), merged, map_plan(f, mu),
            random_coupling_from(mu, rng, full_support=full),
            random_coupling_from(zero, rng, full_support=full),
            random_coupling_between(zero, nu, rng),
            random_coupling_between(mu, nu, rng),
        ]
    plans += [inverse_plan(p) for p in plans]
    return plans + [compose_plans(p, q) for p in plans for q in plans
                    if p.nu == q.mu]


@pytest.mark.parametrize(
    "space",
    [two_point_space(), line3(),
     *(random_metric_space(seed=s, max_points=6) for s in range(9))],
    ids=["two-point", "line3", *(f"random{s}" for s in range(9))])
def test_built_plans_equal_their_checked_rebuilds(space):
    plans = built_plans(space, random.Random(space.n_points()))
    assert len(plans) > 40
    for plan in plans:
        assert_checked_route_agrees(plan)


def test_outer_marginal_law_catches_a_composite_off_its_marginal(
        monkeypatch):
    """A compose that reverses the rows of its matrix still adopts its
    factors' outer marginals and builds without complaint; the counted law
    names the composites whose rows no longer sum to mu."""
    honest = transport.compose_plans

    def reversed_rows(gamma, gamma_prime):
        p = honest(gamma, gamma_prime)
        num, D = p._int
        return transport._built(p.space, num[::-1], D, p.mu, p.nu)

    monkeypatch.setattr(transport, "compose_plans", reversed_rows)
    rep = check_transport(line3(), seed=0, samples=10)
    law = rep.law("composites carry their factors' outer marginals")
    assert law.checked == 40 and law.failures > 0
    assert {w["plan"] for w in law.witnesses} <= {"ab", "left", "right",
                                                  "loop"}
    assert all(set(w) == {"sample", "plan", "row", "sum", "marginal"}
               for w in law.witnesses)


def test_planted_composite_fails_only_the_outer_marginal_law():
    plan = composite_off_by_one_unit()
    assert (plan.nu.weights, plan.mu.weights) == (
        (0, Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    # the declared nu is off by one unit of L = 6 at points 0 and 1
    with pytest.raises(ValueError, match="second marginal .* index 0"):
        Coupling(plan.space, plan.gamma, mu=plan.mu, nu=plan.nu)
    name, rep = run_planted_suite()[-1]
    assert name.startswith("composite one unit off its second marginal")
    law = rep.law("composites carry their factors' outer marginals")
    assert (law.checked, law.failures) == (1, 1)
    assert law.witnesses == [{"column": 0, "sum": "1/6", "marginal": "0"}]


def test_duality_and_category_read_integer_forms(monkeypatch):
    """check_kantorovich_duality's gap and saturation laws read the
    certificate's sums, and category_from_plans builds its potentials from
    the vertices' integer forms: with seminorm_rho refused in the first and
    the checked LipFunction refused in the second, the reports stay."""
    X = two_point_space()
    mu = Measure(X, (Fraction(1, 2), Fraction(1, 2)))
    nu = Measure(X, (Fraction(1, 4), Fraction(3, 4)))
    pairs = [(mu, nu), (mu, mu), (nu, mu)]
    duality = check_kantorovich_duality(X, pairs).to_json()
    category, plans, _ = transport.transport_category_fixture()

    def refused(*args):
        raise AssertionError("a checked route was taken")

    monkeypatch.setattr(transport, "seminorm_rho", refused)
    assert check_kantorovich_duality(X, pairs).to_json() == duality
    monkeypatch.undo()
    monkeypatch.setattr(LipFunction, "__post_init__", refused)
    again, _, _ = transport.transport_category_fixture()
    assert again.seminorms.values == category.seminorms.values
    assert all(type(v) is Fraction for row in again.seminorms.values
               for v in row)


@pytest.mark.parametrize("family,message", [
    ([3], "family not closed under inverse at s"),
    ([3, 4], "family not closed: s^T then s"),
])
def test_category_from_plans_refuses_a_family_that_is_not_closed(family,
                                                                 message):
    _, plans, labels = transport.transport_category_fixture()
    with pytest.raises(ValueError) as exc:
        transport.category_from_plans(X2, [plans[i] for i in family],
                                      [labels[i] for i in family])
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# a compose that misses a marginal mismatch, against the checkers built to
# catch it


def _silent(honest):
    """compose_plans composing a mismatched pair as if it matched."""
    def compose(gamma, gamma_prime):
        try:
            return honest(gamma, gamma_prime)
        except MarginalMismatch:
            return gamma
    return compose


def _misnamed(honest):
    """compose_plans refusing a mismatched pair, but naming a point where
    the middle marginals agree when there is one."""
    def compose(gamma, gamma_prime):
        try:
            return honest(gamma, gamma_prime)
        except MarginalMismatch as e:
            same = (i for i, (a, b) in enumerate(zip(
                gamma.nu.weights, gamma_prime.mu.weights)) if a == b)
            raise MarginalMismatch(next(same, e.index), e.left,
                                   e.right) from None
    return compose


@pytest.mark.parametrize("fault,failing,note", [
    (_silent, [0, 1, 2], "mismatch accepted"),
    # seed 18's third sample is the first whose shifted measure agrees
    # with the plan's second marginal at a point
    (_misnamed, [2], "wrong offending index"),
])
def test_the_mismatch_law_fails_a_compose_that_misses_a_mismatch(
        fault, failing, note, monkeypatch):
    monkeypatch.setattr(transport, "compose_plans",
                        fault(transport.compose_plans))
    law = check_transport(line3(), seed=18, samples=3).law(
        "marginal mismatch is rejected, never renormalized")
    assert law.witnesses == [dict(sample=k, note=note) for k in failing]


def test_the_planted_mismatch_is_red_when_composed_silently(monkeypatch):
    monkeypatch.setattr(fixtures, "compose_plans",
                        _silent(transport.compose_plans))
    rep = dict(run_planted_suite())[
        "mismatched middle marginals vs composability"]
    (law,) = rep.laws
    assert law.note == "composed silently — the mismatch went unnoticed"
    assert (law.checked, law.failures, law.witnesses) == (1, 1,
                                                          [{"index": None}])


# ---------------------------------------------------------------------------
# every transport law's failure witnesses, pinned
#
# No report breaks most of check_transport's laws, so each case below
# breaks one function the laws call and pins every law's (checked,
# failures, witnesses), each witness by its repr, so that a key dropped,
# renamed or reordered fails.  The expected records in
# tests/data/law_faults.json were taken from the implementation that
# ticked and failed each law by hand.

LAW_FAULTS = json.loads((Path(__file__).parent / "data" /
                         "law_faults.json").read_text())


def _law_records(*reports):
    return [[c.law, c.checked, c.failures, list(map(repr, c.witnesses))]
            for rep in reports for c in rep.laws]


def _battery():
    space = line3()
    third = Fraction(1, 3)
    spread = Measure(space, (third,) * 3)
    left = Measure(space, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    pairs = [(point_mass(space, 0), spread), (spread, point_mass(space, 2)),
             (left, spread)]
    return _law_records(check_transport(space, seed=0, samples=12),
                        check_kantorovich_duality(space, pairs))


def _certificate():
    space = line3()
    one, zero = Fraction(1), Fraction(0)
    return _law_records(check_kantorovich_certificate(
        point_mass(space, 0), point_mass(space, 2),
        ((zero, zero, one), (zero,) * 3, (zero,) * 3), (2, 1, 0)))


def _misrouted(honest):
    """g^-1 g g^-1 in place of g^-1: the marginals are right, the plan is
    not the transpose."""
    def inverse(g):
        ig = honest(g)
        return transport.compose_plans(transport.compose_plans(ig, g), ig)
    return inverse


def _rows_reversed(honest):
    def compose(g, gp):
        p = honest(g, gp)
        num, D = p._int
        return transport._built(p.space, num[::-1], D, p.mu, p.nu)
    return compose


def _dual_off_by_one(honest):
    def solve(mu, nu):
        res = honest(mu, nu)
        return dataclasses.replace(res, dual=res.dual + 1)
    return solve


def _numerator_off_by_one(honest):
    def pairing(*args):
        num, D = honest(*args)
        return num + 1, D
    return pairing


TRANSPORT_FAULTS = [
    ("norm_d less 10", "norm_d", lambda h: lambda g: h(g) - 10, _battery),
    ("norm_d zero", "norm_d", lambda h: lambda g: h(g) * 0, _battery),
    ("diag_plan a product", "diag_plan",
     lambda h: lambda mu: product_plan(mu, mu), _battery),
    ("inverse_plan misrouted", "inverse_plan", _misrouted, _battery),
    ("is_invtrans on every plan", "is_invtrans",
     lambda h: lambda g: (tuple(range(g.space.n_points())),) * 2, _battery),
    ("map_plan reads its map reversed", "map_plan",
     lambda h: lambda f, mu: h([y or 0 for y in f[::-1]], mu), _battery),
    ("map_plan sends every point to 0", "map_plan",
     lambda h: lambda f, mu: h([0] * len(f), mu), _battery),
    ("seminorm_rho signed and cubed", "seminorm_rho",
     lambda h: lambda u, g: Fraction(
         *transport._pairing(u._int, g.mu, g.nu)) ** 3,
     _battery),
    ("marginal differences swapped", "_marginal_differences",
     lambda h: lambda a, b, ab, ia: h(a, b, ia, ab), _battery),
    ("compose_plans reverses rows", "compose_plans", _rows_reversed,
     _battery),
    ("kantorovich dual off by one", "kantorovich", _dual_off_by_one,
     _battery),
    ("random_coupling_between ignores nu", "random_coupling_between",
     lambda h: lambda mu, nu, rng: diag_plan(mu), _battery),
    ("certificate pairing off by one", "_pairing", _numerator_off_by_one,
     _certificate),
]


@pytest.mark.parametrize("name, attr, fault, run", TRANSPORT_FAULTS,
                         ids=[case[0] for case in TRANSPORT_FAULTS])
def test_a_broken_transport_function_fails_its_laws_with_witnesses(
        name, attr, fault, run, monkeypatch):
    monkeypatch.setattr(transport, attr, fault(getattr(transport, attr)))
    records = run()
    assert records == LAW_FAULTS[name]
    assert all(failures <= checked for _, checked, failures, _ in records)
