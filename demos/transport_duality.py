"""Exact optimal transport on finite spaces, with its category structure.

Everything here is rational arithmetic: one exact transportation simplex
yields the optimal plan and a 1-Lipschitz potential whose values must
agree to the last digit, plans compose by disintegration, and
invertibility is readable off the norm.
"""

import random
from fractions import Fraction

from ngd import (
    Measure,
    compose_plans,
    diag_plan,
    inverse_plan,
    is_invtrans,
    kantorovich,
    lip1_vertices,
    map_plan,
    norm_d,
    seminorm_rho,
)
from ngd.transport import random_composable_chain, two_point_space


def main():
    F = Fraction
    X = two_point_space()
    mu = Measure(X, (F(1, 2), F(1, 2)))
    nu = Measure(X, (F(1, 4), F(3, 4)))

    plan, potential, primal, dual = kantorovich(mu, nu)
    print(f"two-point problem: primal = {primal}, dual = {dual}")
    print("optimal plan rows:", plan.gamma)
    print("optimal potential:", potential.values)
    for vert in lip1_vertices(X):
        print(f"  vertex u = {vert}: rho_u(plan) = {seminorm_rho(vert, plan)}"
              f" <= d(plan) = {norm_d(plan)}")

    swap = map_plan([1, 0], mu)
    print("\nswap plan is invertible:", is_invtrans(swap) is not None)
    round_trip = compose_plans(swap, inverse_plan(swap))
    print("swap . swap^-1 is the diagonal:", round_trip == diag_plan(mu))

    rng = random.Random(4)
    from ngd import random_metric_space

    space = random_metric_space(21, max_points=4)
    a, b, c = random_composable_chain(space, rng)
    left = compose_plans(compose_plans(a, b), c)
    right = compose_plans(a, compose_plans(b, c))
    print(f"\nrandom 3-chain over {space.n_points()} points:"
          f" associativity exact = {left.gamma == right.gamma}")
    print("norm subadditive along composition:",
          norm_d(compose_plans(a, b)) <= norm_d(a) + norm_d(b))


if __name__ == "__main__":
    main()
