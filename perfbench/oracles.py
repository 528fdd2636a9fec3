"""Output checks that do not trust the code under test.

Each check returns None when the output is correct and a one-line reason
when it is not.  They read plain values off the program's outputs (plan
entries, potential values, rendered numbers) and compare them with data
the benchmark generated itself.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


def kantorovich_certificate(d, mu, nu, gamma, u, primal, dual):
    """Exact optimality certificate for one transport problem.

    d is the benchmark's own distance matrix, mu and nu its own weights.
    The plan must be a coupling of (mu, nu), the potential u 1-Lipschitz
    for d, and sum d*gamma = sum u*(mu - nu) = primal = dual.  Weak
    duality then makes the plan optimal and u a maximiser, whatever
    solver produced them."""
    n = len(d)
    g = [[Fraction(v) for v in row] for row in gamma]
    u = [Fraction(v) for v in u]
    if len(g) != n or any(len(row) != n for row in g) or len(u) != n:
        return "plan or potential has the wrong shape"
    if any(v < 0 for row in g for v in row):
        return "negative plan entry"
    for x in range(n):
        if sum(g[x]) != mu[x]:
            return f"row {x} sums to {sum(g[x])}, not mu = {mu[x]}"
    for y in range(n):
        col = sum(g[x][y] for x in range(n))
        if col != nu[y]:
            return f"column {y} sums to {col}, not nu = {nu[y]}"
    for x in range(n):
        for y in range(n):
            if x != y and u[x] - u[y] > d[x][y]:
                return f"potential is not 1-Lipschitz at ({x}, {y})"
    cost = sum(d[x][y] * g[x][y] for x in range(n) for y in range(n))
    value = sum(u[x] * (mu[x] - nu[x]) for x in range(n))
    if not cost == value == Fraction(primal) == Fraction(dual):
        return (f"no zero gap: cost {cost}, potential value {value}, "
                f"primal {primal}, dual {dual}")
    return None


def numbers(text: str) -> list:
    """The numbers in a rendered value such as "(2.1, 0)"."""
    return [float(t) for t in
            re.findall(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?", text)]


def close_to(rendered: str, expected, tol=1e-9):
    got = numbers(rendered)
    want = [float(v) for v in expected]
    if len(got) != len(want) or any(
            abs(a - b) > tol * max(1.0, abs(b)) for a, b in zip(got, want)):
        return f"value {rendered} != closed form {want}"
    return None


def report_blob(text: str, want_pass: bool):
    """`report --json` output: must parse, and its overall verdict must
    be the expected one."""
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as e:
        return f"--json output does not parse: {e}"
    if blob.get("pass") is not want_pass:
        return f"report pass = {blob.get('pass')}, expected {want_pass}"
    return None
