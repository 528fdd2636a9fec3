"""Finite optimal transport: couplings composed by disintegration, the
transport norm, Lipschitz seminorms, and exact Kantorovich duality.

Plans over a finite metric space form a category with an involutive
inverse (transposition).  It is deliberately NOT a groupoid: gamma^-1
composed with gamma is usually not an identity plan, and the plans of
the form h^-1 h include fat things like the quarter-uniform plan on two
points.  Everything here is exact.  Measures, plans and the metric carry
their integer form, numerators over the lcm of the denominators, and the
plan algebra, equality, the norm d, the seminorms rho_u and the
certificate work on it: one Fraction per result.  A plan's gamma and a
measure's weights are Fractions built on first read.  Coupling(...) and
Measure(...) check what they are given; the plans the algebra builds
(compose, inverse, diag, product, map and random plans) adopt the
marginals it guarantees unchecked, and check_transport tests that
algebra with a counted law: its sampled composites must carry their
factors' outer marginals.  Kantorovich problems are solved by the
transportation (network) simplex on integer-scaled data, keeping a
strongly feasible spanning tree from pivot to pivot, and every answer
must pass an exact optimality certificate on those integers, so the
duality gap comes out identically zero rather than merely small.  The
certified potential attains the sup of rho_u over 1-Lipschitz u, so the
laws over Lip1 are judged at it.  The dense two-phase simplex solve_lp
is kept as the reference the tests compare against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, count
from operator import add, mul, neg, sub

from .constructions import FiniteMetricSpace
from .core import (
    CategoryWithInverses,
    LawCheck,
    SeminormFamily,
    ValidationReport,
    _common,
    _json,
    _matrix_over_lcm,
    _over_lcm,
    as_fraction,
)


class MarginalMismatch(ValueError):
    """Raised when two plans are composed but the middle marginals differ.

    Carries the first offending point index; plans are never renormalized
    to force composability."""

    def __init__(self, index, left, right):
        self.index = index
        self.left = left
        self.right = right
        super().__init__(
            f"middle marginals differ at point index {index}: "
            f"{left} != {right}"
        )


# ---------------------------------------------------------------------------
# exact sums on integer numerators


def _dot(a, b):
    return sum(map(mul, a, b))


def _pairing(u, mu: Measure, nu: Measure) -> Fraction:
    """sum over x of u(x) (mu(x) - nu(x)), one integer sum; u = (ui, Du)."""
    ui, Du = u
    a, b, L = _common(mu._int, nu._int)
    return Fraction(_dot(ui, map(sub, a, b)), Du * L)


# ---------------------------------------------------------------------------
# measures and couplings


class _Exact:
    """What Measure, Coupling and LipFunction share: equality on (space,
    _int), and their Fractions (the field _field names) built from _int
    on first read, then kept.  ngd's solvers build them from _int alone;
    the field has no class default, so until then reading it lands in
    __getattr__."""

    def __getattr__(self, name):
        if name != self._field:
            return object.__getattribute__(self, name)
        num, D = self._int
        value = tuple(tuple(Fraction(v, D) for v in row)
                      if isinstance(row, tuple) else Fraction(row, D)
                      for row in num)
        setattr(self, name, value)
        return value

    def __eq__(self, other):
        return self is other or (isinstance(other, type(self)) and
                                 self.space == other.space and
                                 self._int == other._int)

    @classmethod
    def _of(cls, space, form):
        """One ngd built from its integer form in lowest terms, unchecked."""
        obj = cls.__new__(cls)
        obj.space, obj._int = space, form
        return obj


def _lowest(num, D):
    """The integer form num / D of a row of rationals in lowest terms."""
    g = math.gcd(D, *num)
    return tuple(v // g for v in num), D // g


def _reduced(rows, D):
    """The integer form rows / D of a matrix in lowest terms, as tuples."""
    g = math.gcd(D, *chain.from_iterable(rows))
    return tuple(tuple(v // g for v in row) for row in rows), D // g


@dataclass(eq=False)
class Measure(_Exact):
    """A probability measure on a finite metric space: exact weights, and
    in _int their numerators over L, the lcm of their denominators."""

    _field = "weights"
    space: FiniteMetricSpace
    weights: tuple

    def __post_init__(self):
        if isinstance(self.weights, str):
            raise TypeError(f"weights {self.weights!r} are a string, not a "
                            "list of rationals")
        w = tuple(as_fraction(v) for v in self.weights)
        num, L = _over_lcm(w)  # in lowest terms, as the weights are
        n = self.space.n_points()
        if len(num) != n:
            raise ValueError(f"{len(num)} weights for {n} points")
        for i, v in enumerate(num):
            if v < 0:
                raise ValueError(
                    f"negative mass {Fraction(v, L)} at point index {i}")
        if sum(num) != L:
            raise ValueError(f"total mass {Fraction(sum(num), L)} != 1")
        self._int, self.weights = (num, L), w

    def __getitem__(self, i):
        return self.weights[i]

    def support(self) -> list:
        return [i for i, v in enumerate(self._int[0]) if v > 0]

    def to_json(self):
        return [str(v) for v in self.weights]


@dataclass(eq=False)
class Coupling(_Exact):
    """A transport plan: joint matrix whose marginals are the endpoint
    measures.  Rows are the first (source) marginal, columns the second.

    A plan carries its integer form (integer rows, D) in _int, D the lcm
    of the entry denominators, from construction on; marginals,
    composition, inverse and norm read it.  Declared marginals are
    optional; when given they are checked against the row/column sums by
    integer cross-multiplication, naming the first offending coordinate.
    Plans the algebra builds skip these checks: see _built.
    """

    _field = "gamma"
    space: FiniteMetricSpace
    gamma: tuple
    mu: Measure | None = None
    nu: Measure | None = None

    def __post_init__(self):
        if isinstance(self.gamma, str) or any(
                isinstance(row, str) for row in self.gamma):
            raise TypeError("coupling matrix is a string or has a string "
                            "row, not rows of rationals")
        g = tuple(tuple(as_fraction(v) for v in row) for row in self.gamma)
        num, D = _matrix_over_lcm(g)  # in lowest terms, as the entries are
        n = self.space.n_points()
        if len(num) != n or any(len(row) != n for row in num):
            raise ValueError("coupling matrix is not n x n")
        neg = [v for row in num for v in row if v < 0]
        if neg:
            raise ValueError(f"negative coupling entry {Fraction(neg[0], D)}")
        self._int = num, D
        self.mu = self._marginal(
            "first marginal", self.mu, [sum(row) for row in num], D)
        self.nu = self._marginal(
            "second marginal", self.nu, [sum(col) for col in zip(*num)], D)
        self._norm = None
        self.gamma = g

    def _marginal(self, what, declared, sums, D):
        """declared, checked against sums / D, or else a new Measure."""
        if declared is None:
            return Measure(self.space, [Fraction(v, D) for v in sums])
        w, L = declared._int
        for i, (a, b) in enumerate(zip(w, sums)):
            if a * D != b * L:
                raise ValueError(
                    f"declared {what} differs from the matrix at point index "
                    f"{i}: {declared[i]} != {Fraction(b, D)}")
        return declared

    def support(self) -> list:
        """Occupied (row, column) pairs."""
        return [(x, y) for x, row in enumerate(self._int[0])
                for y, v in enumerate(row) if v > 0]

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "mu": self.mu.to_json(),
            "nu": self.nu.to_json(),
            "gamma": [[str(v) for v in row] for row in self.gamma],
        }

    @classmethod
    def from_json(cls, data):
        space = FiniteMetricSpace.from_json(_json(data, "space", dict))
        mu, nu = (Measure(space, _json(data, k)) if k in data else None
                  for k in ("mu", "nu"))
        return cls(space, _json(data, "gamma"), mu=mu, nu=nu)


def _built(space, num, D, mu, nu=None) -> Coupling:
    """The plan num / D, in lowest terms, that the algebra built, with the
    marginals it guarantees, nu read off the column sums when None.
    Nothing is checked: check_transport judges the marginals as a law."""
    if nu is None:
        nu = Measure._of(space, _lowest([sum(c) for c in zip(*num)], D))
    p = Coupling._of(space, (tuple(map(tuple, num)), D))  # tuples: no copy
    p.mu, p.nu, p._norm = mu, nu, None
    return p


def _same_space(a, b):
    if a.space is not b.space and a.space != b.space:
        raise ValueError("operands live on different spaces")


# plan constructors: a canonical Measure has gcd(numerators) = 1, so the
# diagonal, product and map plans are in lowest terms as built


def diag_plan(mu: Measure) -> Coupling:
    """The identity plan at mu: all mass stays put."""
    w, L = mu._int
    g = [[v if x == y else 0 for y in range(len(w))] for x, v in enumerate(w)]
    return _built(mu.space, g, L, mu, mu)


def product_plan(mu: Measure, nu: Measure) -> Coupling:
    """The independent coupling mu (x) nu."""
    _same_space(mu, nu)
    (a, La), (b, Lb) = mu._int, nu._int
    return _built(mu.space, [[x * y for y in b] for x in a], La * Lb, mu, nu)


def map_plan(f, mu: Measure) -> Coupling:
    """The plan induced by a transport map: gamma(x, y) = mu(x) [y = f(x)].

    f may be a callable on point indices or a sequence; it only has to be
    defined on the support of mu."""
    w, L = mu._int
    n = len(w)
    g = [[0] * n for _ in range(n)]
    for x in mu.support():
        y = f(x) if callable(f) else f[x]
        if y is None or not (0 <= y < n):
            raise ValueError(f"map undefined at support point {x}")
        g[x][y] += w[x]
    return _built(mu.space, g, L, mu)


# ---------------------------------------------------------------------------
# the category operations


def compose_plans(gamma: Coupling, gamma_prime: Coupling) -> Coupling:
    """Compose two plans: gamma first, then gamma_prime.

    Returns the plan whose entry at (x, z) is
        sum over y with nu(y) > 0 of  gamma(x,y) gamma'(y,z) / nu(y),
    where nu is the shared middle marginal — the finite disintegration:
    condition gamma on its second coordinate, then average gamma' rows.
    Conditionals are only defined on the support of nu; zero-mass middle
    points carry no mass in either factor, so they drop out.

    In integers: gamma = A / Da and gamma' = B / Db are the two plans'
    integer forms, so nu(y) = c_y / Da with c_y the column sums of A, and
    gamma(x,y) / nu(y) = A(x,y) / c_y = A(x,y) s_y / M with M the lcm of
    the nonzero c_y and s_y = M / c_y.  Each entry is then one integer
    sum over y of A(x,y) s_y B(y,z), over Db M.
    """
    _same_space(gamma, gamma_prime)
    if gamma.nu != gamma_prime.mu:
        nu, mu_p = gamma.nu.weights, gamma_prime.mu.weights
        i = next(i for i, (a, b) in enumerate(zip(nu, mu_p)) if a != b)
        raise MarginalMismatch(i, nu[i], mu_p[i])
    (A, _), (B, Db) = gamma._int, gamma_prime._int
    c = [sum(col) for col in zip(*A)]
    M = math.lcm(*(v for v in c if v))
    s = [M // v if v else 0 for v in c]
    rows = [list(map(mul, row, s)) for row in A]
    cols = list(zip(*B))
    out = [[sum(map(mul, row, col)) for col in cols] for row in rows]
    return _built(gamma.space, *_reduced(out, Db * M), gamma.mu,
                  gamma_prime.nu)


def inverse_plan(gamma: Coupling) -> Coupling:
    """Transpose: run the plan backwards."""
    num, D = gamma._int
    return _built(gamma.space, tuple(zip(*num)), D, gamma.nu, gamma.mu)


def norm_d(gamma: Coupling) -> Fraction:
    """Mean displacement of the plan: the integral of d against gamma,
    as one integer sum over the integer forms of d and gamma.  Computed
    once per plan."""
    if gamma._norm is None:
        (d, Dd), (g, Dg) = gamma.space._int, gamma._int
        gamma._norm = Fraction(sum(map(_dot, d, g)), Dd * Dg)
    return gamma._norm


def lip1_witness(space: FiniteMetricSpace, values):
    """None if the values are 1-Lipschitz, else the first violating
    ordered pair (x, y)."""
    return _lip1_witness(space, _over_lcm(values))


def _lip1_witness(space, u):
    """lip1_witness on the integer form u = (numerators, Du) of the
    values, compared with the space's integer distances."""
    (u, Du), (d, Dd) = u, space._int
    for x, (ux, row) in enumerate(zip(u, d)):
        for y, (uy, dxy) in enumerate(zip(u, row)):
            if (ux - uy) * Dd > dxy * Du:
                return (x, y)
    return None


@dataclass(eq=False)
class LipFunction(_Exact):
    """A 1-Lipschitz potential, validated on construction: exact values,
    and in _int their numerators over the lcm of their denominators,
    which seminorm_rho reads.  kantorovich builds one from _int alone."""

    _field = "values"
    space: FiniteMetricSpace
    values: tuple

    def __post_init__(self):
        v = tuple(as_fraction(x) for x in self.values)
        if len(v) != self.space.n_points():
            raise ValueError("one value per point, please")
        self._int = _over_lcm(v)
        w = _lip1_witness(self.space, self._int)
        if w is not None:
            x, y = w
            raise ValueError(
                f"not 1-Lipschitz: u[{x}] - u[{y}] = {v[x] - v[y]} "
                f"> d = {self.space.dist[x][y]}"
            )
        self.values = v

    def __getitem__(self, i):
        return self.values[i]


def _marginal_differences(*plans) -> list:
    """mu - nu of each plan, pointwise, as integer rows over one lcm: all
    rho_u sees of a plan."""
    forms = [(p.mu._int, p.nu._int) for p in plans]
    L = math.lcm(*(D for pair in forms for _, D in pair))
    return [[x * (L // La) - y * (L // Lb) for x, y in zip(a, b)]
            for (a, La), (b, Lb) in forms]


def seminorm_rho(u, gamma: Coupling) -> Fraction:
    """The seminorm induced by a 1-Lipschitz potential u:
    |integral of u(x) - u(y) against gamma|.

    Because the integrand splits, this only sees the marginals:
    rho_u(gamma) = |sum over x of u(x) (mu(x) - nu(x))|, and that is what
    is computed.  The identity is exact when mu and nu are the plan's row
    and column sums: Coupling(...) checks that, and check_transport judges
    it on the composites the algebra builds.  A plain sequence u is
    validated as a LipFunction first."""
    if not isinstance(u, LipFunction):
        u = LipFunction(gamma.space, tuple(u))
    return abs(_pairing(u._int, gamma.mu, gamma.nu))


def is_invtrans(gamma: Coupling):
    """Decide whether the plan is an invertible transport: induced by a
    map whose inverse plan is again induced by a map.

    Finite criterion: every occupied row and every occupied column of
    the matrix holds exactly one entry.  Returns the witness pair of
    maps (f, g) or None: f is a tuple of point indices, total on the
    support of mu and None off it, map_plan(f, gamma.mu) is gamma, and g
    is the backward map on the support of nu.  Equivalent dual route
    (tested elsewhere): both gamma^-1 o gamma = diag(mu) and
    gamma o gamma^-1 = diag(nu)."""
    num = gamma._int[0]
    rows = [[y for y, v in enumerate(row) if v > 0] for row in num]
    cols = [[x for x, v in enumerate(col) if v > 0] for col in zip(*num)]
    if any(len(r) > 1 for r in rows) or any(len(c) > 1 for c in cols):
        return None
    return (tuple(r[0] if r else None for r in rows),
            tuple(c[0] if c else None for c in cols))


# ---------------------------------------------------------------------------
# exact LP: two-phase simplex with Bland's rule


def _pivot(rows, obj, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    prow = rows[r]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
    if obj[c] != 0:
        f = obj[c]
        obj[:] = [a - f * b for a, b in zip(obj, prow)]
    basis[r] = c


def _run_simplex(rows, obj, basis, ncols):
    """Minimize in place.  Bland's rule both ways (smallest entering
    index; leaving row by minimum ratio, ties to the smallest basis
    index), which is what makes termination a theorem instead of a
    hope."""
    while True:
        col = None
        for j in range(ncols):
            if obj[j] < 0:
                col = j
                break
        if col is None:
            return
        r_best, t_best = None, None
        for r in range(len(rows)):
            a = rows[r][col]
            if a > 0:
                t = rows[r][-1] / a
                if (
                    t_best is None
                    or t < t_best
                    or (t == t_best and basis[r] < basis[r_best])
                ):
                    r_best, t_best = r, t
        if r_best is None:
            raise ArithmeticError("LP is unbounded")
        _pivot(rows, obj, basis, r_best, col)


def solve_lp(A, b, c):
    """min c.x subject to A x = b, x >= 0, all exact rationals.

    Returns (optimal value, x).  Raises ArithmeticError on infeasible or
    unbounded input.  Redundant equality rows are tolerated (phase one
    discards them)."""
    m = len(A)
    n = len(A[0]) if m else 0
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # phase one: artificial basis, minimize the artificial mass
    rows = [
        A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for row in rows:
        obj = [a - v for a, v in zip(obj, row)]
    _run_simplex(rows, obj, basis, n + m)
    if -obj[-1] != 0:
        raise ArithmeticError(f"LP infeasible (artificial mass {-obj[-1]})")

    # drive leftover zero-level artificials out; drop redundant rows
    keep = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if rows[r][j] != 0), None)
            if col is None:
                continue  # 0 = 0 row, redundant constraint
            _pivot(rows, obj, basis, r, col)
        keep.append(r)
    rows = [rows[r] for r in keep]
    basis = [basis[r] for r in keep]

    # phase two: the real objective, original columns only
    obj = list(c) + [Fraction(0)] * m + [Fraction(0)]
    for r, row in enumerate(rows):
        cb = c[basis[r]]
        if cb != 0:
            obj = [a - cb * v for a, v in zip(obj, row)]
    _run_simplex(rows, obj, basis, n)
    x = [Fraction(0)] * n
    for r, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[r][-1]
    return -obj[-1], x


@dataclass
class KantorovichResult:
    """Optimal plan, optimal potential, the two values (equal), and the
    number of simplex pivots the solver took.  Unpacks as the 4-tuple
    (plan, potential, primal, dual)."""

    plan: Coupling
    potential: LipFunction
    primal: Fraction
    dual: Fraction
    pivots: int

    def __iter__(self):
        return iter((self.plan, self.potential, self.primal, self.dual))

    @property
    def den_bits(self) -> int:
        """Denominator growth: the largest denominator bit length in the
        optimal plan and potential."""
        return max(
            v.denominator.bit_length()
            for v in chain(*self.plan.gamma, self.potential.values)
        )


def _northwest_corner(supply, demand) -> dict:
    """The northwest-corner basis as {cell: flow}, cell = x * n + y, in
    the order the sweep books them.

    Exactly 2n - 1 cells: when a row and a column run out together the
    sweep steps down and books a degenerate zero cell.  The cells form a
    staircase, hence a spanning tree of the row/column graph."""
    n = len(supply)
    a, b = list(supply), list(demand)
    basis = {}
    x = y = 0
    while True:
        t = min(a[x], b[y])
        basis[x * n + y] = t
        a[x] -= t
        b[y] -= t
        if x == y == n - 1:
            return basis
        if a[x] == 0 and x < n - 1:
            x += 1
        else:
            y += 1


def _basis_tree(cost, basis):
    """The northwest-corner basis as a strongly feasible tree, in place on
    the basis: (parent, cell, depth, kids, pi), one entry per node.

    Nodes are rows 0..n-1, columns n..2n-1 and an artificial root 2n.
    Cell x * n + y is the arc from row x to column n + y; -1 marks an
    artificial arc, from a node to the root, without flow.  pi[x] -
    pi[n + y] = c(x, y) on tree cells, so a cell's reduced cost is c(x, y)
    - pi[x] + pi[n + y].  Row 0 hangs from the root at pi = 0, then each
    cell, in the sweep's order, hangs the row or column it reaches first.
    A cell hanging a column without flow (one of zero demand, say) points
    away from the root, which strong feasibility forbids: that column
    hangs from the root instead, and the cell leaves the basis."""
    n = len(cost)
    root = 2 * n
    parent, cell = [root] + [None] * root, [-1] * (root + 1)
    depth, pi = [1] + [0] * root, [0] * (root + 1)
    kids = [[] for _ in range(root)] + [[0]]
    for k, flow in list(basis.items()):
        x, y = divmod(k, n)
        if parent[n + y] is None:
            p, q = x, n + y
            pi[q] = pi[x] - cost[x][y]
            if not flow:
                del basis[k]
                p, k = root, -1
        else:
            p, q = n + y, x
            pi[x] = pi[p] + cost[x][y]
        parent[q], cell[q], depth[q] = p, k, depth[p] + 1
        kids[p].append(q)
    return parent, cell, depth, kids, pi


def _pivot_to_optimum(cost, basis, tree) -> int:
    """The network simplex, in place on the basis and its tree; returns
    the number of pivots.

    The entering cell (x, y) has the most negative reduced cost, the
    first in row-major order.  Its cycle runs down from the apex of x and
    y to x, across to y and up again.  The minus arcs, crossed against
    their direction, are the arcs above rows and the artificial arcs on
    x's side and the cells above columns on y's; they lose theta, the
    least flow among them, and the other cells gain it.  The last minus
    arc of flow theta from the apex leaves (Cunningham's rule).  The
    subtree it cuts off hangs again from the entering cell, and only its
    potentials move.

    Termination (Cunningham 1976; Ahuja, Magnanti and Orlin 1993, 11.6):
    the artificial root makes the first tree strongly feasible, and the
    rule keeps it so.  A pivot with theta > 0 lowers the cost.  One with
    theta = 0 cannot block on y's side, whose minus arcs point down and
    so carry flow: it lowers every potential on x's side.  The tree fixes
    the potentials, as the root's children keep theirs, so no tree comes
    back.  A cycle through the root has theta = 0: artificial arcs never
    carry flow, and the last tree is an optimal basis of the transport
    problem itself."""
    parent, cell, depth, kids, pi = tree
    n = len(cost)
    for pivots in count():
        best, cols = 0, pi[n:2 * n]
        for r, row in enumerate(cost):
            m = min(map(add, row, cols)) - pi[r]
            if m < best:
                best, x = m, r
        if not best:
            return pivots
        y = list(map(add, cost[x], cols)).index(best + pi[x])
        a, b, up_x, up_y = x, n + y, [], []
        while a != b:
            if depth[a] >= depth[b]:
                up_x.append(a)
                a = parent[a]
            else:
                up_y.append(b)
                b = parent[b]
        y_side = [s for s in reversed(up_y) if s >= n and cell[s] >= 0]
        minus = y_side + [s for s in up_x if s < n or cell[s] < 0]
        flows = [basis.get(cell[s], 0) for s in minus]
        theta = min(flows)
        i = flows.index(theta)
        p = minus[i]
        if theta:
            for s in up_x:
                basis[cell[s]] += -theta if s < n else theta
            for s in up_y:
                basis[cell[s]] += -theta if s >= n else theta
        basis.pop(cell[p], None)
        basis[x * n + y] = theta
        # hang the cut subtree from the entering cell, reversing the path
        # from its end there up to p; then shift it to price the cell 0
        q, prev, delta = ((n + y, x, -best) if i < len(y_side)
                          else (x, n + y, best))
        k, s = x * n + y, q
        while prev != p:
            up, up_k = parent[s], cell[s]
            kids[up].remove(s)
            kids[prev].append(s)
            parent[s], cell[s] = prev, k
            prev, k, s = s, up_k, up
        stack = [q]
        while stack:
            s = stack.pop()
            pi[s] += delta
            depth[s] = depth[parent[s]] + 1
            stack += kids[s]


def _read_basis(cost, basis, pi):
    """The plan and the potential a basis stands for: (flows, phi), the
    plan's flows in the integer-scaled units, and phi the c-transform of
    the column potentials the tree holds, phi(x) = min_y (c(x, y) +
    pi[n + y]), over the cost's denominator: 1-Lipschitz by the triangle
    inequality, and a maximiser when the basis is optimal."""
    n = len(cost)
    flows = [[0] * n for _ in range(n)]
    for k, flow in basis.items():
        flows[k // n][k % n] = flow
    cols = pi[n:2 * n]
    return flows, [min(map(add, row, cols)) for row in cost]


def check_kantorovich_certificate(mu: Measure, nu: Measure, gamma, u):
    """Certify a plan matrix gamma and a potential u as optimal for the
    transport problem (mu, nu), from the raw values alone.

    Four laws: gamma is an n x n coupling of (mu, nu) (nonnegative, exact
    row and column sums); u is 1-Lipschitz on n points (witness: a bad
    pair); the gap sum d.gamma - sum u.(mu - nu) is zero; complementary
    slackness, u(x) - u(y) = d(x, y) on every occupied cell.  Weak duality
    makes a passing pair optimal on both sides, whatever produced it.
    All sums and comparisons are in integers, each over its own lcm."""
    return _certify(mu, nu, _matrix_over_lcm(gamma), _over_lcm(u))[0]


def _off_marginals(plan, mu, nu):
    """Witnesses, the rows before the columns, for each row and column of
    the integer plan (g, Dg) that breaks the coupling of (mu, nu): its sum
    is off, by integer cross-multiplication, or else it holds a negative
    cell, the first one named."""
    g, Dg = plan
    signed = min(map(min, g)) < 0  # a negative cell somewhere
    for side, lines, m in (("row", g, mu), ("column", zip(*g), nu)):
        w, L = m._int
        for i, cells in enumerate(lines):
            if sum(cells) * L != w[i] * Dg:
                yield {side: i, "sum": str(Fraction(sum(cells), Dg)),
                       "marginal": str(m[i])}
            elif signed and min(cells) < 0:
                j = [v < 0 for v in cells].index(True)
                yield dict(cell=(i, j) if side == "row" else (j, i),
                           mass=str(Fraction(cells[j], Dg)))


_OUTER = "composites carry their factors' outer marginals"


def _judge_outer(law, built, **where):
    """Judge the _OUTER law once, on a built plan: its first bad sum fails."""
    w = next(_off_marginals(built._int, built.mu, built.nu), None)
    law.judge(w is None, **where, **(w or {}))


def _certify(mu, nu, plan, potential):
    """check_kantorovich_certificate on the integer forms (g, Dg) of gamma
    and (u, Du) of u; returns (report, the primal and dual it summed)."""
    _same_space(mu, nu)
    space = mu.space
    n = space.n_points()
    d, Dd = space._int
    rep = ValidationReport(subject=f"transport certificate on {n} points")
    marg = LawCheck("plan is a coupling of (mu, nu), exactly")
    lip = LawCheck("potential is 1-Lipschitz")
    gap = LawCheck("sum d gamma = sum u (mu - nu), exactly")
    slack = LawCheck("u(x) - u(y) = d(x, y) on every occupied cell")
    rep.add(marg, lip, gap, slack)

    (g, Dg), (ui, Du) = plan, potential
    shape = (len(g), *sorted({len(row) for row in g}))  # rows, row lengths
    marg.judge_all(2 * n, [(w,) for w in _off_marginals(plan, mu, nu)]
                   if shape == (n, n) else [({"shape": shape},)], dict)

    if len(ui) != n:  # with no pair to count (one point), one instance
        lip.judge_all(n * (n - 1) or 1, [(len(ui),)], lambda k: dict(length=k))
        return rep, None, None

    def step(key):  # the witness at a pair (x, y): u(x) - u(y) and d(x, y)
        return lambda x, y: {key: (x, y), "difference": str(Fraction(
            ui[x] - ui[y], Du)), "d": str(space.dist[x][y])}

    lip.judge_all(n * (n - 1), [] if _lip1_witness(space, potential) is None
                  else [(x, y) for x, ux in enumerate(ui)
                        for y, (uy, dxy) in enumerate(zip(ui, d[x]))
                        if (ux - uy) * Dd > dxy * Du], step("pair"))
    if shape != (n, n):  # the sums below need the plan whole
        return rep, None, None

    occupied = [
        (x, y) for x, row in enumerate(g) for y, v in enumerate(row) if v > 0
    ]
    primal = Fraction(sum(d[x][y] * g[x][y] for x, y in occupied), Dd * Dg)
    dual = _pairing(potential, mu, nu)
    gap.judge(primal == dual,
              build=lambda: dict(primal=str(primal), dual=str(dual)))

    slack.judge_all(len(occupied), [
        (x, y) for x, y in occupied if (ui[x] - ui[y]) * Dd != d[x][y] * Du],
        step("cell"))
    return rep, primal, dual


def kantorovich(mu: Measure, nu: Measure) -> KantorovichResult:
    """Solve the finite transport problem exactly, both sides at once.

    Primal: minimize the mean displacement over all couplings of
    (mu, nu) — an LP over the transportation polytope.  Dual: maximize
    the mean of u against mu - nu over 1-Lipschitz potentials u.  The
    transportation simplex runs on integer-scaled data from the
    northwest-corner basis; the optimal basis gives the plan, and the
    c-transform of its column potentials gives u.  The integer pair must
    pass the certificate (exact marginals, u 1-Lipschitz, zero gap,
    complementary slackness), which proves both optimal and sums both."""
    _same_space(mu, nu)
    space = mu.space
    # the problem on plain ints: supplies and demands over L, the lcm of
    # the weight denominators, costs over D, that of the distances
    supply, demand, L = _common(mu._int, nu._int)
    cost, D = space._int
    basis = _northwest_corner(supply, demand)
    tree = _basis_tree(cost, basis)
    pivots = _pivot_to_optimum(cost, basis, tree)
    flows, phi = _read_basis(cost, basis, tree[-1])
    rep, primal, dual = _certify(mu, nu, (flows, L), (phi, D))
    if not rep.passed:
        raise AssertionError(
            "transport certificate failed (this is an internal error: "
            "the solver is exact)\n" + rep.summary()
        )
    # the certificate has judged the plan's marginals and signs and phi
    # 1-Lipschitz: no second pass; in lowest terms (only basis cells carry
    # flow), each _int is the one a checked construction holds
    g = math.gcd(L, *basis.values())
    plan = _built(space, tuple(tuple(v // g for v in row) for row in flows),
                  L // g, mu, nu)
    return KantorovichResult(plan, LipFunction._of(space, _lowest(phi, D)),
                             primal, dual, pivots)


# ---------------------------------------------------------------------------
# the Lip1 polytope


def lip1_vertices(space: FiniteMetricSpace) -> list:
    """All vertices of the 1-Lipschitz polytope, pinned by u(x0) = 0.

    The polytope {u : u(x0) = 0, u(x) - u(y) <= d(x,y)} lives in
    dimension n-1.  n-1 tight constraints u(x) - u(y) = d(x, y) fix u
    exactly when their pairs span the points as a tree; u is then walked
    out from x0 along the tree, and kept when it is 1-Lipschitz.
    Exponential in n, hence guarded: n <= 5."""
    n = space.n_points()
    if n > 5:
        raise ValueError(
            f"vertex enumeration is exponential; refusing n = {n} > 5"
        )
    cons = [(x, y) for x in range(n) for y in range(n) if x != y]
    verts = set()
    for tight in combinations(cons, n - 1):
        u = {0: Fraction(0)}
        for _ in range(n - 1):  # a tree is walked out in n-1 sweeps
            for x, y in tight:
                if x in u and y not in u:
                    u[y] = u[x] - space.dist[x][y]
                elif y in u and x not in u:
                    u[x] = u[y] + space.dist[x][y]
        if len(u) == n:
            vals = tuple(u[x] for x in range(n))
            if lip1_witness(space, vals) is None:
                verts.add(vals)
    return sorted(verts)


# ---------------------------------------------------------------------------
# random material


def random_measure(
    space: FiniteMetricSpace, rng, full_support: bool = True
) -> Measure:
    n = space.n_points()
    w = [
        rng.randint(1, 12) if full_support or rng.random() < 0.75 else 0
        for _ in range(n)
    ]
    if sum(w) == 0:
        w[rng.randrange(n)] = 1
    return Measure._of(space, _lowest(w, sum(w)))


def random_coupling_from(
    mu: Measure, rng, full_support: bool = True
) -> Coupling:
    """A random plan with first marginal mu: each support row spreads its
    mass by random integer proportions p, over L T with T = lcm sum(p)."""
    w, L = mu._int
    n, T = len(w), 1
    g = [[0] * n for _ in range(n)]
    for x in mu.support():
        g[x] = p = [
            rng.randint(1, 12) if full_support or rng.random() < 0.7 else 0
            for _ in range(n)
        ]
        if sum(p) == 0:
            p[rng.randrange(n)] = 1
        T = math.lcm(T, sum(p))
    for x in mu.support():
        g[x] = [w[x] * (T // sum(g[x])) * v for v in g[x]]
    return _built(mu.space, *_reduced(g, L * T), mu)


def random_coupling_between(mu: Measure, nu: Measure, rng) -> Coupling:
    """A random plan with BOTH marginals prescribed.  Visit the cells in a
    random order assigning each a random fraction of the feasible mass,
    then zero out whatever is left with the northwest-corner rule (the
    leftover row and column masses always balance, so it lands
    exactly).  Masses are integers over L 8^(n^2): each of the n^2
    cells takes eighths of what is left, so every amount stays whole."""
    rows, cols, L = _common(mu._int, nu._int)
    n, E = len(rows), 8 ** (len(rows) ** 2)
    rows, cols = [v * E for v in rows], [v * E for v in cols]
    g = [[0] * n for _ in range(n)]
    cells = [(x, y) for x in range(n) for y in range(n)]
    rng.shuffle(cells)
    for x, y in cells:
        cap = min(rows[x], cols[y])
        if cap == 0:
            continue
        t = cap * rng.randint(0, 8) // 8
        g[x][y] += t
        rows[x] -= t
        cols[y] -= t
    for k, t in _northwest_corner(rows, cols).items():
        g[k // n][k % n] += t
    return _built(mu.space, *_reduced(g, L * E), mu, nu)


def random_composable_chain(space, rng, full_support=True):
    """Three plans where each one's second marginal is the next one's
    first, ready for associativity checks."""
    mu = random_measure(space, rng, full_support=full_support)
    out = []
    for _ in range(3):
        g = random_coupling_from(mu, rng, full_support=full_support)
        out.append(g)
        mu = g.nu
    return out


# ---------------------------------------------------------------------------
# the fixture category and the bridge to CategoryWithInverses


def category_from_plans(space, plans, labels):
    """Tabulate a finite, composition-closed family of plans, one label
    each, as a CategoryWithInverses (compose key (g, h) means: h first,
    then g — the groupoid convention used by the core tables).

    Raises if the family is not closed under composition or inverse."""
    idx = {p._int: i for i, p in enumerate(plans)}
    compose, inverse = {}, []
    for i, p in enumerate(plans):
        ip = inverse_plan(p)
        if ip._int not in idx:
            raise ValueError(f"family not closed under inverse at {labels[i]}")
        inverse.append(idx[ip._int])
    for i, g in enumerate(plans):
        for j, h in enumerate(plans):
            try:
                gh = compose_plans(h, g)  # h first, then g
            except MarginalMismatch:
                continue
            if gh._int not in idx:
                raise ValueError(
                    f"family not closed: {labels[j]} then {labels[i]}"
                )
            compose[(i, j)] = idx[gh._int]
    verts = lip1_vertices(space)
    lips = [LipFunction._of(space, _over_lcm(u)) for u in verts]
    return CategoryWithInverses(
        arrows=list(labels),
        compose=compose,
        inverse=inverse,
        seminorms=SeminormFamily(  # indexed by the Lip1 vertices
            ["u=(" + ",".join(str(v) for v in u) + ")" for u in verts],
            [[seminorm_rho(u, g) for g in plans] for u in lips],
        ),
    )


def two_point_space() -> FiniteMetricSpace:
    return FiniteMetricSpace(points=[0, 1], dist=[[0, 1], [1, 0]])


def transport_category_fixture():
    """A closed seven-plan family on the two-point space, as a category.

    Contains the three Pi(mu, mu) plans for the fair measure mu (the
    identity, the swap, and the quarter-uniform plan), an invertible
    plan s between two lopsided measures, its transpose, and the two
    lopsided identities (which s and s^T produce as h^-1 h).  The
    quarter-uniform plan is its own h^-1 h with norm 1/2 — the standing
    counterexample to reading the strict groupoid norm clause into
    transport.  Returns (category, plans, labels)."""
    X = two_point_space()
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    mu = Measure(X, (half, half))
    nu = Measure(X, (quarter, 3 * quarter))
    nu_t = Measure(X, (3 * quarter, quarter))
    plans = [
        diag_plan(mu),
        Coupling(X, ((0, half), (half, 0))),            # swap
        product_plan(mu, mu),                           # quarter-uniform
        Coupling(X, ((0, quarter), (3 * quarter, 0))),  # s: nu -> nu_t
        Coupling(X, ((0, 3 * quarter), (quarter, 0))),  # s^T
        diag_plan(nu),
        diag_plan(nu_t),
    ]
    labels = [
        "id(1/2,1/2)", "swap", "quarter-uniform",
        "s", "s^T", "id(1/4,3/4)", "id(3/4,1/4)",
    ]
    return category_from_plans(X, plans, labels), plans, labels


# ---------------------------------------------------------------------------
# the property battery


def check_transport(space=None, seed=0, samples=40) -> ValidationReport:
    """Run the transport laws on one space with seeded random plans.

    Covers: composition (identities, associativity with and without
    zero-mass points, marginal-mismatch rejection), the inverse
    involution and antimorphism, norm clauses in the category form
    (zero exactly on identity plans, subadditive, inversion invariant),
    the seminorm clauses and domination d >= rho_u for every 1-Lipschitz
    u, separability of distinct measures by the dual value, the map-plan
    composition and equality laws, and the invertible-plan criterion
    against its two-sided dual route.  The Lip1 laws are judged at the
    certified optimal potential of kantorovich, whatever the size of
    the space: it attains the sup of rho_u over 1-Lipschitz u."""
    if space is None:
        space = two_point_space()
    rng = random.Random(seed)
    n = space.n_points()
    rep = ValidationReport(subject=f"transport plans on {n} points")

    ident = LawCheck("identity plans are neutral")
    assoc = LawCheck("composition is associative (full support)")
    assoc0 = LawCheck("composition is associative (zero-mass points)")
    mism = LawCheck("marginal mismatch is rejected, never renormalized")
    invo = LawCheck("inverse is an involution with d(inv g) = d(g)")
    anti = LawCheck("inverse is an antimorphism")
    nzero = LawCheck("d = 0 exactly on identity plans")
    nsub = LawCheck("d is subadditive under composition")
    dom = LawCheck("d >= rho_u for every 1-Lipschitz u (attained at the "
                   "optimal potential)")
    rsub = LawCheck("each rho_u is subadditive and inversion invariant")
    sep = LawCheck("distinct endpoint measures are separated by some rho_u")
    mapc = LawCheck("map plans compose like their maps")
    mapeq = LawCheck("map plans agree iff the maps agree a.e.")
    itr = LawCheck("invertible-transport criterion matches the dual route")
    twon = LawCheck("d(inv g o g) <= 2 d(g)")
    outer = LawCheck(_OUTER)
    rep.add(ident, assoc, assoc0, mism, invo, anti, nzero, nsub, dom, rsub,
            sep, mapc, mapeq, itr, twon, outer)

    for k in range(samples):
        full = k % 3 != 2
        a, bq, cq = random_composable_chain(space, rng, full_support=full)

        ab = compose_plans(a, bq)
        left = compose_plans(ab, cq)
        right = compose_plans(a, compose_plans(bq, cq))
        (assoc if full else assoc0).judge(left == right, sample=k, build=(
            lambda: dict(left=left.gamma, right=right.gamma)))

        id_mu, id_nu = diag_plan(a.mu), diag_plan(a.nu)
        ident.judge(compose_plans(a, id_nu) == a, side="post", sample=k)
        ident.judge(compose_plans(id_mu, a) == a, side="pre", sample=k)

        ia = inverse_plan(a)
        invo.judge(inverse_plan(ia) == a and norm_d(ia) == norm_d(a), sample=k)
        anti.judge(inverse_plan(ab) == compose_plans(inverse_plan(bq), ia),
                   sample=k)
        nzero.judge((norm_d(a) == 0) == (a == id_mu), sample=k,
                    build=lambda: dict(d=str(norm_d(a))))
        nsub.judge(norm_d(ab) <= norm_d(a) + norm_d(bq), sample=k)

        loop = compose_plans(a, ia)
        for name, p in (("ab", ab), ("left", left), ("right", right),
                        ("loop", loop)):
            _judge_outer(outer, p, sample=k, plan=name)
        twon.judge(norm_d(loop) <= 2 * norm_d(a), sample=k)

        # two clauses, one instance: the witness names each clause failed
        witness, failed = is_invtrans(a), {}
        diag_both = loop == id_mu and compose_plans(ia, a) == id_nu
        if (witness is not None) != diag_both:
            failed["criterion"] = witness is not None
        if witness is not None and (inverse_plan(map_plan(witness[0], a.mu))
                                    != map_plan(witness[1], a.nu)):
            failed["note"] = "backward map is not the inverse"
        itr.judge(not failed, sample=k, **failed)

        u_a = kantorovich(a.mu, a.nu).potential
        dom.judge(norm_d(a) >= seminorm_rho(u_a, a), sample=k,
                  build=lambda: dict(u=u_a.values))
        # rho_u sees only mu - nu: these two identities give the law for
        # every u, and the seminorms are judged at two optimal potentials
        m_a, m_b, m_ab, m_ia = _marginal_differences(a, bq, ab, ia)
        rsub.judge(m_ab == list(map(add, m_a, m_b)), sample=k,
                   side="marginal difference not additive")
        rsub.judge(m_ia == list(map(neg, m_a)), sample=k,
                   side="marginal difference not negated")
        for u in (u_a, kantorovich(ab.mu, ab.nu).potential):
            rsub.judge(
                seminorm_rho(u, ab) <= seminorm_rho(u, a) + seminorm_rho(u, bq),
                build=lambda: dict(sample=k, u=u.values, side="subadditive"))
            rsub.judge(seminorm_rho(u, ia) == seminorm_rho(u, a), build=lambda:
                       dict(sample=k, u=u.values, side="inversion"))

        shifted, note = random_measure(space, rng), None
        if shifted != a.nu:
            try:
                compose_plans(a, random_coupling_from(shifted, rng))
                note = "mismatch accepted"
            except MarginalMismatch as e:
                if a.nu.weights[e.index] == shifted.weights[e.index]:
                    note = "wrong offending index"
        mism.judge(note is None, sample=k, note=note)

        # map plans
        f = tuple(rng.randrange(n) for _ in range(n))
        g = tuple(rng.randrange(n) for _ in range(n))
        mu = random_measure(space, rng, full_support=(k % 2 == 0))
        gf = tuple(g[f[x]] for x in range(n))
        fp = map_plan(f, mu)
        mapc.judge(compose_plans(fp, map_plan(g, fp.nu)) == map_plan(gf, mu),
                   sample=k, f=f, g=g)
        same_ae = all(f[x] == g[x] for x in mu.support())
        mapeq.judge((fp == map_plan(g, mu)) == same_ae, sample=k, f=f, g=g)

    # separability: distinct measures have rho_{u*} = W1 > 0; rho_u only
    # sees the marginals, so any plan between mu and nu will do
    for k in range(6):
        mu = random_measure(space, rng)
        nu = random_measure(space, rng)
        if mu == nu:
            continue
        res = kantorovich(mu, nu)
        rho = seminorm_rho(res.potential, product_plan(mu, nu))
        sep.judge(rho == res.primal and rho > 0, build=lambda: dict(
            mu=mu.weights, nu=nu.weights, u=res.potential.values))
    return rep


def check_kantorovich_duality(space, measures) -> ValidationReport:
    """Exact duality on the given measure pairs: gap identically zero,
    optimal potential 1-Lipschitz (by construction), and the optimal plan
    saturates its own seminorm; each optimum is also compared with eight
    couplings of its marginals drawn from a seeded random.Random(11).  The
    certificate's primal is d(gamma*), and |dual| is rho_{u*}(gamma*)."""
    gap = LawCheck("primal value = dual value, exactly")
    sat = LawCheck("rho_{u*}(gamma*) = d(gamma*)")
    opt = LawCheck("primal is minimal among sampled couplings")
    rep = ValidationReport(subject=f"duality on {space.n_points()} points")
    rep.add(gap, sat, opt)
    rng = random.Random(11)
    for mu, nu in measures:
        res = kantorovich(mu, nu)

        def pair():
            return dict(mu=mu.weights, nu=nu.weights)
        gap.judge(res.primal == res.dual, build=pair)
        sat.judge(abs(res.dual) == res.primal, build=pair)
        # any coupling with the same marginals must cost at least as much
        for _ in range(8):
            probe = random_coupling_between(mu, nu, rng)
            opt.judge(norm_d(probe) >= res.primal, build=pair)
    return rep
