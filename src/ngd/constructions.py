"""Stock constructions: pair groupoids of finite metric spaces, the
double groupoid of same-source arrow pairs, and fiber distances.

Everything here is exact table arithmetic, judged in integers over one
lcm per table; Fractions are the input, JSON and witness boundary.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .core import (
    FiniteGroupoid,
    GroupoidMorphism,
    LawCheck,
    ValidationReport,
    _matrix_over_lcm,
    as_fraction,
)


# ---------------------------------------------------------------------------
# finite metric spaces


@dataclass
class FiniteMetricSpace:
    points: list
    dist: list  # matrix of Fractions, never mutated: _int is its integer
    # form (integer rows, D), built once, and validation reads it

    def __post_init__(self):
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValueError("duplicate point labels")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix is not square")
        self.dist = [[as_fraction(v) for v in row] for row in self.dist]
        self._int = _matrix_over_lcm(self.dist)
        d = self._int[0]
        for i in range(n):
            if d[i][i] != 0:
                raise ValueError(f"dist[{i}][{i}] != 0")
            for j in range(n):
                if d[i][j] != d[j][i]:
                    raise ValueError(f"dist not symmetric at ({i},{j})")
                if i != j and d[i][j] <= 0:
                    raise ValueError(f"dist[{i}][{j}] not positive")
                for k in range(n):
                    if d[i][j] > d[i][k] + d[k][j]:
                        raise ValueError(
                            f"triangle inequality fails at ({i},{j},{k})")

    def n_points(self):
        return len(self.points)

    def to_json(self):
        return {
            "points": list(self.points),
            "dist": [[str(v) for v in row] for row in self.dist],
        }

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        return cls(points=list(data["points"]), dist=data["dist"])


def random_metric_space(seed: int, max_points: int = 8) -> FiniteMetricSpace:
    """Seeded random rational metric: random positive edge weights pushed
    through an exact shortest-path completion (so the triangle inequality
    holds by construction)."""
    rng = random.Random(seed)
    n = rng.randint(2, max_points)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = Fraction(rng.randint(1, 24), rng.randint(1, 8))
            d[i][j] = d[j][i] = w
    for k in range(n):  # Floyd-Warshall completion, exact
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if i != j and via < d[i][j]:
                    d[i][j] = via
    return FiniteMetricSpace(points=[f"p{i}" for i in range(n)], dist=d)


# ---------------------------------------------------------------------------
# pair groupoid


def pair_label(tp, sp) -> str:
    return f"{tp}<-{sp}"


def pair_groupoid(space: FiniteMetricSpace) -> FiniteGroupoid:
    """The pair groupoid of a finite metric space: one arrow (x <- y) per
    ordered pair, composed by (x <- y)(y <- z) = (x <- z), inverted by
    swapping, normed by the distance.  alpha(x <- y) = (y <- y)."""
    pts = space.points
    n, r = len(pts), range(len(pts))  # (x <- y) is arrow x n + y
    arrows = [pair_label(x, y) for x in pts for y in pts]
    compose = {(x * n + y, y * n + z): x * n + z for x in r for y in r
               for z in r}
    inverse = [y * n + x for x in r for y in r]
    rows, D = space._int
    return FiniteGroupoid._normed(
        arrows, compose, inverse, list(chain(*space.dist)),
        (list(chain(*rows)), D))


# ---------------------------------------------------------------------------
# double groupoid of same-source pairs


def _double_pairs(G: FiniteGroupoid) -> list:
    """The arrows of the double groupoid of G, in its arrow order: arrow i
    is the pair (g, h) of arrows of G with alpha(g) = alpha(h), listed by
    g and then by h.  It depends on G alone, so a double groupoid read
    back from JSON is checked against G with the same list."""
    leaving = G.fibers()[0]
    return [(g, h) for g, a in enumerate(G.endpoints()[0])
            for h in leaving[a]]


def _double_labels(G: FiniteGroupoid, pairs) -> list:
    """The arrow label of each pair in the double groupoid of G."""
    return [f"[{G.arrows[g]};{G.arrows[h]}]" for g, h in pairs]


def _double_of(G: FiniteGroupoid, D) -> tuple:
    """(D, its pairs), D defaulting to the double groupoid of G.  A D
    given, say one read back from JSON, must have the arrows of G's
    double groupoid, in order; else ValueError."""
    pairs = _double_pairs(G)
    if D is None:
        return double_groupoid(G), pairs
    if list(D.arrows) != _double_labels(G, pairs):
        raise ValueError(f"D is not the double groupoid of G: {len(D.arrows)}"
                         f" arrows against {len(pairs)}, or other labels")
    return D, pairs


def double_groupoid(G: FiniteGroupoid) -> FiniteGroupoid:
    """Arrows are pairs (g, h) with alpha(g) = alpha(h); composition glues
    along the first slot, (g, h)(h, l) = (g, l); the inverse swaps; the
    norm is the fiber distance d~(g, h) = d(g h^-1).

    The pair (g, h) runs from the object (h, h) to (g, g): difference
    arrows index "how to get from h to g inside one fiber"."""
    alpha = G.endpoints()[0]
    leaving = G.fibers()[0]
    comp, inv = G.compose, G.inverse
    pairs = _double_pairs(G)
    index = {p: i for i, p in enumerate(pairs)}
    arrows = _double_labels(G, pairs)
    compose = {(i, index[(h, l)]): index[(g, l)]
               for i, (g, h) in enumerate(pairs) for l in leaving[alpha[h]]}
    inverse = [index[(h, g)] for g, h in pairs]
    if G.norm is None:
        return FiniteGroupoid(arrows, compose, inverse)
    dif = [comp[(g, inv[h])] for g, h in pairs]
    num, D = G._int
    return FiniteGroupoid._normed(arrows, compose, inverse,
                                  [G.norm[k] for k in dif],
                                  ([num[k] for k in dif], D))


def double_difference_morphism(G, D=None):
    """The map (g, h) -> g h^-1 from the double groupoid to G.  Returns a
    core.GroupoidMorphism; it preserves norms (d~ = d o dif) on the nose,
    which check_double_norm asserts exactly.  A D that is not the double
    groupoid of G raises ValueError."""
    D, pairs = _double_of(G, D)
    amap = [G.compose[(g, G.inverse[h])] for g, h in pairs]
    return GroupoidMorphism(source=D, target=G, arrow_map=amap, name="dif")


def check_double_norm(G: FiniteGroupoid, D=None) -> ValidationReport:
    """d~ is norm-preserving along dif, and right translation is an
    isometry of fibers: (g u)(h u)^-1 = g h^-1 exactly.  D defaults to
    the double groupoid of G; a D that is not raises ValueError."""
    D, pairs = _double_of(G, D)
    pres = LawCheck("d~(g,h) = d(g h^-1)")
    rinv = LawCheck("right translation preserves d~")
    rep = ValidationReport(subject="double groupoid norm").add(pres, rinv)
    alpha = G.endpoints()[0]
    entering = G.fibers()[1]
    comp, inv = G.compose, G.inverse
    (dd, DD), (d, DG) = D._int, G._int
    pres.tick(len(pairs))
    for i, (g, h) in enumerate(pairs):
        if dd[i] * DG != d[comp[(g, inv[h])]] * DD:
            pres.fail(pair=D.arrows[i])
    for g, h in pairs:
        dgh = d[comp[(g, inv[h])]]
        us = entering.get(alpha[g], ())
        rinv.tick(len(us))
        for u in us:
            gu, hu = comp[(g, u)], comp[(h, u)]
            if d[comp[(gu, inv[hu])]] != dgh:
                rinv.fail(g=G.arrows[g], h=G.arrows[h], u=G.arrows[u])
    return rep


# ---------------------------------------------------------------------------
# fiber distances


def _fiber_table(G: FiniteGroupoid, d) -> dict:
    """{unit arrow x: {(g, h): d[g h^-1]}} over the fibers alpha^-1(x),
    for a table d on the arrows of G: the norm or its numerators."""
    comp, inv = G.compose, G.inverse
    if d is None:
        raise ValueError("groupoid carries no norm")
    return {x: {(g, h): d[comp[(g, inv[h])]] for g in gs for h in gs}
            for x, gs in G.fibers()[0].items()}


def fiber_distances(G: FiniteGroupoid) -> dict:
    """Per-object distance tables on fibers alpha^-1(x):
    returns {unit arrow x: {(g, h): d(g h^-1)}}."""
    return _fiber_table(G, G.norm)


def norm_from_fiber_distances(G: FiniteGroupoid, fibers):
    """Reconstruct the norm from fiber distances: d(g) = d_x(g, e(x)) at
    x = alpha(g).  Returns the reconstructed table (always equal to the
    norm for honest data; tests assert equality exactly)."""
    return [fibers[x][(g, x)] for g, x in enumerate(G.endpoints()[0])]


def check_fiber_distances(G: FiniteGroupoid) -> ValidationReport:
    """Right-invariance and reconstruction, exactly, in integers."""
    rinv = LawCheck("d_omega(u)(g,h) = d_alpha(u)(gu, hu)")
    recon = LawCheck("d(g) = d_alpha(g)(g, e)")
    rep = ValidationReport(subject="fiber distances").add(rinv, recon)
    d, D = G._int
    fib = _fiber_table(G, d)
    alpha, omega = G.endpoints()
    leaving = G.fibers()[0]
    comp = G.compose
    for u, x in enumerate(omega):
        gs = leaving.get(x, ())
        here, there = fib.get(x), fib[alpha[u]]
        rinv.tick(len(gs) ** 2)
        for g in gs:
            gu = comp[(g, u)]
            for h in gs:
                if here[(g, h)] != there[(gu, comp[(h, u)])]:
                    rinv.fail(g=G.arrows[g], h=G.arrows[h], u=G.arrows[u])
    rec = norm_from_fiber_distances(G, fib)
    recon.tick(len(d))
    for g, want in enumerate(d):
        if rec[g] != want:
            recon.fail(g=G.arrows[g], got=str(Fraction(rec[g], D)),
                       want=str(G.norm[g]))
    return rep
