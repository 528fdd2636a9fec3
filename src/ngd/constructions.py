"""Stock constructions: pair groupoids of finite metric spaces, the
double groupoid of same-source arrow pairs, and fiber distances.

Everything here is exact table arithmetic over Fractions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    FiniteGroupoid,
    LawCheck,
    ValidationReport,
    as_fraction,
)


# ---------------------------------------------------------------------------
# finite metric spaces


@dataclass
class FiniteMetricSpace:
    points: list
    dist: list  # matrix of Fractions

    def __post_init__(self):
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValueError("duplicate point labels")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix is not square")
        self.dist = [[as_fraction(v) for v in row] for row in self.dist]
        for i in range(n):
            if self.dist[i][i] != 0:
                raise ValueError(f"dist[{i}][{i}] != 0")
            for j in range(n):
                if self.dist[i][j] != self.dist[j][i]:
                    raise ValueError(f"dist not symmetric at ({i},{j})")
                if i != j and self.dist[i][j] <= 0:
                    raise ValueError(f"dist[{i}][{j}] not positive")
                for k in range(n):
                    if self.dist[i][j] > self.dist[i][k] + self.dist[k][j]:
                        raise ValueError(
                            f"triangle inequality fails at ({i},{j},{k})"
                        )

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
    n = len(pts)
    arrows, index = [], {}
    for x in range(n):
        for y in range(n):
            index[(x, y)] = len(arrows)
            arrows.append(pair_label(pts[x], pts[y]))
    compose = {}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                compose[(index[(x, y)], index[(y, z)])] = index[(x, z)]
    inverse = [0] * len(arrows)
    norm = [Fraction(0)] * len(arrows)
    for (x, y), g in index.items():
        inverse[g] = index[(y, x)]
        norm[g] = space.dist[x][y]
    return FiniteGroupoid(arrows, compose, inverse, norm)


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
    arrows = [f"[{G.arrows[g]};{G.arrows[h]}]" for g, h in pairs]
    compose = {}
    for i, (g, h) in enumerate(pairs):
        for l in leaving[alpha[h]]:
            compose[(i, index[(h, l)])] = index[(g, l)]
    inverse = [index[(h, g)] for g, h in pairs]
    norm = None
    if G.norm is not None:
        norm = [G.norm[comp[(g, inv[h])]] for g, h in pairs]
    return FiniteGroupoid(arrows, compose, inverse, norm)


def double_difference_morphism(G, D=None):
    """The map (g, h) -> g h^-1 from the double groupoid to G.  Returns a
    core.GroupoidMorphism; it preserves norms (d~ = d o dif) on the nose,
    which check_double_norm asserts exactly."""
    from .core import GroupoidMorphism

    if D is None:
        D = double_groupoid(G)
    amap = [G.compose[(g, G.inverse[h])] for g, h in _double_pairs(G)]
    return GroupoidMorphism(source=D, target=G, arrow_map=amap, name="dif")


def check_double_norm(G: FiniteGroupoid, D=None) -> ValidationReport:
    """d~ is norm-preserving along dif, and right translation is an
    isometry of fibers: (g u)(h u)^-1 = g h^-1 exactly."""
    if D is None:
        D = double_groupoid(G)
    rep = ValidationReport(subject="double groupoid norm")
    pres = LawCheck("d~(g,h) = d(g h^-1)")
    rinv = LawCheck("right translation preserves d~")
    rep.add(pres, rinv)
    alpha = G.endpoints()[0]
    entering = G.fibers()[1]
    comp, inv, d = G.compose, G.inverse, G.norm
    pairs = _double_pairs(G)
    for i, (g, h) in enumerate(pairs):
        pres.tick()
        if D.norm[i] != d[comp[(g, inv[h])]]:
            pres.fail(pair=D.arrows[i])
    for g, h in pairs:
        dgh = d[comp[(g, inv[h])]]
        for u in entering.get(alpha[g], ()):
            rinv.tick()
            gu, hu = comp[(g, u)], comp[(h, u)]
            if d[comp[(gu, inv[hu])]] != dgh:
                rinv.fail(g=G.arrows[g], h=G.arrows[h], u=G.arrows[u])
    return rep


# ---------------------------------------------------------------------------
# fiber distances


def fiber_distances(G: FiniteGroupoid) -> dict:
    """Per-object distance tables on fibers alpha^-1(x):
    returns {unit arrow x: {(g, h): d(g h^-1)}}."""
    d, comp, inv = G.norm, G.compose, G.inverse
    if d is None:
        raise ValueError("groupoid carries no norm")
    return {
        x: {(g, h): d[comp[(g, inv[h])]] for g in gs for h in gs}
        for x, gs in G.fibers()[0].items()
    }


def norm_from_fiber_distances(G: FiniteGroupoid, fibers=None):
    """Reconstruct the norm from fiber distances: d(g) = d_x(g, e(x)) at
    x = alpha(g).  Returns the reconstructed table (always equal to the
    norm for honest data; tests assert equality exactly)."""
    if fibers is None:
        fibers = fiber_distances(G)
    return [fibers[x][(g, x)] for g, x in enumerate(G.endpoints()[0])]


def check_fiber_distances(G: FiniteGroupoid) -> ValidationReport:
    """Right-invariance and reconstruction, exactly."""
    rep = ValidationReport(subject="fiber distances")
    rinv = LawCheck("d_omega(u)(g,h) = d_alpha(u)(gu, hu)")
    recon = LawCheck("d(g) = d_alpha(g)(g, e)")
    rep.add(rinv, recon)
    fib = fiber_distances(G)
    alpha, omega = G.endpoints()
    leaving = G.fibers()[0]
    comp = G.compose
    for u, x in enumerate(omega):
        gs = leaving.get(x, ())
        here, there = fib.get(x), fib[alpha[u]]
        for g in gs:
            for h in gs:
                rinv.tick()
                if here[(g, h)] != there[(comp[(g, u)], comp[(h, u)])]:
                    rinv.fail(g=G.arrows[g], h=G.arrows[h], u=G.arrows[u])
    rec = norm_from_fiber_distances(G, fib)
    for g, want in enumerate(G.norm):
        recon.tick()
        if rec[g] != want:
            recon.fail(g=G.arrows[g], got=str(rec[g]), want=str(want))
    return rep
