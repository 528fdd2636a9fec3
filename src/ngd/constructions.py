"""Stock constructions: pair groupoids of finite metric spaces, the
double groupoid of same-source arrow pairs, and fiber distances.

Everything here is exact table arithmetic, judged in integers over one
lcm per table; Fractions are the input, JSON and witness boundary.  The
double groupoid, its norm check and the fiber distances gather from G's
composition rows (FiniteGroupoid.rows) and per-object difference
matrices (FiniteGroupoid.differences), built once per G.  The double
groupoid is a view of G: its pairs and labels are kept on G, and its
compose table is built on first read.  Its norm d~ is judged through
the arrow map of dif, (g, h) -> g h^-1, against G's norm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, product
from operator import itemgetter

from .core import (
    FiniteGroupoid,
    LawCheck,
    ValidationReport,
    _gather,
    _json,
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
        dist = _json(data, "dist")
        for i, row in enumerate(dist):
            if not isinstance(row, list):
                raise TypeError(f"'dist' row {i} holds "
                                f"{type(row).__name__}, not a JSON array")
        return cls(points=list(_json(data, "points")), dist=dist)


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
        (tuple(chain(*rows)), D))


# ---------------------------------------------------------------------------
# double groupoid of same-source pairs


def _double_pairs(G: FiniteGroupoid) -> list:
    """The arrows of the double groupoid of G, in its arrow order: arrow i
    is the pair (g, h) of arrows of G with alpha(g) = alpha(h), listed by
    g and then by h.  It depends on G alone, so a double groupoid read
    back from JSON is checked against G with the same list.  Built once
    per G, on first use."""
    if G._pairs is None:
        leaving = G.fibers()[0]
        G._pairs = [(g, h) for g, a in enumerate(G.endpoints()[0])
                     for h in leaving[a]]
    return G._pairs


def _double_labels(G: FiniteGroupoid) -> list:
    """The arrow labels of the double groupoid of G, built once per G."""
    if G._pair_labels is None:
        a = G.arrows
        G._pair_labels = [f"[{a[g]};{a[h]}]" for g, h in _double_pairs(G)]
    return G._pair_labels


def _double_of(G: FiniteGroupoid, D):
    """D, once it has the arrows of G's double groupoid, in order, as one
    read back from JSON may not; else ValueError."""
    labels = _double_labels(G)
    if list(D.arrows) != labels:
        raise ValueError(f"D is not the double groupoid of G: {len(D.arrows)}"
                         f" arrows against {len(labels)}, or other labels")
    return D


def _dif_map(G: FiniteGroupoid, pairs) -> list:
    """The arrow map of dif, (g, h) -> m(g, inv h), off G's rows."""
    rows, inv = G.rows(), G.inverse
    return [rows[g][inv[h]] for g, h in pairs]


def _flat_differences(G: FiniteGroupoid) -> tuple:
    """The difference matrices flattened in arrow order: the numerators
    of d(g h^-1) for the pairs (g, h) of _double_pairs(G), in order."""
    row = dict(zip(chain(*G.fibers()[0].values()),
                   chain(*G.differences().values())))
    return (*chain.from_iterable(map(row.__getitem__, range(len(row)))),)


def _missing_report(G: FiniteGroupoid, subject, error) -> ValidationReport:
    """The red report for a G lacking composites the fiber laws read,
    naming each one: (inv g) g and g (inv g) for every g, then, once G
    has those, g h^-1 and g u for g, h leaving x and u entering x; when
    G has them all, each g u that lands outside the fiber of alpha(u).
    Raises error if there is none of either: it had another cause."""
    rows, inv, lbl = G.rows(), G.inverse, G.arrows
    read = [*dict.fromkeys(p for g, i in enumerate(inv)
                           for p in ((i, g), (g, i)))]
    moved = []
    if all(v in rows[g] for g, v in read):  # the fibers are defined
        leaving, entering = G.fibers()
        for x, gs in leaving.items():
            read += product(gs, dict.fromkeys(
                [inv[h] for h in gs] + entering.get(x, [])))
            moved += product(gs, entering.get(x, []))
    law = LawCheck("G composes every pair the fiber laws read")
    law.judge_all(len(read), [(g, v) for g, v in read if v not in rows[g]],
                  lambda g, v: dict(missing=f"({lbl[g]})({lbl[v]})"))
    rep = ValidationReport(subject=subject).add(law)
    if law.passed:
        alpha, law = G.endpoints()[0], LawCheck(
            "g u lies in the fiber of alpha(u)")
        law.judge_all(len(moved), [(g, u) for g, u in moved
                                   if alpha[rows[g][u]] != alpha[u]],
                      lambda g, u: dict(composite=f"({lbl[g]})({lbl[u]})",
                                        lands=lbl[rows[g][u]]))
        if law.passed:
            raise error
        rep.add(law)
    return rep


def _double_compose(pairs, start) -> dict:
    """The compose table of double_groupoid: (g, h)(h, l) = (g, l)."""
    return {(i, k): k + start[g] - start[h] for i, (g, h) in enumerate(pairs)
            for k in range(start[h], start[h + 1])}


def double_groupoid(G: FiniteGroupoid) -> FiniteGroupoid:
    """Arrows are pairs (g, h) with alpha(g) = alpha(h); composition glues
    along the first slot, (g, h)(h, l) = (g, l); the inverse swaps; the
    norm is the fiber distance d~(g, h) = d(g h^-1), read off G.differences().

    The pair (g, h) runs from the object (h, h) to (g, g): difference
    arrows index "how to get from h to g inside one fiber".  It is arrow
    start[g] + (the index of h in its fiber).  The compose table is built
    on its first read: the checks of D against G read only D's labels and
    norm."""
    alpha, leaving, pairs = G.endpoints()[0], G.fibers()[0], _double_pairs(G)
    start = [0, *accumulate(len(leaving[a]) for a in alpha)]
    at = {g: i for gs in leaving.values() for i, g in enumerate(gs)}
    inverse = [start[h] + at[g] for g, h in pairs]
    arrows = list(_double_labels(G))  # D's own list: G keeps the cached one
    compose = partial(_double_compose, pairs, start)
    norm, ints = None, (None, None)
    if G.norm is not None:
        flat, value = _flat_differences(G), dict(zip(G._int[0], G.norm))
        norm, ints = [*map(value.__getitem__, flat)], (flat, G._int[1])
    return FiniteGroupoid._normed(arrows, compose, inverse, norm, ints)


def _right_translation(G: FiniteGroupoid, law, key=None) -> LawCheck:
    """Right translation preserves fiber distances, d(g h^-1) =
    d((gu)(hu)^-1) for g, h leaving omega(u): per u, the difference matrix
    of alpha(u) reindexed by p, the positions of the g u, equals that of
    omega(u).  Judged once per G; each (g, h, u) is an instance, and the
    failing ones are filed in the order of key."""
    if G._right is None:
        (alpha, omega), leaving = G.endpoints(), G.fibers()[0]
        rows, M = G.rows(), G.differences()
        checked, bad = 0, []
        for u, x in enumerate(omega):
            gs = leaving.get(x, ())
            checked += len(gs) ** 2
            if not gs:
                continue
            p = [*map(leaving[alpha[u]].index, [rows[g][u] for g in gs])]
            there, here = M[alpha[u]], M[x]
            if [*map(_gather(p), map(there.__getitem__, p))] != here:
                bad += [(g, h, u) for i, g in enumerate(gs)
                        for j, h in enumerate(gs)
                        if here[i][j] != there[p[i]][p[j]]]
        G._right = checked, bad
    law.judge_all(G._right[0], sorted(G._right[1], key=key),
                  lambda g, h, u: dict(g=G.arrows[g], h=G.arrows[h],
                                       u=G.arrows[u]))
    return law


def check_double_norm(G: FiniteGroupoid, D=None) -> ValidationReport:
    """d~ is norm-preserving along dif, and right translation is an
    isometry of fibers: (g u)(h u)^-1 = g h^-1 exactly.  d~ is D's norm,
    or with D omitted the norm double_groupoid(G) would give, and no D is
    built; either is judged against d read at the arrow map of dif.  A D
    that is not the double groupoid of G raises ValueError.  A G lacking
    a composite these laws read is red, naming each one."""
    try:
        pairs = _double_pairs(G)
        dif = _dif_map(G, pairs)
        right = _right_translation(
            G, LawCheck("right translation preserves d~"))
        dd, DD = ((_flat_differences(G), G._int[1]) if D is None
                  else _double_of(G, D)._int)
    except (KeyError, ValueError) as e:  # G may not be a groupoid
        return _missing_report(G, "double groupoid norm", e)
    pres = LawCheck("d~(g,h) = d(g h^-1)")
    num, DG = G._int
    pres.judge_all(len(pairs), [(i,) for i, (v, k) in enumerate(zip(dd, dif))
                                if v * DG != num[k] * DD],
                   lambda i: dict(pair=_double_labels(G)[i]))
    return ValidationReport(subject="double groupoid norm").add(pres, right)


# ---------------------------------------------------------------------------
# fiber distances


def fiber_distances(G: FiniteGroupoid) -> dict:
    """Per-object distance tables on fibers alpha^-1(x):
    returns {unit arrow x: {(g, h): d(g h^-1)}}, read off the difference
    matrices.  A G lacking a composite they read raises ValueError,
    naming one."""
    try:
        M = G.differences()
    except KeyError as e:  # G is not a groupoid
        (law,) = _missing_report(G, "fiber distances", e).laws
        raise ValueError("G lacks the composite "
                         f"{law.witnesses[0]['missing']}") from None
    value = dict(zip(G._int[0], G.norm))
    return {x: dict(zip(product(gs, gs), map(value.__getitem__, chain(*m))))
            for (x, gs), m in zip(G.fibers()[0].items(), M.values())}


def norm_from_fiber_distances(G: FiniteGroupoid, fibers):
    """Reconstruct the norm from fiber distances: d(g) = d_x(g, e(x)) at
    x = alpha(g).  Returns the reconstructed table (always equal to the
    norm for honest data; tests assert equality exactly)."""
    return [fibers[x][(g, x)] for g, x in enumerate(G.endpoints()[0])]


def check_fiber_distances(G: FiniteGroupoid) -> ValidationReport:
    """Right-invariance and reconstruction, exactly, in integers.  A G
    lacking a composite these laws read is red, naming each one."""
    try:
        right = _right_translation(
            G, LawCheck("d_omega(u)(g,h) = d_alpha(u)(gu, hu)"),
            itemgetter(2, 0, 1))
    except (KeyError, ValueError) as e:  # G may not be a groupoid
        return _missing_report(G, "fiber distances", e)
    recon = LawCheck("d(g) = d_alpha(g)(g, e)")
    rep = ValidationReport(subject="fiber distances").add(right, recon)
    (d, D), M, leaving = G._int, G.differences(), G.fibers()[0]
    rec = [M[a][leaving[a].index(g)][leaving[a].index(a)]
           for g, a in enumerate(G.endpoints()[0])]
    recon.judge_all(len(d), [(g,) for g, v in enumerate(d) if rec[g] != v],
                    lambda g: dict(g=G.arrows[g], got=str(Fraction(rec[g], D)),
                                   want=str(G.norm[g])))
    return rep
