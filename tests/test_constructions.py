"""Pair groupoids over finite metric spaces and the double construction.
Everything in here is exact rational arithmetic — asserts use ==."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngd.constructions import (
    FiniteMetricSpace,
    check_double_norm,
    check_fiber_distances,
    double_groupoid,
    fiber_distances,
    norm_from_fiber_distances,
    pair_groupoid,
    random_metric_space,
)
from ngd.core import (
    FiniteGroupoid,
    check_norm,
    check_separability,
    validate_groupoid,
)
from references import check_morphism, double_difference_morphism


def line_space():
    return FiniteMetricSpace(
        points=["p", "q", "r"],
        dist=[
            [Fraction(0), Fraction(1), Fraction(2)],
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(2), Fraction(1), Fraction(0)],
        ],
    )


def test_metric_space_rejects_asymmetry():
    with pytest.raises(ValueError):
        FiniteMetricSpace(
            points=[0, 1],
            dist=[[Fraction(0), Fraction(2)], [Fraction(1), Fraction(0)]],
        )


def test_metric_space_rejects_triangle_violation():
    with pytest.raises(ValueError):
        FiniteMetricSpace(
            points=[0, 1, 2],
            dist=[
                [Fraction(0), Fraction(1), Fraction(5)],
                [Fraction(1), Fraction(0), Fraction(1)],
                [Fraction(5), Fraction(1), Fraction(0)],
            ],
        )


def test_json_round_trip():
    X = line_space()
    Y = FiniteMetricSpace.from_json(X.to_json())
    assert Y.points == X.points and Y.dist == X.dist


def test_pair_groupoid_of_line():
    G = pair_groupoid(line_space())
    assert len(G.arrows) == 9
    assert validate_groupoid(G).passed
    assert check_norm(G).passed
    assert check_separability(G).passed
    # arrow labels read target <- source
    assert "q<-p" in G.arrows


class TestRandomSpaces:
    """random_metric_space must hand back honest metrics for every seed —
    the triangle completion is load-bearing, so lean on it."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_always_a_metric(self, seed):
        X = random_metric_space(seed=seed)
        # __post_init__ would have raised; spot-check shape and exactness
        assert 2 <= X.n_points() <= 8
        assert all(
            isinstance(v, Fraction) for row in X.dist for v in row
        )

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_pair_groupoid_laws(self, seed):
        X = random_metric_space(seed=seed, max_points=6)
        G = pair_groupoid(X)
        assert validate_groupoid(G).passed
        assert check_norm(G).passed
        assert check_separability(G).passed


def test_double_groupoid_norm_laws():
    G = pair_groupoid(line_space())
    D = double_groupoid(G)
    rep = check_double_norm(G, D)
    assert rep.passed, rep.summary()
    assert rep.to_json() == check_double_norm(G).to_json()


def test_double_difference_is_a_norm_preserving_morphism():
    G = pair_groupoid(line_space())
    D = double_groupoid(G)
    M = double_difference_morphism(G, D)
    assert check_morphism(M).passed
    # norm preservation on the nose: d~(g, h) = d(dif(g, h))
    assert all(
        D.norm[i] == G.norm[M.arrow_map[i]] for i in range(len(D.arrows))
    )


def test_double_groupoid_read_back_from_json_is_checked_against_G():
    G = pair_groupoid(random_metric_space(seed=5, max_points=5))
    D = double_groupoid(G)
    D2 = FiniteGroupoid.from_json(D.to_json())
    assert check_double_norm(G, D2).to_json() == \
        check_double_norm(G, D).to_json()
    M, M2 = double_difference_morphism(G, D), double_difference_morphism(G, D2)
    assert M2.arrow_map == M.arrow_map
    assert check_morphism(M2).passed


def _five_point_space():
    return FiniteMetricSpace(
        points=list("abcde"),
        dist=[[0 if i == j else 1 + (i + j) % 2 for j in range(5)]
              for i in range(5)])


@pytest.mark.parametrize("check", [check_double_norm,
                                   double_difference_morphism])
def test_a_double_groupoid_of_another_space_is_refused(check):
    small = pair_groupoid(line_space())
    big = pair_groupoid(_five_point_space())
    with pytest.raises(ValueError, match="125 arrows against 27"):
        check(small, double_groupoid(big))
    with pytest.raises(ValueError, match="27 arrows against 125"):
        check(big, double_groupoid(small))


@pytest.mark.parametrize("check", [check_double_norm,
                                   double_difference_morphism])
def test_a_double_groupoid_with_other_labels_is_refused(check):
    G = pair_groupoid(line_space())
    D = double_groupoid(G)
    renamed = FiniteGroupoid(D.arrows[1:] + D.arrows[:1], D.compose,
                             D.inverse, D.norm)
    with pytest.raises(ValueError, match="other labels"):
        check(G, renamed)


def test_fiber_distance_reconstruction_is_exact():
    for seed in (1, 2, 3, 11):
        X = random_metric_space(seed=seed, max_points=7)
        G = pair_groupoid(X)
        fib = fiber_distances(G)
        assert norm_from_fiber_distances(G, fib) == G.norm
        assert check_fiber_distances(G).passed


def test_fiber_tables_are_right_invariant():
    G = pair_groupoid(line_space())
    fib = fiber_distances(G)
    # d_x(g, h) with both feet in one fiber equals d(g h^-1); every value
    # shows up in the original metric, doubled points included
    vals = {v for table in fib.values() for v in table.values()}
    flat = {v for row in line_space().dist for v in row}
    assert vals == flat


def test_right_translation_counts_nothing_where_no_arrow_leaves_omega():
    # alpha(u) = e but omega(u) = m(u, inv u) = u, and no arrow leaves u:
    # only u = e, with e and u leaving omega(e), gives instances
    G = FiniteGroupoid(["e", "u"], {(0, 0): 0, (0, 1): 0, (1, 0): 1},
                       [0, 0], [0, 1])
    assert G.endpoints() == ([0, 0], [0, 1]) and 1 not in G.fibers()[0]
    law = check_fiber_distances(G).law("d_omega(u)(g,h) = d_alpha(u)(gu, hu)")
    assert (law.checked, law.failures) == (4, 0)


def test_reconstruction_files_the_arrow_whose_unit_law_breaks():
    # Z/2 with s e = e in place of s: d_alpha(s)(s, e) reads d(e) = 0
    G = FiniteGroupoid(["e", "s"],
                       {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 0},
                       [0, 1], [0, 1])
    law = check_fiber_distances(G).law("d(g) = d_alpha(g)(g, e)")
    assert (law.checked, law.failures) == (2, 1)
    assert law.witnesses == [{"g": "s", "got": "0", "want": "1"}]


def test_table_checks_compare_integers_not_fractions(monkeypatch):
    # an honest 8-point pair groupoid: the double-norm, fiber and norm
    # checks make O(n^4) comparisons, and none of them may be a Fraction
    # comparison; the bound leaves room for one per arrow of G
    xs = [Fraction(k * k, 3) + Fraction(1, k + 2) for k in range(8)]
    space = FiniteMetricSpace(points=[f"p{k}" for k in range(8)],
                              dist=[[abs(x - y) for y in xs] for x in xs])
    G = pair_groupoid(space)
    D = double_groupoid(G)
    count = [0]
    eq, richcmp = Fraction.__eq__, Fraction._richcmp

    def counted_eq(a, b):
        count[0] += 1
        return eq(a, b)

    def counted_richcmp(a, b, op):
        count[0] += 1
        return richcmp(a, b, op)

    monkeypatch.setattr(Fraction, "__eq__", counted_eq)
    monkeypatch.setattr(Fraction, "_richcmp", counted_richcmp)
    reports = [check_double_norm(G, D), check_fiber_distances(G),
               check_norm(G)]
    monkeypatch.undo()
    assert all(rep.passed for rep in reports)
    assert sum(c.checked for rep in reports for c in rep.laws) > 8 ** 4
    assert count[0] <= len(G.arrows)
