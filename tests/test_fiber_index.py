"""The α/ω fiber index of FiniteGroupoid against the filter loops it
replaced.

The reference functions below are the earlier implementations: they ask
every arrow for its endpoints through method calls and keep the ones in
the wanted fiber.  `Ref` supplies those methods over a groupoid's tables,
with its own α/ω computation, so the references do not read the index
under test.  Every table and every report must come out equal, witnesses
and their order included."""

from fractions import Fraction

import pytest

from ngd.constructions import (
    _double_pairs,
    check_double_norm,
    check_fiber_distances,
    double_groupoid,
    fiber_distances,
    norm_from_fiber_distances,
    pair_groupoid,
    random_metric_space,
)
from ngd.core import (
    CategoryWithInverses,
    FiniteGroupoid,
    LawCheck,
    ValidationReport,
    _table_laws,
    check_category_with_inverses,
    check_separability,
    validate_groupoid,
)
from ngd.fixtures import (
    inflated_norm_groupoid,
    non_separating_seminorms,
    retargeted_compose_groupoid,
)
from ngd.transport import transport_category_fixture


class Ref:
    """The per-arrow endpoint methods over a groupoid's tables."""

    def __init__(self, G):
        self.arrows, self.compose = G.arrows, G.compose
        self.inverse, self.norm = G.inverse, G.norm
        self._alpha = [self.compose[(self.inverse[g], g)]
                       for g in range(len(self.arrows))]
        self._omega = [self.compose[(g, self.inverse[g])]
                       for g in range(len(self.arrows))]

    def m(self, g, h):
        return self.compose[(g, h)]

    def inv(self, g):
        return self.inverse[g]

    def d(self, g):
        return self.norm[g]

    def alpha(self, g):
        return self._alpha[g]

    def omega(self, g):
        return self._omega[g]

    def objects(self):
        return sorted(set(self._alpha))

    def arrows_between(self, x, y):
        return [g for g in range(len(self.arrows))
                if self.alpha(g) == x and self.omega(g) == y]


# ---------------------------------------------------------------------------
# the filter-loop references


def ref_double_groupoid(G):
    G = Ref(G)
    n = len(G.arrows)
    pairs, index = [], {}
    for g in range(n):
        for h in range(n):
            if G.alpha(g) == G.alpha(h):
                index[(g, h)] = len(pairs)
                pairs.append((g, h))
    arrows = [f"[{G.arrows[g]};{G.arrows[h]}]" for g, h in pairs]
    compose = {}
    for (g, h), i in index.items():
        for l in range(n):
            if G.alpha(l) == G.alpha(h):
                j = index[(h, l)]
                compose[(i, j)] = index[(g, l)]
    inverse = [index[(h, g)] for g, h in pairs]
    norm = None
    if G.norm is not None:
        norm = [G.d(G.m(g, G.inv(h))) for g, h in pairs]
    H = FiniteGroupoid(arrows, compose, inverse, norm)
    H.pairs = pairs
    return H


def ref_check_double_norm(G, D):
    G = Ref(G)
    rep = ValidationReport(subject="double groupoid norm")
    pres = LawCheck("d~(g,h) = d(g h^-1)")
    rinv = LawCheck("right translation preserves d~")
    rep.add(pres, rinv)
    for i, (g, h) in enumerate(D.pairs):
        pres.tick()
        if D.norm[i] != G.d(G.m(g, G.inv(h))):
            pres.fail(pair=D.arrows[i])
    n = len(G.arrows)
    for g, h in D.pairs:
        for u in range(n):
            if G.omega(u) != G.alpha(g):
                continue
            rinv.tick()
            gu, hu = G.m(g, u), G.m(h, u)
            lhs = G.d(G.m(gu, G.inv(hu)))
            if lhs != G.d(G.m(g, G.inv(h))):
                rinv.fail(g=G.arrows[g], h=G.arrows[h], u=G.arrows[u])
    return rep


def ref_fiber_distances(G):
    G = Ref(G)
    fibers = {}
    for g in range(len(G.arrows)):
        fibers.setdefault(G.alpha(g), []).append(g)
    out = {}
    for x, gs in fibers.items():
        table = {}
        for g in gs:
            for h in gs:
                table[(g, h)] = G.d(G.m(g, G.inv(h)))
        out[x] = table
    return out


def ref_norm_from_fiber_distances(G, fibers):
    G = Ref(G)
    return [
        fibers[G.alpha(g)][(g, G.alpha(g))] for g in range(len(G.arrows))
    ]


def ref_check_fiber_distances(G):
    rep = ValidationReport(subject="fiber distances")
    rinv = LawCheck("d_omega(u)(g,h) = d_alpha(u)(gu, hu)")
    recon = LawCheck("d(g) = d_alpha(g)(g, e)")
    rep.add(rinv, recon)
    fib = ref_fiber_distances(G)
    rec = ref_norm_from_fiber_distances(G, fib)
    G = Ref(G)
    n = len(G.arrows)
    for u in range(n):
        x = G.omega(u)
        for g in range(n):
            if G.alpha(g) != x:
                continue
            for h in range(n):
                if G.alpha(h) != x:
                    continue
                rinv.tick()
                if fib[x][(g, h)] != fib[G.alpha(u)][(G.m(g, u), G.m(h, u))]:
                    rinv.fail(g=G.arrows[g], h=G.arrows[h], u=G.arrows[u])
    for g in range(n):
        recon.tick()
        if rec[g] != G.d(g):
            recon.fail(g=G.arrows[g], got=str(rec[g]), want=str(G.d(g)))
    return rep


def ref_check_separability(G, norm=None):
    d = G.norm if norm is None else norm
    G = Ref(G)
    rep = ValidationReport(subject="separability")
    law = LawCheck("distinct objects are norm-separated")
    rep.add(law)
    objs = G.objects()
    for x in objs:
        for y in objs:
            if x >= y:
                continue
            arrows = G.arrows_between(x, y)
            if not arrows:
                continue
            law.tick()
            lo = min(d[g] for g in arrows)
            if lo == 0:
                g0 = next(g for g in arrows if d[g] == 0)
                law.fail(x=G.arrows[x], y=G.arrows[y], arrow=G.arrows[g0])
    return rep


def ref_validate_groupoid(G):
    rep = ValidationReport(subject=f"groupoid[{len(G.arrows)} arrows]")
    invo = LawCheck("inverse is an involution")
    pairs = LawCheck("(inv g, g) and (g, inv g) compose")
    typing = LawCheck("composite typing alpha(gh)=alpha(h), omega(gh)=omega(g)")
    match = LawCheck("composability iff alpha(g) = omega(h)")
    assoc = LawCheck("associativity with closure")
    cancel = LawCheck("cancellation (gh)h^-1 = g and g^-1(gh) = h")
    rep.add(invo, pairs, typing, match, assoc, cancel)

    n = len(G.arrows)
    inv = G.inverse
    comp = G.compose

    for g in range(n):
        invo.tick()
        if inv[inv[g]] != g:
            invo.fail(g=G.arrows[g], inv=G.arrows[inv[g]])
        pairs.tick()
        if (inv[g], g) not in comp or (g, inv[g]) not in comp:
            pairs.fail(g=G.arrows[g])

    if not pairs.passed:
        for c in (typing, match, assoc, cancel):
            c.note = "skipped: unit arrows undefined"
        return rep

    alpha = [comp[(inv[g], g)] for g in range(n)]
    omega = [comp[(g, inv[g])] for g in range(n)]

    for g in range(n):
        for h in range(n):
            match.tick()
            if ((g, h) in comp) != (alpha[g] == omega[h]):
                match.fail(g=G.arrows[g], h=G.arrows[h],
                           composable=(g, h) in comp)

    for (g, h), k in comp.items():
        typing.tick()
        if alpha[k] != alpha[h] or omega[k] != omega[g]:
            typing.fail(g=G.arrows[g], h=G.arrows[h], gh=G.arrows[k])
        cancel.tick()
        if comp.get((k, inv[h])) != g or comp.get((inv[g], k)) != h:
            cancel.fail(g=G.arrows[g], h=G.arrows[h])

    by_omega = {}
    for k in range(n):
        by_omega.setdefault(omega[k], []).append(k)

    for (g, h), gh in comp.items():
        for k in by_omega.get(alpha[h], ()):
            assoc.tick()
            hk = comp.get((h, k))
            left = comp.get((gh, k))
            if hk is None or left is None or comp.get((g, hk)) != left:
                assoc.fail(g=G.arrows[g], h=G.arrows[h], k=G.arrows[k])
    return rep


def ref_check_category_with_inverses(C, strict_norm=True, joint_kernel=True):
    rep = ValidationReport(subject=f"category[{len(C.arrows)} arrows]")
    n = len(C.arrows)
    comp, inv = C.compose, C.inverse

    stab = LawCheck("composability stable under composition")
    assoc = LawCheck("associativity")
    invo = LawCheck("inverse is an involution")
    ipair = LawCheck("(inv g, g) and (g, inv g) compose")
    anti = LawCheck("inverse is an antimorphism")
    ends = LawCheck("source of inv g = target of g (composability classes)")
    rep.add(stab, assoc, invo, ipair, anti, ends)

    for g in range(n):
        invo.tick()
        if inv[inv[g]] != g:
            invo.fail(g=C.arrows[g])
        ipair.tick()
        if (inv[g], g) not in comp or (g, inv[g]) not in comp:
            ipair.fail(g=C.arrows[g])

    for (g, h), gh in comp.items():
        anti.tick()
        if comp.get((inv[h], inv[g])) != inv[gh]:
            anti.fail(g=C.arrows[g], h=C.arrows[h])
        for k in range(n):
            stab.tick(2)
            if ((h, k) in comp) != ((gh, k) in comp):
                stab.fail(side="right", g=C.arrows[g], h=C.arrows[h],
                          k=C.arrows[k])
            if ((k, g) in comp) != ((k, gh) in comp):
                stab.fail(side="left", g=C.arrows[g], h=C.arrows[h],
                          k=C.arrows[k])
            if (h, k) in comp:
                assoc.tick()
                hk = comp[(h, k)]
                if comp.get((gh, k)) != comp.get((g, hk)) or (gh, k) not in comp:
                    assoc.fail(g=C.arrows[g], h=C.arrows[h], k=C.arrows[k])

    L = [frozenset(k for k in range(n) if (k, g) in comp) for g in range(n)]
    for g in range(n):
        for k in range(n):
            ends.tick()
            if ((inv[g], k) in comp) != (L[k] == L[g]):
                ends.fail(g=C.arrows[g], k=C.arrows[k])

    units = C.unit_like()
    if C.norm is not None and strict_norm:
        rep.add(*_table_laws(
            C.arrows, comp, inv, units, [(None, C.norm)],
            ("d = 0 exactly on arrows h^-1 h", "d subadditive",
             "d inversion invariant")))
    if C.seminorms is not None:
        rep.add(*_table_laws(
            C.arrows, comp, inv, units,
            list(zip(C.seminorms.names, C.seminorms.values)),
            ("seminorms vanish on arrows h^-1 h", "seminorms subadditive",
             "seminorms inversion invariant"),
            joint=("joint seminorm kernel  subset of arrows h^-1 h"
                   if joint_kernel else None)))
    return rep


# ---------------------------------------------------------------------------
# comparisons


def same_tables(A, B, pairs):
    assert A.arrows == B.arrows
    assert list(A.compose.items()) == list(B.compose.items())  # order too
    assert A.inverse == B.inverse
    assert A.norm == B.norm
    assert pairs == B.pairs


def same_report(a, b):
    assert a.to_json() == b.to_json()
    assert [c.witnesses for c in a.laws] == [c.witnesses for c in b.laws]


def same_fibers(G):
    fib, ref = fiber_distances(G), ref_fiber_distances(G)
    assert [(x, list(t.items())) for x, t in fib.items()] == [
        (x, list(t.items())) for x, t in ref.items()]
    assert norm_from_fiber_distances(G, fib) == \
        ref_norm_from_fiber_distances(G, ref)
    same_report(check_fiber_distances(G), ref_check_fiber_distances(G))


def same_battery(G):
    """The criterion-1 battery, each piece against its reference."""
    same_report(validate_groupoid(G), ref_validate_groupoid(G))
    same_report(check_separability(G), ref_check_separability(G))
    D, RD = double_groupoid(G), ref_double_groupoid(G)
    same_tables(D, RD, _double_pairs(G))
    same_report(check_double_norm(G, D), ref_check_double_norm(G, RD))
    same_fibers(G)


@pytest.mark.parametrize("seed", range(50))
def test_criterion_one_spaces_match_the_filter_loops(seed):
    G = pair_groupoid(random_metric_space(seed, max_points=8))
    same_battery(G)
    # a zero norm between distinct objects: every pair x < y fails
    zero = [Fraction(0)] * len(G.arrows)
    same_report(check_separability(G, zero), ref_check_separability(G, zero))


def test_double_of_a_double_matches():
    # the validate CLI checks the double groupoid of a double groupoid
    D = double_groupoid(pair_groupoid(random_metric_space(4, max_points=3)))
    same_battery(D)


def test_planted_finite_fixtures_match_the_filter_loops():
    G = retargeted_compose_groupoid()
    same_report(validate_groupoid(G), ref_validate_groupoid(G))
    same_report(check_separability(G), ref_check_separability(G))
    assert not validate_groupoid(G).passed
    for G in (inflated_norm_groupoid(), non_separating_seminorms()[0]):
        same_battery(G)


def broken_loops():
    """Two copies of Z/4 side by side, with r1 r2 sent to the unit r0:
    every table stays total on each object, but right translation no
    longer preserves d~ and associativity fails."""
    compose = {(b + g, b + h): b + (g + h) % 4
               for b in (0, 4) for g in range(4) for h in range(4)}
    compose[(1, 2)] = 0
    return FiniteGroupoid(
        [f"r{k}" for k in range(4)] + [f"s{k}" for k in range(4)], compose,
        [b + (-g) % 4 for b in (0, 4) for g in range(4)],
        [Fraction(min(g, 4 - g)) for _ in (0, 4) for g in range(4)])


def test_broken_loops_fail_alike():
    G = broken_loops()
    assert not validate_groupoid(G).passed
    assert check_double_norm(G).law("right translation preserves d~").failures
    assert not check_fiber_distances(G).passed
    same_battery(G)


@pytest.mark.parametrize("strict_norm", [True, False])
@pytest.mark.parametrize("joint_kernel", [True, False])
def test_transport_category_matches_the_filter_loops(strict_norm,
                                                      joint_kernel):
    C, _, _ = transport_category_fixture()
    same_report(
        check_category_with_inverses(C, strict_norm, joint_kernel),
        ref_check_category_with_inverses(C, strict_norm, joint_kernel))


def test_retargeted_tables_as_a_category_match():
    G = retargeted_compose_groupoid()
    C = CategoryWithInverses(G.arrows, G.compose, G.inverse, norm=G.norm)
    rep = check_category_with_inverses(C)
    assert not rep.passed
    same_report(rep, ref_check_category_with_inverses(C))


def test_composites_missing_on_both_sides_fail_associativity():
    # (g, h) and (h, k) compose, but neither (gh, k) nor (g, hk) does
    C = CategoryWithInverses(["g", "h", "k", "gh", "hk"],
                             {(0, 1): 3, (1, 2): 4}, [0, 1, 2, 3, 4])
    rep = check_category_with_inverses(C)
    assert rep.law("associativity").witnesses == [
        {"g": "g", "h": "h", "k": "k"}]
    same_report(rep, ref_check_category_with_inverses(C))


# ---------------------------------------------------------------------------
# the index itself


def unpaired_tables():
    """(a, a) does not compose although a is its own inverse."""
    compose = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}
    return FiniteGroupoid(["e", "f", "a"], compose, [0, 1, 2],
                          [Fraction(0), Fraction(0), Fraction(1)])


def test_endpoints_and_fibers_of_a_pair_groupoid():
    G = pair_groupoid(random_metric_space(2, max_points=4))
    alpha, omega = G.endpoints()
    leaving, entering = G.fibers()
    for g in range(len(G.arrows)):
        assert alpha[g] == G.compose[(G.inverse[g], g)]
        assert omega[g] == G.compose[(g, G.inverse[g])]
    assert leaving == {x: [g for g, a in enumerate(alpha) if a == x]
                       for x in alpha}
    assert entering == {x: [g for g, w in enumerate(omega) if w == x]
                        for x in omega}
    assert G.endpoints() is G.endpoints() and G.fibers() is G.fibers()


def test_missing_inverse_pair_raises_but_validation_reports():
    G = unpaired_tables()
    with pytest.raises(ValueError, match="not composable at a"):
        G.endpoints()
    with pytest.raises(ValueError):
        G.fibers()
    rep = validate_groupoid(G)
    same_report(rep, ref_validate_groupoid(G))
    assert rep.law("(inv g, g) and (g, inv g) compose").witnesses == [
        {"g": "a"}]
    skipped = [c for c in rep.laws if c.note]
    assert len(skipped) == 4
    assert all(c.note == "skipped: unit arrows undefined" and c.checked == 0
               for c in skipped)


def test_category_involution_witness_names_the_inverse():
    C = CategoryWithInverses(["e", "a"], {(0, 0): 0}, [1, 1])
    law = check_category_with_inverses(C).law("inverse is an involution")
    assert law.failures == 1
    assert law.witnesses == [{"g": "e", "inv": "a"}]
