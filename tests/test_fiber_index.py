"""The α/ω fiber index of FiniteGroupoid, and the integer form of its
tables, against the filter loops and Fraction comparisons they replaced.

The reference functions below are the earlier implementations: they ask
every arrow for its endpoints through method calls and keep the ones in
the wanted fiber.  `Ref` supplies those methods over a groupoid's tables,
with its own α/ω computation, so the references do not read the index
under test.  They also compare the Fraction tables themselves, where the
library compares numerators over one lcm; `ref_table_laws` is the
Fraction form of the shared (semi)norm kernel.  Every table and every
report must come out equal, witnesses and their order included."""

import pickle
import random
from fractions import Fraction

import pytest

from ngd import constructions
from ngd.constructions import (
    FiniteMetricSpace,
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
    SeminormFamily,
    ValidationReport,
    check_category_with_inverses,
    check_norm,
    check_seminorm_family,
    check_separability,
    validate_groupoid,
)
from ngd.fixtures import (
    broken_loops,
    inflated_norm_groupoid,
    misplaced_composite_groupoid,
    non_separating_seminorms,
    retargeted_compose_groupoid,
)
from ngd.transport import (norm_d, transport_category_fixture,
                           two_point_space)
from references import check_strict_category


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
        pres.judge(D.norm[i] == G.d(G.m(g, G.inv(h))), pair=D.arrows[i])
    n = len(G.arrows)
    for g, h in D.pairs:
        for u in range(n):
            if G.omega(u) != G.alpha(g):
                continue
            gu, hu = G.m(g, u), G.m(h, u)
            lhs = G.d(G.m(gu, G.inv(hu)))
            rinv.judge(lhs == G.d(G.m(g, G.inv(h))),
                       g=G.arrows[g], h=G.arrows[h], u=G.arrows[u])
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
                rinv.judge(
                    fib[x][(g, h)] == fib[G.alpha(u)][(G.m(g, u), G.m(h, u))],
                    g=G.arrows[g], h=G.arrows[h], u=G.arrows[u])
    for g in range(n):
        recon.judge(rec[g] == G.d(g), build=lambda: dict(
            g=G.arrows[g], got=str(rec[g]), want=str(G.d(g))))
    return rep


def ref_check_separability(G):
    d = G.norm
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
            lo = min(d[g] for g in arrows)
            law.judge(lo != 0, build=lambda: dict(
                x=G.arrows[x], y=G.arrows[y],
                arrow=G.arrows[next(g for g in arrows if d[g] == 0)]))
    return rep


def ref_table_laws(labels, compose, inverse, units, tables, titles,
                   joint=None):
    """The (semi)norm kernel on (name, Fraction values) pairs, one judge
    per instance."""
    zero, sub, symm = (LawCheck(t) for t in titles)
    laws = [zero, sub, symm]
    n = len(labels)
    for name, d in tables:
        tag = {} if name is None else {"seminorm": name}
        for g in range(n):
            unit = g in units
            if name is None or unit:
                zero.judge((d[g] == 0) == unit, build=lambda: dict(
                    **tag, g=labels[g], d=str(d[g]), unit=unit))
            symm.judge(d[inverse[g]] == d[g], build=lambda: dict(
                **tag, g=labels[g], d=str(d[g]), d_inv=str(d[inverse[g]])))
        for (g, h), k in compose.items():
            sub.judge(d[k] <= d[g] + d[h], build=lambda: dict(
                **tag, g=labels[g], h=labels[h], d_gh=str(d[k]),
                bound=str(d[g] + d[h])))
    if joint is not None:
        ker = LawCheck(joint)
        laws.append(ker)
        for g in range(n):
            if g not in units:
                ker.judge(any(t[g] != 0 for _, t in tables), g=labels[g])
    return laws


def ref_units(G):
    G = Ref(G)
    return {g for g in range(len(G.arrows)) if G.alpha(g) == g}


def ref_check_norm(G):
    return ValidationReport(subject="norm").add(*ref_table_laws(
        G.arrows, G.compose, G.inverse, ref_units(G), [(None, G.norm)],
        ("d(g) = 0 iff g is a unit arrow", "d(gh) <= d(g) + d(h)",
         "d(inv g) = d(g)")))


def ref_check_seminorm_family(G, fam):
    return ValidationReport(subject="seminorm family").add(*ref_table_laws(
        G.arrows, G.compose, G.inverse, ref_units(G),
        list(zip(fam.names, fam.values)),
        ("each seminorm vanishes on unit arrows",
         "each seminorm is subadditive",
         "each seminorm is inversion invariant"),
        joint="joint kernel = unit arrows"))


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
        invo.judge(inv[inv[g]] == g, g=G.arrows[g], inv=G.arrows[inv[g]])
        pairs.judge((inv[g], g) in comp and (g, inv[g]) in comp,
                    g=G.arrows[g])

    if not pairs.passed:
        for c in (typing, match, assoc, cancel):
            c.note = "skipped: unit arrows undefined"
        return rep

    alpha = [comp[(inv[g], g)] for g in range(n)]
    omega = [comp[(g, inv[g])] for g in range(n)]

    for g in range(n):
        for h in range(n):
            match.judge(((g, h) in comp) == (alpha[g] == omega[h]),
                        g=G.arrows[g], h=G.arrows[h],
                        composable=(g, h) in comp)

    for (g, h), k in comp.items():
        typing.judge(alpha[k] == alpha[h] and omega[k] == omega[g],
                     g=G.arrows[g], h=G.arrows[h], gh=G.arrows[k])
        cancel.judge(comp.get((k, inv[h])) == g and comp.get((inv[g], k)) == h,
                     g=G.arrows[g], h=G.arrows[h])

    by_omega = {}
    for k in range(n):
        by_omega.setdefault(omega[k], []).append(k)

    for (g, h), gh in comp.items():
        for k in by_omega.get(alpha[h], ()):
            hk = comp.get((h, k))
            left = comp.get((gh, k))
            assoc.judge(
                hk is not None and left is not None
                and comp.get((g, hk)) == left,
                g=G.arrows[g], h=G.arrows[h], k=G.arrows[k])
    return rep


def ref_check_strict_category(C, norm=None, joint_kernel=True):
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
        invo.judge(inv[inv[g]] == g, g=C.arrows[g])
        ipair.judge((inv[g], g) in comp and (g, inv[g]) in comp,
                    g=C.arrows[g])

    for (g, h), gh in comp.items():
        anti.judge(comp.get((inv[h], inv[g])) == inv[gh],
                   g=C.arrows[g], h=C.arrows[h])
        for k in range(n):
            names = dict(g=C.arrows[g], h=C.arrows[h], k=C.arrows[k])
            stab.judge(((h, k) in comp) == ((gh, k) in comp),
                       side="right", **names)
            stab.judge(((k, g) in comp) == ((k, gh) in comp),
                       side="left", **names)
            if (h, k) in comp:
                hk = comp[(h, k)]
                assoc.judge(comp.get((gh, k)) == comp.get((g, hk))
                            and (gh, k) in comp, **names)

    L = [frozenset(k for k in range(n) if (k, g) in comp) for g in range(n)]
    for g in range(n):
        for k in range(n):
            ends.judge(((inv[g], k) in comp) == (L[k] == L[g]),
                       g=C.arrows[g], k=C.arrows[k])

    units = C.unit_like()
    seminorms = []
    if C.seminorms is not None:
        seminorms = ref_table_laws(
            C.arrows, comp, inv, units,
            list(zip(C.seminorms.names, C.seminorms.values)),
            ("seminorms vanish on arrows h^-1 h", "seminorms subadditive",
             "seminorms inversion invariant"),
            joint="joint seminorm kernel  subset of arrows h^-1 h")
    rep.add(*seminorms[:3])
    if norm is not None:
        rep.add(*ref_table_laws(
            C.arrows, comp, inv, units, [(None, norm)],
            ("d = 0 exactly on arrows h^-1 h", "d subadditive",
             "d inversion invariant")))
    if joint_kernel:
        rep.add(*seminorms[3:])
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
    assert all(type(v) is Fraction for t in fib.values() for v in t.values())
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


def same_norm_kernel(G, category=True):
    """check_norm, seminorm families and G read as a category, each
    against the Fraction kernel.  The family mixes denominators and has
    members that break every law, so the witness paths are compared
    too."""
    same_report(check_norm(G), ref_check_norm(G))
    n = len(G.arrows)
    fam = SeminormFamily(
        ["norm", "zero", "half", "skew"],
        [list(G.norm), [Fraction(0)] * n, [v / 2 for v in G.norm],
         [Fraction(g % 5, 7) for g in range(n)]])
    same_report(check_seminorm_family(G, fam),
                ref_check_seminorm_family(G, fam))
    if category:
        C = CategoryWithInverses(G.arrows, G.compose, G.inverse,
                                 seminorms=fam)
        same_report(check_strict_category(C, G.norm),
                    ref_check_strict_category(C, G.norm))


@pytest.mark.parametrize("seed", range(50))
def test_criterion_one_spaces_match_the_filter_loops(seed):
    G = pair_groupoid(random_metric_space(seed, max_points=8))
    norm = list(G.norm)
    same_battery(G)
    # a zero norm between distinct objects: every pair x < y fails
    Z = FiniteGroupoid(G.arrows, G.compose, G.inverse,
                       [Fraction(0)] * len(G.arrows))
    same_report(check_separability(Z), ref_check_separability(Z))
    same_norm_kernel(G)
    same_norm_kernel(double_groupoid(G), category=False)
    # the integer form is the Fraction norm over one denominator, and no
    # check changes the norm or lets a float into it
    num, D = G._int
    assert [Fraction(v, D) for v in num] == G.norm == norm
    assert all(type(v) is Fraction for v in G.norm)


def test_a_double_groupoid_over_another_denominator_matches():
    # D read back with one norm entry off by 1/97: its integer form has
    # its own denominator, and the preservation law still names the pair
    G = pair_groupoid(random_metric_space(5, max_points=4))
    data = double_groupoid(G).to_json()
    label = data["arrows"][1]
    data["norm"][label] = str(Fraction(data["norm"][label]) + Fraction(1, 97))
    D, RD = FiniteGroupoid.from_json(data), FiniteGroupoid.from_json(data)
    RD.pairs = _double_pairs(G)
    assert D._int[1] != G._int[1]
    rep = check_double_norm(G, D)
    assert rep.law("d~(g,h) = d(g h^-1)").witnesses == [{"pair": label}]
    same_report(rep, ref_check_double_norm(G, RD))


def test_double_of_a_double_matches():
    # the validate CLI checks the double groupoid of a double groupoid
    D = double_groupoid(pair_groupoid(random_metric_space(4, max_points=3)))
    same_battery(D)


def test_planted_finite_fixtures_match_the_filter_loops():
    G = retargeted_compose_groupoid()
    same_report(validate_groupoid(G), ref_validate_groupoid(G))
    same_report(check_separability(G), ref_check_separability(G))
    assert not validate_groupoid(G).passed
    same_norm_kernel(G)
    for G in (inflated_norm_groupoid(), non_separating_seminorms()[0]):
        same_battery(G)
        same_norm_kernel(G)
    assert not check_norm(inflated_norm_groupoid()).passed
    G, fam = non_separating_seminorms()
    rep = check_seminorm_family(G, fam)
    assert not rep.passed
    same_report(rep, ref_check_seminorm_family(G, fam))


def test_fiber_checks_name_the_composites_a_retargeted_table_lacks():
    # (0<-1)(1<-0) sent to (1<-1) makes 1<-1 the source of 0<-1, so the
    # fiber of 1<-1 holds 0<-1 and (0<-1)(0<-1) is read but not composed:
    # both checks report it instead of raising KeyError, alike
    G = retargeted_compose_groupoid()
    reps = [check_double_norm(G), check_fiber_distances(G)]
    assert [rep.subject for rep in reps] == [
        "double groupoid norm", "fiber distances"]
    for rep in reps:
        assert not rep.passed
        (law,) = rep.laws
        assert law.law == "G composes every pair the fiber laws read"
        assert law.witnesses[0] == {"missing": "(0<-1)(0<-1)"}
        assert law.witnesses == reps[0].laws[0].witnesses
    index = {a: i for i, a in enumerate(G.arrows)}
    named = [tuple(map(index.get, w["missing"][1:-1].split(")(")))
             for w in law.witnesses]
    assert len(set(named)) == law.failures == len(named)
    assert all(pair not in G.compose for pair in named)


def test_fiber_checks_name_a_missing_unit_composite():
    # without (1<-0)(0<-1), 0<-1 has no source: the fibers are undefined,
    # and both checks report the composite instead of raising ValueError
    G = pair_groupoid(two_point_space())
    assert (G.arrows[2], G.arrows[1]) == ("1<-0", "0<-1")
    H = FiniteGroupoid(G.arrows, {k: v for k, v in G.compose.items()
                                  if k != (2, 1)}, G.inverse, G.norm)
    with pytest.raises(ValueError, match="not composable at 0<-1"):
        H.endpoints()
    for rep in (check_double_norm(H), check_fiber_distances(H)):
        assert not rep.passed
        (law,) = rep.laws
        assert law.law == "G composes every pair the fiber laws read"
        assert law.witnesses == [{"missing": "(1<-0)(0<-1)"}]


def test_fiber_checks_name_a_composite_outside_its_fiber():
    # (a<-b)(b<-c) sent to d<-a: every composite the laws read exists, but
    # right translation looks for this one in the fiber of c, so both
    # checks report it instead of raising ValueError
    G = misplaced_composite_groupoid()
    for rep in (check_double_norm(G), check_fiber_distances(G)):
        assert not rep.passed
        composes, placed = rep.laws
        assert composes.passed and composes.checked == 80
        assert placed.law == "g u lies in the fiber of alpha(u)"
        assert (placed.checked, placed.failures) == (64, 1)
        assert placed.witnesses == [{"composite": "(a<-b)(b<-c)",
                                     "lands": "d<-a"}]


def test_fiber_distances_name_the_composite_a_retargeted_table_lacks():
    with pytest.raises(ValueError, match=r"composite \(0<-1\)\(0<-1\)$"):
        fiber_distances(retargeted_compose_groupoid())


def test_checks_on_a_groupoid_without_a_norm_still_raise():
    # nothing is missing, so the checks do not turn the error into a report
    G = pair_groupoid(two_point_space())
    H = FiniteGroupoid(G.arrows, G.compose, G.inverse)
    for check in (check_double_norm, check_fiber_distances):
        with pytest.raises(ValueError, match="carries no norm"):
            check(H)


def test_broken_loops_fail_alike():
    G = broken_loops()
    assert not validate_groupoid(G).passed
    assert check_double_norm(G).law("right translation preserves d~").failures
    assert not check_fiber_distances(G).passed
    same_battery(G)


def test_a_removed_composite_fails_the_closure_half_alike():
    # (p0<-p1)(p1<-p2) is gone: composability, cancellation and the
    # closure half of associativity each hand a failed batch to the
    # per-instance loop, which must name the witnesses the references name
    G = pair_groupoid(random_metric_space(5, max_points=4))
    assert (G.arrows[1], G.arrows[6]) == ("p0<-p1", "p1<-p2")
    lost = {k: v for k, v in G.compose.items() if k != (1, 6)}
    H = FiniteGroupoid(G.arrows, lost, G.inverse, G.norm)
    rep = validate_groupoid(H)
    same_report(rep, ref_validate_groupoid(H))
    assert [c.law for c in rep.laws if not c.passed] == [
        "composability iff alpha(g) = omega(h)",
        "associativity with closure",
        "cancellation (gh)h^-1 = g and g^-1(gh) = h"]
    # h k = (p0<-p1)(p1<-p2) is missing for every g before h
    assert rep.law("associativity with closure").witnesses[0] == {
        "g": "p0<-p0", "h": "p0<-p1", "k": "p1<-p2"}
    same_norm_kernel(H)


def test_a_retargeted_composite_breaks_right_translation_at_one_u():
    # on four points at distance 1, (a<-b)(b<-c) sent to (d<-c) keeps
    # every difference d(g h^-1), so only the positions of g u at
    # u = (b<-c) move: right translation breaks there and nowhere else
    space = FiniteMetricSpace(list("abcd"), [[int(i != j) for j in range(4)]
                                             for i in range(4)])
    G = pair_groupoid(space)
    bad = dict(G.compose)
    bad[(1, 6)] = 14
    H = FiniteGroupoid(G.arrows, bad, G.inverse, G.norm)
    assert (H.arrows[1], H.arrows[6], H.arrows[14]) == ("a<-b", "b<-c",
                                                        "d<-c")
    same_battery(H)
    same_norm_kernel(H)
    double = check_double_norm(H).law("right translation preserves d~")
    fiber = check_fiber_distances(H).law(
        "d_omega(u)(g,h) = d_alpha(u)(gu, hu)")
    for law in (double, fiber):
        # every failure is a witness here, and all of them sit at one u
        assert 0 < law.failures == len(law.witnesses)
        assert {w["u"] for w in law.witnesses} == {"b<-c"}
    assert (double.checked, double.failures) == (fiber.checked,
                                                 fiber.failures)


def test_each_table_is_built_once_per_groupoid(monkeypatch):
    """One G through the double groupoid, its norm check and the fiber
    distances: rows, difference matrices and the pair list are each built
    once, and the right-translation kernel runs once for both laws that
    read it."""
    G = pair_groupoid(random_metric_space(7, max_points=6))
    built = []

    def spy(owner, name, cached):
        run = getattr(owner, name)

        def counted(H, *args):
            if H is G and getattr(H, cached) is None:
                built.append(name)
            return run(H, *args)
        monkeypatch.setattr(owner, name, counted)

    spy(FiniteGroupoid, "rows", "_rows")
    spy(FiniteGroupoid, "differences", "_diffs")
    spy(constructions, "_double_pairs", "_pairs")
    spy(constructions, "_right_translation", "_right")
    D = double_groupoid(G)
    reports = [check_double_norm(G, D), check_fiber_distances(G),
               validate_groupoid(G), check_double_norm(G)]
    fiber_distances(G)
    assert sorted(built) == ["_double_pairs", "_right_translation",
                             "differences", "rows"]
    assert all(rep.passed for rep in reports)
    assert reports[0].laws[1].checked == reports[1].laws[0].checked


def test_a_failed_right_translation_is_not_kept():
    # the kernel raises on a G lacking a composite it reads: each check
    # reports the missing composites, and nothing is kept in its place
    G = retargeted_compose_groupoid()
    first = check_double_norm(G)
    assert not first.passed and G._right is None
    assert not check_fiber_distances(G).passed and G._right is None
    same_report(check_double_norm(G), first)


@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_the_double_groupoid_builds_compose_on_first_read(seed):
    G = pair_groupoid(random_metric_space(seed, max_points=8))
    D, RD = double_groupoid(G), ref_double_groupoid(G)
    assert check_double_norm(G, D).passed
    assert "compose" not in vars(D)
    assert list(D.compose.items()) == list(RD.compose.items())
    assert "compose" in vars(D) and D.compose is D.compose
    assert D.to_json() == RD.to_json()
    assert double_groupoid(G) == RD and repr(double_groupoid(G)) == repr(RD)
    with pytest.raises(AttributeError, match="has no attribute 'composee'"):
        D.composee
    lazy = pickle.loads(pickle.dumps(double_groupoid(G)))
    assert "compose" not in vars(lazy) and lazy == RD


def test_the_norm_check_without_a_double_groupoid_builds_none(monkeypatch):
    G = pair_groupoid(random_metric_space(3, max_points=8))
    want = check_double_norm(G, double_groupoid(G)).to_json()

    def refused(G):
        raise AssertionError("built a double groupoid")
    monkeypatch.setattr(constructions, "double_groupoid", refused)
    assert check_double_norm(G).to_json() == want


def test_a_compose_builder_is_range_checked_on_first_read():
    with pytest.raises(ValueError) as eager:
        FiniteGroupoid(["e"], {(0, 0): 1}, [0])
    G = FiniteGroupoid(["e"], lambda: {(0, 0): 1}, [0])
    for _ in range(2):  # a failed build is not kept
        with pytest.raises(ValueError) as lazy:
            G.compose
        assert str(lazy.value) == str(eager.value) == (
            "compose entry (0,0)->1 out of range")
    assert "compose" not in vars(G)


@pytest.mark.parametrize("strict_norm", [True, False])
@pytest.mark.parametrize("joint_kernel", [True, False])
def test_transport_category_matches_the_filter_loops(strict_norm,
                                                      joint_kernel):
    """The report ngd runs (both False), and with the groupoid-only
    clauses of tests/references.py."""
    C, plans, _ = transport_category_fixture()
    norm = [norm_d(p) for p in plans] if strict_norm else None
    same_report(check_strict_category(C, norm, joint_kernel),
                ref_check_strict_category(C, norm, joint_kernel))


def test_retargeted_tables_as_a_category_match():
    G = retargeted_compose_groupoid()
    C = CategoryWithInverses(G.arrows, G.compose, G.inverse)
    rep = check_strict_category(C, G.norm)
    assert not rep.passed
    same_report(rep, ref_check_strict_category(C, G.norm))


def test_composites_missing_on_both_sides_fail_associativity():
    # (g, h) and (h, k) compose, but neither (gh, k) nor (g, hk) does
    C = CategoryWithInverses(["g", "h", "k", "gh", "hk"],
                             {(0, 1): 3, (1, 2): 4}, [0, 1, 2, 3, 4])
    rep = check_category_with_inverses(C)
    assert rep.law("associativity").witnesses == [
        {"g": "g", "h": "h", "k": "k"}]
    same_report(rep, ref_check_strict_category(C))


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


# ---------------------------------------------------------------------------
# trusted tables against checked rebuilds


def first_points(X, n):
    """The metric space on the first n points of X."""
    return FiniteMetricSpace(X.points[:n], [row[:n] for row in X.dist[:n]])


def rebuilt(G):
    """G's tables, copied, through the checked constructor."""
    return FiniteGroupoid(list(G.arrows), dict(G.compose), list(G.inverse),
                          list(G.norm))


def battery(G):
    """Every finite check on G, as (report, ...) and the fiber tables."""
    D = double_groupoid(G)
    fibers = fiber_distances(G)
    reports = [validate_groupoid(G), check_norm(G), check_separability(G),
               check_double_norm(G, D), check_double_norm(G),
               check_fiber_distances(G)]
    return reports, fibers, norm_from_fiber_distances(G, fibers)


def same_as_rebuilt(T):
    """T, built trusted, against its checked rebuild C: fields, integer
    form, JSON, a pickle round trip (taken before T's compose is read),
    every battery report, and every table either of them then holds."""
    copy = pickle.loads(pickle.dumps(T))
    C = rebuilt(T)
    assert T == C and T._int == C._int and T.to_json() == C.to_json()
    assert copy == C and vars(copy) == vars(T)
    (got, *tables), (want, *want_tables) = battery(T), battery(C)
    for a, b in zip(got, want):
        same_report(a, b)
    assert tables == want_tables
    assert vars(T) == vars(C)
    assert all(rep.passed for rep in got)


@pytest.mark.parametrize("seed", range(10))
def test_trusted_tables_equal_their_checked_rebuilds(seed):
    X = random_metric_space(seed, max_points=8)
    for n in range(1, len(X.points) + 1):
        G = pair_groupoid(first_points(X, n))
        assert len(G.arrows) == n * n
        same_as_rebuilt(G)
        same_as_rebuilt(double_groupoid(G))


def test_the_trusted_routes_still_refuse_duplicate_labels():
    # (a <- a<-a) and (a<-a <- a) are both labelled a<-a<-a
    X = FiniteMetricSpace(["a", "a<-a", "b"], [[0, 1, 1], [1, 0, 1],
                                               [1, 1, 0]])
    with pytest.raises(ValueError, match="^duplicate arrow labels$"):
        pair_groupoid(X)
    # 0<-0 and 1<-0 leave the same object; labelled x and x;x, the pairs
    # (x, x;x) and (x;x, x) are both labelled [x;x;x]
    G = pair_groupoid(two_point_space())
    H = FiniteGroupoid(["x", "u", "x;x", "v"], G.compose, G.inverse, G.norm)
    with pytest.raises(ValueError, match="^duplicate arrow labels$"):
        double_groupoid(H)


@pytest.mark.parametrize("edit, error", [
    (lambda d: d["compose"].append(["e", "e", "x"]), "unknown arrow id 'x'"),
    (lambda d: d["compose"].append(["x", "e", "e"]), "unknown arrow id 'x'"),
    (lambda d: d["inverse"].append(["e", "x"]), "unknown arrow id 'x'"),
    (lambda d: d["inverse"].pop(), "inverse table does not cover every "
                                   "arrow"),
    (lambda d: (d["arrows"].append("a"), d["inverse"].append(["a", "a"])),
     "duplicate arrow labels"),
])
def test_from_json_still_checks_its_input(edit, error):
    data = {"arrows": ["e", "a"],
            "compose": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"],
                        ["a", "a", "e"]],
            "inverse": [["e", "e"], ["a", "a"]]}
    assert validate_groupoid(FiniteGroupoid.from_json(data)).passed
    edit(data)
    with pytest.raises(ValueError) as exc:
        FiniteGroupoid.from_json(data)
    assert str(exc.value) == error


@pytest.mark.parametrize("arrows, compose, inverse, error", [
    (["e", "e"], {(0, 0): 0}, [0, 1], "duplicate arrow labels"),
    (["e", "a"], {(0, 0): 2}, [0, 1], "compose entry (0,0)->2 out of range"),
    (["e", "a"], {(0, -1): 0}, [0, 1],
     "compose entry (0,-1)->0 out of range"),
    (["e", "a"], {(0, 0): 0}, [0, 2], "inverse[1] = 2 out of range"),
    (["e", "a"], {(0, 0): 0}, [0, "1"], "inverse[1] = '1' out of range"),
    (["e", "a"], {(0, 0): 0}, [0], "inverse table has 1 entries for 2 arrows"),
])
def test_the_checked_constructor_still_range_checks(arrows, compose, inverse,
                                                    error):
    with pytest.raises(ValueError) as exc:
        FiniteGroupoid(arrows, compose, inverse)
    assert str(exc.value) == error


# ---------------------------------------------------------------------------
# associativity: one tuple per composite, the per-k loop on a failure


def assoc_branches(comp, after):
    """Which branches of the associativity law the composites of comp
    take: the length of after[h] when it is 0 or 1, and the reason a
    composite falls back to the per-k loop."""
    seen = set()
    for (g, h), gh in comp.items():
        if len(after[h]) < 2:
            seen.add(f"after of length {len(after[h])}")
        for k in after[h]:
            hk, left = comp.get((h, k)), comp.get((gh, k))
            if hk is None:
                seen.add("missing hk")
            elif left is None:
                seen.add("missing (gh)k")
            elif comp.get((g, hk)) != left:
                seen.add("mismatch" if (g, hk) in comp else "missing g(hk)")
    return seen


def category_after(C):
    return [sorted(k for h2, k in C.compose if h2 == h)
            for h in range(len(C.arrows))]


def groupoid_after(G):
    ref = Ref(G)
    return [[k for k, w in enumerate(ref._omega) if w == a]
            for a in ref._alpha]


def assoc_categories():
    """Tables read as categories: h composes with one k, most arrows with
    none, and (gh)k, g(hk) or both are missing, or differ."""
    names = ["g", "h", "k", "gh", "hk", "ghk", "x"]
    base = {(0, 1): 3, (1, 2): 4}
    for extra in ({}, {(0, 4): 5}, {(3, 2): 5}, {(3, 2): 5, (0, 4): 6}):
        yield CategoryWithInverses(names, {**base, **extra},
                                   list(range(len(names))))
    G = retargeted_compose_groupoid()
    yield CategoryWithInverses(G.arrows, G.compose, G.inverse)
    yield transport_category_fixture()[0]


def assoc_groupoids():
    """Tables read as groupoids: one point, a removed composite (a
    missing hk and a missing (gh)k) and a retargeted one."""
    yield pair_groupoid(first_points(random_metric_space(0), 1))
    G = pair_groupoid(random_metric_space(5, max_points=4))
    yield FiniteGroupoid(G.arrows, {k: v for k, v in G.compose.items()
                                    if k != (1, 6)}, G.inverse, G.norm)
    yield retargeted_compose_groupoid()
    yield broken_loops()


def test_associativity_takes_every_branch_as_the_references_do():
    seen = set()
    for C in assoc_categories():
        same_report(check_category_with_inverses(C),
                    ref_check_strict_category(C, joint_kernel=False))
        seen |= assoc_branches(C.compose, category_after(C))
    for G in assoc_groupoids():
        same_report(validate_groupoid(G), ref_validate_groupoid(G))
        seen |= assoc_branches(G.compose, groupoid_after(G))
    assert seen == {"after of length 0", "after of length 1", "missing hk",
                    "missing (gh)k", "missing g(hk)", "mismatch"}


@pytest.mark.parametrize("seed", range(4))
def test_associativity_on_random_partial_tables(seed):
    """Random partial tables on 1-5 arrows with a random involution, read
    as categories and as groupoids: counts, witnesses and their order as
    in the references."""
    rng = random.Random(seed)
    for _ in range(50):
        n = rng.randint(1, 5)
        inverse = list(range(n))
        for _ in range(rng.randint(0, n // 2)):
            a, b = rng.sample(range(n), 2)
            if inverse[a] == a and inverse[b] == b:
                inverse[a], inverse[b] = b, a
        compose = {(g, h): rng.randrange(n) for g in range(n)
                   for h in range(n) if rng.random() < 0.6}
        names = [f"a{i}" for i in range(n)]
        C = CategoryWithInverses(names, compose, inverse)
        same_report(check_category_with_inverses(C),
                    ref_check_strict_category(C))
        G = FiniteGroupoid(names, compose, inverse)
        same_report(validate_groupoid(G), ref_validate_groupoid(G))
