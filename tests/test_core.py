"""Exact finite-groupoid layer: tables, norms, seminorm families."""

from fractions import Fraction

import numpy as np
import pytest

from ngd.core import (
    MAX_WITNESSES,
    CategoryWithInverses,
    FiniteGroupoid,
    LawCheck,
    SeminormFamily,
    ValidationReport,
    as_fraction,
    check_category_with_inverses,
    check_norm,
    check_seminorm_family,
    check_separability,
    validate_groupoid,
)
from ngd.fixtures import (
    inflated_norm_groupoid,
    non_separating_seminorms,
    retargeted_compose_groupoid,
)
from ngd.transport import norm_d, transport_category_fixture
from references import check_strict_category


def cyclic_group_groupoid(n=4):
    # Z/n as a one-object groupoid, norm = distance to 0 around the circle
    compose = {(g, h): (g + h) % n for g in range(n) for h in range(n)}
    return FiniteGroupoid(
        arrows=[f"r{k}" for k in range(n)],
        compose=compose,
        inverse=[(-g) % n for g in range(n)],
        norm=[Fraction(min(k, n - k)) for k in range(n)],
    )


def test_as_fraction_accepts_exact_types():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("2/7") == Fraction(2, 7)
    third = Fraction(1, 3)
    assert as_fraction(third) is third  # returned as it is, not re-parsed
    assert as_fraction("0.1") == Fraction(1, 10)  # decimal string, exact


def test_as_fraction_refuses_floats_and_bools():
    with pytest.raises(ValueError):
        as_fraction(0.1)
    with pytest.raises(ValueError):
        as_fraction(True)


def z2_tables():
    """Z/2 as a one-object groupoid: (arrows, compose, inverse, norm)."""
    return (["e", "a"], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
            [0, 1], [Fraction(0), Fraction(1)])


@pytest.mark.parametrize("entries, text", [
    ({(2, 0): 1}, "compose entry (2,0)->1 out of range"),
    ({(1, 1): 2, (2, 0): 1}, "compose entry (1,1)->2 out of range"),
    ({(1, -1): 0}, "compose entry (1,-1)->0 out of range"),
    ({(1, 1): 0.0}, "compose entry (1,1)->0.0 out of range"),
    ({(1.5, 1): 0}, "compose entry (1.5,1)->0 out of range"),
])
def test_compose_refusals_name_the_first_bad_entry(entries, text):
    arrows, compose, inverse, norm = z2_tables()
    compose.update(entries)
    with pytest.raises(ValueError) as exc:
        FiniteGroupoid(arrows, compose, inverse, norm)
    assert str(exc.value) == text


def test_bool_compose_entries_are_taken_as_they_are():
    # bool is an int: a False entry is index 0, kept as given
    arrows, compose, inverse, norm = z2_tables()
    compose[(1, 1)] = False
    G = FiniteGroupoid(arrows, compose, inverse, norm)
    assert G.compose[(1, 1)] is False
    assert validate_groupoid(G).passed and check_norm(G).passed


@pytest.mark.parametrize("value, text", [
    (Fraction(-1, 2), "norm[1] = -1/2 is negative"),
    ("-3", "norm[1] = -3 is negative"),
    (1.0, "expected an exact rational, got 1.0"),
    (True, "expected an exact rational, got True"),
])
def test_norm_refusals(value, text):
    arrows, compose, inverse, norm = z2_tables()
    norm[1] = value
    with pytest.raises(ValueError) as exc:
        FiniteGroupoid(arrows, compose, inverse, norm)
    assert str(exc.value) == text


def test_a_norm_table_of_the_wrong_length_is_refused():
    arrows, compose, inverse, norm = z2_tables()
    with pytest.raises(ValueError, match="^norm table length mismatch$"):
        FiniteGroupoid(arrows, compose, inverse, norm[:1])


def test_check_norm_refuses_a_groupoid_without_a_norm():
    arrows, compose, inverse, _ = z2_tables()
    with pytest.raises(ValueError, match="^no norm to check$"):
        check_norm(FiniteGroupoid(arrows, compose, inverse))


def test_the_norm_is_kept_as_fractions_and_over_one_lcm():
    arrows, compose, inverse, _ = z2_tables()
    G = FiniteGroupoid(arrows, compose, inverse, [0, "2/3"])
    assert G.norm == [Fraction(0), Fraction(2, 3)]
    assert all(type(v) is Fraction for v in G.norm)
    assert G._int == ((0, 2), 3)
    assert FiniteGroupoid(arrows, compose, inverse)._int == (None, None)


def test_law_check_caps_witnesses():
    from ngd.core import MAX_WITNESSES

    c = LawCheck("demo")
    c.judge_all(50, [(k,) for k in range(50)], lambda k: {"k": k})
    assert (c.checked, c.failures) == (50, 50)
    assert c.witnesses == [{"k": k} for k in range(MAX_WITNESSES)]
    assert not c.passed


def _refused():
    raise AssertionError("a witness was built for a passing instance")


def test_judge_counts_every_instance_and_files_only_failures():
    c = LawCheck("demo")
    c.judge(True, sample=0)
    c.judge(True, build=_refused)
    assert (c.checked, c.failures, c.witnesses) == (2, 0, [])
    c.judge(False, sample=1, side="post")
    c.judge(False, build=lambda: {"note": "extra"})
    assert (c.checked, c.failures) == (4, 2)
    assert c.witnesses == [{"sample": 1, "side": "post"}, {"note": "extra"}]
    # judge counts one instance: an n is witness data, not a count
    c.judge(False, n=3)
    assert (c.checked, c.failures) == (5, 3)
    assert c.witnesses[-1] == {"n": 3}


def test_judge_all_counts_n_instances_and_each_failing_one():
    c = LawCheck("demo")
    c.judge_all(4, [], _refused)
    assert (c.checked, c.failures, c.witnesses) == (4, 0, [])
    c.judge_all(3, [(0, 2), (1, 2)], lambda x, y: {"x": x, "y": y})
    c.judge_all(0, [], _refused)
    assert (c.checked, c.failures) == (7, 2)
    assert c.witnesses == [{"x": 0, "y": 2}, {"x": 1, "y": 2}]
    assert not c.passed


def test_judge_all_builds_witnesses_only_while_the_cap_is_open():
    built = []
    c = LawCheck("demo")
    c.judge(False, k=-1)
    for k in range(4):
        c.judge_all(5, [(k,), (k + 10,), (k + 20,)],
                    lambda b: built.append(b) or {"b": b})
    assert (c.checked, c.failures) == (21, 13)
    assert built == [0, 10, 20, 1, 11, 21, 2, 12, 22]
    assert [w.get("b") for w in c.witnesses] == [None] + built


def test_judge_all_refuses_more_failures_than_instances():
    c = LawCheck("demo")
    with pytest.raises(ValueError, match="3 failing instances among 2"):
        c.judge_all(2, [(0,), (1,), (2,)], _refused)
    assert (c.checked, c.failures, c.witnesses) == (0, 0, [])


@pytest.mark.parametrize("count", ["checked", "failures", "witnesses"])
def test_a_law_starts_at_zero_and_only_its_verbs_count(count):
    with pytest.raises(TypeError):
        LawCheck("demo", **{count: 1})
    c = LawCheck("demo", note="n/a")
    assert (c.checked, c.failures, c.witnesses, c.passed) == (0, 0, [], True)


def test_judge_files_keyword_data_before_the_built_keys():
    c = LawCheck("demo")
    c.judge(False, sample=3, plan="ab",
            build=lambda: {"row": 0, "sum": "1/2"})
    assert list(c.witnesses[0]) == ["sample", "plan", "row", "sum"]
    assert c.witnesses[0] == {"sample": 3, "plan": "ab", "row": 0,
                              "sum": "1/2"}


def test_judge_keeps_the_witness_cap_while_counting_failures():
    from ngd.core import MAX_WITNESSES

    c = LawCheck("demo")
    for k in range(50):
        c.judge(k % 2 == 1, k=k, build=lambda: {"half": k // 2})
    assert (c.checked, c.failures) == (50, 25)
    assert c.witnesses == [{"k": k, "half": k // 2}
                           for k in range(0, 2 * MAX_WITNESSES, 2)]
    assert not c.passed


def test_judge_builds_witnesses_only_while_the_cap_is_open():
    built = []
    c = LawCheck("demo")
    for k in range(42):
        c.judge(False, k=k, build=lambda: built.append(k) or {})
    assert (len(built), c.failures, len(c.witnesses)) == (10, 42, 10)


def test_judge_residuals_counts_each_sample_and_each_failing_one():
    c = LawCheck("demo")
    c.judge_residuals(np.array([0.0, 1e-10, 5e-11]), 1e-10)
    assert (c.checked, c.failures, c.witnesses) == (3, 0, [])
    c.judge_residuals(np.array([0.0, 3.0, 1e-12, 5.0, 2.0, 1.0]), 1.0)
    assert (c.checked, c.failures) == (9, 3)
    assert c.witnesses == [{"residual": 5.0, "sample": 3}]
    c.judge_residuals(np.array([]), 1.0)
    assert (c.checked, c.failures, len(c.witnesses)) == (9, 3, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_judge_residuals_fails_each_non_finite_sample(bad):
    c = LawCheck("demo")
    c.judge_residuals(np.array([0.0, 7.0, bad, 0.0, np.nan, np.inf]), 1.0)
    assert (c.checked, c.failures) == (6, 4)
    # the first non-finite sample, not the worst finite one nor numpy's
    # argmax, which would point at the first NaN
    assert c.witnesses[0]["sample"] == 2
    assert repr(c.witnesses[0]["residual"]) == repr(float(bad))


def test_judge_residuals_reads_per_sample_context_at_the_witness():
    c = LawCheck("demo")
    x = np.arange(12.0).reshape(4, 3)
    c.judge_residuals(np.array([0.0, 2.0, 9.0, 1.0]), 0.5, eps="1/2",
                      x=x, y=np.arange(4.0) * 10)
    assert c.witnesses == [{"residual": 9.0, "sample": 2, "eps": "1/2",
                            "x": [6.0, 7.0, 8.0], "y": 20.0}]
    assert list(c.witnesses[0]) == ["residual", "sample", "eps", "x", "y"]


def test_judge_residuals_files_one_witness_a_call_under_the_cap():
    c = LawCheck("demo")
    for k in range(MAX_WITNESSES + 5):
        c.judge_residuals(np.array([1.0, 2.0, 0.0]), 0.5, k=str(k))
    assert (c.checked, c.failures) == (3 * (MAX_WITNESSES + 5),
                                       2 * (MAX_WITNESSES + 5))
    assert [w["k"] for w in c.witnesses] == [str(k)
                                             for k in range(MAX_WITNESSES)]
    assert all(w["sample"] == 1 for w in c.witnesses)


def test_judge_residuals_never_counts_more_failures_than_samples():
    rng = np.random.default_rng(30)
    c = LawCheck("demo")
    for _ in range(50):
        r = rng.choice([0.0, 1e-11, 1e-9, 1.0, np.nan, np.inf],
                       size=int(rng.integers(0, 20)))
        before = c.failures
        c.judge_residuals(r, 1e-10)
        assert c.failures - before == int(np.sum(~(r <= 1e-10)))
        assert c.failures <= c.checked
    assert c.checked and c.failures and c.witnesses


_CALLED = []


class _Logged(np.ndarray):
    """An array that logs the public names read off it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            _CALLED.append(name)
        return super().__getattribute__(name)


def test_judge_residuals_passes_on_one_max():
    c = LawCheck("demo")
    _CALLED.clear()
    c.judge_residuals(np.array([0.0, 1e-12, 3e-11]).view(_Logged), 1e-10)
    assert c.passed and _CALLED == ["size", "max"]
    _CALLED.clear()
    c.judge_residuals(np.array([0.0, np.nan]).view(_Logged), 1e-10)
    assert not c.passed and _CALLED[:2] == ["size", "max"]


def test_report_merge_and_lookup():
    a = ValidationReport(subject="a").add(LawCheck("one"))
    b = ValidationReport(subject="b").add(LawCheck("two"))
    a.merge(b)
    assert a.law("two").law == "two"
    assert a.passed
    with pytest.raises(KeyError):
        a.law("three")


def test_cyclic_group_is_a_valid_groupoid():
    G = cyclic_group_groupoid(5)
    assert validate_groupoid(G).passed
    assert check_norm(G).passed


def test_cyclic_two_object_disjoint_union():
    # two copies of Z/2 living side by side; composition is partial
    compose = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0,
               (2, 2): 2, (2, 3): 3, (3, 2): 3, (3, 3): 2}
    G = FiniteGroupoid(
        arrows=["e", "s", "e'", "s'"],
        compose=compose,
        inverse=[0, 1, 2, 3],
        norm=[Fraction(0), Fraction(1), Fraction(0), Fraction(3, 2)],
    )
    rep = validate_groupoid(G)
    assert rep.passed, rep.summary()
    assert check_norm(G).passed
    # the two objects never talk to each other, so separability is vacuous
    assert check_separability(G).passed


def test_retargeted_composition_breaks_typing():
    G = retargeted_compose_groupoid()
    rep = validate_groupoid(G)
    assert not rep.passed
    # at least one typing/cancellation law has a concrete witness
    bad = [c for c in rep.laws if not c.passed]
    assert bad and bad[0].witnesses


def test_inflated_norm_breaks_subadditivity():
    G = inflated_norm_groupoid()
    rep = check_norm(G)
    assert not rep.passed
    sub = rep.law("d(gh) <= d(g) + d(h)")
    assert not sub.passed
    w = sub.witnesses[0]
    assert w["d_gh"] == "100"


def test_zero_seminorms_do_not_separate():
    G, fam = non_separating_seminorms()
    rep = check_seminorm_family(G, fam)
    assert not rep.passed
    assert rep.law("joint kernel = unit arrows").failures > 0


class TestTransportFixtureCategory:
    """The seven-plan category: a category with inverses whose norm
    genuinely fails the two groupoid-only clauses."""

    def setup_method(self):
        self.C, self.plans, self.labels = transport_category_fixture()

    def test_relaxed_check_passes(self):
        rep = check_category_with_inverses(self.C)
        assert rep.passed, rep.summary()

    def test_strict_norm_clause_fails_on_quarter_uniform(self):
        norm = [norm_d(p) for p in self.plans]
        rep = check_strict_category(self.C, norm, joint_kernel=False)
        law = rep.law("d = 0 exactly on arrows h^-1 h")
        assert not law.passed
        assert any(w.get("g") == "quarter-uniform" for w in law.witnesses)

    def test_joint_kernel_clause_fails_on_swap(self):
        rep = check_strict_category(self.C)
        bad = [c for c in rep.laws if not c.passed]
        assert any(
            any(w.get("g") == "swap" for w in c.witnesses) for c in bad
        )

    def test_unit_like_arrows_are_the_four_designed_ones(self):
        units = {self.labels[i] for i in self.C.unit_like()}
        assert units == {"id(1/2,1/2)", "quarter-uniform", "id(1/4,3/4)",
                         "id(3/4,1/4)"}


def test_honest_norm_read_as_a_one_member_family():
    # the honest norm, viewed as a one-member family, passes every clause
    G = cyclic_group_groupoid(4)
    fam = SeminormFamily(names=["norm"], values=[list(G.norm)])
    assert check_seminorm_family(G, fam).passed


def test_one_kernel_judges_norms_seminorms_and_categories_alike():
    G = inflated_norm_groupoid()
    fam = SeminormFamily(names=["inflated"], values=[list(G.norm)])
    C = CategoryWithInverses(G.arrows, G.compose, G.inverse)
    subs = [
        check_norm(G).law("d(gh) <= d(g) + d(h)"),
        check_seminorm_family(G, fam).law("each seminorm is subadditive"),
        check_strict_category(C, G.norm).law("d subadditive"),
    ]
    assert all(not c.passed for c in subs)
    assert len({c.checked for c in subs}) == 1
    assert len({c.failures for c in subs}) == 1
    first = [(c.witnesses[0]["g"], c.witnesses[0]["h"]) for c in subs]
    assert len(set(first)) == 1
    assert subs[1].witnesses[0]["seminorm"] == "inflated"
