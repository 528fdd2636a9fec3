"""Normed groupoids presented by finite composition tables.

A groupoid here is "arrows only": a partial composition m(g, h) -- read
right-to-left, h happens first -- and a total involutive inverse.  The
unit arrows are recovered from the data as alpha(a) = m(inv(a), a) and
omega(a) = m(a, inv(a)); an arrow a runs from the object alpha(a) to the
object omega(a), and (g, h) is composable exactly when alpha(g) = omega(h).
FiniteGroupoid builds, once each and on first use, the alpha/omega lists,
the arrows leaving and entering each unit arrow (fibers), the composition
rows rows[g] = {h: m(g, h)} and, per object, the matrix of d(g h^-1) over
the arrows leaving it (differences).  The finite checks gather from these
with C-level calls; a per-instance loop only names a failed batch's
witnesses.

A norm is a nonnegative weight on arrows that vanishes exactly on unit
arrows, is subadditive along composition and invariant under inversion.
All finite-table arithmetic is exact: tables are judged in integers,
over one lcm each; Fractions are the input, JSON and witness boundary.
FiniteGroupoid(...) and from_json check their input; pair_groupoid and
double_groupoid build trusted tables through _normed, labels checked.
Reports: each law is a LawCheck, counted by three verbs: judge for one
instance, judge_all for a batch of exact instances and the failing ones
among them, judge_residuals for each sample of a float batch.  A failure
is a failing instance, so failures never exceed checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import count
from operator import itemgetter

MAX_WITNESSES = 10


def as_fraction(value) -> Fraction:
    """Parse a rational from int/str/Fraction.  Floats are refused: table
    data is meant to be exact.  A Fraction is returned as it is."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"expected an exact rational, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _json(data, key, kind=list):
    """data[key], a JSON array, or with kind=dict an object; a missing key
    or a value of another type is a TypeError that names key."""
    if key not in data:
        raise TypeError(f"missing key {key!r}")
    if not isinstance(value := data[key], kind):
        raise TypeError(f"{key!r} holds {type(value).__name__}, not a JSON "
                        f"{'object' if kind is dict else 'array'}")
    return value


def _matrix_over_lcm(rows):
    """Exact rationals over one denominator: (integer rows, D), D the lcm
    of the entry denominators.  Ragged rows stay ragged."""
    D = math.lcm(*(v.denominator for row in rows for v in row))
    return tuple(tuple(v.numerator * (D // v.denominator) for v in row)
                 for row in rows), D


def _over_lcm(values):
    """One row of _matrix_over_lcm: (numerators, D), where D is the lcm
    of the values' denominators and values[i] = numerators[i] / D."""
    (num,), D = _matrix_over_lcm((values,))
    return num, D


def _common(a, b):
    """Two integer forms (numerators, D) brought over one denominator:
    (a's numerators, b's numerators, L), L the lcm of their two D."""
    (na, Da), (nb, Db) = a, b
    L = math.lcm(Da, Db)
    return [v * (L // Da) for v in na], [v * (L // Db) for v in nb], L


# ---------------------------------------------------------------------------
# reports


@dataclass
class LawCheck:
    """Outcome of checking one law: instance count and counterexamples,
    written only by judge, judge_all and judge_residuals.  Each failure is
    one failing instance, so failures <= checked; witnesses are capped."""

    law: str
    checked: int = field(default=0, init=False)
    failures: int = field(default=0, init=False)
    witnesses: list = field(default_factory=list, init=False)
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def judge(self, ok, build=None, **witness) -> None:
        """Count one instance; if not ok, file the witness data followed by
        build()'s keys, so a costly witness is built only on a failure
        that is filed."""
        self.checked += 1
        if not ok:
            self.failures += 1
            if len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(
                    {**witness, **(build() if build else {})})

    def judge_all(self, n: int, bad, witness) -> None:
        """Count n instances, of which the sequence bad lists the distinct
        failing ones, each a tuple: each is one failure, and witness(*b) is
        filed for each b while the cap is open.  A passing batch hands an
        empty bad and builds no witness; more failures than instances is a
        ValueError."""
        if k := len(bad):
            if k > n:
                raise ValueError(f"{k} failing instances among {n}")
            self.failures += k
            room = MAX_WITNESSES - len(self.witnesses)
            self.witnesses += (witness(*b) for b in bad[:room])
        self.checked += n

    def judge_residuals(self, resids, tol: float, **context) -> None:
        """Judge each sample of the 1-d array resids as one instance, failing
        those above tol or not finite; file one witness, the worst sample or
        the first non-finite one, per-sample context read at it.  A pass
        costs one max (a NaN fails it); array methods only, so no numpy."""
        n = resids.size
        self.checked += n
        if not n or (worst := resids.max()) <= tol:
            return
        self.failures += n - int((resids <= tol).sum())
        if len(self.witnesses) < MAX_WITNESSES:
            i = int(resids.argmax() if abs(worst) < math.inf
                    else (abs(resids) < math.inf).argmin())
            data = {"residual": float(resids[i]), "sample": i}
            for key, val in context.items():
                per_sample = getattr(val, "ndim", 0) and len(val) == n
                data[key] = val[i].tolist() if per_sample else val
            self.witnesses.append(data)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        msg = f"[{tag}] {self.law} (checked={self.checked}"
        if self.failures:
            msg += f", failures={self.failures}"
        msg += ")"
        if self.note:
            msg += f"  -- {self.note}"
        if not self.passed and self.witnesses:
            msg += f"\n       witness: {self.witnesses[0]}"
        return msg


@dataclass
class ValidationReport:
    """A bundle of law checks (and, for analytic models, limit estimates)
    about one structure."""

    subject: str
    laws: list = field(default_factory=list)
    limits: list = field(default_factory=list)  # LimitEstimate objects

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.laws) and all(
            e.passed for e in self.limits
        )

    def law(self, name: str) -> LawCheck:
        for c in self.laws:
            if c.law == name:
                return c
        raise KeyError(name)

    def add(self, *checks) -> "ValidationReport":
        self.laws.extend(checks)
        return self

    def merge(self, other: "ValidationReport") -> "ValidationReport":
        self.laws.extend(other.laws)
        self.limits.extend(other.limits)
        return self

    def summary(self) -> str:
        head = f"== {self.subject}: {'PASS' if self.passed else 'FAIL'}"
        lines = [head]
        lines += ["  " + c.line() for c in self.laws]
        lines += ["  " + e.line() for e in self.limits]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "pass": self.passed,
            "laws": [
                {
                    "law": c.law,
                    "pass": c.passed,
                    "checked": c.checked,
                    "failures": c.failures,
                    "witnesses": [repr(w) for w in c.witnesses],
                    "note": c.note,
                }
                for c in self.laws
            ],
            "limits": [e.to_json() for e in self.limits],
        }


# ---------------------------------------------------------------------------
# finite groupoids


@dataclass
class FiniteGroupoid:
    """A finite groupoid given by tables.

    arrows   -- list of arrow labels (strings), no two alike
    compose  -- dict (g, h) -> m(g, h) on arrow indices; partial.  Or a
                function returning it, called on the first read of compose
    inverse  -- list, inverse[g] = index of g^-1
    norm     -- optional list of Fractions, one per arrow, never mutated:
                _int is its integer form (numerators, D), built once

    FiniteGroupoid(...) and from_json range check every index and the norm;
    _normed, the route of pair_groupoid and double_groupoid, trusts their
    tables and checks only that no two labels are alike.
    """

    arrows: list
    compose: dict
    inverse: list
    norm: list | None = None
    # built on first use; _pairs and _pair_labels by ngd.constructions
    _ends = _fibers = _rows = _diffs = _right = _pairs = _pair_labels = None
    _int = None, None

    def __post_init__(self):
        n = len(self.arrows)
        if len(set(self.arrows)) != n:
            raise ValueError("duplicate arrow labels")
        if len(self.inverse) != n:
            raise ValueError(
                f"inverse table has {len(self.inverse)} entries for {n} arrows"
            )
        for g, gi in enumerate(self.inverse):
            if not (isinstance(gi, int) and 0 <= gi < n):
                raise ValueError(f"inverse[{g}] = {gi!r} out of range")
        if callable(self.compose):  # a builder: see __getattr__
            self._build = partial(_check_compose, vars(self).pop("compose"), n)
        else:
            _check_compose(self.compose, n)
        if self.norm is not None:
            if len(self.norm) != n:
                raise ValueError("norm table length mismatch")
            self.norm = [as_fraction(v) for v in self.norm]
            self._int = _over_lcm(self.norm)
            for g, v in enumerate(self._int[0]):
                if v < 0:
                    raise ValueError(f"norm[{g}] = {self.norm[g]} is negative")

    def __getattr__(self, name):
        """A compose given as a builder is built on first read; compose has
        no class default, so that read lands here."""
        if name != "compose":
            return object.__getattribute__(self, name)
        self.compose = self._build()
        del self._build
        return self.compose

    @classmethod
    def _normed(cls, arrows, compose, inverse, norm, ints):
        """Trusted tables: labels checked; norm and ints taken as given."""
        if len(set(arrows)) != len(arrows):
            raise ValueError("duplicate arrow labels")
        G = cls.__new__(cls)
        G.arrows, G.inverse, G.norm, G._int = arrows, inverse, norm, ints
        setattr(G, "_build" if callable(compose) else "compose", compose)
        return G

    # -- endpoints and fibers -----------------------------------------------

    def endpoints(self):
        """The lists (alpha, omega) of unit-arrow indices, alpha[g] =
        m(inv g, g) and omega[g] = m(g, inv g).  Built on first use;
        raises ValueError when an (inv g, g) pair does not compose."""
        if self._ends is None:
            rows, inv = self.rows(), self.inverse
            alpha = [*map(dict.get, map(rows.__getitem__, inv), count())]
            omega = [*map(dict.get, rows, inv)]
            bad = [g for g, *ends in zip(count(), alpha, omega)
                   if None in ends]
            if bad:
                raise ValueError("(inv, arrow) pair not composable at "
                                 f"{self.arrows[bad[0]]}")
            self._ends = alpha, omega
        return self._ends

    def fibers(self):
        """(leaving, entering): each maps a unit arrow x to the ascending
        list of arrows g with alpha(g) = x (leaving) or omega(g) = x
        (entering).  Keys appear in order of their first arrow."""
        if self._fibers is None:
            leaving, entering = {}, {}
            for g, (a, w) in enumerate(zip(*self.endpoints())):
                leaving.setdefault(a, []).append(g)
                entering.setdefault(w, []).append(g)
            self._fibers = leaving, entering
        return self._fibers

    def rows(self):
        """rows[g] = {h: m(g, h)}, in the order of compose."""
        if self._rows is None:
            self._rows = _rows(self.compose, len(self.arrows))
        return self._rows

    def differences(self):
        """{unit arrow x: M}, M[i][j] the numerator over the norm's lcm of
        d(g h^-1) for the i-th and j-th arrows g, h of leaving[x]."""
        if self._diffs is None:
            if self.norm is None:
                raise ValueError("groupoid carries no norm")
            num, rows, inv = self._int[0], self.rows(), self.inverse
            self._diffs = {x: [tuple(map(num.__getitem__, map(
                rows[g].__getitem__, map(inv.__getitem__, gs)))) for g in gs]
                for x, gs in self.fibers()[0].items()}
        return self._diffs

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "arrows": list(self.arrows),
            "compose": [
                [self.arrows[g], self.arrows[h], self.arrows[k]]
                for (g, h), k in sorted(self.compose.items())
            ],
            "inverse": [
                [self.arrows[g], self.arrows[gi]]
                for g, gi in enumerate(self.inverse)
            ],
        }
        if self.norm is not None:
            out["norm"] = {
                self.arrows[g]: str(v) for g, v in enumerate(self.norm)
            }
        return out

    @classmethod
    def from_json(cls, data) -> "FiniteGroupoid":
        arrows = list(_json(data, "arrows"))
        idx = {lbl: i for i, lbl in enumerate(arrows)}
        if len(idx) != len(arrows):
            raise ValueError("duplicate arrow labels")

        def look(lbl):
            if lbl not in idx:
                raise ValueError(f"unknown arrow id {lbl!r}")
            return idx[lbl]

        def entries(key, width):
            for e in _json(data, key):
                if not isinstance(e, (list, tuple)) or len(e) != width:
                    raise TypeError(
                        f"{key} entry {e!r} is not a list of {width} labels"
                    )
            return data[key]

        compose = {}
        for g, h, k in entries("compose", 3):
            compose[(look(g), look(h))] = look(k)
        inverse = [0] * len(arrows)
        seen = set()
        for g, gi in entries("inverse", 2):
            inverse[look(g)] = look(gi)
            seen.add(look(g))
        if len(seen) != len(arrows):
            raise ValueError("inverse table does not cover every arrow")
        norm = None
        if "norm" in data:
            norm = [Fraction(0)] * len(arrows)
            for lbl, v in _json(data, "norm", dict).items():
                norm[look(lbl)] = as_fraction(v)
        return cls(arrows, compose, inverse, norm)


# ---------------------------------------------------------------------------
# groupoid laws


def _inverse_laws(labels, compose, inverse) -> tuple:
    """The involution and inverse-pair laws, shared by groupoids and
    categories with inverses."""
    invo = LawCheck("inverse is an involution")
    pairs = LawCheck("(inv g, g) and (g, inv g) compose")
    n = len(inverse)
    invo.judge_all(n, [(g, gi) for g, gi in enumerate(inverse)
                       if inverse[gi] != g],
                   lambda g, gi: dict(g=labels[g], inv=labels[gi]))
    pairs.judge_all(n, [(g,) for g, gi in enumerate(inverse)
                        if (gi, g) not in compose or (g, gi) not in compose],
                    lambda g: dict(g=labels[g]))
    return invo, pairs


def _check_compose(compose, n) -> dict:
    """compose, or the table a builder compose returns, if each index in it
    is an int in range(n); else ValueError naming the first bad entry."""
    compose = compose() if callable(compose) else compose
    for (g, h), k in compose.items():
        for v in (g, h, k):
            if not (isinstance(v, int) and 0 <= v < n):
                raise ValueError(f"compose entry ({g},{h})->{k} out of range")
    return compose


def _rows(compose, n) -> list:
    """rows[g] = {h: m(g, h)} for g < n, in the order of compose."""
    rows = [{} for _ in range(n)]
    for (g, h), k in compose.items():
        rows[g][h] = k
    return rows


def _gather(keys):
    """Reads a row at keys, as a tuple; KeyError if one is missing."""
    return (itemgetter(*keys) if len(keys) > 1
            else lambda r, ks=tuple(keys): tuple(map(r.__getitem__, ks)))


def _assoc_law(title, labels, compose, rows, after) -> LawCheck:
    """Associativity with closure: for every composite gh and every k in
    after[h] (the arrows that should compose on the right of h), hk,
    (gh)k and g(hk) exist and (gh)k = g(hk).  One tuple of the (gh)k and
    one of the g(hk) per composite; the per-k loop runs only on a mismatch
    or a KeyError (a missing hk is read as the key None)."""
    lefts = [*map(_gather, after)]
    rights = [_gather([*map(r.get, ks)]) for r, ks in zip(rows, after)]
    bad = []
    for (g, h), gh in compose.items():
        try:
            if lefts[h](rows[gh]) == rights[h](rows[g]):
                continue
        except KeyError:
            pass
        for k in after[h]:
            hk = compose.get((h, k))
            left = compose.get((gh, k))
            if hk is None or left is None or compose.get((g, hk)) != left:
                bad.append((g, h, k))
    assoc = LawCheck(title)
    assoc.judge_all(sum(map(len, map(after.__getitem__,
                                     map(itemgetter(1), compose)))),
                    bad, lambda g, h, k: dict(g=labels[g], h=labels[h],
                                              k=labels[k]))
    return assoc


def validate_groupoid(G: FiniteGroupoid) -> ValidationReport:
    """Check the groupoid laws on the tables: involution, unit pairs,
    typing of composites, composability = endpoint matching, associativity
    (with its two closure halves) and the cancellation identities."""
    rep = ValidationReport(subject=f"groupoid[{len(G.arrows)} arrows]")
    lbl, comp, inv = G.arrows, G.compose, G.inverse
    invo, pairs = _inverse_laws(lbl, comp, inv)
    titles = ("composite typing alpha(gh)=alpha(h), omega(gh)=omega(g)",
              "composability iff alpha(g) = omega(h)",
              "associativity with closure",
              "cancellation (gh)h^-1 = g and g^-1(gh) = h")
    if not pairs.passed:
        # alpha/omega are not even defined; the remaining laws would crash
        return rep.add(invo, pairs, *(
            LawCheck(t, note="skipped: unit arrows undefined")
            for t in titles))
    typing, match, _, cancel = (LawCheck(t) for t in titles)
    alpha, omega = G.endpoints()
    n = len(lbl)

    rows, entering = G.rows(), G.fibers()[1]
    match.judge_all(n * n, [
        (g, h) for g in range(n)
        if rows[g].keys() != set(entering.get(alpha[g], ()))
        for h in range(n) if ((g, h) in comp) != (alpha[g] == omega[h])],
        lambda g, h: dict(g=lbl[g], h=lbl[h], composable=(g, h) in comp))

    gs, hs = [*map(itemgetter(0), comp)], [*map(itemgetter(1), comp)]
    ks, at, inv_ = [*comp.values()], rows.__getitem__, inv.__getitem__
    suspect = comp.items() if (
        [*map(alpha.__getitem__, ks)] != [*map(alpha.__getitem__, hs)]
        or [*map(omega.__getitem__, ks)] != [*map(omega.__getitem__, gs)]
        or [*map(dict.get, map(at, ks), map(inv_, hs))] != gs
        or [*map(dict.get, map(at, map(inv_, gs)), ks)] != hs) else ()
    typing.judge_all(len(comp), [
        (g, h, k) for (g, h), k in suspect
        if alpha[k] != alpha[h] or omega[k] != omega[g]],
        lambda g, h, k: dict(g=lbl[g], h=lbl[h], gh=lbl[k]))
    cancel.judge_all(len(comp), [
        (g, h) for (g, h), k in suspect
        if comp.get((k, inv[h])) != g or comp.get((inv[g], k)) != h],
        lambda g, h: dict(g=lbl[g], h=lbl[h]))

    # (h, k) is composable whenever alpha(h) = omega(k)
    assoc = _assoc_law(titles[2], lbl, comp, rows,
                       [entering.get(a, ()) for a in alpha])
    return rep.add(invo, pairs, typing, match, assoc, cancel)


def _table_laws(labels, compose, inverse, units, tables, titles,
                joint=None) -> list:
    """The (semi)norm laws on exact tables, one shared loop for every
    caller.

    tables is a list of (name, values, numerators) triples; the laws
    compare the numerators, over one denominator, and witnesses show the
    values.  The name None marks a norm, which must vanish exactly on the
    arrows in `units`; a named table is a seminorm, which must vanish on
    `units` and whose witnesses lead with its name.  Every table must be
    subadditive along `compose` and invariant under `inverse`.  titles
    names the zero, subadditivity and inversion laws; a `joint` title adds
    the law that no non-unit arrow lies in the joint kernel of the tables.
    Returns the LawChecks in that order."""
    zero, sub, symm = (LawCheck(t) for t in titles)
    laws = [zero, sub, symm]
    n = len(labels)
    n_units = len(units.intersection(range(n)))
    for name, d, v in tables:
        tag = {} if name is None else {"seminorm": name}
        zero.judge_all(n if name is None else n_units, [
            (g,) for g in range(n)
            if (name is None or g in units) and (v[g] == 0) != (g in units)],
            lambda g: dict(**tag, g=labels[g], d=str(d[g]), unit=g in units))
        sub.judge_all(len(compose), [
            (g, h, k) for (g, h), k in compose.items() if v[k] > v[g] + v[h]],
            lambda g, h, k: dict(**tag, g=labels[g], h=labels[h],
                                 d_gh=str(d[k]), bound=str(d[g] + d[h])))
        symm.judge_all(n, [(g,) for g in range(n) if v[inverse[g]] != v[g]],
                       lambda g: dict(**tag, g=labels[g], d=str(d[g]),
                                      d_inv=str(d[inverse[g]])))
    if joint is not None:
        ker = LawCheck(joint)
        laws.append(ker)
        ker.judge_all(n - n_units, [(g,) for g in range(n) if g not in units
                                    and all(v[g] == 0 for _, _, v in tables)],
                      lambda g: dict(g=labels[g]))
    return laws


def _tables(names, values) -> list:
    """The (name, values, numerators) triples of _table_laws."""
    return [(name, v, _over_lcm(v)[0]) for name, v in zip(names, values)]


def _unit_arrows(G: FiniteGroupoid) -> set:
    return {g for g, a in enumerate(G.endpoints()[0]) if a == g}


def check_norm(G: FiniteGroupoid) -> ValidationReport:
    """Norm laws: zero exactly on unit arrows, subadditive, inversion
    invariant."""
    if G.norm is None:
        raise ValueError("no norm to check")
    return ValidationReport(subject="norm").add(*_table_laws(
        G.arrows, G.compose, G.inverse, _unit_arrows(G),
        [(None, G.norm, G._int[0])],
        ("d(g) = 0 iff g is a unit arrow", "d(gh) <= d(g) + d(h)",
         "d(inv g) = d(g)")))


def check_separability(G: FiniteGroupoid) -> ValidationReport:
    """Distinct objects are separated: between two different objects every
    connecting arrow family has strictly positive minimal norm, read off
    G's norm table."""
    d = G._int[0]
    law = LawCheck("distinct objects are norm-separated")
    rep = ValidationReport(subject="separability").add(law)
    omega = G.endpoints()[1]
    leaving = G.fibers()[0]
    between = {}  # objects (x, y), x < y -> the arrows x -> y
    for x, gs in leaving.items():
        for g in gs:
            if omega[g] > x and omega[g] in leaving:
                between.setdefault((x, omega[g]), []).append(g)
    law.judge_all(len(between), [
        (x, y, zero[0]) for x, y in sorted(between)
        if (zero := [g for g in between[x, y] if d[g] == 0])],
        lambda x, y, a: dict(x=G.arrows[x], y=G.arrows[y], arrow=G.arrows[a]))
    return rep


# ---------------------------------------------------------------------------
# seminorms


@dataclass
class SeminormFamily:
    """A family of seminorms on a groupoid's arrows, as exact tables."""

    names: list
    values: list  # values[i][g] = rho_i(g), Fraction


def check_seminorm_family(G, fam: SeminormFamily) -> ValidationReport:
    """Each seminorm vanishes on unit arrows, is subadditive and inversion
    invariant, and together they separate: the joint kernel holds unit
    arrows only."""
    return ValidationReport(subject="seminorm family").add(*_table_laws(
        G.arrows, G.compose, G.inverse, _unit_arrows(G),
        _tables(fam.names, fam.values),
        ("each seminorm vanishes on unit arrows",
         "each seminorm is subadditive",
         "each seminorm is inversion invariant"),
        joint="joint kernel = unit arrows"))


# ---------------------------------------------------------------------------
# finite categories with inverses (composability is a primitive relation)


@dataclass
class CategoryWithInverses:
    """Finite category with an involutive inverse, given by tables.

    Unlike groupoids, composability here is NOT assumed to be detected by
    the unit arrows g^-1 g: it is taken as primitive (the transport
    category is the motivating case).  Source/target agreement is checked
    through composability classes.
    """

    arrows: list
    compose: dict
    inverse: list
    seminorms: SeminormFamily | None = None

    def unit_like(self) -> set:
        """The arrows of the form h^-1 h."""
        return {
            self.compose[(self.inverse[h], h)]
            for h in range(len(self.arrows))
            if (self.inverse[h], h) in self.compose
        }


def check_category_with_inverses(C: CategoryWithInverses) -> ValidationReport:
    """Laws for a seminormed category with inverses.

    Algebra: composability is stable under composing (source/target
    bookkeeping), associativity holds where defined, the inverse is an
    involutive antimorphism, inverse pairs compose, and the source of
    g^-1 is the target of g (via composability classes).

    Seminorms: vanish on h^-1 h, subadditive, inversion invariant.  The
    groupoid-only clauses -- a norm zero exactly on h^-1 h, and a joint
    kernel of such arrows only -- fail on the transport category, so they
    are not judged here.
    """
    rep = ValidationReport(subject=f"category[{len(C.arrows)} arrows]")
    n = len(C.arrows)
    comp, inv = C.compose, C.inverse

    stab = LawCheck("composability stable under composition")
    invo, ipair = _inverse_laws(C.arrows, comp, inv)
    anti = LawCheck("inverse is an antimorphism")
    ends = LawCheck("source of inv g = target of g (composability classes)")

    rows = _rows(comp, n)
    assoc = _assoc_law("associativity", C.arrows, comp, rows,
                       [sorted(r) for r in rows])
    rep.add(stab, assoc, invo, ipair, anti, ends)

    anti.judge_all(len(comp), [(g, h) for (g, h), gh in comp.items()
                               if comp.get((inv[h], inv[g])) != inv[gh]],
                   lambda g, h: dict(g=C.arrows[g], h=C.arrows[h]))
    # rows[g] holds who can follow g, L[g] who can precede it: per
    # composite two set compares, a per-k loop only where one differs
    L = [frozenset(k for k in range(n) if (k, g) in comp) for g in range(n)]
    stab.judge_all(2 * n * len(comp), [
        (side, g, h, k) for (g, h), gh in comp.items()
        if rows[h].keys() != rows[gh].keys() or L[g] != L[gh]
        for k in range(n) for side, a, b in (("right", rows[h], rows[gh]),
                                             ("left", L[g], L[gh]))
        if (k in a) != (k in b)], lambda side, g, h, k: dict(
            side=side, g=C.arrows[g], h=C.arrows[h], k=C.arrows[k]))

    # equal L-sets <=> equal targets
    ends.judge_all(n * n, [(g, k) for g in range(n) for k in range(n)
                           if ((inv[g], k) in comp) != (L[k] == L[g])],
                   lambda g, k: dict(g=C.arrows[g], k=C.arrows[k]))

    if C.seminorms is not None:
        rep.add(*_table_laws(
            C.arrows, comp, inv, C.unit_like(),
            _tables(C.seminorms.names, C.seminorms.values),
            ("seminorms vanish on arrows h^-1 h", "seminorms subadditive",
             "seminorms inversion invariant")))
    return rep
