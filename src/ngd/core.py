"""Normed groupoids presented by finite composition tables.

A groupoid here is "arrows only": a partial composition m(g, h) -- read
right-to-left, h happens first -- and a total involutive inverse.  The
unit arrows are recovered from the data as alpha(a) = m(inv(a), a) and
omega(a) = m(a, inv(a)); an arrow a runs from the object alpha(a) to the
object omega(a), and (g, h) is composable exactly when alpha(g) = omega(h).
FiniteGroupoid.endpoints() builds the alpha/omega lists from the tables,
and FiniteGroupoid.fibers() the arrows leaving and entering each unit
arrow, once each, on first use; every finite check here and in
ngd.constructions walks those fibers instead of filtering all arrows.

A norm is a nonnegative weight on arrows that vanishes exactly on unit
arrows, is subadditive along composition and invariant under inversion.
All finite-table arithmetic is exact (fractions.Fraction).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

MAX_WITNESSES = 10


def as_fraction(value) -> Fraction:
    """Parse a rational from int/str/Fraction.  Floats are refused: table
    data is meant to be exact.  A Fraction is returned as it is."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"expected an exact rational, got {value!r}")
    return Fraction(value)


# ---------------------------------------------------------------------------
# reports


@dataclass
class LawCheck:
    """Outcome of checking one law: instance count and counterexamples."""

    law: str
    checked: int = 0
    failures: int = 0
    witnesses: list = field(default_factory=list)
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def tick(self, n: int = 1) -> None:
        self.checked += n

    def fail(self, **data) -> None:
        self.failures += 1
        if len(self.witnesses) < MAX_WITNESSES:
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

    arrows   -- list of arrow labels (strings)
    compose  -- dict (g, h) -> m(g, h) on arrow indices; partial
    inverse  -- list, inverse[g] = index of g^-1
    norm     -- optional list of Fractions, one per arrow
    """

    arrows: list
    compose: dict
    inverse: list
    norm: list | None = None

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
        for (g, h), k in self.compose.items():
            for v in (g, h, k):
                if not (isinstance(v, int) and 0 <= v < n):
                    raise ValueError(
                        f"compose entry ({g},{h})->{k} out of range"
                    )
        if self.norm is not None:
            if len(self.norm) != n:
                raise ValueError("norm table length mismatch")
            self.norm = [as_fraction(v) for v in self.norm]
            for g, v in enumerate(self.norm):
                if v < 0:
                    raise ValueError(f"norm[{g}] = {v} is negative")
        self._ends = None
        self._fibers = None

    # -- endpoints and fibers -----------------------------------------------

    def endpoints(self):
        """The lists (alpha, omega) of unit-arrow indices, alpha[g] =
        m(inv g, g) and omega[g] = m(g, inv g).  Built on first use;
        raises ValueError when an (inv g, g) pair does not compose."""
        if self._ends is None:
            alpha, omega = [], []
            for g, gi in enumerate(self.inverse):
                a = self.compose.get((gi, g))
                w = self.compose.get((g, gi))
                if a is None or w is None:
                    raise ValueError(
                        f"(inv, arrow) pair not composable at {self.arrows[g]}"
                    )
                alpha.append(a)
                omega.append(w)
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
        if isinstance(data, str):
            data = json.loads(data)
        arrows = list(data["arrows"])
        idx = {lbl: i for i, lbl in enumerate(arrows)}

        def look(lbl):
            if lbl not in idx:
                raise ValueError(f"unknown arrow id {lbl!r}")
            return idx[lbl]

        def entries(key, width):
            for e in data[key]:
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
            if not isinstance(data["norm"], dict):
                raise TypeError("norm is not an object of label: value")
            norm = [Fraction(0)] * len(arrows)
            for lbl, v in data["norm"].items():
                norm[look(lbl)] = as_fraction(v)
        return cls(arrows, compose, inverse, norm)


# ---------------------------------------------------------------------------
# groupoid laws


def _inverse_laws(labels, compose, inverse) -> tuple:
    """The involution and inverse-pair laws, shared by groupoids and
    categories with inverses."""
    invo = LawCheck("inverse is an involution")
    pairs = LawCheck("(inv g, g) and (g, inv g) compose")
    for g, gi in enumerate(inverse):
        invo.tick()
        if inverse[gi] != g:
            invo.fail(g=labels[g], inv=labels[gi])
        pairs.tick()
        if (gi, g) not in compose or (g, gi) not in compose:
            pairs.fail(g=labels[g])
    return invo, pairs


def _assoc_law(title, labels, compose, after) -> LawCheck:
    """Associativity with closure: for every composite gh and every k in
    after[h] (the arrows that should compose on the right of h), hk,
    (gh)k and g(hk) exist and (gh)k = g(hk)."""
    assoc = LawCheck(title)
    for (g, h), gh in compose.items():
        for k in after[h]:
            assoc.tick()
            hk = compose.get((h, k))
            left = compose.get((gh, k))
            if hk is None or left is None or compose.get((g, hk)) != left:
                assoc.fail(g=labels[g], h=labels[h], k=labels[k])
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

    for g in range(n):
        for h in range(n):
            match.tick()
            if ((g, h) in comp) != (alpha[g] == omega[h]):
                match.fail(g=lbl[g], h=lbl[h], composable=(g, h) in comp)

    for (g, h), k in comp.items():
        typing.tick()
        if alpha[k] != alpha[h] or omega[k] != omega[g]:
            typing.fail(g=lbl[g], h=lbl[h], gh=lbl[k])
        cancel.tick()
        if comp.get((k, inv[h])) != g or comp.get((inv[g], k)) != h:
            cancel.fail(g=lbl[g], h=lbl[h])

    # (h, k) is composable whenever alpha(h) = omega(k)
    entering = G.fibers()[1]
    assoc = _assoc_law(titles[2], lbl, comp,
                       [entering.get(a, ()) for a in alpha])
    return rep.add(invo, pairs, typing, match, assoc, cancel)


def _table_laws(labels, compose, inverse, units, tables, titles,
                joint=None) -> list:
    """The (semi)norm laws on exact tables, one shared loop for every
    caller.

    tables is a list of (name, values) pairs.  The name None marks a norm,
    which must vanish exactly on the arrows in `units`; a named table is a
    seminorm, which must vanish on `units` and whose witnesses lead with
    its name.  Every table must be subadditive along `compose` and
    invariant under `inverse`.  titles names the zero, subadditivity and
    inversion laws; a `joint` title adds the law that no non-unit arrow
    lies in the joint kernel of the tables.  Returns the LawChecks in that
    order."""
    zero, sub, symm = (LawCheck(t) for t in titles)
    laws = [zero, sub, symm]
    n = len(labels)
    for name, d in tables:
        tag = {} if name is None else {"seminorm": name}
        for g in range(n):
            unit = g in units
            if name is None or unit:
                zero.tick()
                if (d[g] == 0) != unit:
                    zero.fail(**tag, g=labels[g], d=str(d[g]), unit=unit)
            if d[inverse[g]] != d[g]:
                symm.fail(**tag, g=labels[g], d=str(d[g]),
                          d_inv=str(d[inverse[g]]))
        symm.tick(n)
        for (g, h), k in compose.items():
            if d[k] > d[g] + d[h]:
                sub.fail(**tag, g=labels[g], h=labels[h], d_gh=str(d[k]),
                         bound=str(d[g] + d[h]))
        sub.tick(len(compose))
    if joint is not None:
        ker = LawCheck(joint)
        laws.append(ker)
        for g in range(n):
            if g not in units:
                ker.tick()
                if all(t[g] == 0 for _, t in tables):
                    ker.fail(g=labels[g])
    return laws


def _unit_arrows(G: FiniteGroupoid) -> set:
    return {g for g, a in enumerate(G.endpoints()[0]) if a == g}


def check_norm(G: FiniteGroupoid) -> ValidationReport:
    """Norm laws: zero exactly on unit arrows, subadditive, inversion
    invariant."""
    if G.norm is None:
        raise ValueError("no norm to check")
    return ValidationReport(subject="norm").add(*_table_laws(
        G.arrows, G.compose, G.inverse, _unit_arrows(G), [(None, G.norm)],
        ("d(g) = 0 iff g is a unit arrow", "d(gh) <= d(g) + d(h)",
         "d(inv g) = d(g)")))


def check_separability(G: FiniteGroupoid, norm=None) -> ValidationReport:
    """Distinct objects are separated: between two different objects every
    connecting arrow family has strictly positive minimal norm.  (Stated
    separately from the zero-norm law so it can be run on seminormed data.)"""
    d = G.norm if norm is None else norm
    rep = ValidationReport(subject="separability")
    law = LawCheck("distinct objects are norm-separated")
    rep.add(law)
    omega = G.endpoints()[1]
    leaving = G.fibers()[0]
    for x in sorted(leaving):
        between = {}  # object y > x -> the arrows x -> y
        for g in leaving[x]:
            if omega[g] > x and omega[g] in leaving:
                between.setdefault(omega[g], []).append(g)
        for y in sorted(between):
            arrows = between[y]
            law.tick()
            if min(d[g] for g in arrows) == 0:
                g0 = next(g for g in arrows if d[g] == 0)
                law.fail(x=G.arrows[x], y=G.arrows[y], arrow=G.arrows[g0])
    return rep


# ---------------------------------------------------------------------------
# morphisms and seminorms


@dataclass
class GroupoidMorphism:
    """Arrow map between finite groupoids (objects ride along)."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    arrow_map: list
    name: str = "F"


def check_morphism(M: GroupoidMorphism) -> ValidationReport:
    rep = ValidationReport(subject=f"morphism {M.name}")
    comp = LawCheck("preserves composition")
    invo = LawCheck("preserves inversion")
    ends = LawCheck("preserves unit arrows / endpoints")
    rep.add(comp, invo, ends)
    F = M.arrow_map
    G, H = M.source, M.target
    for (g, h), k in G.compose.items():
        comp.tick()
        if H.compose.get((F[g], F[h])) != F[k]:
            comp.fail(g=G.arrows[g], h=G.arrows[h])
    (ga, go), (ha, ho) = G.endpoints(), H.endpoints()
    for g in range(len(G.arrows)):
        invo.tick()
        if F[G.inverse[g]] != H.inverse[F[g]]:
            invo.fail(g=G.arrows[g])
        ends.tick()
        if F[ga[g]] != ha[F[g]] or F[go[g]] != ho[F[g]]:
            ends.fail(g=G.arrows[g])
    return rep


@dataclass
class SeminormFamily:
    """A family of seminorms on a groupoid's arrows, as exact tables."""

    names: list
    values: list  # values[i][g] = rho_i(g), Fraction

    def __len__(self):
        return len(self.names)


def check_seminorm_family(G, fam: SeminormFamily) -> ValidationReport:
    """Each seminorm vanishes on unit arrows, is subadditive and inversion
    invariant, and together they separate: the joint kernel holds unit
    arrows only."""
    return ValidationReport(subject="seminorm family").add(*_table_laws(
        G.arrows, G.compose, G.inverse, _unit_arrows(G),
        list(zip(fam.names, fam.values)),
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
    norm: list | None = None
    seminorms: SeminormFamily | None = None

    def unit_like(self) -> set:
        """The arrows of the form h^-1 h."""
        return {
            self.compose[(self.inverse[h], h)]
            for h in range(len(self.arrows))
            if (self.inverse[h], h) in self.compose
        }


def check_category_with_inverses(
    C: CategoryWithInverses, strict_norm: bool = True,
    joint_kernel: bool = True,
) -> ValidationReport:
    """Laws for a (semi)normed category with inverses.

    Algebra: composability is stable under composing (source/target
    bookkeeping), associativity holds where defined, the inverse is an
    involutive antimorphism, inverse pairs compose, and the source of
    g^-1 is the target of g (via composability classes).

    Norm (when strict_norm): zero exactly on the arrows h^-1 h,
    subadditive, inversion invariant.  Seminorms: vanish on h^-1 h,
    subadditive, inversion invariant, and (when joint_kernel) the joint
    kernel consists of such arrows only.
    """
    rep = ValidationReport(subject=f"category[{len(C.arrows)} arrows]")
    n = len(C.arrows)
    comp, inv = C.compose, C.inverse

    stab = LawCheck("composability stable under composition")
    invo, ipair = _inverse_laws(C.arrows, comp, inv)
    anti = LawCheck("inverse is an antimorphism")
    ends = LawCheck("source of inv g = target of g (composability classes)")

    after = [[] for _ in range(n)]
    for h, k in sorted(comp):
        after[h].append(k)
    assoc = _assoc_law("associativity", C.arrows, comp, after)
    rep.add(stab, assoc, invo, ipair, anti, ends)

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

    # L(x) = who can precede x; equal L-sets <=> equal targets
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
