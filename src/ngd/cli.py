"""The `ngd` command line: validate finite structures, evaluate terms,
certify limit axioms, and poke transport plans.

Exit codes: 0 all checks pass, 1 some check failed (or the input data
fails its own validation), 2 malformed input (bad JSON shape, term
syntax/type errors, bad flags).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import dsl, emergent, transport
from .constructions import (
    FiniteMetricSpace,
    check_double_norm,
    pair_groupoid,
    random_metric_space,
)
from .core import (
    FiniteGroupoid,
    LawCheck,
    ValidationReport,
    check_category_with_inverses,
    check_norm,
    check_separability,
    validate_groupoid,
)
from .fixtures import run_planted_suite
from .limits import (
    BoundedSampler,
    check_A3,
    check_A3mod_A4,
    check_A4weak,
    check_translation_groupoid,
    cone_check,
    fiber_dilatation_structure,
    gh_estimate,
)
from .models import (
    check_A0,
    check_A1,
    check_A2,
    check_dilation_morphism,
    euclidean_model,
    heisenberg_model,
    restricted_euclidean_model,
)
from .scales import dyadic_grid


def _models_from(args):
    picked = getattr(args, "model", "all")
    dim = getattr(args, "dim", 1)
    if picked == "euclidean":
        return [euclidean_model(dim=dim)]
    if picked == "heisenberg":
        return [heisenberg_model()]
    return [euclidean_model(dim=dim), heisenberg_model()]


def _grid_from(args):
    k = getattr(args, "eps_grid", None)
    return None if k is None else dyadic_grid(kmax=k)


def _emit(reports, args, extra=None):
    """Print reports (text or JSON) and return the exit code."""
    ok = all(r.passed for r in reports)
    if getattr(args, "json", False):
        blob = {"pass": ok, "reports": [r.to_json() for r in reports]}
        if extra:
            blob.update(extra)
        print(json.dumps(blob, indent=2))
    else:
        for r in reports:
            print(r.summary())
            print()
    return 0 if ok else 1


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    data = _load_json(args.file)
    if not isinstance(data, dict):
        print(f"malformed input: expected a JSON object, got "
              f"{type(data).__name__}", file=sys.stderr)
        return 2
    reports = []
    try:
        if "gamma" in data:
            gamma = transport.Coupling.from_json(data)
            rep = ValidationReport(subject="transport plan")
            ok = LawCheck("matrix is a coupling of its declared marginals")
            ok.tick()
            rep.add(ok)
            reports.append(rep)
            w = transport.is_invtrans(gamma)
            extra = {"norm": str(transport.norm_d(gamma)),
                     "invertible": w is not None}
            if not args.json:
                print(f"d(gamma) = {extra['norm']}")
                print("invertible transport" if w else
                      "not an invertible transport")
            return _emit(reports, args, extra=extra)
        elif "dist" in data or (
            "space" in data and "dist" in data.get("space", {})
        ):
            space = FiniteMetricSpace.from_json(data.get("space", data))
            G = pair_groupoid(space)
            reports.append(validate_groupoid(G))
            reports.append(check_norm(G))
            reports.append(check_separability(G))
            if space.n_points() <= 6:
                reports.append(check_double_norm(G))
        elif "compose" in data:
            G = FiniteGroupoid.from_json(data)
            reports.append(validate_groupoid(G))
            # the norm laws need alpha, which needs composable inverse pairs
            if G.norm is not None and reports[0].law(
                    "(inv g, g) and (g, inv g) compose").passed:
                reports.append(check_norm(G))
                reports.append(check_separability(G))
        else:
            print(
                "unrecognized structure: expected a metric space "
                "(points/dist), groupoid tables (arrows/compose/inverse), "
                "or a transport plan (gamma)",
                file=sys.stderr,
            )
            return 2
    except (KeyError, TypeError) as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        # well-formed JSON describing an invalid structure
        print(f"invalid structure: {e}", file=sys.stderr)
        return 1
    return _emit(reports, args)


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    model = _models_from(args)[0]
    ctx = dsl.EvalContext(
        model,
        eps_grid=_grid_from(args),
        tol=args.tol,
    )
    if args.base:
        try:
            base_node = dsl.parse(args.base)
            ctx.base = np.asarray(
                dsl.evaluate(base_node, dsl.EvalContext(model)), dtype=float
            )
        except dsl.TermError as e:
            print(f"--base: {e}", file=sys.stderr)
            return 2
    try:
        value, rendered, estimates = dsl.run(args.expr, ctx)
    except dsl.TermError as e:
        print(str(e), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "value": rendered,
            "estimates": [e.to_json() for e in estimates],
        }, indent=2))
    else:
        for est in estimates:
            print(est.line())
        print(rendered)
    return 0 if all(e.passed for e in estimates) else 1


# ---------------------------------------------------------------------------
# limits


def cmd_limits(args) -> int:
    reports = []
    grid = _grid_from(args)
    for model in _models_from(args):
        sampler = BoundedSampler(
            model, radius=args.radius, n=args.samples, seed=args.seed
        )
        if args.axiom in ("A3", "all"):
            reports.append(check_A3(model, sampler, grid=grid, tol=args.tol))
        if args.axiom in ("A4weak", "all"):
            reports.append(
                check_A4weak(model, sampler, grid=grid, tol=args.tol)
            )
        if args.axiom in ("A3mod", "all"):
            reports.append(
                check_A3mod_A4(model, sampler, grid=grid, tol=args.tol)
            )
        if args.axiom in ("cone", "all"):
            reports.append(cone_check(model, sampler))
        if args.axiom == "all":
            rep = ValidationReport(subject=f"distortion[{model.name}]")
            rep.limits.append(gh_estimate(model, sampler, grid=grid,
                                          tol=args.tol))
            reports.append(rep)
    return _emit(reports, args)


# ---------------------------------------------------------------------------
# transport


def _coupling_from(data, key="gamma") -> transport.Coupling:
    space = FiniteMetricSpace.from_json(data["space"])
    sub = {"space": data["space"], "gamma": data[key]}
    for mk, gk in (("mu", "mu"), ("nu", "nu")):
        if key == "gamma" and mk in data:
            sub[mk] = data[mk]
    return transport.Coupling.from_json(sub)


def cmd_transport(args) -> int:
    data = _load_json(args.file)
    try:
        if args.action == "compose":
            gamma = _coupling_from(data, "gamma")
            gamma_prime = _coupling_from(data, "gamma_prime")
            try:
                out = transport.compose_plans(gamma, gamma_prime)
            except transport.MarginalMismatch as e:
                print(f"not composable: {e}", file=sys.stderr)
                return 1
            print(json.dumps(out.to_json(), indent=2) if args.json else
                  _matrix_text(out))
        elif args.action == "inverse":
            out = transport.inverse_plan(_coupling_from(data))
            print(json.dumps(out.to_json(), indent=2) if args.json else
                  _matrix_text(out))
        elif args.action == "norm":
            print(transport.norm_d(_coupling_from(data)))
        elif args.action == "classify":
            w = transport.is_invtrans(_coupling_from(data))
            if args.json:
                print(json.dumps({
                    "invertible": w is not None,
                    "forward": list(w[0].f) if w else None,
                    "backward": list(w[1].f) if w else None,
                }))
            else:
                if w is None:
                    print("not an invertible transport")
                else:
                    print(f"invertible transport: f = {list(w[0].f)}, "
                          f"backward g = {list(w[1].f)}")
        elif args.action == "kantorovich":
            space = FiniteMetricSpace.from_json(data["space"])
            mu = transport.Measure(space, data["mu"])
            nu = transport.Measure(space, data["nu"])
            res = transport.kantorovich(mu, nu)
            if args.json:
                print(json.dumps({
                    "primal": str(res.primal),
                    "dual": str(res.dual),
                    "plan": res.plan.to_json()["gamma"],
                    "potential": [str(v) for v in res.potential.values],
                    "pivots": res.pivots,
                    "den_bits": res.den_bits,
                }, indent=2))
            else:
                print(f"value = {res.primal} (primal = dual, exactly)")
                print(_matrix_text(res.plan))
                print("potential u* =",
                      [str(v) for v in res.potential.values])
    except (KeyError, TypeError) as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"invalid structure: {e}", file=sys.stderr)
        return 1
    return 0


def _matrix_text(gamma: transport.Coupling) -> str:
    return "\n".join(
        "  ".join(str(v) for v in row) for row in gamma.gamma
    )


# ---------------------------------------------------------------------------
# report


def _suite_axioms(args):
    reports = []
    for i in range(3):
        space = random_metric_space(seed=args.seed + i, max_points=5)
        G = pair_groupoid(space)
        rep = validate_groupoid(G)
        rep.merge(check_norm(G)).merge(check_separability(G))
        rep.subject = f"pair groupoid [seed {args.seed + i}]"
        reports.append(rep)
        reports.append(check_double_norm(G))
    for model in _models_from(args):
        nrng = np.random.default_rng(args.seed)
        arrows = model.sample_fiber_arrows(nrng, args.samples,
                                           radius=args.radius)
        reports.append(check_A0(model))
        reports.append(check_A1(model, arrows))
        reports.append(check_A2(model, arrows))
        reports.append(check_dilation_morphism(model))
    reports.append(check_A0(restricted_euclidean_model()))
    return reports


def _suite_irq(args):
    reports = []
    for model in _models_from(args):
        rng = np.random.default_rng(args.seed)
        x, u, v, w = emergent.sample_point_quads(
            model, rng, n=args.samples, radius=args.radius
        )
        Q = emergent.irq_from_dilation(model, Fraction(1, 2))
        reports.append(check_rename(emergent.check_irq(Q, x, u), model,
                                    "irq at 1/2"))
        G = emergent.gamma_irq_from_dilation(model)
        reports.append(check_rename(
            emergent.check_gamma_irq(G, x, u), model, "scale family"))
        reports.append(check_rename(
            emergent.check_pplay(G, (x, u, v, w)), model, "identities"))
        reports.append(check_rename(
            emergent.check_based_compat(model, n=min(args.samples, 300)),
            model, "arrow/point compatibility"))
    return reports


def check_rename(rep, model, tag):
    rep.subject = f"{tag} [{model.name}]"
    return rep


def _suite_limits(args):
    reports = []
    grid = _grid_from(args)
    for model in _models_from(args):
        sampler = BoundedSampler(model, radius=args.radius, n=args.samples,
                                 seed=args.seed)
        reports.append(check_A3(model, sampler, grid=grid))
        reports.append(check_A4weak(model, sampler, grid=grid))
        reports.append(check_A3mod_A4(model, sampler, grid=grid))
        reports.append(cone_check(model, sampler))
        _, rep = fiber_dilatation_structure(model)
        reports.append(rep)
        reports.append(check_translation_groupoid(
            model, n=min(args.samples, 400)))
        rep = ValidationReport(subject=f"distortion[{model.name}]")
        rep.limits.append(gh_estimate(model, sampler, grid=grid))
        reports.append(rep)
    return reports


def _suite_transport(args):
    reports = [transport.check_transport(seed=args.seed, samples=40)]
    space = random_metric_space(seed=args.seed + 17, max_points=4)
    reports.append(
        transport.check_transport(space, seed=args.seed, samples=25)
    )
    X = transport.two_point_space()
    mu = transport.Measure(X, (Fraction(1, 2), Fraction(1, 2)))
    nu = transport.Measure(X, (Fraction(1, 4), Fraction(3, 4)))
    reports.append(transport.check_kantorovich_duality(
        X, [(mu, nu), (mu, mu), (nu, mu)]
    ))
    C, _, _ = transport.transport_category_fixture()
    rep = check_category_with_inverses(C, strict_norm=False,
                                       joint_kernel=False)
    rep.subject = "seven-plan fixture category"
    reports.append(rep)
    return reports


def cmd_report(args) -> int:
    suites = {
        "axioms": _suite_axioms,
        "irq": _suite_irq,
        "limits": _suite_limits,
        "transport": _suite_transport,
    }
    reports = []
    if args.suite == "planted":
        for name, rep in run_planted_suite(seed=args.seed):
            rep.subject = f"planted: {name}"
            reports.append(rep)
        # the planted suite is healthy when it is red
        code = _emit(reports, args)
        return code
    if args.suite == "all":
        for fn in suites.values():
            reports.extend(fn(args))
    else:
        reports.extend(suites[args.suite](args))
    return _emit(reports, args)


# ---------------------------------------------------------------------------
# argument plumbing


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return x


def _common(sub):
    sub.add_argument("--model", choices=["euclidean", "heisenberg", "all"],
                     default="all")
    sub.add_argument("--dim", type=_positive_int, default=1,
                     help="dimension of the euclidean carrier")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--radius", type=_positive_float, default=4.0)
    sub.add_argument("--samples", type=_positive_int, default=200)
    sub.add_argument("--eps-grid", type=_positive_int, default=None,
                     metavar="KMAX",
                     help="use the dyadic grid 2^-1 .. 2^-KMAX")
    sub.add_argument("--tol", type=_positive_float, default=1e-8)
    sub.add_argument("--json", action="store_true",
                     help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ngd",
        description="normed groupoids, dilations, and their limit "
                    "structures — validation and evaluation tools",
    )
    sp = p.add_subparsers(dest="command", required=True)

    v = sp.add_parser("validate", help="validate a finite structure (JSON)")
    v.add_argument("file")
    _common(v)
    v.set_defaults(fn=cmd_validate)

    e = sp.add_parser("eval", help="evaluate a term")
    e.add_argument("expr")
    e.add_argument("--base", default=None,
                   help="base point for point-level operations, as a term")
    _common(e)
    e.set_defaults(fn=cmd_eval)

    li = sp.add_parser("limits", help="certify the limit axioms")
    li.add_argument("--axiom", choices=["A3", "A4weak", "A3mod", "cone",
                                        "all"], default="all")
    _common(li)
    li.set_defaults(fn=cmd_limits)

    t = sp.add_parser("transport", help="operate on transport plans (JSON)")
    t.add_argument("file")
    t.add_argument("--action", choices=["compose", "inverse", "norm",
                                        "kantorovich", "classify"],
                   required=True)
    _common(t)
    t.set_defaults(fn=cmd_transport)

    r = sp.add_parser("report", help="run a named check suite")
    r.add_argument("--suite", choices=["axioms", "irq", "limits",
                                       "transport", "planted", "all"],
                   default="all")
    _common(r)
    r.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
