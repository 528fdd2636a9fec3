"""The `ngd` command line: validate finite structures, evaluate terms,
certify limit axioms, and poke transport plans.

Exit codes: 0 all checks pass, 1 some check failed (or the input data
fails its own validation), 2 malformed input (bad JSON shape, term
syntax/type errors, bad flags).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import sys
import warnings
from fractions import Fraction

from .constructions import (FiniteMetricSpace, check_double_norm,
                            pair_groupoid, random_metric_space)
from .core import (FiniteGroupoid, LawCheck, ValidationReport, _json,
                   check_category_with_inverses, check_norm,
                   check_separability, validate_groupoid)

# numpy, transport and the analytic modules are imported by the commands
# that use them, so validate and transport never load numpy


class _Refused(Exception):
    """Input refused before any check runs; main prints it and returns 2."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, saying where a term that starts with '-' goes."""

    def error(self, message):
        if message.endswith("required: expr"):  # argparse took it for a flag
            message += ("\na term that starts with '-' goes after '--', as "
                        "in: ngd eval -- \"-(1,2,3)\"")
        super().error(message)


def _models_from(args):
    from .models import euclidean_model, heisenberg_model

    if args.model == "euclidean":
        return [euclidean_model(dim=args.dim)]
    if args.model == "heisenberg":
        return [heisenberg_model()]
    return [euclidean_model(dim=args.dim), heisenberg_model()]


def _grid_from(args, models):
    """The grid of --eps-grid, or None.  A grid deeper than the gauge of
    one of the models resolves is malformed input, as one past KMAX_MAX
    is."""
    from .scales import dyadic_grid

    k = args.eps_grid
    if k is None:
        return None
    for model in models:
        if k > model.group.max_grid_depth:
            raise _Refused(f"--eps-grid: the {model.name} gauge resolves "
                          f"grids up to KMAX = {model.group.max_grid_depth}, "
                          f"got {k}")
    return dyadic_grid(kmax=k)


def _emit(reports, args, extra=None):
    """Print reports (text or JSON) and return the exit code."""
    ok = all(r.passed for r in reports)
    if args.json:
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
    """The JSON object in the file at path.  A file that cannot be read
    is refused; one whose top level is not an object is a TypeError, which
    the commands report as malformed input."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _Refused(f"cannot read {path}: {e}") from None
    if not isinstance(data, dict):
        raise TypeError(f"expected a JSON object, got {type(data).__name__}")
    return data


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    reports = []
    try:
        data = _load_json(args.file)
        if "gamma" in data:
            from . import transport

            gamma = transport.Coupling.from_json(data)
            law = LawCheck("matrix is a coupling of its declared marginals")
            law.judge(True)  # from_json refuses any other matrix
            reports.append(ValidationReport(subject="transport plan").add(law))
            w = transport.is_invtrans(gamma)
            extra = {"norm": str(transport.norm_d(gamma)),
                     "invertible": w is not None}
            if not args.json:
                print(f"d(gamma) = {extra['norm']}")
                print("invertible transport" if w else
                      "not an invertible transport")
            return _emit(reports, args, extra=extra)
        elif "dist" in data or ("space" in data and
                                "dist" in _json(data, "space", dict)):
            space = FiniteMetricSpace.from_json(data.get("space", data))
            G = pair_groupoid(space)
            reports.append(validate_groupoid(G))
            reports.append(check_norm(G))
            reports.append(check_separability(G))
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
    from . import dsl

    model = _models_from(args)[0]
    ctx = dsl.EvalContext(model, eps_grid=_grid_from(args, [model]),
                          tol=args.tol)
    if args.base:
        try:
            base_node = dsl.parse(args.base)
            ctx.base = dsl._as_point(  # the base is a point of the model
                dsl.evaluate(base_node, dsl.EvalContext(model)), ctx,
                base_node)
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


def _limit_reports(args, axioms):
    """Per model, the reports named in axioms, in this order: A3, A4weak,
    A3mod, cone, fibers (the fiber dilatation structure and the
    translation groupoid) and distortion."""
    from .limits import (BoundedSampler, check_A3, check_A3mod_A4,
                         check_A4weak, check_translation_groupoid, cone_check,
                         fiber_dilatation_structure, gh_estimate)

    reports = []
    models = _models_from(args)
    grid = _grid_from(args, models)
    for model in models:
        sampler = BoundedSampler(
            model, radius=args.radius, n=args.samples, seed=args.seed
        )
        kw = {"grid": grid, "tol": args.tol}
        if "A3" in axioms:
            reports.append(check_A3(model, sampler, **kw))
        if "A4weak" in axioms:
            reports.append(check_A4weak(model, sampler, **kw))
        if "A3mod" in axioms:
            reports.append(check_A3mod_A4(model, sampler, **kw))
        if "cone" in axioms:
            reports.append(cone_check(model, sampler))
        if "fibers" in axioms:
            reports.append(fiber_dilatation_structure(model)[1])
            reports.append(check_translation_groupoid(
                model, n=min(args.samples, 400)))
        if "distortion" in axioms:
            rep = ValidationReport(subject=f"distortion[{model.name}]")
            rep.limits.append(gh_estimate(model, sampler, **kw))
            reports.append(rep)
    return reports


def cmd_limits(args) -> int:
    axioms = (("A3", "A4weak", "A3mod", "cone", "distortion")
              if args.axiom == "all" else (args.axiom,))
    return _emit(_limit_reports(args, axioms), args)


# ---------------------------------------------------------------------------
# transport


def _coupling_from(data, key="gamma"):
    from . import transport

    return transport.Coupling.from_json(data if key == "gamma" else {
        "space": _json(data, "space", dict), "gamma": _json(data, key)})


def cmd_transport(args) -> int:
    from . import transport

    try:
        data = _load_json(args.file)
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
            norm = str(transport.norm_d(_coupling_from(data)))
            print(json.dumps({"norm": norm}) if args.json else norm)
        elif args.action == "classify":
            w = transport.is_invtrans(_coupling_from(data))
            if args.json:
                print(json.dumps({
                    "invertible": w is not None,
                    "forward": list(w[0]) if w else None,
                    "backward": list(w[1]) if w else None,
                }))
            elif w is None:
                print("not an invertible transport")
            else:
                print(f"invertible transport: f = {list(w[0])}, "
                      f"backward g = {list(w[1])}")
        elif args.action == "kantorovich":
            space = FiniteMetricSpace.from_json(_json(data, "space", dict))
            mu, nu = (transport.Measure(space, _json(data, k))
                      for k in ("mu", "nu"))
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


def _matrix_text(gamma) -> str:
    return "\n".join(
        "  ".join(str(v) for v in row) for row in gamma.gamma
    )


# ---------------------------------------------------------------------------
# report


def _suite_axioms(args):
    import numpy as np
    from .models import (check_A0, check_A1, check_A2,
                         check_dilation_morphism, restricted_euclidean_model)

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
    import numpy as np
    from . import emergent

    reports = []
    for model in _models_from(args):
        rng = np.random.default_rng(args.seed)
        x, u, v, w = emergent.sample_point_quads(
            model, rng, n=args.samples, radius=args.radius
        )
        G = emergent.gamma_irq_from_dilation(model)
        reports.append(check_rename(
            emergent.check_irq(G.at(Fraction(1, 2)), x, u), model,
            "irq at 1/2"))
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
    return _limit_reports(args, ("A3", "A4weak", "A3mod", "cone", "fibers",
                                 "distortion"))


def _suite_transport(args):
    from . import transport

    space = random_metric_space(seed=args.seed + 17, max_points=4)
    reports = [transport.check_transport(seed=args.seed, samples=40),
               transport.check_transport(space, seed=args.seed, samples=25)]
    X = transport.two_point_space()
    mu = transport.Measure(X, (Fraction(1, 2), Fraction(1, 2)))
    nu = transport.Measure(X, (Fraction(1, 4), Fraction(3, 4)))
    reports.append(transport.check_kantorovich_duality(
        X, [(mu, nu), (mu, mu), (nu, mu)]
    ))
    C, _, _ = transport.transport_category_fixture()
    rep = check_category_with_inverses(C)
    rep.subject = "seven-plan fixture category"
    reports.append(rep)
    return reports


def cmd_report(args) -> int:
    if args.eps_grid is not None:  # a grid too deep is refused up front
        _grid_from(args, _models_from(args))
    suites = {
        "axioms": _suite_axioms,
        "irq": _suite_irq,
        "limits": _suite_limits,
        "transport": _suite_transport,
    }
    reports = []
    if args.suite == "planted":
        from .fixtures import run_planted_suite

        for name, rep in run_planted_suite(seed=args.seed,
                                           samples=args.samples):
            rep.subject = f"planted: {name}"
            reports.append(rep)
        # the planted suite is healthy when it is red
        return _emit(reports, args)
    for name in suites if args.suite == "all" else [args.suite]:
        reports.extend(suites[name](args))
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


# the dyadic grid needs 2^-KMAX and 2^KMAX as finite normal floats
KMAX_MAX = 1 - sys.float_info.min_exp
# the sampling boxes keep a finite gauge, up to 5 r^4 on Heisenberg
RADIUS_MAX = (sys.float_info.max / 5) ** 0.25


def _at_most(parse, top, why):
    """The argparse type parse, refusing values above top with why."""
    def bounded(text):
        x = parse(text)
        if x > top:
            raise argparse.ArgumentTypeError(f"{why} past {top:.4g}, "
                                             f"got {text}")
        return x
    return bounded


@functools.cache  # built on the first main() call, reused after it
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ngd",
        description="normed groupoids, dilations, and their limit "
                    "structures — validation and evaluation tools",
    )
    sp = p.add_subparsers(dest="command", required=True)

    v = sp.add_parser("validate", help="validate a finite structure (JSON)")
    v.add_argument("file")
    v.set_defaults(fn=cmd_validate)

    e = sp.add_parser("eval", help="evaluate a term")
    e.add_argument("expr")
    e.add_argument("--base", default=None,
                   help="base point for point-level operations, as a term")
    e.set_defaults(fn=cmd_eval)

    li = sp.add_parser("limits", help="certify the limit axioms")
    li.add_argument("--axiom", choices=["A3", "A4weak", "A3mod", "cone",
                                        "all"], default="all")
    li.set_defaults(fn=cmd_limits)

    t = sp.add_parser("transport", help="operate on transport plans (JSON)")
    t.add_argument("file")
    t.add_argument("--action", choices=["compose", "inverse", "norm",
                                        "kantorovich", "classify"],
                   required=True)
    t.set_defaults(fn=cmd_transport)

    r = sp.add_parser("report", help="run a named check suite")
    r.add_argument("--suite", choices=["axioms", "irq", "limits",
                                       "transport", "planted", "all"],
                   default="all")
    r.set_defaults(fn=cmd_report)

    # eval, limits and report evaluate on the analytic models; limits and
    # report also draw seeded samples; every command can answer in JSON
    for sub in (e, li, r):
        sub.add_argument("--model", choices=["euclidean", "heisenberg",
                                             "all"], default="all")
        sub.add_argument("--dim", type=_positive_int, default=1,
                         help="dimension of the euclidean carrier")
        sub.add_argument("--eps-grid", metavar="KMAX", default=None,
                         type=_at_most(_positive_int, KMAX_MAX,
                                       "2^-KMAX is not a normal float"),
                         help="use the dyadic grid 2^-1 .. 2^-KMAX")
        sub.add_argument("--tol", type=_positive_float, default=1e-8)
    for sub in (li, r):
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--radius", default=4.0,
                         type=_at_most(_positive_float, RADIUS_MAX,
                                       "the gauge overflows at radius"))
        sub.add_argument("--samples", type=_positive_int, default=200)
    for sub in sp.choices.values():
        sub.add_argument("--json", action="store_true",
                         help="machine-readable output")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # stdout is written in one piece at the end, where a reader that has
    # closed the pipe (`ngd report | head -1`) is caught, so the exit code
    # stays the verdict
    out = io.StringIO()
    try:
        # the judges name every non-finite residual, so numpy's warnings
        # are noise; a filter, not np.errstate, which slows every ufunc call
        with warnings.catch_warnings(), contextlib.redirect_stdout(out):
            warnings.filterwarnings("ignore", "(overflow|invalid value) "
                                    "encountered", RuntimeWarning)
            return args.fn(args)
    except _Refused as e:
        print(e, file=sys.stderr)
        return 2
    finally:
        try:
            sys.stdout.write(out.getvalue())
            sys.stdout.flush()
        except BrokenPipeError:
            # the interpreter flushes stdout again on exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
