"""Per-layer metrics: which `ngd` functions the traced run wraps, how each
per-layer metric is read off the spans, and the probes that measure a
layer the workload's own operations leave idle.

A layer is one `ngd` module.  Its metrics are read from spans recorded
around calls into its public functions.  When the traced workload makes
no call a metric needs (the transport LP on `finite-tables`, say), that
metric is measured by the layer's probe instead: a small fixed set of
calls, traced the same way, so every metric has a measured value on
every workload.  The run record says which source each value came from.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import tracer as tr
import workloads as wl
from tracer import ATTRS, END, NAME, OP, PARENT, START

CARRIER_OPS = ("mul", "dil", "gauge", "point_dilatation")
SIZES = (("n1", 1, 400), ("n1e3", 1000, 60), ("n1e5", 100000, 9))
EMERGENT_OPS = (("Delta_eps", 2, 2), ("Sigma_eps", 2, 2), ("inv_eps", 2, 2),
                ("Delta3", 3, 1), ("Sigma3", 3, 1))
LIMITS = ("check_A3", "check_A4weak", "check_A3mod_A4", "cone_check",
          "gh_estimate", "check_translation_groupoid",
          "fiber_dilatation_structure")
CARRIERS = tuple(wl.CARRIERS)
REPORT_SUITES = tuple(suite for suite, _ in wl.SUITES)


# ---------------------------------------------------------------------------
# span attributes


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else (
        args[i] if len(args) > i else None)


def carrier(model) -> str:
    name = getattr(model, "name", "?")
    if name == "euclidean":
        return f"euclidean{model.dim}"
    return name


def _npts(a, point_ndim):
    import numpy as np

    lead = np.shape(a)[:-point_ndim]
    return int(np.prod(lead)) if lead else 1


def _laws(out, args, kwargs):
    rep = out[1] if isinstance(out, tuple) else out
    return {"laws": sum(c.checked for c in getattr(rep, "laws", []))}


def _model_attrs(args, kwargs):
    return {"carrier": carrier(_arg(args, kwargs, 0, "model"))}


def _irq_attrs(args, kwargs):
    Q = _arg(args, kwargs, 0, "Q")
    samples = _arg(args, kwargs, 1, "samples")
    if samples is None:
        samples = _arg(args, kwargs, 1, "xs")
    first = samples[0] if isinstance(samples, tuple) else samples
    return {"carrier": carrier(getattr(Q.op, "__self__", None)),
            "samples": len(first)}


def _residuals(out, args, kwargs):
    rep = out[1] if isinstance(out, tuple) else out
    ests = [rep] if hasattr(rep, "eps") else list(getattr(rep, "limits", []))
    sampler = kwargs.get("sampler")
    if sampler is None and len(args) > 1 and hasattr(args[1], "n"):
        sampler = args[1]
    n = getattr(sampler, "n", 0)
    return {"residuals": sum(len(e.eps) for e in ests) * n}


def _compose_attrs(args, kwargs):
    G = _arg(args, kwargs, 0, "G")
    if G is None:
        G = _arg(args, kwargs, 0, "C")
    return {"compose": len(G.compose)}


def _lp_attrs(args, kwargs):
    A = _arg(args, kwargs, 0, "A")
    return {"rows": len(A), "cols": len(A[0]) if A else 0}


def _kantorovich_attrs(args, kwargs):
    return {"n": _arg(args, kwargs, 0, "mu").space.n_points()}


def _den_bits(out, args, kwargs):
    return {"den_bits": max(v.denominator.bit_length()
                            for row in out.plan.gamma for v in row)}


def _double_arrows(out, args, kwargs):
    return {"double_arrows": len(out.arrows)}


def _planted(out, args, kwargs):
    return {"red": sum(not rep.passed for _, rep in out), "total": len(out)}


def _point_count(i, point_ndim):
    def attrs(args, kwargs):
        return {"npts": _npts(args[i], point_ndim)}
    return attrs


def targets():
    """(where, attr, span name, kind, attrs, result) for tracer.install."""
    t = []
    for cls in ("HeisenbergGroup", "EuclideanGroup"):
        for op in ("mul", "dil", "gauge"):
            t.append((f"ngd.models:{cls}", op, f"models.{cls}.{op}",
                      "span", None, None))
    t.append(("ngd.models:PairModel", "point_dilatation",
              "models.PairModel.point_dilatation", "span", None, None))
    t += [("ngd.scales:Scale", "mul", "scales.scale_ops", "count", None, None),
          ("ngd.scales:Scale", "inv", "scales.scale_ops", "count", None, None),
          ("ngd.scales", "as_scale", "scales.scale_ops", "count", None, None)]
    t += [("ngd.emergent", "check_pplay", "emergent.check_pplay", "span",
           _irq_attrs, _laws),
          ("ngd.emergent", "check_gamma_irq", "emergent.check_gamma_irq",
           "span", _irq_attrs, _laws),
          ("ngd.emergent", "check_based_compat", "emergent.check_based_compat",
           "span", None, _laws)]
    for op, i, nd in EMERGENT_OPS:
        t.append(("ngd.emergent", op, f"emergent.{op}", "span",
                  _point_count(i, nd), None))
    for name in LIMITS:
        t.append(("ngd.limits", name, f"limits.{name}", "span", _model_attrs,
                  _residuals))
    t += [("ngd.transport", "solve_lp", "transport.solve_lp", "span",
           _lp_attrs, None),
          ("ngd.transport", "kantorovich", "transport.kantorovich", "span",
           _kantorovich_attrs, _den_bits),
          ("ngd.transport:Coupling", "__init__", "transport.Coupling", "span",
           None, None)]
    for name in ("check_transport", "check_kantorovich_duality",
                 "compose_plans", "seminorm_rho", "norm_d"):
        t.append(("ngd.transport", name, f"transport.{name}", "span", None,
                  None))
    t += [("ngd.core", "validate_groupoid", "core.validate_groupoid", "span",
           _compose_attrs, _laws),
          ("ngd.core", "check_norm", "core.check_norm", "span",
           _compose_attrs, _laws),
          ("ngd.core", "check_separability", "core.check_separability", "span",
           None, _laws),
          ("ngd.core", "check_category_with_inverses",
           "core.check_category_with_inverses", "span", _compose_attrs,
           _laws)]
    for name in ("random_metric_space", "pair_groupoid", "check_double_norm",
                 "fiber_distances", "norm_from_fiber_distances",
                 "check_fiber_distances"):
        t.append(("ngd.constructions", name, f"constructions.{name}", "span",
                  None, None))
    t.append(("ngd.constructions", "double_groupoid",
              "constructions.double_groupoid", "span", None, _double_arrows))
    t += [("ngd.dsl", "parse", "dsl.parse", "span", None, None),
          ("ngd.dsl", "evaluate", "dsl.evaluate", "span", None, None),
          ("ngd.fixtures", "run_planted_suite", "fixtures.run_planted_suite",
           "span", None, _planted)]
    return t


# ---------------------------------------------------------------------------
# reading spans


class View:
    """The spans of one source ("workload" or "probe") of a traced run."""

    def __init__(self, tracer: tr.Tracer, source: str):
        self.t = tracer
        spans = tracer.spans
        self.ops = [i for i, s in enumerate(spans)
                    if s[OP] == i and s[ATTRS]["source"] == source]
        keep = set(self.ops)
        self.by_name = {}
        for i, s in enumerate(spans):
            if s[OP] in keep:
                self.by_name.setdefault(s[NAME], []).append(i)

    def _outermost(self, i):
        spans = self.t.spans
        name, p = spans[i][NAME], spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return False
            p = spans[p][PARENT]
        return True

    def find(self, name, **where) -> list:
        spans = self.t.spans
        out = []
        for i in self.by_name.get(name, ()):
            a = spans[i][ATTRS] or {}
            if all(a.get(k) == v for k, v in where.items()) and \
                    self._outermost(i):
                out.append(i)
        return out

    def dur(self, i) -> float:
        """Nominal seconds: the span's duration times its operation's
        measured-to-nominal factor (see clock.py)."""
        s = self.t.spans[i]
        speed = self.t.spans[s[OP]][ATTRS].get("speed", 1.0)
        return (s[END] - s[START]) / 1e9 * speed

    def pass_of(self, i) -> int:
        return self.t.spans[self.t.spans[i][OP]][ATTRS]["pass"]

    def median(self, name, scale=1.0, **where):
        ids = self.find(name, **where)
        return statistics.median(self.dur(i) for i in ids) * scale \
            if ids else None

    def per_pass(self, name, **where):
        ids = self.find(name, **where)
        if not ids:
            return None
        sums = {}
        for i in ids:
            k = self.pass_of(i)
            sums[k] = sums.get(k, 0.0) + self.dur(i)
        return statistics.median(sums.values())

    def rate(self, name, attr, scale=1.0, **where):
        ids = self.find(name, **where)
        total = sum((self.t.spans[i][ATTRS] or {}).get(attr, 0) for i in ids)
        return sum(self.dur(i) for i in ids) / total * scale if total else None

    def first_pass(self, names, attr):
        """Sum of a count attribute over the first pass (or the probe)."""
        ids = [i for name in names for i in self.find(name)]
        if not ids:
            return None
        first = min(self.pass_of(i) for i in ids)
        return sum((self.t.spans[i][ATTRS] or {}).get(attr, 0)
                   for i in ids if self.pass_of(i) == first)

    def lp(self, n, kind):
        """solve_lp spans under kantorovich at size n; kind from shape:
        the primal LP has n*n columns."""
        out = []
        for i in self.find("transport.solve_lp"):
            s = self.t.spans
            p = s[i][PARENT]
            if p < 0 or s[p][NAME] != "transport.kantorovich":
                continue
            if (s[p][ATTRS] or {}).get("n") != n:
                continue
            is_primal = (s[i][ATTRS] or {}).get("cols") == n * n
            if is_primal == (kind == "primal"):
                out.append(i)
        return out

    def counter_per_op(self, key):
        ops = set(self.ops)
        counts = [n for (k, op), n in self.t.counts.items()
                  if k == key and op in ops]
        return sum(counts) / len(counts) if counts else None


def _lp_median(v, n, kind):
    ids = v.lp(n, kind)
    return statistics.median(v.dur(i) for i in ids) if ids else None


def _lp_cells(v, n, kind):
    ids = v.lp(n, kind)
    if not ids:
        return None
    a = v.t.spans[ids[0]][ATTRS]
    return a["rows"] * (a["cols"] + a["rows"] + 1)


def _den_bits_max(v, n):
    ids = v.find("transport.kantorovich", n=n)
    return max(v.t.spans[i][ATTRS]["den_bits"] for i in ids) if ids else None


def _op_median(v, name):
    ids = [i for i in v.ops if v.t.spans[i][NAME] == name]
    return statistics.median(v.dur(i) for i in ids) if ids else None


def _red_frac(v):
    ids = v.find("fixtures.run_planted_suite")
    total = sum(v.t.spans[i][ATTRS]["total"] for i in ids)
    return sum(v.t.spans[i][ATTRS]["red"] for i in ids) / total \
        if total else None


@dataclass
class Metric:
    name: str
    unit: str
    better: str
    read: Callable   # View -> value or None
    probe: str       # probe that measures it when the workload does not


def _metrics():
    m = []
    for c in CARRIERS:
        for op in CARRIER_OPS:
            for tag, npts, _ in SIZES:
                span = f"probe.models.{c}.{op}.{tag}"
                m.append(Metric(
                    f"models.{c}.{op}.ns_per_pt.{tag}", "ns", "lower",
                    lambda v, span=span, npts=npts: v.median(
                        span, scale=1e9 / npts), "carriers"))
    m.append(Metric("scales.scale_ops", "count", "lower",
                    lambda v: v.counter_per_op("scales.scale_ops"), "eval"))
    for check in ("check_pplay", "check_gamma_irq"):
        for c in CARRIERS:
            m.append(Metric(
                f"emergent.{check}.us_per_sample.{c}", "us", "lower",
                lambda v, check=check, c=c: v.rate(
                    f"emergent.{check}", "samples", 1e6, carrier=c),
                "analytic"))
    m.append(Metric("emergent.check_based_compat.s", "s", "lower",
                    lambda v: v.per_pass("emergent.check_based_compat"),
                    "report"))
    for op, _, _ in EMERGENT_OPS:
        m.append(Metric(f"emergent.{op}.us_per_call.n1", "us", "lower",
                        lambda v, op=op: v.median(f"emergent.{op}", 1e6,
                                                  npts=1), "eval"))
    m.append(Metric("emergent.laws_checked", "count", "higher",
                    lambda v: v.first_pass(
                        ["emergent.check_pplay", "emergent.check_gamma_irq",
                         "emergent.check_based_compat"], "laws"),
                    "analytic"))
    for name in LIMITS:
        for c in CARRIERS:
            m.append(Metric(f"limits.{name}.s.{c}", "s", "lower",
                            lambda v, name=name, c=c: v.per_pass(
                                f"limits.{name}", carrier=c), "analytic"))
    m.append(Metric("limits.residuals_evaluated", "count", "higher",
                    lambda v: v.first_pass([f"limits.{x}" for x in LIMITS],
                                           "residuals"), "analytic"))
    for kind in ("primal", "dual"):
        for n in (6, 8, 10):
            m.append(Metric(f"transport.kantorovich.{kind}_lp.s.n{n}", "s",
                            "lower",
                            lambda v, n=n, kind=kind: _lp_median(v, n, kind),
                            "kantorovich"))
    for kind in ("primal", "dual"):
        m.append(Metric(f"transport.tableau_cells.{kind}.n10", "count",
                        "lower", lambda v, kind=kind: _lp_cells(v, 10, kind),
                        "kantorovich"))
    m.append(Metric("transport.plan_den_bits.max.n10", "bits", "lower",
                    lambda v: _den_bits_max(v, 10), "kantorovich"))
    for name in ("check_transport", "check_kantorovich_duality"):
        m.append(Metric(f"transport.{name}.s", "s", "lower",
                        lambda v, name=name: v.per_pass(f"transport.{name}"),
                        "report"))
    for name in ("compose_plans", "seminorm_rho", "norm_d", "Coupling"):
        m.append(Metric(f"transport.{name}.us_per_call", "us", "lower",
                        lambda v, name=name: v.median(f"transport.{name}",
                                                      1e6), "report"))
    for name in ("validate_groupoid", "check_norm", "check_separability",
                 "check_category_with_inverses"):
        m.append(Metric(f"core.{name}.s", "s", "lower",
                        lambda v, name=name: v.per_pass(f"core.{name}"),
                        "report" if name == "check_category_with_inverses"
                        else "tables"))
    core_checks = ["core.validate_groupoid", "core.check_norm",
                   "core.check_separability",
                   "core.check_category_with_inverses"]
    m.append(Metric("core.laws_checked", "count", "higher",
                    lambda v: v.first_pass(core_checks, "laws"), "tables"))
    m.append(Metric("core.compose_entries", "count", "higher",
                    lambda v: v.first_pass(core_checks, "compose"), "tables"))
    for name in ("random_metric_space", "pair_groupoid", "double_groupoid",
                 "check_double_norm", "fiber_distances",
                 "check_fiber_distances"):
        m.append(Metric(f"constructions.{name}.s", "s", "lower",
                        lambda v, name=name: v.per_pass(
                            f"constructions.{name}"), "tables"))
    m.append(Metric("constructions.double_arrows", "count", "higher",
                    lambda v: v.first_pass(["constructions.double_groupoid"],
                                           "double_arrows"), "tables"))
    for name in ("parse", "evaluate"):
        m.append(Metric(f"dsl.{name}.us_per_term", "us", "lower",
                        lambda v, name=name: v.median(f"dsl.{name}", 1e6),
                        "eval"))
    m.append(Metric("cli.import_s", "s", "lower", None, "imports"))
    m.append(Metric("numpy.import_s", "s", "lower", None, "imports"))
    for suite in REPORT_SUITES:
        m.append(Metric(f"cli.report_suite_s.{suite}", "s", "lower",
                        lambda v, suite=suite: _op_median(
                            v, f"cli.report.{suite}"), "report"))
    m.append(Metric("fixtures.run_planted_suite.s", "s", "lower",
                    lambda v: v.median("fixtures.run_planted_suite"),
                    "report"))
    m.append(Metric("fixtures.planted_red_frac", "ratio", "higher",
                    _red_frac, "report"))
    for e2e in ("setup_s", "pass_s", "cold_start_s"):
        m.append(Metric(f"overhead.{e2e}", "s", "lower", None, "overhead"))
    return m


METRICS = _metrics()


def read_all(tracer: tr.Tracer, source: str) -> dict:
    v = View(tracer, source)
    return {m.name: m.read(v) for m in METRICS if m.read is not None}


# ---------------------------------------------------------------------------
# probes: fixed calls for layers the workload leaves idle


def _probe_kantorovich():
    params = {"sizes": [[6, 1, "seed"], [8, 1, "seed"], [10, 1, "seed"]]}
    return wl._transport_ops(wl._transport_build(0, params), params)


def _probe_report():
    return [op for op in wl._cli_ops([], {})
            if op.tags["suite"] in REPORT_SUITES]


def _probe_eval():
    return [op for op in wl._cli_ops(wl._eval_terms(0), {})
            if op.name == "cli.eval"]


def _probe_analytic():
    params = {"samples": 2000, "carriers": list(CARRIERS)}
    return wl._analytic_ops(wl._analytic_build(0, params), params)


def _probe_tables():
    from ngd import constructions

    def spaces():
        return [constructions.random_metric_space(seed=i, max_points=8)
                for i in range(8)]

    def check(out):
        ok = all(2 <= X.n_points() <= 8 for X in out)
        return None if ok else "random_metric_space size out of range"

    params = {"spaces": 6, "sizes": [3, 4, 5, 6, 7, 8]}
    ops = wl._tables_ops(wl._tables_build(0, params), params)
    return [wl.Op("constructions.random_metric_space", spaces, check)] + ops


PROBES = {"kantorovich": _probe_kantorovich, "report": _probe_report,
          "eval": _probe_eval, "analytic": _probe_analytic,
          "tables": _probe_tables}


def carrier_probe(tracer: tr.Tracer, clock) -> None:
    """Time mul, dil, gauge and point_dilatation of both carriers on
    clouds of exactly 1, 10^3 and 10^5 points, one span per call.  Run
    with the wrappers removed, so a span holds one call and nothing else."""
    import numpy as np
    from ngd import models, scales

    scale = scales.Scale(Fraction(1, 3))
    for c, model in (("heisenberg", models.heisenberg_model()),
                     ("euclidean3", models.euclidean_model(dim=3))):
        g = model.group
        for tag, npts, reps in SIZES:
            rng = np.random.default_rng(npts)
            a = g.sample(rng, npts, 4.0)
            b = g.sample(rng, npts, 4.0)
            if npts == 1:
                a, b = a[0], b[0]
            calls = {"mul": lambda: g.mul(a, b), "dil": lambda: g.dil(0.3, a),
                     "gauge": lambda: g.gauge(a),
                     "point_dilatation":
                         lambda: model.point_dilatation(scale, a, b)}
            token = clock.start()
            root = tracer.begin_op(f"probe.models.{c}.{tag}", source="probe",
                                   **{"pass": 0})
            for op in CARRIER_OPS:
                fn = calls[op]
                fn()
                for _ in range(reps):
                    t0 = time.perf_counter_ns()
                    fn()
                    t1 = time.perf_counter_ns()
                    tracer.spans.append([f"probe.models.{c}.{op}.{tag}", t0,
                                         t1, root, root, {"npts": npts}])
            tracer.end_op(root)
            raw, nominal = clock.stop(token)
            tracer.spans[root][ATTRS]["speed"] = nominal / raw
