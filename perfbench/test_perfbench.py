"""Self-tests of the benchmark: injected defects must be counted as
failures, the healthy library must count none, and BENCHMARK.json must
name exactly the metrics the code prints.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import workloads as wl
from clock import Clock, child_nominal

wl.load_ngd()

import layers  # noqa: E402  (needs ngd on the path)
import run  # noqa: E402
import tracer as tr  # noqa: E402
from ngd import fixtures, transport  # noqa: E402


def failed_frac(ops, tracer=None):
    tally = run.Tally()
    with Clock("int") as clock:
        run.run_passes(ops, 0, False, tally, clock, tracer=tracer,
                       min_passes=1)
    return tally.failed / tally.attempted


SMALL = {
    "transport-exact": {"sizes": [[6, 1, "seed"], [8, 1, "fixed"]]},
    "analytic-batch": {"samples": 500, "carriers": ["heisenberg",
                                                   "euclidean3"]},
    "finite-tables": {"spaces": 6, "sizes": [3, 4, 5, 6, 7, 8]},
}


def small_ops(name, seed=3):
    w = wl.WORKLOADS[name]
    params = SMALL.get(name, w.params)
    return w.ops(w.build(seed, params), params)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_healthy_library_fails_nothing(name):
    assert failed_frac(small_ops(name)) == 0


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_cold_start_passes_its_check(name):
    argv, check = wl.WORKLOADS[name].cold(5)
    for traced in (False, True):
        seconds, reason = run.cold_start(argv, check, traced)
        assert reason is None and seconds > 0


def test_tampered_kantorovich_plan_is_counted(monkeypatch):
    honest = transport.kantorovich

    def moved_entry(mu, nu):
        res = honest(mu, nu)
        g = [list(row) for row in res.plan.gamma]
        x, y = next((x, y) for x, row in enumerate(g)
                    for y, v in enumerate(row) if v > 0)
        g[x][(y + 1) % len(g)] += g[x][y]  # same row sum, columns break
        g[x][y] = 0
        return SimpleNamespace(plan=SimpleNamespace(gamma=g),
                               potential=res.potential, primal=res.primal,
                               dual=res.dual)

    monkeypatch.setattr(transport, "kantorovich", moved_entry)
    assert failed_frac(small_ops("transport-exact")) > 0


def test_certificate_rejects_a_non_lipschitz_potential():
    d = [[0, 1], [1, 0]]
    mu, nu = (1, 0), (0, 1)
    gamma = [[0, 1], [0, 0]]
    assert wl.oracles.kantorovich_certificate(
        d, mu, nu, gamma, [1, 0], 1, 1) is None
    assert wl.oracles.kantorovich_certificate(
        d, mu, nu, gamma, [2, 0], 1, 1) is not None


def test_dropped_correction_carrier_is_counted(monkeypatch):
    monkeypatch.setitem(wl.CARRIERS, "heisenberg",
                        fixtures.dropped_correction_heisenberg)
    assert failed_frac(small_ops("analytic-batch")) > 0


def test_wrong_expected_exit_code_is_counted():
    argv = ["report", "--suite", "axioms"]
    assert failed_frac([wl.cli_op("cli.report.axioms", argv, 0)]) == 0
    assert failed_frac([wl.cli_op("cli.report.axioms", argv, 1)]) > 0


def test_planted_suite_is_all_red():
    t = tr.Tracer()
    restore = tr.install(t, layers.targets())
    try:
        ops = [op for op in small_ops("cli-report")
               if op.name == "cli.report.planted"]
        assert failed_frac(ops, tracer=t) == 0  # planted exits 1 as expected
    finally:
        restore()
    assert layers.read_all(t, "workload")["fixtures.planted_red_frac"] == 1


def test_traced_run_reads_layers_and_restores_originals():
    before = transport.solve_lp
    t = tr.Tracer()
    restore = tr.install(t, layers.targets())
    try:
        assert transport.solve_lp is not before
        assert failed_frac(small_ops("transport-exact"), tracer=t) == 0
    finally:
        restore()
    assert transport.solve_lp is before
    values = layers.read_all(t, "workload")
    assert values["transport.kantorovich.dual_lp.s.n8"] > 0
    assert values["transport.tableau_cells.primal.n10"] is None  # no n = 10


def test_self_time_excludes_children():
    t = tr.Tracer()
    root = t.begin_op("op", source="workload", **{"pass": 0})
    child = t.open("child")
    t.close(child)
    t.end_op(root)
    own = t.self_times_ns()
    spans = t.spans
    assert own[root] == (spans[root][tr.END] - spans[root][tr.START]) - (
        spans[child][tr.END] - spans[child][tr.START])
    assert spans[child][tr.PARENT] == root and spans[child][tr.OP] == root


def test_clock_leaves_out_its_own_handler_time():
    with Clock("fraction") as clock:
        token = clock.start()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        measured, nominal = clock.stop(token)
    assert len(clock.refs) >= 5  # start, at least three ticks, stop
    during = clock.busy - clock.refs[0] - clock.refs[-1]
    assert measured == pytest.approx(0.3 - during, abs=0.01)
    assert nominal > 0


def test_child_nominal_reads_the_child_report():
    report = 'perfbench-clock {"end": 2.0, "refs": [0.00118, 0.00118], ' \
             '"done": 2.5}'
    # twice the nominal loop time: the child ran at half speed
    assert child_nominal(1.0, None, report) == pytest.approx(0.5)
    assert child_nominal(1.0, 3.0, report) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        child_nominal(1.0, None, "no report")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail(list(range(40)))
    assert pct == 75 and value == 29


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in wl.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m.name, m.unit) for m in layers.METRICS]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
