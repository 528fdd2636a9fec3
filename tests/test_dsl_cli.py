"""The term language and the `ngd` command line: positions in errors,
round-trip printing, frozen evaluation values, and process exit codes."""

import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ngd import cli, dsl, fixtures, models, transport
from ngd.constructions import (
    check_double_norm,
    pair_groupoid,
    random_metric_space,
)
from ngd.fixtures import retargeted_compose_groupoid
from ngd.models import euclidean_model, heisenberg_model
from ngd.scales import dyadic_grid
from ngd.transport import two_point_space
from references import parse_error_samples


# ---------------------------------------------------------------------------
# parsing


def test_tokens_carry_positions():
    toks = dsl.tokenize("delta(1/2,\n  (3, 0))")
    opens = [t for t in toks if t.kind == "lp"]
    assert opens[0].line == 1
    assert opens[1].line == 2 and opens[1].col == 3


def test_print_parse_print_is_idempotent():
    for src in [
        "Delta(0.1, (3, 0), (1, 0))",
        "lim(eps -> 0, Sigma(eps, (1, 0, 0), (0, 1, 0)))",
        "let(a, (3, 0), d(inv(1/2, a)))",
        "circ(1/4, (0, 0, 0), (1, 1, 0))",
        "delta(1/2, -(3, 0))",
    ]:
        once = dsl.to_text(dsl.parse(src))
        assert dsl.to_text(dsl.parse(once)) == once


def test_every_parse_error_fixture_points_at_the_right_spot():
    for src, line, col in parse_error_samples():
        with pytest.raises(dsl.TermError) as exc:
            dsl.parse(src)
        assert (exc.value.line, exc.value.col) == (line, col), src


def test_arity_errors_name_the_operation():
    with pytest.raises(dsl.TermError) as exc:
        dsl.parse("delta(1/2)")
    assert "delta" in str(exc.value)


def test_unknown_name_errors_at_the_name():
    with pytest.raises(dsl.TermError) as exc:
        dsl.parse("  frobnicate(1)")
    assert exc.value.col == 3


# ---------------------------------------------------------------------------
# evaluation


def euclid_ctx(**kw):
    return dsl.EvalContext(euclidean_model(dim=1), **kw)


def test_frozen_euclid_values():
    for src, want in [
        ("Delta(0.1, (3, 0), (1, 0))", "(2.1, 0)"),
        ("Sigma(0.1, (3, 0), (1, 0))", "(3.9, 0)"),
        ("inv(0.1, (2, 0))", "(-1.8, 0)"),
    ]:
        _, rendered, _ = dsl.run(src, euclid_ctx())
        assert rendered == want, src


def test_frozen_heisenberg_based_difference():
    ctx = dsl.EvalContext(heisenberg_model())
    _, rendered, _ = dsl.run("Delta(1/2, (1, 0, 0), (0, 1, 0))", ctx)
    assert rendered == "(-0.5, 1, -0.25)"


def test_lim_sweeps_and_extrapolates():
    value, rendered, ests = dsl.run(
        "lim(eps -> 0, Delta(eps, (3, 0), (1, 0)))", euclid_ctx()
    )
    assert rendered == "(2, 0)"
    assert len(ests) == 1 and ests[0].passed
    assert np.isclose(ests[0].order, 1.0, atol=0.05)


def test_let_binds_and_shadows():
    _, rendered, _ = dsl.run(
        "let(a, (2, 0), let(a, (3, 0), d(a)))", euclid_ctx()
    )
    assert rendered == "3"


def test_type_error_carries_the_node_position():
    # dim-3 model: a 2-tuple is neither a point nor an arrow
    ctx = dsl.EvalContext(heisenberg_model())
    with pytest.raises(dsl.TermError) as exc:
        dsl.run("d((1, 0))", ctx)
    assert exc.value.line == 1


def test_eps_grid_override():
    ctx = euclid_ctx(eps_grid=dyadic_grid(kmax=20))
    _, _, ests = dsl.run("lim(eps -> 0, Sigma(eps, (3, 0), (1, 0)))", ctx)
    # candidate-free residuals are successive differences: one per gap
    assert len(ests[0].eps) == 19


# ---------------------------------------------------------------------------
# the command line, driven in-process through main()


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_eval_ok(capsys):
    assert run_cli("eval", "Delta(0.1, (3, 0), (1, 0))") == 0
    assert capsys.readouterr().out.strip() == "(2.1, 0)"


def test_cli_eval_json(capsys):
    assert run_cli("eval", "d((3, 1))", "--json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["value"] == "2"


def test_cli_eval_passes_an_order_one_limit_on_its_tail_bound(capsys):
    """Delta(eps, (4, 0), (6, 0)) = (-2 + 6 eps, 0): its last-quarter
    successive differences sit above 1e-8, but at order 1 the differences
    still to come sum to r_last / (2 - 1), about 8.7e-11."""
    assert run_cli("eval", "lim(eps -> 0, Delta(eps, (4, 0), (6, 0)))") == 0
    line, value = capsys.readouterr().out.splitlines()
    assert value == "(-2, 0)"
    assert line.startswith("[PASS]")
    assert line.endswith("; tail bound 8.731e-11 < tol")


def test_cli_parse_error_is_exit_two(capsys):
    for src, line, col in parse_error_samples():
        assert run_cli("eval", src) == 2
        err = capsys.readouterr().err
        assert f"line {line}, col {col}" in err, src


@pytest.mark.parametrize("term,flags,col", [
    ("Delta(1/2, (3,0), (1,2))", [], 1),
    ("d((3,0),(1,2))", [], 1),
    ("dilat(1/2, (3,0), (1,2))", [], 1),
    ("lim(eps -> 0, Delta(eps, (3,0), (1,2)))", [], 15),
    ("Delta(1/2, ((1,0,0),(0,0,0)), ((0,1,0),(1,0,0)))",
     ["--model", "heisenberg"], 1),
])
def test_cli_eval_model_refusal_is_exit_two(term, flags, col, capsys):
    """Arrows with different sources have no difference: the model's
    refusal comes back as a positioned term error, not a traceback."""
    assert run_cli("eval", term, *flags) == 2
    err = capsys.readouterr().err
    assert f"line 1, col {col}: dif needs a common source" in err
    assert "Traceback" not in err


H = ("--model", "heisenberg")
# one case per term kind and per TermError of the term language: the eval
# flags, the term, and either its rendered value (exit 0) or its error's
# (line, col, message) (exit 2)
TERM_CASES = [
    ((), "delta(1/2, -(4, 2))", "(-3, -2)"),       # unary minus, an arrow
    ((), "-d((3, 1))", "-2"),                       # unary minus, a scalar
    ((), "(1/2)", "1/2"),                           # grouping; exact
    (H, "e", "(0, 0, 0)"),
    ((), "delta(1/2, e)", "0"),
    ((), "d(x)", (1, 3, "unbound name 'x'")),
    ((), "d((3, 1))", "2"),                         # the norm of an arrow
    ((), "d((3, 1), (5, 1))", "2"),                 # d~ of two arrows
    (H, "d((1, 0, 0), (0, 1, 0))", "1.68179283051"),
    ((), "d(2, 5)", "3"),
    ((), "d(5)", (1, 1, "d(a) takes an arrow; for points use d(x, y)")),
    (H, "d((1, 2, 3))",
     (1, 1, "d(a) takes an arrow; for points use d(x, y)")),
    (H, "delta(1/2, (2, 2, 2))", "(1, 1, 0.5)"),
    ((), "delta(1/2, (4, 2))", "(3, 2)"),
    (H, "delta(1/2, ((2, 2, 2), (0, 0, 0)))", "((1, 1, 0.5), (0, 0, 0))"),
    (H, "inv(1/2, (1, 2, 3))", "(-0.5, -1, -2.25)"),
    ((), "inv(1/10, (2, 0))", "(-1.8, 0)"),
    (H, "Delta(1/2, (1, 0, 0), (0, 1, 0))", "(-0.5, 1, -0.25)"),
    ((), "Delta(1/10, (3, 0), (1, 0))", "(2.1, 0)"),
    (H, "Sigma(1/2, (1, 0, 0), (0, 1, 0))", "(0.5, 1, 0.25)"),
    ((), "Sigma(1/10, (3, 0), (1, 0))", "(3.9, 0)"),
    (H, "dilat(1/2, (1, 1, 1), (3, 3, 3))", "(2, 2, 1.5)"),
    ((), "dilat(1/2, (1, 0), (3, 0))", "(2, 0)"),
    (H, "dilat(1/2, ((1, 1, 1), (0, 0, 0)), ((3, 3, 3), (0, 0, 0)))",
     "((2, 2, 1.5), (0, 0, 0))"),
    ((), "circ(1/2, 1, 3)", "2"),
    (H, "circ(1/2, e, (2, 2, 2))", "(1, 1, 0.5)"),
    ((), "let(g, (3, 1), d(g))", "2"),
    ((), "lim(eps -> 0, Delta(eps, (3, 0), (1, 0)))", "(2, 0)"),
    ((), "d((3, 1)) # 2", (1, 11, "unexpected character '#'")),
    ((), "delta((1, 0), (3, 0))",
     (1, 7, "expected a scale (a nonzero rational), got arrow")),
    ((), "delta(0, (3, 0))", (1, 7, "scale must be positive, got 0")),
    ((), "delta(-1/2, (3, 0))", (1, 7, "scale must be positive, got -1/2")),
    ((), "((1, 0), 2)",
     (1, 1, "tuples hold scalars (a point) or two points (an arrow)")),
    ((), "(1, 2, 3)", (1, 1, "a 3-tuple of scalars fits neither a point "
                             "(dim 1) nor a 1d arrow")),
    ((), "delta(1/2, (3, 0), (1, 0))",
     (1, 20, "delta takes at most 2 arguments")),
    ((), "d((3, 0), (1, 0), (2, 0))", (1, 19, "d takes at most 2 arguments")),
    ((), "delta(1/2)", (1, 10, "delta takes 2 arguments, got 1")),
    ((), "Delta(1/2, (3, 0), 1)",
     (1, 1, "Delta wants two arrows or two points, got arrow and scalar")),
    ((), "Sigma(1/2, 1, (3, 0))",
     (1, 1, "Sigma wants two arrows or two points, got scalar and arrow")),
    ((), "d((3, 0), 1)",
     (1, 1, "d wants two arrows or two points, got arrow and scalar")),
    ((), "d(1, (3, 0))",
     (1, 1, "d wants two arrows or two points, got scalar and arrow")),
    ((), "dilat(1/2, (1, 0), 2)",
     (1, 1, "dilat wants two arrows or two points, got arrow and scalar")),
    ((), "dilat(1/2, 2, (1, 0))",
     (1, 1, "dilat wants two arrows or two points, got scalar and arrow")),
    ((), "circ(1/2, (1, 0), (3, 0))",
     (1, 1, "circ wants two points, got arrow and arrow")),
    ((), "circ(1/2, 1, (3, 0))",
     (1, 1, "circ wants two points, got scalar and arrow")),
    (H, "delta(1/2, 5)", (1, 12, "expected a point, got scalar")),
    (H, "Delta(1/2, 5, (1, 0, 0))", (1, 12, "expected a point, got scalar")),
    (H, "d((1, 0))", (1, 3, "a 2-tuple of scalars fits neither a point "
                           "(dim 3) nor a 1d arrow")),
]


def _term_context(flags):
    return dsl.EvalContext(heisenberg_model() if flags else
                           euclidean_model(dim=1))


@pytest.mark.parametrize(
    "flags,term,want", TERM_CASES,
    ids=[("heisenberg: " if f else "") + t for f, t, _ in TERM_CASES])
def test_each_term_kind_gives_its_value_or_its_positioned_error(
        flags, term, want, capsys):
    """dsl.run and `ngd eval` agree on every term kind: the same rendered
    value at exit 0, or the same positioned TermError at exit 2."""
    code = run_cli("eval", term, *flags)
    out, err = capsys.readouterr()
    if isinstance(want, str):
        assert dsl.run(term, _term_context(flags))[1] == want
        assert (code, out.splitlines()[-1], err) == (0, want, "")
        return
    with pytest.raises(dsl.TermError) as exc:
        dsl.run(term, _term_context(flags))
    assert (exc.value.line, exc.value.col, exc.value.message) == want
    assert (code, out, err) == (2, "", "line {}, col {}: {}\n".format(*want))


@pytest.mark.parametrize("shape,message,rendered", [
    ((2,), "point has 2 coordinates, model has 3", "(0, 0)"),
    ((3, 3), "expected a point, got other", repr(np.zeros((3, 3)))),
])
def test_a_bound_value_that_is_no_point_is_a_term_error(shape, message,
                                                        rendered):
    """Only a value bound through EvalContext.env can be a point of
    another dimension, or have another shape than a scalar, a point or an
    arrow; it evaluates, and renders, as itself."""
    ctx = dsl.EvalContext(heisenberg_model(), env={"p": np.zeros(shape)})
    with pytest.raises(dsl.TermError) as exc:
        dsl.run("d(e, p)", ctx)
    assert (exc.value.line, exc.value.col, exc.value.message) == (
        1, 6, message)
    assert dsl.run("p", ctx)[1] == rendered


@pytest.mark.parametrize("term,rendered", [
    ("lim(eps -> 0, d(2, 5))", "3"),
    ("delta(lim(eps -> 0, d(2, 5)), (1, 0))", "(3, 0)"),
    ("(lim(eps -> 0, d(2, 5)), 1)", "(3, 1)"),
])
def test_a_scalar_limit_without_an_order_is_a_scalar(term, rendered,
                                                     capsys):
    """A constant trace has no fitted order, and its limit is the last
    value, a 0-d array: it renders, scales and fills a tuple as a number."""
    assert run_cli("eval", term) == 0
    assert capsys.readouterr().out.splitlines()[-1] == rendered


BIG = "1" + "0" * 400  # exact, but past the largest float


@pytest.mark.parametrize("term,col,message", [
    (f"({BIG}, 0)", 2, f"{BIG} is past the largest float"),
    (f"(1, {BIG}, 0)", 5, f"{BIG} is past the largest float"),
    (f"delta({BIG}, (1, 0))", 7, f"{BIG} is past the largest float"),
    (f"d({BIG})", 3, f"{BIG} is past the largest float"),
    # its inverse scale overflows inside the operation
    (f"Delta(1/{BIG}, (3, 0), (1, 0))", 1,
     f"Delta(1/{BIG}, (3, 0), (1, 0)) needs a number past the largest float"),
    (f"lim(eps -> 0, ({BIG}, 0))", 16, f"{BIG} is past the largest float"),
])
def test_a_number_past_the_floats_is_a_term_error(term, col, message,
                                                  capsys):
    assert run_cli("eval", term) == 2
    assert capsys.readouterr().err == f"line 1, col {col}: {message}\n"
    assert run_cli("eval", BIG) == 0  # alone it stays exact
    assert capsys.readouterr().out == BIG + "\n"


def test_an_infinite_distance_is_no_scale(capsys):
    big = f"d((1{BIG[:200]}, 0))"
    assert run_cli("eval", f"delta({big}, (1, 0))") == 2
    assert capsys.readouterr().err == (
        f"line 1, col 7: {big} is past the largest float\n")


@pytest.mark.parametrize("flags,kind", [
    (["--model", "heisenberg", "--base", "5"], "scalar"),
    (["--model", "euclidean", "--dim", "2", "--base", "3"], "scalar"),
    (["--model", "heisenberg", "--base", "((1, 1, 1), (0, 0, 0))"],
     "arrow"),
])
def test_cli_base_that_is_no_point_is_exit_two(flags, kind, capsys):
    assert run_cli("eval", "delta(1/2, e)", *flags) == 2
    assert capsys.readouterr().err == (
        f"--base: line 1, col 1: expected a point, got {kind}\n")


def test_cli_unreadable_file_is_exit_two(tmp_path, capsys):
    assert run_cli("validate", str(tmp_path / "missing.json")) == 2
    assert capsys.readouterr().err.startswith("cannot read ")


def test_cli_grid_too_deep_for_the_gauge_is_exit_two(capsys):
    """main returns 2, as for every refused input; it raises nothing."""
    assert run_cli("report", "--model", "heisenberg", "--eps-grid",
                   "300") == 2
    assert capsys.readouterr() == ("", "--eps-grid: the heisenberg gauge "
                                   "resolves grids up to KMAX = 255, got 300\n")


def test_cli_term_that_starts_with_a_minus_goes_after_dashes(capsys):
    """argparse reads a leading '-' as a flag; the message says where the
    term goes instead of only that it is missing."""
    assert run_cli("eval", "-(1,2,3)") == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: expr\n"
        "a term that starts with '-' goes after '--', as in: "
        "ngd eval -- \"-(1,2,3)\"\n")
    assert run_cli("eval", "--model", "heisenberg", "--", "-(1,2,3)") == 0
    assert capsys.readouterr().out == "(-1, -2, -3)\n"


def test_cli_tolerance_flag_decides_a_limit(capsys):
    """On the grid 2^-1 .. 2^-10, 1 + 2 eps ends 2e-3 from its limit."""
    argv = ["eval", "lim(eps -> 0, circ(eps, 1, 3))", "--eps-grid", "10"]
    assert run_cli(*argv) == 1
    assert run_cli(*argv, "--tol", "1e-2") == 0
    assert capsys.readouterr().out.endswith("\n1\n")


def test_cli_validate_metric_space(tmp_path, capsys):
    f = tmp_path / "space.json"
    f.write_text(json.dumps({
        "points": ["a", "b"],
        "dist": [["0", "3/2"], ["3/2", "0"]],
    }))
    assert run_cli("validate", str(f)) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_validate_checks_the_double_groupoid_against_G(tmp_path, capsys):
    space = random_metric_space(seed=3, max_points=5)
    f = tmp_path / "space.json"
    f.write_text(json.dumps(space.to_json()))
    assert run_cli("validate", str(f), "--json") == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    [got] = [r for r in reports if r["subject"] == "double groupoid norm"]
    assert got == check_double_norm(pair_groupoid(space)).to_json()


def test_cli_validate_rejects_bad_metric(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "points": [0, 1],
        "dist": [["0", "1"], ["2", "0"]],
    }))
    assert run_cli("validate", str(f)) == 1


def test_cli_validate_reads_what_to_json_writes(tmp_path, capsys):
    G = pair_groupoid(two_point_space())
    f = tmp_path / "groupoid.json"
    f.write_text(json.dumps(G.to_json()))
    assert run_cli("validate", str(f)) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_validate_retargeted_tables_are_exit_one(tmp_path):
    f = tmp_path / "retargeted.json"
    f.write_text(json.dumps(retargeted_compose_groupoid().to_json()))
    assert run_cli("validate", str(f)) == 1


def test_cli_validate_groupoid_without_inverse_is_exit_two(tmp_path):
    blob = pair_groupoid(two_point_space()).to_json()
    del blob["inverse"]
    f = tmp_path / "no_inverse.json"
    f.write_text(json.dumps(blob))
    assert run_cli("validate", str(f)) == 2


def test_cli_validate_unknown_shape_is_exit_two(tmp_path):
    f = tmp_path / "what.json"
    f.write_text('{"surprise": true}')
    assert run_cli("validate", str(f)) == 2


GROUPOID_E = {"arrows": ["e"], "compose": [["e", "e", "e"]],
              "inverse": [["e", "e"]]}


@pytest.mark.parametrize("blob,code", [
    (dict(GROUPOID_E, compose=[["e", "e"]]), 2),  # entry of the wrong length
    (dict(GROUPOID_E, compose=["eee"]), 2),      # a string is no triple
    (dict(GROUPOID_E, inverse=[["e"]]), 2),
    (dict(GROUPOID_E, norm=["0"]), 2),           # norm is label -> value
    ("compose", 2),                              # a top-level JSON string
    (["space"], 2),                              # a top-level JSON list
    (GROUPOID_E, 0),
    (dict(GROUPOID_E, compose=[["e", "e", "x"]]), 1),  # unknown label
    (dict(GROUPOID_E, arrows=["e", "f"]), 1),    # inverse misses an arrow
])
def test_cli_validate_malformed_shape_is_exit_two(tmp_path, capsys, blob,
                                                  code):
    f = tmp_path / "groupoid.json"
    f.write_text(json.dumps(blob))
    assert run_cli("validate", str(f)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert "malformed input" in err
    if code == 1:
        assert "invalid structure" in err


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_cli_validate_refuses_a_space_whose_arrow_labels_collide(
        tmp_path, capsys, flags):
    # the points a and a<-a give two arrows labelled a<-a<-a
    f = tmp_path / "space.json"
    f.write_text(json.dumps({"points": ["a", "a<-a", "b"],
                             "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
    assert run_cli("validate", str(f), *flags) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "invalid structure: duplicate arrow labels\n")


def test_cli_validate_keeps_the_report_when_inverse_pairs_fail(tmp_path,
                                                               capsys):
    # a is its own inverse but (a, a) is missing: alpha is undefined, so
    # the groupoid report is printed and the norm laws are not run
    f = tmp_path / "unpaired.json"
    f.write_text(json.dumps({
        "arrows": ["e", "f", "a"],
        "compose": [["e", "e", "e"], ["f", "f", "f"], ["a", "e", "a"],
                    ["f", "a", "a"]],
        "inverse": [["e", "e"], ["f", "f"], ["a", "a"]],
        "norm": {"e": "0", "f": "0", "a": "1"},
    }))
    assert run_cli("validate", str(f)) == 1
    out, err = capsys.readouterr()
    assert "[FAIL] (inv g, g) and (g, inv g) compose" in out
    assert "{'g': 'a'}" in out
    assert out.count("skipped: unit arrows undefined") == 4
    assert "d(g) = 0 iff g is a unit arrow" not in out
    assert err == ""
    assert run_cli("validate", str(f), "--json") == 1
    blob = json.loads(capsys.readouterr().out)
    assert [r["subject"] for r in blob["reports"]] == ["groupoid[3 arrows]"]


PLAN = {"space": {"points": [0, 1], "dist": [["0", "1"], ["1", "0"]]},
        "gamma": [["0", "0"], ["0", "1"]]}


@pytest.mark.parametrize("gamma,head", [
    (PLAN["gamma"], "d(gamma) = 0\ninvertible transport\n"),
    ([["1/4", "1/4"], ["1/4", "1/4"]],
     "d(gamma) = 1/2\nnot an invertible transport\n"),
])
def test_cli_validate_prints_a_plans_norm(tmp_path, capsys, gamma, head):
    f = tmp_path / "plan.json"
    f.write_text(json.dumps(dict(PLAN, gamma=gamma)))
    assert run_cli("validate", str(f)) == 0
    assert capsys.readouterr().out.startswith(
        head + "== transport plan: PASS\n")


@pytest.mark.parametrize("command", [("validate",),
                                     ("transport", "--action", "norm"),
                                     ("transport", "--action", "kantorovich")])
def test_cli_refuses_a_file_that_holds_no_json_object(tmp_path, capsys,
                                                       command):
    f = tmp_path / "list.json"
    f.write_text("[1]")
    assert run_cli(command[0], str(f), *command[1:]) == 2
    assert capsys.readouterr().err == (
        "malformed input: expected a JSON object, got list\n")


@pytest.mark.parametrize("blob,command,key", [
    ({"space": PLAN["space"]}, ("transport", "--action", "norm"), "gamma"),
    (PLAN["space"], ("transport", "--action", "norm"), "space"),
    ({"gamma": PLAN["gamma"]}, ("validate",), "space"),
    ({"space": PLAN["space"], "nu": ["1/2", "1/2"]},
     ("transport", "--action", "kantorovich"), "mu"),
    (PLAN, ("transport", "--action", "compose"), "gamma_prime"),
])
def test_cli_names_a_missing_key(tmp_path, capsys, blob, command, key):
    f = tmp_path / "short.json"
    f.write_text(json.dumps(blob))
    assert run_cli(command[0], str(f), *command[1:]) == 2
    assert capsys.readouterr().err == f"malformed input: missing key {key!r}\n"


@pytest.mark.parametrize("blob,where", [
    ({"points": ["a", "b"], "dist": [5, 5]}, "row 0 holds int"),
    # a string row of the right length once passed as a row of digits
    ({"points": ["a", "b"], "dist": [["0", "1"], "10"]}, "row 1 holds str"),
])
def test_cli_names_a_distance_row_that_is_not_an_array(tmp_path, capsys,
                                                       blob, where):
    f = tmp_path / "space.json"
    f.write_text(json.dumps(blob))
    assert run_cli("validate", str(f)) == 2
    assert capsys.readouterr().err == (
        f"malformed input: 'dist' {where}, not a JSON array\n")


@pytest.mark.parametrize("change", [{"mu": "01"}, {"mu": "12"},
                                    {"gamma": "ab"},
                                    {"gamma": ["01", "10"]}])
@pytest.mark.parametrize("command", [("validate",),
                                     ("transport", "--action", "norm")])
def test_cli_string_weights_are_exit_two(tmp_path, capsys, change, command):
    # a JSON string is not a list of weights, not even "01"
    f = tmp_path / "plan.json"
    f.write_text(json.dumps(dict(PLAN, **change)))
    assert run_cli(command[0], str(f), *command[1:]) == 2
    err = capsys.readouterr().err
    assert "malformed input" in err and "Traceback" not in err


@pytest.mark.parametrize("blob", [{"space": 5},
                                  {"space": 5, "gamma": [["1"]]}])
@pytest.mark.parametrize("command", [("validate",),
                                     ("transport", "--action", "norm")])
def test_cli_names_the_key_of_a_value_of_the_wrong_type(tmp_path, capsys,
                                                        blob, command):
    f = tmp_path / "wrong.json"
    f.write_text(json.dumps(blob))
    assert run_cli(command[0], str(f), *command[1:]) == 2
    assert capsys.readouterr().err == (
        "malformed input: 'space' holds int, not a JSON object\n")


@pytest.mark.parametrize("change", [{"mu": "01"}, {"mu": "12"},
                                    {"nu": "01"}])
def test_cli_kantorovich_string_weights_are_exit_two(tmp_path, capsys,
                                                     change):
    f = tmp_path / "measures.json"
    f.write_text(json.dumps({**PLAN, "mu": ["0", "1"], "nu": ["1", "0"],
                             **change}))
    assert run_cli("transport", str(f), "--action", "kantorovich") == 2
    err = capsys.readouterr().err
    assert "malformed input" in err and "Traceback" not in err


def test_string_weights_raise_type_error():
    X = two_point_space()
    with pytest.raises(TypeError):
        transport.Measure(X, "01")
    with pytest.raises(TypeError):
        transport.Coupling(X, "ab")
    with pytest.raises(TypeError):
        transport.Coupling(X, ["01", "10"])


def test_cli_transport_compose_mismatch_is_exit_one(tmp_path, capsys):
    f = tmp_path / "mismatch.json"
    f.write_text(json.dumps({
        "space": {"points": [0, 1], "dist": [["0", "1"], ["1", "0"]]},
        "gamma": [["1/2", "0"], ["0", "1/2"]],
        "gamma_prime": [["49/100", "0"], ["0", "51/100"]],
    }))
    assert run_cli("transport", str(f), "--action", "compose") == 1
    assert "index 0" in capsys.readouterr().err


def test_cli_transport_kantorovich(tmp_path, capsys):
    f = tmp_path / "measures.json"
    f.write_text(json.dumps({
        "space": {"points": [0, 1], "dist": [["0", "1"], ["1", "0"]]},
        "mu": ["1/2", "1/2"],
        "nu": ["1/4", "3/4"],
    }))
    assert run_cli("transport", str(f), "--action", "kantorovich",
                   "--json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["primal"] == "1/4" and blob["dual"] == "1/4"
    X = transport.two_point_space()
    res = transport.kantorovich(
        transport.Measure(X, (Fraction(1, 2), Fraction(1, 2))),
        transport.Measure(X, (Fraction(1, 4), Fraction(3, 4))),
    )
    assert blob["pivots"] == res.pivots
    assert blob["den_bits"] == res.den_bits == 3


@pytest.mark.parametrize("action", ["compose", "inverse", "norm",
                                    "kantorovich", "classify"])
def test_cli_transport_json_is_json(tmp_path, capsys, action):
    f = tmp_path / "plans.json"
    f.write_text(json.dumps({
        "space": {"points": [0, 1], "dist": [["0", "1"], ["1", "0"]]},
        "mu": ["1/2", "1/2"],
        "nu": ["1/4", "3/4"],
        "gamma": [["1/4", "1/4"], ["0", "1/2"]],
        "gamma_prime": [["1/4", "0"], ["0", "3/4"]],
    }))
    assert run_cli("transport", str(f), "--action", action) == 0
    text = capsys.readouterr().out
    assert run_cli("transport", str(f), "--action", action, "--json") == 0
    blob = json.loads(capsys.readouterr().out)
    if action == "norm":
        # the key and the value that `validate --json` gives a plan's norm
        assert blob == {"norm": text.strip()} == {"norm": "1/4"}
        assert run_cli("validate", str(f), "--json") == 0
        assert json.loads(capsys.readouterr().out)["norm"] == "1/4"


def test_cli_transport_kantorovich_one_point_space(tmp_path, capsys):
    f = tmp_path / "one.json"
    f.write_text(json.dumps({
        "space": {"points": ["a"], "dist": [["0"]]},
        "mu": ["1"],
        "nu": ["1"],
    }))
    assert run_cli("transport", str(f), "--action", "kantorovich",
                   "--json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"primal": "0", "dual": "0", "plan": [["1"]],
                    "potential": ["0"], "pivots": 0, "den_bits": 1}


def test_cli_report_planted_is_exit_one(capsys):
    assert run_cli("report", "--suite", "planted") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_report_planted_reads_samples(monkeypatch, capsys):
    seen = {}

    def planted(**kw):
        seen.update(kw)
        return []

    monkeypatch.setattr(fixtures, "run_planted_suite", planted)
    run_cli("report", "--suite", "planted", "--seed", "3", "--samples", "120")
    assert seen == {"seed": 3, "samples": 120}


@pytest.mark.parametrize("suite, code", [("all", 0), ("planted", 1)])
def test_no_reported_law_fails_more_instances_than_it_checks(suite, code,
                                                             capsys):
    assert run_cli("report", "--suite", suite, "--json") == code
    laws = [law for rep in json.loads(capsys.readouterr().out)["reports"]
            for law in rep["laws"]]
    assert laws and all(law["failures"] <= law["checked"] for law in laws)
    assert any(law["failures"] for law in laws) == (code == 1)


def test_cli_report_transport_green(capsys):
    assert run_cli("report", "--suite", "transport") == 0


@pytest.mark.parametrize("flag,value", [("--samples", "0"),
                                        ("--samples", "-3"),
                                        ("--eps-grid", "0"),
                                        ("--radius", "0"),
                                        ("--radius", "nan"),
                                        ("--dim", "0"),
                                        ("--dim", "-2"),
                                        ("--tol", "nan"),
                                        ("--tol", "-1"),
                                        ("--samples", "many"),
                                        ("--tol", "tiny")])
def test_cli_degenerate_flag_values_are_exit_two(flag, value, capsys):
    assert run_cli("limits", "--model", "euclidean", flag, value) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["limits", "--model", "euclidean", "--axiom", "cone", "--samples", "5",
     "--radius", "1e200"],
    ["limits", "--model", "euclidean", "--axiom", "cone", "--samples", "5",
     "--radius", "1e308"],
    ["report", "--suite", "irq", "--radius", "1e308"],
    ["limits", "--model", "heisenberg", "--axiom", "cone", "--samples", "5",
     "--radius", "1e77"],
])
def test_cli_radius_past_the_float_gauge_is_exit_two(argv):
    """A ball whose sampling box has no finite gauge is refused: before,
    rejection sampling drew forever or ended in an OverflowError."""
    proc = subprocess.run([sys.executable, "-m", "ngd.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"ngd {argv[0]}: error: argument --radius: the gauge overflows at "
        f"radius past 7.743e+76, got {argv[-1]}")


def test_cli_largest_radius_runs_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "ngd.cli", "limits", "--axiom", "cone",
         "--samples", "5", "--radius", repr(cli.RADIUS_MAX)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["eval", "(1, 0)"], ["limits"],
                                     ["report"]])
@pytest.mark.parametrize("kmax", ["1023", "1074", "1100"])
def test_cli_eps_grid_past_the_normal_floats_is_exit_two(command, kmax,
                                                         capsys):
    assert run_cli(*command, "--eps-grid", kmax) == 2
    err = capsys.readouterr().err
    assert (f"argument --eps-grid: 2^-KMAX is not a normal float past 1022, "
            f"got {kmax}") in err
    assert "Traceback" not in err


def test_cli_eps_grid_at_the_last_normal_float(capsys):
    """2^-1022 is the least normal float and 2^1022 is finite, so the
    grid's last scale and its inverse enter the kernels as floats.  The
    term language evaluates on that grid; the CLI refuses it, because no
    carrier's gauge resolves it."""
    assert cli.KMAX_MAX == 1022
    assert float(Fraction(1, 2**1022)) == sys.float_info.min
    assert math.isfinite(float(Fraction(2**1022)))
    term = "lim(eps -> 0, Sigma(eps, (3, 0), (1, 0)))"
    ctx = dsl.EvalContext(euclidean_model(), eps_grid=dyadic_grid(kmax=1022))
    assert all(est.passed for est in dsl.run(term, ctx)[2])
    assert run_cli("eval", term, "--eps-grid", "1022", "--json") == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["limits", "--samples", "5", "--eps-grid", "1022"],
    ["report", "--suite", "limits", "--samples", "5", "--eps-grid", "1022"],
    ["eval", "lim(eps -> 0, Delta(eps, (3, 1, 2), (1, 0, 5)))",
     "--model", "heisenberg", "--eps-grid", "1022"],
])
def test_cli_overflow_at_the_last_normal_float_is_judged_quietly(
        argv, monkeypatch, capsys):
    """At 2^-1022 the Heisenberg dilations overflow.  With the carriers'
    depth bound lifted to KMAX_MAX, the judge reports the non-finite
    residual with its witness and the exit code is 1; no RuntimeWarning
    of numpy's leaves the CLI."""
    for group in (models.EuclideanGroup, models.HeisenbergGroup):
        monkeypatch.setattr(group, "max_grid_depth", cli.KMAX_MAX)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert err == "" and "non-finite residual inf at eps=" in out


@pytest.mark.parametrize("model, deepest", [("heisenberg", 255),
                                            ("euclidean", 511)])
def test_cli_eps_grid_stops_at_the_deepest_grid_the_gauge_resolves(
        model, deepest, capsys):
    """A3 passes on the deepest grid a carrier declares.  One step deeper
    the gauge's powers of 2^-KMAX leave the normal floats, and eval,
    limits and report refuse the grid as malformed input."""
    assert run_cli("limits", "--axiom", "A3", "--model", model, "--samples",
                   "5", "--eps-grid", str(deepest)) == 0
    for command in (["eval", "1"], ["limits"], ["report"]):
        assert run_cli(*command, "--model", model, "--eps-grid",
                       str(deepest + 1)) == 2
    err = capsys.readouterr().err
    assert err.count(f"--eps-grid: the {model} gauge resolves grids up to "
                     f"KMAX = {deepest}, got {deepest + 1}\n") == 3


def test_cli_eps_grid_is_bounded_by_the_models_a_command_runs(capsys):
    """limits runs both carriers under --model all, and eval only the
    first, the Euclidean one."""
    assert run_cli("limits", "--eps-grid", "256") == 2
    assert "the heisenberg gauge" in capsys.readouterr().err
    assert run_cli("eval", "lim(eps -> 0, Sigma(eps, (3, 0), (1, 0)))",
                   "--eps-grid", "256") == 0


def test_cli_report_ends_quietly_on_a_closed_pipe():
    """The JSON report (74 KB) outgrows a pipe buffer, so its write meets
    the closed pipe: no traceback, and the exit code is still the
    verdict."""
    with subprocess.Popen(
            [sys.executable, "-m", "ngd.cli", "report", "--suite", "all",
             "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            bufsize=0) as proc:
        first = proc.stdout.readline()  # unbuffered: two bytes are read
        proc.stdout.close()
        err = proc.stderr.read()
    assert first == b"{\n" and err == b"" and proc.returncode == 0


# ---------------------------------------------------------------------------
# a zero denominator: exit 2 in a term, exit 1 in JSON, never a traceback


@pytest.mark.parametrize("argv,literal,where", [
    (["eval", "delta(1/0, (1, 0))"], "1/0", "line 1, col 7"),
    (["eval", "0/0"], "0/0", "line 1, col 1"),
    (["eval", "(1, 2/0)"], "2/0", "line 1, col 5"),
    (["eval", "1.5/2"], "1.5/2", "line 1, col 1"),
    (["eval", "circ(1/2, 1, 3)", "--base", "1/0"], "1/0",
     "--base: line 1, col 1"),
    (["eval", "lim(eps -> 1/0, eps)"], "1/0", "line 1, col 12"),
])
def test_cli_term_literal_that_is_no_rational_is_exit_two(argv, literal,
                                                          where, capsys):
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == f"{where}: not a rational number: {literal!r}\n"


MEASURES = {"space": PLAN["space"], "mu": ["1/2", "1/2"],
            "nu": ["1/4", "3/4"]}


@pytest.mark.parametrize("blob,command", [
    ({"points": [0, 1], "dist": [["0", "1/0"], ["1/0", "0"]]},
     ("validate",)),
    (dict(MEASURES, mu=["1/0", "1/2"]), ("transport", "--action",
                                         "kantorovich")),
    (dict(MEASURES, nu=["1/2", "1/0"]), ("transport", "--action",
                                         "kantorovich")),
    (dict(PLAN, gamma=[["0", "0"], ["0", "1/0"]]), ("validate",)),
    (dict(PLAN, gamma=[["0", "0"], ["0", "1/0"]]), ("transport", "--action",
                                                    "norm")),
    (dict(GROUPOID_E, norm={"e": "1/0"}), ("validate",)),
], ids=["dist", "mu", "nu", "gamma-validate", "gamma-norm", "norm"])
def test_cli_json_zero_denominator_is_exit_one(tmp_path, capsys, blob,
                                               command):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(blob))
    assert run_cli(command[0], str(f), *command[1:]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == "invalid structure: zero denominator in '1/0'\n"


# ---------------------------------------------------------------------------
# main() called again and again in one process


def test_cli_reuses_one_parser_without_leaking_state(capsys):
    """Each call answers as the first call of a fresh process does, though
    every call after the first parses with the same parser."""
    eval_term = ["eval", "delta(1/2, (3, 0))", "--model", "euclidean",
                 "--dim", "2"]
    sequence = [
        ["report", "--samples", "0"],
        ["report", "--suite", "transport", "--json"],
        ["report", "--suite", "transport"],
        eval_term + ["--base", "(1, 0)"],
        eval_term,
    ]
    for argv in sequence:
        fresh = subprocess.run([sys.executable, "-m", "ngd.cli", *argv],
                               capture_output=True, text=True, timeout=120)
        assert (run_cli(*argv), capsys.readouterr().out) == (
            fresh.returncode, fresh.stdout), argv
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# refusals deep in the library, each pinned through the command line

TWO = {"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}
# per case: the argv ("FILE" names a file holding the JSON input), the
# input, then the exit code, stdout and stderr
CLI_CASES = [
    (["validate", "FILE"], dict(TWO, points=["a", "a"]),
     1, "", "invalid structure: duplicate point labels\n"),
    (["validate", "FILE"], dict(TWO, dist=[["0", "1"]]),
     1, "", "invalid structure: distance matrix is not square\n"),
    (["validate", "FILE"], dict(TWO, dist=[["1", "1"], ["1", "0"]]),
     1, "", "invalid structure: dist[0][0] != 0\n"),
    (["validate", "FILE"], dict(TWO, dist=[["0", "0"], ["0", "0"]]),
     1, "", "invalid structure: dist[0][1] not positive\n"),
    (["transport", "FILE", "--action", "kantorovich"],
     {"space": TWO, "mu": ["1"], "nu": ["1/2", "1/2"]},
     1, "", "invalid structure: 1 weights for 2 points\n"),
    (["eval", "--model", "heisenberg",
      "Sigma(1/2, ((1,0,0),(0,0,0)), ((1,0,0),(1,1,1)))"], None,
     2, "", "line 1, col 1: arrows not composable (endpoint gap 1)\n"),
    (["eval", "--eps-grid", "1", "lim(eps -> 0, d((3,0)))"], None,
     1, "[FAIL] lim eps->0 of d((3, 0)) (no data)  -- empty grid\n3\n", ""),
]


@pytest.mark.parametrize("argv,blob,code,out,err", CLI_CASES,
                         ids=[f"{c[0][0]}: {(c[4] or c[3]).splitlines()[0]}"
                              for c in CLI_CASES])
def test_each_deep_refusal_keeps_its_exit_code_and_message(
        tmp_path, capsys, argv, blob, code, out, err):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(blob))
    argv = [str(f) if a == "FILE" else a for a in argv]
    assert (run_cli(*argv), *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("argv,code", [(["report", "--bogus"], 2),
                                       (["eval", "--help"], 0)])
def test_main_returns_the_code_argparse_exits_with(argv, code, capsys):
    assert run_cli(*argv) == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err).startswith("usage: ngd ")
