"""The term language and the `ngd` command line: positions in errors,
round-trip printing, frozen evaluation values, and process exit codes."""

import json
from fractions import Fraction

import numpy as np
import pytest

from ngd import cli, dsl, transport
from ngd.constructions import (
    check_double_norm,
    pair_groupoid,
    random_metric_space,
)
from ngd.fixtures import parse_error_samples, retargeted_compose_groupoid
from ngd.models import euclidean_model, heisenberg_model
from ngd.scales import dyadic_grid
from ngd.transport import two_point_space


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


def test_cli_parse_error_is_exit_two(capsys):
    for src, line, col in parse_error_samples():
        assert run_cli("eval", src) == 2
        err = capsys.readouterr().err
        assert f"line {line}, col {col}" in err, src


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
                                        ("--tol", "-1")])
def test_cli_degenerate_flag_values_are_exit_two(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("limits", "--model", "euclidean", flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err
