"""Tests for the command-line surface: exit codes, JSON shape, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from expandlab import cli
from expandlab.cli import main
from expandlab.fractal import load_points

from test_dimlab import serial_pool  # noqa: F401  (a fixture)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def test_classify_expanding(capsys):
    code, doc, err = run_json(
        capsys,
        "classify", "-f", "x^2 + x*y", "--vars", "x,y",
        "--box", "0.5,1.5,0.5,1.5", "--no-timestamp",
    )
    assert code == 0
    assert doc["report"]["classification"] == "expanding"
    assert "expanding" in err


def test_classify_special_form_trivariate(capsys):
    code, doc, _ = run_json(
        capsys,
        "classify", "-f", "x*y*z", "--vars", "x,y,z",
        "--box", "1,2,1,2,1,2", "--no-timestamp",
    )
    assert code == 0
    assert doc["report"]["classification"] == "special_form"


def test_classify_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "classify", "-f", "x+", "--vars", "x,y", "--box", "0,1,0,1")
    assert code == 2
    assert "offset 2" in err


def test_1500_nested_parentheses_are_classified(capsys):
    # the parser keeps its pending parentheses on an explicit stack, so
    # nesting depth is no limit
    text = "(" * 1500 + "x*y" + ")" * 1500
    code, doc, _ = run_json(capsys, "classify", "-f", text, "--vars", "x,y", "--no-timestamp")
    assert code == 0
    assert doc["report"]["classification"] == "special_form"


def test_recursion_error_exits_2(capsys, monkeypatch):
    # a handler that still runs out of stack ends in exit 2, not a traceback
    def deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    summary, _, table = cli._COMMANDS["classify"]
    monkeypatch.setitem(cli._COMMANDS, "classify", (summary, deep, table))
    code, out, err = run(capsys, "classify", "-f", "x*y", "--vars", "x,y")
    assert code == 2
    assert out == ""
    assert err == "error: expression nested too deeply or too large to process\n"


def test_sum_of_3000_terms_is_classified(capsys):
    # parsed into a 3,000-deep chain of additions; every walk over it is
    # iterative, so it is classified like any other function
    text = " + ".join(["x*y"] * 3000)
    code, doc, _ = run_json(capsys, "classify", "-f", text, "--vars", "x,y", "--no-timestamp")
    assert code == 0
    assert doc["report"]["classification"] == "special_form"
    assert doc["report"]["certificates"]["kappa"]["route"] == "modular"


def test_thresholds_trivariate(capsys):
    code, doc, _ = run_json(capsys, "thresholds", "--theorem", "trivariate-analytic", "--no-timestamp")
    assert code == 0
    rep = doc["report"]
    assert rep["measure_bound"] == {"num": 2, "den": 1}
    assert rep["expansion"] == "sum > 1 + u"


def test_thresholds_with_params(capsys):
    code, doc, _ = run_json(
        capsys,
        "thresholds", "--theorem", "two-point-rank",
        "--param", "d_X=2", "--param", "d_Y=2", "--param", "r=2", "--no-timestamp",
    )
    assert code == 0
    assert doc["report"]["measure_bound"] == {"num": 3, "den": 1}
    assert doc["report"]["interior_bound"] == {"num": 4, "den": 1}


def test_thresholds_rationals_never_floats(capsys):
    code, out, _ = run(capsys, "thresholds", "--theorem", "bivariate-analytic", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    for key in ("measure_bound", "interior_bound", "expansion_offset"):
        value = doc["report"][key]
        assert set(value) == {"num", "den"}, key
        assert isinstance(value["num"], int) and isinstance(value["den"], int)


def test_fold_degenerate_exit_3(capsys):
    code, doc, err = run_json(
        capsys,
        "fold", "-f", "x*y", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5",
        "--base", "1,1", "--no-timestamp",
    )
    assert code == 3
    assert doc["report"]["reason"] == "κ=0"


def test_fold_verified(capsys):
    code, doc, _ = run_json(
        capsys,
        "fold", "-f", "x^2 + x*y", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5",
        "--base", "1,1", "--no-timestamp",
    )
    assert code == 0
    assert doc["report"]["verdict"] == "fold_verified"


def test_recover_expanding_precondition_exit_3(capsys):
    code, out, err = run(
        capsys,
        "recover", "-f", "x^2 + x*y", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5",
    )
    assert code == 3
    assert "precondition" in err


def test_recover_undeterminable_zero_test_exit_3(capsys):
    # sqrt(x - 5) is undefined on the whole default box: no sample decides
    # the certificate, which classify reports as inconclusive too
    code, out, err = run(capsys, "recover", "-f", "sqrt(x-5)*y")
    assert code == 3
    assert "inconclusive" in err
    assert out == ""


def test_recover_and_verify_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "components"
    code, doc, _ = run_json(
        capsys,
        "recover", "-f", "(x + y^2)^3", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5",
        "--out-dir", str(out_dir), "--no-timestamp",
    )
    assert code == 0
    assert doc["report"]["verdict"] == "success"
    assert (out_dir / "g.csv").exists() and (out_dir / "meta.json").exists()

    code2, doc2, _ = run_json(
        capsys,
        "verify-recovery", "-f", "(x + y^2)^3", "--vars", "x,y",
        "--box", "0.5,1.5,0.5,1.5", "--components", str(out_dir), "--no-timestamp",
    )
    assert code2 == 0
    assert doc2["report"]["verdict"] == "success"
    assert doc2["report"]["residual"] < 1e-6


def test_gen_fractal_and_expand_from_file(capsys, tmp_path):
    path = tmp_path / "pts.bin"
    code, doc, _ = run_json(
        capsys, "gen-fractal", "--spec", "b4d01:8", str(path), "--no-timestamp"
    )
    assert code == 0
    assert doc["report"]["count"] == 256
    ps = load_points(path)
    assert len(ps) == 256

    code2, doc2, _ = run_json(
        capsys,
        "expand", "-f", "x + y", "--vars", "x,y", "--box", "0,1,0,1",
        "--inputs", f"file:{path}", "--ladder", "2^-4..2^-14",
        "--theorem", "bivariate-analytic", "--no-timestamp",
    )
    assert code2 == 0
    assert doc2["report"]["passed"] is True


def test_expand_with_generated_inputs(capsys):
    code, doc, _ = run_json(
        capsys,
        "expand", "-f", "x^2 + x*y", "--vars", "x,y", "--box", "0,1,0,1",
        "--inputs", "b4d01:8", "--ladder", "2^-4..2^-14",
        "--theorem", "bivariate-analytic", "--no-timestamp",
    )
    assert code == 0
    assert doc["report"]["bound"] == {"num": 1, "den": 3}
    assert doc["report"]["declared_dims"] == [0.5, 0.5]


def test_expand_starts_at_most_one_thread_per_core(capsys, serial_pool):
    argv = ["expand", "-f", "x^2 + x*y", "--vars", "x,y", "--box", "0,1,0,1", "--inputs", "b4d01:6",
            "--ladder", "2^-4..2^-12", "--theorem", "bivariate-analytic", "--no-timestamp"]
    code, doc, _ = run_json(capsys, *argv, "--threads", "100000")
    assert code == 0 and serial_pool == [2]  # one pass: x^2 + x*y rises in x on b4d01
    assert doc["config"]["options"]["threads"] == 100000  # the value asked for is echoed
    _, one, _ = run_json(capsys, *argv, "--threads", "1")
    assert doc["report"] == one["report"]


def test_expand_builds_and_estimates_each_distinct_input_once(capsys, monkeypatch):
    from expandlab import dimlab

    built, counted = [], []
    monkeypatch.setattr(cli, "_parse_set_spec", lambda spec, budget, parse=cli._parse_set_spec: (
        built.append(spec) or parse(spec, budget)))
    monkeypatch.setattr(dimlab, "box_counts", lambda data, deltas, count=dimlab.box_counts: (
        counted.append(type(data).__name__) or count(data, deltas)))
    argv = ["expand", "-f", "x*y + z", "--vars", "x,y,z", "--ladder", "2^-2..2^-10",
            "--theorem", "trivariate-analytic", "--no-timestamp"]
    code, one, _ = run_json(capsys, *argv, "--inputs", "b4d01:4")
    assert code == 0 and built == ["b4d01:4"] and counted == ["QuantizedSet", "PointSet1D"]
    # one estimate per variable in the report, as when each spec is named
    assert len(one["report"]["input_estimates"]) == 3
    built.clear()
    code, named, _ = run_json(capsys, *argv, "--inputs", "b4d01:4,b4d01:4,b4d01:4")
    assert code == 0 and built == ["b4d01:4"] and named["report"] == one["report"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_expand_rejects_a_thread_count_below_1(capsys, threads):
    code, doc, err = run_json(
        capsys, "expand", "-f", "x + y", "--vars", "x,y", "--inputs", "b4d01:4",
        "--ladder", "2^-2..2^-8", "--theorem", "bivariate-analytic", "--threads", threads,
    )
    assert (code, doc) == (2, None)
    assert f"thread count must be at least 1, got {threads}" in err


def test_surface_distance_command(capsys):
    code, doc, _ = run_json(
        capsys,
        "surface-distance", "--psi", "u;0", "--uvars", "u",
        "--x", "0,1", "--u", "0", "--no-timestamp",
    )
    assert code == 0
    assert doc["report"]["result"] == "nondegenerate"

    code2, doc2, _ = run_json(
        capsys,
        "surface-distance", "--psi", "u;0", "--uvars", "u",
        "--x", "1,0", "--u", "0", "--no-timestamp",
    )
    assert code2 == 0
    assert doc2["report"]["result"] == "tangent"


def test_same_config_same_seed_byte_identical(capsys):
    argv = [
        "classify", "-f", "x^2 + x*y", "--vars", "x,y",
        "--box", "0.5,1.5,0.5,1.5", "--seed", "5", "--no-timestamp",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "function": "x^2 + x*y",
                "vars": "x,y",
                "box": "0.5,1.5,0.5,1.5",
                "seed": 3,
            }
        )
    )
    # --function is required by argparse, so pass it; the config fills seed
    code, doc, _ = run_json(
        capsys,
        "classify", "-f", "x^2 + x*y", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5",
        "--config", str(config), "--no-timestamp",
    )
    assert code == 0
    assert doc["config"]["options"]["seed"] == 3

    # explicit flag wins over the config value
    code2, doc2, _ = run_json(
        capsys,
        "classify", "-f", "x^2 + x*y", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5",
        "--config", str(config), "--seed", "9", "--no-timestamp",
    )
    assert code2 == 0
    assert doc2["config"]["options"]["seed"] == 9


def test_unknown_theorem_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["thresholds", "--theorem", "nonsense"])
    assert exc.value.code == 2


def test_bad_set_spec_is_usage_error(capsys):
    code, out, err = run(
        capsys,
        "expand", "-f", "x + y", "--vars", "x,y", "--box", "0,1,0,1",
        "--inputs", "zzz", "--ladder", "2^-4..2^-10", "--theorem", "bivariate-analytic",
    )
    assert code == 2


def test_classify_with_thresholds_appended(capsys):
    code, doc, _ = run_json(
        capsys,
        "classify", "-f", "x^2 + x*y", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5",
        "--thresholds", "bivariate-analytic", "--no-timestamp",
    )
    assert code == 0
    assert doc["thresholds"]["measure_bound"] == {"num": 5, "den": 3}


def test_fold_shorthand_defaults(capsys):
    # --vars/--box omitted: variables inferred, box defaults to [0,1] each
    code, doc, _ = run_json(capsys, "fold", "-f", "x*y", "--base", "1,1", "--no-timestamp")
    assert code == 3
    assert doc["report"]["reason"] == "κ=0"


def test_verify_recovery_rejects_a_non_finite_component_value(capsys, tmp_path):
    out_dir = tmp_path / "components"
    code, _, _ = run_json(
        capsys,
        "recover", "-f", "(x + y^2)^3", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5",
        "--out-dir", str(out_dir), "--no-timestamp",
    )
    assert code == 0
    lines = (out_dir / "h.csv").read_text().splitlines()
    grid_value, _ = lines[5].split(",")
    lines[5] = f"{grid_value},nan"
    (out_dir / "h.csv").write_text("\n".join(lines) + "\n")

    code2, out, _ = run(
        capsys,
        "verify-recovery", "-f", "(x + y^2)^3", "--vars", "x,y",
        "--box", "0.5,1.5,0.5,1.5", "--components", str(out_dir), "--no-timestamp",
    )
    assert code2 == 2
    assert out == ""


def test_recover_residual_is_relative_to_the_function_size(capsys, tmp_path):
    # values reach 1e12 on this box; the absolute rounding error (~4e-4)
    # used to fail the 1e-6 tolerance
    out_dir = tmp_path / "components"
    argv = ["-f", "(x^3+y)^2", "--box", "1,100,1,100", "--no-timestamp"]
    code, doc, _ = run_json(capsys, "recover", *argv, "--out-dir", str(out_dir))
    assert code == 0
    assert doc["report"]["verdict"] == "success"
    assert doc["report"]["residual"] < 1e-12

    code2, doc2, _ = run_json(capsys, "verify-recovery", *argv, "--components", str(out_dir))
    assert code2 == 0
    assert doc2["report"]["verdict"] == "success"
    assert doc2["report"]["residual"] == doc["report"]["residual"]


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "-f", "exp(x+y)", "--box", "0,1,0,1", "--residual-tol", "nan"],
        ["recover", "-f", "exp(x+y)", "--box", "0,1,0,1", "--residual-tol", "inf"],
        ["classify", "-f", "x*y", "--rel-tol", "-inf"],
        ["fold", "-f", "x*y", "--base", "1,1", "--theta", "nan"],
        ["classify", "-f", "x*y", "--box", "0,nan,0,1"],
        ["fold", "-f", "x*y", "--base", "1,inf"],
    ],
)
def test_non_finite_option_value_exits_2(capsys, argv):
    try:
        code = main(argv + ["--no-timestamp"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


_EXPAND_B4 = ["expand", "-f", "x+y", "--vars", "x,y", "--inputs", "b4d01:6", "--theorem", "bivariate-analytic",
              "--ladder"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "-f", "x*y*1e200*1e200", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5"],
         "error: constant 1e+400 has no float value"),
        (["recover", "-f", "x + 1/(1e308*y)^2", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5"],
         "error: constant -2e+616 has no float value"),
        (["expand", "-f", "1e308*x", "--vars", "x,y", "--inputs", "m2r1/3:4", "--ladder", "2^-2..2^-6",
          "--theorem", "bivariate-analytic"], "exceeds the cell budget"),
        ([*_EXPAND_B4, "2^-2..2^-5", "--delta-min", "0"], "delta_min must be positive, got 0.0"),
        ([*_EXPAND_B4, "2^-2..2^-5", "--delta-min", "0", "--value-range", "0,2"],
         "delta_min must be positive, got 0.0"),
        ([*_EXPAND_B4, "2^-2..2^-5", "--delta-min", "-1"], "delta_min must be positive, got -1.0"),
        ([*_EXPAND_B4, "1/4,1/8,0,1/16,1/32"], "ladder rung must be positive as a float, got 0.0"),
        ([*_EXPAND_B4, "2^-1070..2^-1075"], "ladder rung must be positive as a float, got 0.0"),
        (["thresholds", "--theorem", "k-point", "--param", "alpha=1/0", "--param", "m=0"],
         "zero denominator in '1/0'"),
        ([*_EXPAND_B4, "1/4,1/8,1/16,1/32,1/64,1/128,1/0"], "zero denominator in '1/0'"),
        ([*_EXPAND_B4, "0^-2..0^-5"], "a ladder base must be at least 2, got 0"),
        (["gen-fractal", "--spec", "m2r1/0:5", "out.bin"], "zero denominator in '1/0'"),
        (["classify", "-f", "x*y", "--seed", "-3"], "the seed must be a non-negative integer, got -3"),
        (["thresholds", "--theorem", "k-point", "--param", "alpha=1", "--param", "m=0", "--seed", "-3"],
         "the seed must be a non-negative integer, got -3"),
        (["fold", "-f", "x*y", "--box", "-1,1,0.5,1.5", "--base", "0,1", "--seed", "-1"],
         "the seed must be a non-negative integer, got -1"),
        (["classify", "-f", "x*y + (sqrt(x^2) - x)*y^2", "--vars", "x,y", "--rel-tol", "-1"],
         "--rel-tol must be at least 0, got -1.0"),
        ([*_EXPAND_B4, "2^-2..2^-5", "--value-range", "1,0"],
         "a declared value range needs lo < hi, got [1.0, 0.0]"),
        ([*_EXPAND_B4, "2^-2..2^-5", "--value-range", "1,1"],
         "a declared value range needs lo < hi, got [1.0, 1.0]"),
        (["recover", "-f", "(x + y^2)^3", "--grid-n", "0"], "--grid-n must be at least 4, got 0"),
        (["recover", "-f", "(x + y^2)^3", "--grid-n", "-5"], "--grid-n must be at least 4, got -5"),
        (["verify-recovery", "-f", "(x + y^2)^3", "--components", "comps", "--verify-n", "0"],
         "--verify-n must be at least 1, got 0"),
        (["fold", "-f", "x*y", "--base", "0,0", "--box", "-1e308,1e308,-1,1"],
         "interval [-1e+308, 1e+308] is wider than the float range"),
        # a negative tolerance would flip the answer
        (["recover", "-f", "(x + y^2)^3", "--residual-tol=-1"], "--residual-tol must be at least 0, got -1.0"),
        (["verify-recovery", "-f", "(x + y^2)^3", "--components", "comps", "--residual-tol=-1"],
         "--residual-tol must be at least 0, got -1.0"),
        (["surface-distance", "--psi", "u;u^2", "--uvars", "u", "--x", "1,0.5", "--u", "0.5", "--tol=-1"],
         "--tol must be at least 0, got -1.0"),
        # parameters that do not name the surface's variables
        (["surface-distance", "--psi", "u;u^2", "--uvars", "v", "--x", "1,0.5", "--u", "0.5"],
         "the surface uses u but its parameters are ['v']"),
        (["surface-distance", "--psi", "u;u^2", "--uvars=", "--x", "1,0.5", "--u", "0.5"],
         "the surface uses u but its parameters are ['']"),
        # an integer exponent past the float range, refused as a constant is;
        # either is named by its magnitude, not its 310 digits
        (["expand", "-f", f"x^{10**309} + y", "--vars", "x,y", "--inputs", "b4d01:5", "--ladder", "2^-2..2^-10",
          "--theorem", "bivariate-analytic"], "error: exponent 1e+309 has no float value"),
        (["classify", "-f", f"{10**309}*x*y"], "error: constant 1e+309 has no float value"),
        # the zero test of f_x once called it zero (a median of inf), which
        # made sin(x) + x*y times a constant a special form; kappa's
        # constant has no float
        (["classify", "-f", "6e307*(sin(x) + x*y)", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5"],
         "error: constant 3.6e+615 has no float value"),
    ],
    ids=[
        "classify-constant", "recover-constant", "expand-value-range",
        "delta-min-0", "delta-min-0-declared-range", "delta-min-negative", "ladder-rung-0",
        "ladder-rung-underflows", "param-zero-denominator", "ladder-zero-denominator",
        "ladder-base-0", "spec-zero-denominator", "seed-negative", "thresholds-seed-negative",
        "fold-seed-negative", "rel-tol-negative", "value-range-reversed", "value-range-empty", "grid-n-0",
        "grid-n-negative", "verify-n-0", "box-wider-than-floats", "recover-residual-tol-negative",
        "verify-recovery-residual-tol-negative", "surface-distance-tol-negative", "uvars-not-the-surfaces",
        "uvars-empty", "exponent-past-the-float-range", "integer-constant-past-the-float-range",
        "classify-multiple-past-half-the-float-range",
    ],
)
def test_values_past_the_float_range_exit_2(capsys, argv, message):
    # an exact constant of 10^400 has no float, 1e308*x spans more cells
    # than a float counts, a cell or rung of 0 (or one that rounds to 0)
    # divides by 0, and so does a fraction over 0: usage errors, not
    # tracebacks
    code, out, err = run(capsys, *argv, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    if "has no float value" in message:
        assert err == message + "\n" and len(err) < 80


def test_a_command_records_no_floating_point_warning(capsys):
    # numpy warns once per process, so a command's stderr would depend on
    # what ran before it; each command runs under one policy that records
    # none (pytest's own capture keeps such warnings out of capsys)
    argv = ["recover", "-f", "exp(300*x + y)", "--vars", "x,y", "--box", "1e-300,1e-299,0,1", "--no-timestamp"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_non_finite_config_value_exits_2(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text('{"schema_version": 1, "rel_tol": NaN}')
    code, out, _ = run(capsys, "classify", "-f", "x*y", "--config", str(config), "--no-timestamp")
    assert code == 2
    assert out == ""


def test_emit_never_writes_nan_or_infinity(capsys, tmp_path):
    import argparse

    from expandlab.cli import _emit

    document = {
        "a": float("nan"),
        "b": [float("inf"), -float("inf"), 1.5],
        "c": np.array([np.nan, 2.0]),
        "d": np.float64(np.inf),
        "e": {"f": (np.float32(np.nan), 0.25)},
    }
    _emit(document, argparse.Namespace(no_timestamp=True))
    text = capsys.readouterr().out
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text) == {
        "a": None,
        "b": [None, None, 1.5],
        "c": [None, 2.0],
        "d": None,
        "e": {"f": [None, 0.25]},
    }


def test_classify_reports_the_zero_test_route_deterministically(capsys):
    argv = ["classify", "-f", "(x + y^2)^3", "--vars", "x,y",
            "--box", "0.5,1.5,0.5,1.5", "--no-timestamp"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    certs = json.loads(out1)["report"]["certificates"]
    assert {name: c["route"] for name, c in certs.items()} == {
        "f_x": "modular", "f_y": "modular", "f_xy": "modular", "kappa": "modular",
    }
    assert certs["kappa"]["status"] == "identically_zero" and certs["kappa"]["symbolic"]
    code, doc, _ = run_json(capsys, "classify", "-f", "sin(x) + x*y", "--vars", "x,y",
                            "--box", "0.5,1.5,0.5,1.5", "--no-timestamp")
    assert doc["report"]["certificates"]["kappa"]["route"] == "sampled"


@pytest.mark.parametrize(
    "argv, key, answer",
    [
        (["classify", "-f", "(x + y^2)^3"], "classification", "special_form"),
        (["classify", "-f", "sin(x) + x*y"], "classification", "expanding"),
        (["recover", "-f", "(x + y^2)^3"], "verdict", "success"),
        (["recover", "-f", "exp(x + y^2)"], "verdict", "success"),
        (["fold", "-f", "x^2 + x*y", "--base", "1,1"], "verdict", "fold_verified"),
        (["fold", "-f", "sin(x) + x*y", "--base", "1,1"], "verdict", "fold_verified"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_no_command_simplifies(capsys, monkeypatch, argv, key, answer):
    # the zero test decides every certificate, rational or not, without a
    # normal form
    import expandlab.degeneracy
    import expandlab.expr

    def fail(e):
        raise AssertionError(f"simplify({e!r}) called")

    monkeypatch.setattr(expandlab.expr, "simplify", fail)
    monkeypatch.setattr(expandlab.degeneracy, "simplify", fail)
    code, doc, _ = run_json(capsys, *argv, "--box", "0.5,1.5,0.5,1.5", "--no-timestamp")
    assert code == 0
    assert doc["report"][key] == answer


def test_cli_does_not_import_numpy_ma():
    # np.median imports numpy.ma lazily, which every CLI process would pay;
    # classify and both recoveries take medians
    commands = [
        ["classify", "-f", "x*y"],
        ["recover", "-f", "(x + y^2)^3", "--box", "0.5,1.5,0.5,1.5"],
        ["recover", "-f", "(x + y + z^3)^3", "--box", "0.5,1.5,0.5,1.5,0.5,1.5"],
    ]
    code = (
        "import os, sys\n"
        "from expandlab.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv + ['--no-timestamp', '--out', os.devnull]) == 0\n"
        "    print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * len(commands)


def test_cli_does_not_import_numpy_random():
    # the seeded draws are computed in-package (expandlab.sampling); the
    # import of numpy's random package cost every sampling command 8-17 ms
    box = ["--box", "0.5,1.5,0.5,1.5"]
    commands = [
        ["classify", "-f", "sin(x) + x*y", *box],
        ["recover", "-f", "(x + y^2)^3", *box],
        ["fold", "-f", "x^2 + x*y", "--base", "1,1", *box],
        ["expand", "-f", "x^2 + x*y", "--vars", "x,y", "--inputs", "b4d01:6", "--ladder", "2^-2..2^-9",
         "--theorem", "bivariate-analytic", "--classify-first", *box],
    ]
    code = (
        "import os, sys\n"
        "from expandlab.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv + ['--no-timestamp', '--out', os.devnull]) == 0, argv\n"
        "    print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * len(commands)


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["classify", "-f", "x*y"], "--box", "-1,1,0,1"),
        (["classify", "-f", "x*y"], "--box", "-.5,.5,-2,-1"),
        (["recover", "-f", "(x^2 + y)^3", "--box", "-1.5,-0.5,0.5,1.5"], "--base", "-1,1"),
        (["fold", "-f", "x^2 + x*y", "--box=-2,0,-2,0"], "--base", "-1,-1"),
        (["expand", "-f", "x+y", "--vars", "x,y", "--inputs", "b4d01:6", "--ladder", "2^-2..2^-9",
          "--theorem", "bivariate-analytic"], "--value-range", "-1,3"),
        (["expand", "-f", "x+y", "--vars", "x,y", "--inputs", "b4d01:6", "--theorem", "bivariate-analytic"],
         "--ladder", "-2^-2..-2^-9"),
        (["surface-distance", "--psi", "u;u^2", "--uvars", "u", "--u", "0.5"], "--x", "-1,0.5"),
        (["surface-distance", "--psi", "u;u^2", "--uvars", "u", "--x", "1,0.5"], "--u", "-0.5"),
        (["classify", "--vars", "x,y"], "-f", "-x*y"),
        (["classify", "--vars", "x,y"], "-f", "-x"),
        (["recover", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5"], "--function", "-exp(x + y^2)"),
    ],
    ids=["box", "box-decimals", "recover-base", "fold-base", "value-range", "ladder", "surface-x", "surface-u",
         "function", "function-variable", "function-call"],
)
def test_a_value_led_by_a_negative_number_is_a_value(capsys, argv, flag, value):
    # argparse takes "-1,1,0,1" or "-x*y" for a flag; the CLI reads it as the
    # value, the same as with "="
    spaced = run(capsys, *argv, flag, value, "--no-timestamp")
    joined = run(capsys, *argv, f"{flag}={value}", "--no-timestamp")
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize("value", ["1.5", "true", '"many"'])
def test_config_value_of_the_wrong_type_exits_2(capsys, tmp_path, value):
    config = tmp_path / "run.json"
    config.write_text('{"schema_version": 1, "samples": %s}' % value)
    code, out, err = run(capsys, "classify", "-f", "x*y", "--config", str(config), "--no-timestamp")
    assert code == 2
    assert out == ""
    assert err.startswith("error: config key 'samples'") and err.count("\n") == 1


def test_config_value_goes_through_the_option_type(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text('{"schema_version": 1, "samples": 32, "rel_tol": 1e-6}')
    code, doc, _ = run_json(capsys, "classify", "-f", "x*y", "--config", str(config), "--no-timestamp")
    assert code == 0
    assert doc["config"]["options"]["samples"] == 32
    assert doc["config"]["options"]["rel_tol"] == 1e-6
    config.write_text('{"schema_version": 1, "thresholds": "no-such-theorem"}')
    code, out, err = run(capsys, "classify", "-f", "x*y", "--config", str(config), "--no-timestamp")
    assert code == 2 and out == "" and err.count("\n") == 1


# a valid command line per command, without --config
_MINIMAL_ARGV = {
    "classify": ["-f", "x*y"],
    "thresholds": ["--theorem", "bivariate-analytic"],
    "recover": ["-f", "x*y"],
    "fold": ["-f", "x*y", "--base", "0.5,0.5"],
    "expand": ["-f", "x*y", "--inputs", "b4d01:4", "--ladder", "2^-2..2^-4", "--theorem", "bivariate-analytic"],
    "surface-distance": ["--psi", "u;0", "--uvars", "u", "--x", "0,1", "--u", "0"],
    "verify-recovery": ["-f", "x*y", "--components", "comps"],
    "gen-fractal": ["--spec", "b4d01:4", "pts.bin"],
}


def _command_options(name):
    parser = cli._build_parsers()[0]
    command = parser._subparsers._group_actions[0].choices[name]
    return [a for a in command._actions if a.option_strings and a.dest != "help"]


def test_every_command_has_a_minimal_argv():
    assert set(_MINIMAL_ARGV) == set(cli._COMMANDS)


@pytest.mark.parametrize("name", sorted(_MINIMAL_ARGV))
def test_config_value_the_flag_refuses_exits_2(capsys, tmp_path, name):
    config = tmp_path / "run.json"
    argv = [name, *_MINIMAL_ARGV[name], "--config", str(config), "--no-timestamp"]
    checked = 0
    for action in _command_options(name):
        if action.type is None and action.choices is None:
            continue
        bad = "no-such-choice" if action.choices is not None else "many"
        # the flag refuses the value ...
        with pytest.raises(SystemExit) as exc:
            main([name, *_MINIMAL_ARGV[name], action.option_strings[-1], bad])
        assert exc.value.code == 2
        capsys.readouterr()
        # ... and so does the config, under the dest and the dashed key
        for key in dict.fromkeys([action.dest, action.dest.replace("_", "-")]):
            config.write_text(json.dumps({"schema_version": 1, key: bad}))
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith(f"error: config key {key!r}") and err.count("\n") == 1
            checked += 1
    assert checked >= 4  # --seed, --samples, --rel-tol (both keys) at least


@pytest.mark.parametrize("name", sorted(_MINIMAL_ARGV))
@pytest.mark.parametrize("key", ["bogus", "help"])
def test_config_key_without_an_option_exits_2(capsys, tmp_path, name, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"schema_version": 1, key: 1}))
    code, out, err = run(capsys, name, *_MINIMAL_ARGV[name], "--config", str(config), "--no-timestamp")
    assert code == 2 and out == ""
    assert err == f"error: config key {key!r} does not match any option\n"


@pytest.mark.parametrize("name", sorted(_MINIMAL_ARGV))
def test_a_negative_seed_exits_2_before_the_command_runs(capsys, tmp_path, name):
    message = "the seed must be a non-negative integer, got -1"
    code, out, err = run(capsys, name, *_MINIMAL_ARGV[name], "--seed", "-1", "--no-timestamp")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    config = tmp_path / "run.json"
    config.write_text('{"schema_version": 1, "seed": -1}')
    code, out, err = run(capsys, name, *_MINIMAL_ARGV[name], "--config", str(config), "--no-timestamp")
    assert (code, out, err) == (2, "", f"error: config key 'seed': {message}\n")


def test_a_short_flag_still_takes_its_value_attached(capsys):
    attached = run(capsys, "classify", "-fx*y", "--no-timestamp")
    assert attached == run(capsys, "classify", "-f", "x*y", "--no-timestamp")
    assert attached[0] == 0


def test_config_cannot_supply_a_required_option(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text('{"schema_version": 1, "function": "x*y"}')
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--config", str(config), "--no-timestamp"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: expandlab classify")
    assert captured.err.endswith("error: the following arguments are required: -f/--function\n")


@pytest.mark.parametrize("document", ["[1, 2]", '"s"', "null", "3"])
def test_config_that_is_not_a_json_object_exits_2(capsys, tmp_path, document):
    config = tmp_path / "run.json"
    config.write_text(document)
    code, out, err = run(capsys, "thresholds", "--theorem", "bivariate-analytic", "--config", str(config))
    assert code == 2 and out == ""
    assert err == "error: config file must hold a JSON object\n"


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["classify", "-f", "x*y"], "vars", ["x", "y"]),
        (["classify", "-f", "x*y"], "box", [0, 1, 0, 1]),
        (["classify", "-f", "x*y"], "out", None),
        (["classify", "-f", "x*y"], "no_timestamp", "no"),
        (["classify", "-f", "x*y"], "no-timestamp", 1),
        (["thresholds", "--theorem", "phong-stein"], "param", 3),
        (["thresholds", "--theorem", "phong-stein"], "param", [3]),
        (["thresholds", "--theorem", "phong-stein"], "param", {"d": 3}),
        (["thresholds", "--theorem", "phong-stein"], "param", ["d=3", None]),
    ],
)
def test_config_value_of_the_wrong_json_type_exits_2(capsys, tmp_path, argv, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"schema_version": 1, key: value}))
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert code == 2 and out == ""
    assert err.startswith(f"error: config key {key!r}: expected ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["d=3", ["d=3"]])
def test_config_param_is_a_list_or_one_string(capsys, tmp_path, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"schema_version": 1, "param": value, "no_timestamp": True}))
    code, doc, _ = run_json(capsys, "thresholds", "--theorem", "phong-stein", "--config", str(config))
    assert code == 0
    code, flagged, _ = run_json(capsys, "thresholds", "--theorem", "phong-stein", "--param", "d=3", "--no-timestamp")
    assert code == 0
    assert doc["report"] == flagged["report"]
    assert doc["config"]["options"]["param"] == ["d=3"]
