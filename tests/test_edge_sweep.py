"""A seeded sweep of edge option values over expand, thresholds and
gen-fractal, one over the sampling commands classify, recover and fold,
and one over surface-distance and verify-recovery: every command ends in
a documented exit code (0, 2, 3 or 4, never 1 with a traceback), a
command that writes a document writes strict JSON, and a command run
again writes the same bytes.

Each option is drawn from a fixed pool that mixes valid values with edge
values: 0, negative numbers, a zero denominator (1/0), 2^-1075 (a positive
rational whose float is 0.0), 1e-300, reversed or equal ranges and a budget
of 0.  Three in four draws of each option are valid, so most commands reach
the code past the argument parser (Claessen & Hughes 2000, QuickCheck)."""

import json
import random

from expandlab.cli import main

COMMANDS = 200
EDGE = ["0", "-1", "1/0", "2^-1075", "1e-300"]

# expand's commands land on both sides of its proof that rows rise:
# x/(y+1) falls along y, sin(x) + x*y and x*y + 3*y rise on inputs >= 0
FUNCTIONS = ["x+y", "x*y", "x^2 + x*y", "x - y", "0*x + y", "y", "x/(y+1)", "sin(x) + x*y", "x*y + 3*y"]
EDGE_FUNCTIONS = ["x/y", "1e308*x", "1e-300*x + 1e-300*y"]
INPUTS = ["b4d01:5", "m2r1/3:4", "b4d01:0", "b4d01:-1", "b4d01:40", "m2r1/0:3", "m2r0:3",
          "m0r1/3:3", "m2r1e-300:3", "m2r-1/3:3", "b1d0:3", "m2r1/3:4,b4d01:5"]
# the valid ladders have the 8 or more rungs a fit window needs
LADDERS = ["2^-2..2^-10", "2^-10..2^-2", "3^-1..3^-8", "1/4,1/8,1/16,1/32,1/64,1/128,1/256,1/512",
           "2^-3..2^-3", "2^-1070..2^-1075", "0^-2..0^-5", "-2^-2..-2^-10", "1/4,1/8,0,1/16,1/32",
           "1/4,1/8,1/16,1/32,1/0", "1/4,-1/8,1/16,1/32,1/64", "1e-300,1e-301,1e-302,1e-303",
           "0.25,0.125,0.0625,0.03125"]
RANGES = ["0,2", "2,0", "1,1", "0,1e-300", "-1e300,1e300", "0,1/0", "-1,-1"]
THEOREMS = {
    "bivariate-analytic": (),
    "trivariate-analytic": (),
    "k-point": ("alpha", "m"),
    "two-point": ("d_X", "d_Y", "m"),
    "two-point-rank": ("d_X", "d_Y", "r"),
    "phong-stein": ("d",),
    "distance-surface": ("d",),
    "general": ("alpha", "beta", "p", "k"),
}
PARAM_VALUES = ["1", "2", "3/2", "5", *EDGE]
SPECS = ["b4d01:5", "m2r1/3:6", "b3d02:4", *INPUTS[2:11], "x:3", "b4d01", "m2r1/3:1/0"]

SAMPLING_COMMANDS = 50
SEEDS = ["0", "-1", str(1 << 32), str(1 << 64), str(1 << 200)]  # each in turn
SAMPLED_FUNCTIONS = ["x^2 + x*y", "sin(x) + x*y", "(x + y^2)^3", "exp(x + y^2)", "x*y", "x/y",
                     "log(x) + y", "0*x + y"]
# passed as a separate token, so the boxes led by a negative number test
# that such a value is read as a value
BOXES = ["0.5,1.5,0.5,1.5", "-1,1,0.5,1.5", "-1.5,-0.5,-1.5,-0.5", "-.5,.5,-.5,.5", "-1e308,1e308,0,1",
         "1,0,0,1", "-1,1", "-1,-1,0,1"]


def _maybe(rng, valid, edges):
    """A valid value three times in four, else an edge value."""
    return rng.choice(valid) if rng.random() < 0.75 else rng.choice(edges)


def _params(rng, names) -> list[str]:
    argv = []
    for name in names:
        if rng.random() < 0.9:  # now and then a parameter is missing
            argv += ["--param", f"{name}={_maybe(rng, ['1', '2', '3/2'], PARAM_VALUES)}"]
    return argv


def _expand(rng) -> list[str]:
    f = _maybe(rng, FUNCTIONS, EDGE_FUNCTIONS)
    # --flag=value, so that a value such as -1,1 is not read as a flag
    argv = ["expand", "-f", f, "--vars", "x,y", f"--inputs={_maybe(rng, INPUTS[:2], INPUTS)}",
            f"--ladder={_maybe(rng, LADDERS[:4], LADDERS)}"]
    theorem = rng.choice(["bivariate-analytic", "k-point"])
    argv += ["--theorem", theorem, *_params(rng, THEOREMS[theorem])]
    for flag, valid, edges in (
        ("--delta-min", ["0.0009765625", "0.00048828125"], EDGE),
        ("--value-range", ["0,2", "-1,1"], RANGES),
        ("--threads", ["1", "2"], ["0", "-1"]),
        ("--budget", ["100000"], ["0", "-1", "1"]),
        ("--slack", ["0.05"], ["0", "-1", "1e-300"]),
    ):
        if rng.random() < 0.4:
            argv.append(f"{flag}={_maybe(rng, valid, edges)}")
    return argv


def _thresholds(rng) -> list[str]:
    theorem = rng.choice(list(THEOREMS))
    return ["thresholds", "--theorem", theorem, *_params(rng, THEOREMS[theorem])]


def _gen_fractal(rng, out: str) -> list[str]:
    argv = ["gen-fractal", "--spec", _maybe(rng, SPECS[:3], SPECS), out]
    if rng.random() < 0.4:
        argv.append(f"--budget={_maybe(rng, ['100000'], ['0', '-1', '1'])}")
    return argv


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


def _sampling(rng, seed: str) -> list[str]:
    command = rng.choice(["classify", "recover", "fold"])
    box = _maybe(rng, BOXES[:4], BOXES)
    argv = [command, "-f", rng.choice(SAMPLED_FUNCTIONS), "--vars", "x,y", "--box", box, "--seed", seed]
    if command == "recover":
        argv += ["--grid-n", "33"]
    if command == "fold":  # the box's center when it has one, else the origin
        ends = box.split(",")
        base = [(float(ends[i]) + float(ends[i + 1])) / 2 for i in (0, 2)] if len(ends) == 4 else [0, 0]
        argv += ["--base", ",".join(map(str, base))]
    return argv


def test_seeded_sampling_commands_end_in_a_documented_exit_code(capsys):
    rng = random.Random(2027)
    codes = []
    for i in range(SAMPLING_COMMANDS):
        argv = _sampling(rng, SEEDS[i % len(SEEDS)]) + ["--no-timestamp"]
        code = _exit_code(argv)
        captured = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, captured.err)
        if captured.out.strip():
            json.loads(captured.out, parse_constant=_reject_constant)
        assert (_exit_code(argv), capsys.readouterr().out) == (code, captured.out), argv
        codes.append(code)
    assert codes.count(0) >= SAMPLING_COMMANDS // 4 and codes.count(2) >= SAMPLING_COMMANDS // 10


def test_edge_values_end_in_a_documented_exit_code(capsys, tmp_path):
    rng = random.Random(2026)
    out = str(tmp_path / "points.bin")
    codes = []
    for _ in range(COMMANDS):
        draw = rng.random()
        if draw < 0.5:
            argv = _expand(rng)
        elif draw < 0.8:
            argv = _thresholds(rng)
        else:
            argv = _gen_fractal(rng, out)
        argv.append("--no-timestamp")
        code = _exit_code(argv)
        captured = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, captured.err)
        if code == 0:
            assert captured.out.strip(), argv
        if captured.out.strip():
            json.loads(captured.out, parse_constant=_reject_constant)
        assert (_exit_code(argv), capsys.readouterr().out) == (code, captured.out), argv
        codes.append(code)
    # the pools reach both the usage errors and the answers
    assert codes.count(0) >= COMMANDS // 5 and codes.count(2) >= COMMANDS // 5


SURFACE_VERIFY_COMMANDS = 40
# valid (psi, uvars, x, u) together; each option may be swapped for an edge value
SURFACES = [("u;u^2", "u", "1,0.5", "0.5"), ("cos(u);sin(u)", "u", "-1,0.5", "-0.5"),
            ("u;v;u*v", "u,v", "0,0,1", "0.5,1")]
SURFACE_EDGES = {
    "--psi": ["u;0", "u;1/u", "u;log(u)", "u", "u;u^2;", "u;(u"],
    "--uvars": ["v", "", "u,u"],
    "--x": ["1e308,-1e308", "1", "nan,1", "1,1/0", "-1,-1,-1"],
    "--u": ["0", "-1e308", "", "0.5,1,2"],
    "--tol": ["0", "-1", "1e-300"],
}
RECOVERED = "(x + y^2)^3"
REPLAYED = ["exp(x + y^2)", "x/y", "x*y*z", "log(x) + y", "1e308*x"]


def _surface_distance(rng) -> list[str]:
    valid = dict(zip(("--psi", "--uvars", "--x", "--u"), rng.choice(SURFACES)), **{"--tol": "1e-9"})
    # --flag=value, so that an empty value is a value
    return ["surface-distance", *(f"{flag}={_maybe(rng, [value], SURFACE_EDGES[flag])}"
                                  for flag, value in valid.items())]


def _verify_recovery(rng, components: list[str]) -> list[str]:
    f = _maybe(rng, [RECOVERED], REPLAYED)
    return ["verify-recovery", "-f", f, "--vars", "x,y,z" if "z" in f else "x,y",
            "--box", _maybe(rng, BOXES[:1], BOXES), "--components", _maybe(rng, components[:1], components),
            "--verify-n", _maybe(rng, ["5", "17"], ["0", "-1", "1"]),
            "--residual-tol", _maybe(rng, ["1e-6"], ["0", "-1", "nan"])]


def test_surface_distance_and_verify_recovery_end_in_a_documented_exit_code(capsys, tmp_path):
    comps = tmp_path / "comps"
    code = _exit_code(["recover", "-f", "(x + y^2)^3", "--vars", "x,y", "--box", BOXES[0], "--grid-n", "33",
                       "--out-dir", str(comps), "--no-timestamp"])
    assert code == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "h.csv").write_text("grid,value\n0,x\n")
    components = [str(comps), str(empty), str(tmp_path / "missing"), str(broken)]
    capsys.readouterr()
    rng = random.Random(2028)
    codes = []
    for i in range(SURFACE_VERIFY_COMMANDS):
        argv = _surface_distance(rng) if i % 2 else _verify_recovery(rng, components)
        argv.append("--no-timestamp")
        code = _exit_code(argv)
        captured = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, captured.err)
        if captured.out.strip():
            json.loads(captured.out, parse_constant=_reject_constant)
        assert (_exit_code(argv), capsys.readouterr().out) == (code, captured.out), argv
        codes.append(code)
    assert codes.count(0) >= SURFACE_VERIFY_COMMANDS // 4 and codes.count(2) >= SURFACE_VERIFY_COMMANDS // 10
