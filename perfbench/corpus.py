"""Workload definitions: the CLI commands each workload runs, with the
answer each command must give.

Run as a script it is the benchmark's set-up step, timed in a fresh
interpreter: it imports ``expandlab.cli`` (the start-up every CLI call pays),
builds the workload's command list and prints it as JSON.

    python3 perfbench/corpus.py --workload certify --seed 3

Only ``certify`` depends on the seed.  The program sees the generated
functions as text only; every command keeps the CLI's own ``--seed 0``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("certify", "expand-dense", "expand-fine")

BOX2 = "0.5,1.5,0.5,1.5"
BOX3 = "0.5,1.5,0.5,1.5,0.5,1.5"

# criterion 2 of the acceptance suite: (text, vars, box, label)
CLASSIFIER_CORPUS = [
    ("x + y", "x,y", BOX2, "special_form"),
    ("x*y", "x,y", BOX2, "special_form"),
    ("x + y + x*y", "x,y", BOX2, "special_form"),
    ("x^2*y", "x,y", BOX2, "special_form"),
    ("(x + y^2)^3", "x,y", BOX2, "special_form"),
    ("x + y + z", "x,y,z", BOX3, "special_form"),
    ("x*y*z", "x,y,z", "1,2,1,2,1,2", "special_form"),
    ("exp(x + y^2 + z^3)", "x,y,z", BOX3, "special_form"),
    ("x^2 + x*y", "x,y", BOX2, "expanding"),
    ("x*y + y^2", "x,y", BOX2, "expanding"),
    ("x*(y + z)", "x,y,z", BOX3, "expanding"),
    ("x*y + z", "x,y,z", BOX3, "expanding"),
    ("x*y + y*z + z*x", "x,y,z", BOX3, "expanding"),
    ("sin(x) + x*y", "x,y", BOX2, "expanding"),
    ("x^2 + x*y + y^3", "x,y", BOX2, "expanding"),
    ("x + y*z", "x,y,z", BOX3, "expanding"),
]

# fold checks on fixed functions: (text, box, base, verdict, exit code),
# verdicts as the seed code gives them
FIXED_FOLDS = [
    ("x^2 + x*y", BOX2, "1,1", "fold_verified", 0),
    ("x*y + y^2", BOX2, "1,1", "fold_verified", 0),
    ("sin(x) + x*y", BOX2, "1,1", "fold_verified", 0),
    ("x^2 + x*y + y^3", BOX2, "1,1", "fold_verified", 0),
    ("x*y", "1,2,1,2", "1.5,1.5", "degenerate", 3),
]

N_BIVARIATE = 20
# criterion 5's generator gives about one bivariate form in six a zero shift
N_ZERO_SHIFT = 3
N_TRIVARIATE = 2
N_PERTURBED = 4
PERTURBATION = "x^2*y/10"
UNIT_BOX2 = "0,1,0,1"
UNIT_BOX3 = "0,1,0,1,0,1"

# expand runs: (text, vars, inputs, ladder, theorem)
EXPAND_RUNS = {
    "expand-dense": [
        ("x^2 + x*y", "x,y", "b4d01:13", "2^-6..2^-16", "bivariate-analytic"),
        ("x*y + z", "x,y,z", "b4d01:8", "2^-4..2^-16", "trivariate-analytic"),
        ("x + y", "x,y", "m2r1/3:11", "3^-1..3^-11", "bivariate-analytic"),
    ],
    "expand-fine": [
        ("x^2 + x*y", "x,y", "b4d01:12", "2^-6..2^-24", "bivariate-analytic"),
    ],
}
# With two threads, expand-dense's time followed the availability of the
# VM's second core: its quartile spread was 42% against 16% single-threaded
# in a paired test.  expand-fine keeps two threads, so the threaded quantize
# stays measured; its time is mostly single-threaded box counting.
EXPAND_THREADS = {"expand-dense": "1", "expand-fine": "2"}
# m2r1/3 sums tile [0, 2]: the covered fraction at 3 * 3^-11 must reach this
COVERAGE_DELTA = 3.0 ** -10
COVERAGE_MIN = 0.99

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _monotone_cubic(rng, v: str, const, var, zero_shift: bool, zero_cubic: bool):
    """p*t + q*(t - s)^3/3 with p > 0 and q, s > 0 unless set to 0: increasing
    in t."""
    p = Fraction(int(rng.integers(5, 15)), 10)
    q = Fraction(int(rng.integers(1, 10)), 10)
    s = Fraction(int(rng.integers(1, 10)), 10)
    if zero_shift:
        s = Fraction(0)
    if zero_cubic:
        q = Fraction(0)
    t = var(v)
    expr = const(p) * t + const(q) * (t - const(s)) ** 3 / 3
    at_zero = q * (-s) ** 3 / 3
    return expr, at_zero


def _special_form(rng, names: str, const, var, zero_shift=False, zero_cubic=False):
    """The acceptance suite's criterion-5 generator, extended to any number of
    variables: a quintic outer function, increasing on the range of a sum of
    monotone cubics.  Each cubic is increasing, so the sum is smallest at the
    origin, which lies in the unit box.

    Criterion 5 draws each cubic's coefficient q and shift s from 0..9/10.
    Here they are nonzero, except that ``zero_shift`` sets the first cubic's
    s to 0 and ``zero_cubic`` the last cubic's q.  A zero shift makes a form
    about three times as dear to certify, and a zero coefficient makes it
    several times cheaper; left to chance they would make the corpus's cost
    and peak memory hinge on the seed."""
    inner, lo = None, Fraction(0)
    variables = names.split(",")
    for i, v in enumerate(variables):
        term, at_zero = _monotone_cubic(rng, v, const, var, zero_shift and i == 0,
                                        zero_cubic and i == len(variables) - 1)
        inner = term if inner is None else inner + term
        lo += at_zero
    p = Fraction(int(rng.integers(5, 15)), 10)
    a = Fraction(int(rng.integers(1, 5)), 10)
    s = lo.limit_denominator(100) - Fraction(int(rng.integers(2, 10)), 10)
    return const(p) * inner + const(a) * (inner - const(s)) ** 5 / 5


def _cmd(cid: str, kind: str, args: list, check: dict) -> dict:
    return {"id": cid, "kind": kind, "argv": [kind, *args], "check": check}


def certify_commands(seed: int) -> list[dict]:
    import numpy as np

    from expandlab.expr import const, to_string, var

    cmds = []
    for i, (text, names, box, label) in enumerate(CLASSIFIER_CORPUS):
        cmds.append(
            _cmd(f"classify/corpus/{i:02d}", "classify", ["-f", text, "--vars", names, "--box", box],
                 {"classification": label})
        )
    rng = np.random.default_rng(seed)
    bivariate = [to_string(_special_form(rng, "x,y", const, var, i < N_ZERO_SHIFT))
                 for i in range(N_BIVARIATE)]
    # one trivariate form of three true cubics, one with a linear z term
    trivariate = [to_string(_special_form(rng, "x,y,z", const, var, zero_cubic=i > 0))
                  for i in range(N_TRIVARIATE)]
    for group, names, box, texts in (
        ("bivariate", "x,y", UNIT_BOX2, bivariate),
        ("trivariate", "x,y,z", UNIT_BOX3, trivariate),
    ):
        for i, text in enumerate(texts):
            args = ["-f", text, "--vars", names, "--box", box]
            cmds.append(_cmd(f"classify/{group}/{i:02d}", "classify", args,
                             {"classification": "special_form"}))
            cmds.append(_cmd(f"recover/{group}/{i:02d}", "recover", args, {"verdict": "success"}))
    for i, text in enumerate(bivariate[-N_PERTURBED:]):
        args = ["-f", f"{text} + {PERTURBATION}", "--vars", "x,y", "--box", UNIT_BOX2]
        cmds.append(_cmd(f"classify/perturbed/{i:02d}", "classify", args,
                         {"classification": "expanding"}))
        cmds.append(_cmd(f"fold/perturbed/{i:02d}", "fold", [*args, "--base", "0.5,0.5"],
                         {"verdict": "fold_verified", "exit": 0}))
    for i, (text, box, base, verdict, code) in enumerate(FIXED_FOLDS):
        cmds.append(_cmd(f"fold/fixed/{i:02d}", "fold",
                         ["-f", text, "--vars", "x,y", "--box", box, "--base", base],
                         {"verdict": verdict, "exit": code}))
    return cmds


def expand_commands(workload: str, expected: dict | None = None) -> list[dict]:
    """The workload's expand commands, checked against ``expected`` (by
    default the recorded ``expected.json``)."""
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    cmds = []
    for i, (text, names, inputs, ladder, theorem) in enumerate(EXPAND_RUNS[workload]):
        cid = f"expand/{workload}/{i}"
        args = ["-f", text, "--vars", names, "--inputs", inputs, "--ladder", ladder,
                "--theorem", theorem, "--threads", EXPAND_THREADS[workload]]
        if inputs.startswith("m2r1/3"):
            check = {"passed": True, "coverage": [COVERAGE_DELTA, COVERAGE_MIN]}
        else:
            check = dict(expected[cid])
        arity = len(names.split(","))
        size = int(inputs.split(":")[1])
        check["tuples"] = (2**size) ** arity
        cmds.append(_cmd(cid, "expand", args, check))
    return cmds


def commands(workload: str, seed: int) -> list[dict]:
    if workload == "certify":
        return certify_commands(seed)
    if workload in EXPAND_RUNS:
        return expand_commands(workload)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    import expandlab.cli  # noqa: F401  (the start-up cost every CLI call pays)

    print(json.dumps(commands(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.exit(main())
