"""The outputs of the commands that the benchmark corpus never runs.

Each case runs its commands through ``main`` in process, in a fresh working
directory and with relative paths, and records every command's stdout,
stderr and exit code, then every file the case left behind: JSON text as it
is, any other file by its sha256.  The recording in
``golden/cli_outputs.json`` is what the JSON envelope looked like before the
option table; refresh it only for an intended change of the output:

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from expandlab import cli

GOLDEN = Path(__file__).with_name("golden") / "cli_outputs.json"

_BIVARIATE = ["-f", "(x + y^2)^3", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5"]

# name -> (files written before the runs, the runs)
CASES = {
    "thresholds": ({}, [["thresholds", "--theorem", "trivariate-analytic", "--no-timestamp"]]),
    "thresholds-params": (
        {},
        [["thresholds", "--theorem", "k-point", "--param", "alpha=3/2", "--param", "m=1", "--no-timestamp"]],
    ),
    "thresholds-general-missing": (
        {},
        [["thresholds", "--theorem", "general", "--param", "alpha=2", "--param", "q=1", "--no-timestamp"]],
    ),
    "thresholds-config": (
        {"run.json": '{"schema_version": 1, "param": ["d=3"], "seed": 7, "rel-tol": 1e-6}'},
        [["thresholds", "--theorem", "phong-stein", "--config", "run.json", "--seed", "8", "--no-timestamp"]],
    ),
    "surface-distance": (
        {},
        [
            ["surface-distance", "--psi", "u;0", "--uvars", "u", "--x", "0,1", "--u", "0", "--no-timestamp"],
            ["surface-distance", "--psi", "u;0", "--uvars", "u", "--x", "1,0", "--u", "0", "--no-timestamp"],
        ],
    ),
    "surface-distance-out": (
        {},
        [
            [
                "surface-distance", "--psi", "u;v;u*v", "--uvars", "u,v", "--x", "0.5,0.25,1",
                "--u", "0.5,0.25", "--tol", "1e-6", "--out", "sd.json", "--no-timestamp",
            ]
        ],
    ),
    "gen-fractal": ({}, [["gen-fractal", "--spec", "b4d01:6", "pts.bin", "--no-timestamp"]]),
    "gen-fractal-out": (
        {},
        [["gen-fractal", "--spec", "m2r1/3:5", "pts.bin", "--out", "gen.json", "--budget", "64", "--no-timestamp"]],
    ),
    "gen-fractal-over-budget": ({}, [["gen-fractal", "--spec", "b4d01:6", "pts.bin", "--budget", "8", "--no-timestamp"]]),
    "verify-recovery": (
        {},
        [
            ["recover", *_BIVARIATE, "--out-dir", "comps", "--no-timestamp"],
            ["verify-recovery", *_BIVARIATE, "--components", "comps", "--verify-n", "20", "--no-timestamp"],
            ["verify-recovery", "-f", "(x + y^2)^3 + x*y", "--vars", "x,y", "--box", "0.5,1.5,0.5,1.5",
             "--components", "comps", "--no-timestamp"],
        ],
    ),
    "verify-recovery-missing": (
        {},
        [["verify-recovery", *_BIVARIATE, "--components", "nowhere", "--no-timestamp"]],
    ),
}


def run_case(name: str, workdir: Path) -> dict:
    files, runs = CASES[name]
    for rel, text in files.items():
        (workdir / rel).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        results = []
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            results.append({"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code})
    finally:
        os.chdir(cwd)
    left = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        rel = path.relative_to(workdir).as_posix()
        if rel not in files:
            data = path.read_bytes()
            left[rel] = data.decode("utf-8") if path.suffix == ".json" else hashlib.sha256(data).hexdigest()
    return {"runs": results, "files": left}


@pytest.mark.parametrize("name", CASES)
def test_command_output_is_unchanged(name, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_case(name, tmp_path) == expected


if __name__ == "__main__":
    doc = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            doc[name] = run_case(name, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
