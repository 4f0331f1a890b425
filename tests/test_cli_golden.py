"""The CLI's help, usage errors and exit codes, byte for byte.

Each case runs ``main`` in process and records stdout, stderr and the exit
code (argparse's own exits included) at an 80-column terminal.  The recording
in ``golden/cli.json`` was made before the parser was built per command;
refresh it only for an intended change of the text:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from expandlab import cli

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

COMMANDS = (
    "classify", "thresholds", "recover", "fold", "expand",
    "surface-distance", "verify-recovery", "gen-fractal",
)

CASES = [
    [],
    ["-h"],
    ["--help"],
    ["--version"],
    ["bogus"],
    *([name, "--help"] for name in COMMANDS),
    ["classify"],
    ["classify", "-f"],
    ["fold", "-f", "x*y"],
    ["expand", "-f", "x*y", "--inputs", "b4d01:4", "--ladder", "2^-2..2^-4", "--theorem", "nope"],
    ["classify", "-f", "x+y", "--bogus"],
    ["--seed", "1", "classify", "-f", "x*y"],
    # a top-level option before a known command
    ["-h", "classify"],
    ["--bogus", "classify", "-f", "x*y"],
    ["classify", "-f", "x*y", "--thresholds", "nope"],
]


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _recorded() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a) or "(none)")
def test_cli_text_is_unchanged(argv):
    golden = _recorded()
    if tuple(golden["python"]) != sys.version_info[:2]:
        pytest.skip(f"recorded with Python {golden['python']}; argparse's layout varies by version")
    expected = {tuple(case["argv"]): case for case in golden["cases"]}[tuple(argv)]
    assert run_cli(argv) == expected


@pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a) or "(none)")
def test_cli_text_matches_the_full_parser(argv):
    # any Python version: what main prints for an invocation that stops in
    # argument parsing is what the parser with every command prints
    full = cli._build_parsers()[0]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        full.parse_args(argv)
    got = run_cli(argv)
    expected = (out.getvalue(), err.getvalue(), exc.value.code)
    assert (got["stdout"], got["stderr"], got["exit"]) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    doc = {"python": list(sys.version_info[:2]), "cases": [run_cli(argv) for argv in CASES]}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
