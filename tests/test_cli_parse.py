"""The CLI's table-driven parse (cli._table_parse) against argparse.

A well-formed command line is read from the option table and builds no
argparse parser; anything else is declined and goes to the full argparse
parser.  The oracle: whenever the table path answers, its namespace is the
one argparse returns; whenever argparse stops with a usage error, the table
path declines; an option value out of range raises the same _OutOfRange on
both paths."""

import collections
import contextlib
import importlib.util
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from expandlab import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
ARGV_PER_COMMAND = 400

# values for an option by its type's name: "good" ones pass the type (-1, 0
# and 3 fail the range of --seed, --verify-n and --grid-n), "bad" ones do not
_GOOD = {
    "int": ["0", "1", "7", "300", " 5", "-1", "3"],
    "_finite_float": ["0", "0.5", "1e-3", "2", "1_0", "-1"],
    None: ["x*y", "x,y", "0,1,0,1", "b4d01:4", "d_X=2", "-1,1,0,1", "-x*y", "-foo", "-", "", "x y", "-1"],
}
_BAD = {
    "int": ["many", "1.5", "", "0x10"],
    "_finite_float": ["many", "nan", "inf", ""],
    None: ["-h", "-hx", "-fx", "-f", "--", "--x", "--a b", "--box"],
}
_SPECIAL = [
    ["--config", "run.json"], ["-h"], ["--help"], ["--version"], ["--bogus", "1"], ["--"], ["foo"],
    ["-x"], ["--out"],
]


def _options(name):
    return [(flags, kwargs) for flags, kwargs in cli._COMMANDS[name][2] if flags[0].startswith("-")]


def _type_name(kwargs):
    return kwargs["type"].__name__ if "type" in kwargs else None


def _value(kwargs, rng, good):
    if "choices" in kwargs:
        return rng.choice(kwargs["choices"]) if good else rng.choice(["no-such", "bivariate"])
    return rng.choice((_GOOD if good else _BAD)[_type_name(kwargs)])


def _item(name, rng, well_formed):
    """One option occurrence, well formed or not, as a list of tokens."""
    flags, kwargs = rng.choice(_options(name))
    flag = rng.choice(flags)
    flag_only = kwargs.get("action") == "store_true"
    kind = "good" if well_formed else rng.choice(["good", "bad", "abbrev", "attached", "missing", "special"])
    if kind == "good":
        return [flag] if flag_only else [flag, _value(kwargs, rng, True)]
    if kind == "bad":
        return [flag, "yes"] if flag_only else [flag, _value(kwargs, rng, False)]
    if kind == "abbrev":
        long = next(f for f in flags if f.startswith("--"))
        return [long[: rng.randint(2, len(long) - 1)], *([] if flag_only else [_value(kwargs, rng, True)])]
    if kind == "attached":
        value = _value(kwargs, rng, rng.random() < 0.7)
        return [flag + value] if flag == "-f" else [f"{flag}={value}"]
    if kind == "missing":
        return [flag]
    return list(rng.choice(_SPECIAL))


def _argv(name, rng):
    items = []
    for flags, kwargs in _options(name):
        if kwargs.get("required") and rng.random() < 0.9:
            items.append([rng.choice(flags), _value(kwargs, rng, True)])
    if name == "gen-fractal":
        items.append(["pts.bin"])
    # half the draws repeat well-formed options only, the rest mix in the others
    well_formed = rng.random() < 0.5
    items += [_item(name, rng, well_formed) for _ in range(rng.randint(0, 6))]
    rng.shuffle(items)
    head = [name] if rng.random() < 0.97 else rng.choice([[name[:4]], ["-h", name], ["--version"], []])
    return [*head, *(token for item in items for token in item)]


def _outcome(parse, argv):
    """('ns', vars), ('exit', code), ('range', message) or ('declined',)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = parse(argv)
    except SystemExit as exc:
        return ("exit", exc.code)
    except cli._OutOfRange as exc:
        return ("range", str(exc))
    return ("declined",) if args is None else ("ns", vars(args))


@pytest.fixture(scope="module")
def full_parser():
    return cli._build_parsers()[0]


def test_the_table_path_agrees_with_argparse(full_parser):
    rng = random.Random(20261022)
    seen = collections.Counter()
    for name in cli._COMMANDS:
        for _ in range(ARGV_PER_COMMAND):
            argv = _argv(name, rng)
            table = _outcome(cli._table_parse, argv)
            full = _outcome(full_parser.parse_args, argv)
            assert table[0] != "exit", argv  # the table path never prints or exits
            if table[0] != "declined":
                assert table == full, argv
            if table[0] == "ns":  # a config file is read on argparse's path only
                assert table[1]["config"] is None, argv
            if full[0] == "exit":
                assert table == ("declined",), argv
            seen[table[0], full[0]] += 1
    # the draws reach every kind of outcome
    assert seen["ns", "ns"] > 0.25 * ARGV_PER_COMMAND * len(cli._COMMANDS)
    assert seen["range", "range"] >= 20 and seen["declined", "exit"] >= 500


def test_gen_fractal_always_goes_to_argparse():
    # its output path is a positional argument, which only argparse reads
    assert cli._table_parse(["gen-fractal", "--spec", "b4d01:4", "pts.bin"]) is None


def _corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [cmd["argv"] for workload in module.WORKLOADS for cmd in module.commands(workload, 1)]


def _readme_examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line.split("  #")[0])[1:] for line in lines if line.startswith("expandlab ")]


def test_benchmark_and_readme_command_lines_take_the_table_path(full_parser):
    corpus = [[*argv, "--no-timestamp", "--out", "doc.json"] for argv in _corpus()]
    readme = [argv for argv in _readme_examples() if argv[0] != "gen-fractal"]
    assert len(corpus) == 77 and len(readme) == 9
    for argv in corpus + readme:
        args = cli._table_parse(argv)
        assert args is not None, argv
        assert vars(args) == vars(full_parser.parse_args(argv)), argv


def test_a_well_formed_command_builds_no_argparse_parser(tmp_path):
    # building the parsers cost each command about 9 ms in a fresh process,
    # over half of it the import of locale that argparse's messages trigger
    code = (
        "import argparse, json, sys\n"
        "from expandlab import cli\n"
        "calls = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    calls.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "out = sys.argv[1]\n"
        "codes = [\n"
        "    cli.main(['classify', '-f', 'x^2 + x*y', '--no-timestamp', '--out', out]),\n"
        "    cli.main(['expand', '-f', 'x + y', '--inputs', 'b4d01:6', '--ladder', '2^-2..2^-9',\n"
        "              '--theorem', 'bivariate-analytic', '--no-timestamp', '--out', out]),\n"
        "]\n"
        "seen = {'codes': codes, 'parsers': len(calls), 'locale': 'locale' in sys.modules}\n"
        "cli._build_parsers()  # the counter and the module check do see a parser\n"
        "seen['after'] = {'parsers': len(calls) > 0, 'locale': 'locale' in sys.modules}\n"
        "print(json.dumps(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "doc.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"codes": [0, 0], "parsers": 0, "locale": False,
                    "after": {"parsers": True, "locale": True}}


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["expandlab", "thresholds", "--theorem", "bivariate-analytic",
                                      "--no-timestamp"])
    assert cli.main() == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["command"] == "thresholds"
    assert doc["config"]["options"]["theorem"] == "bivariate-analytic"
    monkeypatch.setattr(sys, "argv", ["expandlab", "thresholds"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("the following arguments are required: --theorem\n")
