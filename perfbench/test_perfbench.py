"""Tests of the benchmark's own machinery: tracing, self times, percentiles.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import summary  # noqa: E402
from tracer import Tracer, tree_and_dag_nodes  # noqa: E402

SMALL_COMMANDS = [
    ["classify", "-f", "x^2 + x*y", "--box", "0.5,1.5,0.5,1.5"],
    ["classify", "-f", "x*y*z", "--box", "1,2,1,2,1,2"],
    ["recover", "-f", "(x + y^2)^3", "--box", "0.5,1.5,0.5,1.5", "--grid-n", "33"],
    ["fold", "-f", "x^2 + x*y", "--box", "0.5,1.5,0.5,1.5", "--base", "1,1"],
    ["expand", "-f", "x^2 + x*y", "--inputs", "b4d01:6", "--ladder", "2^-2..2^-12",
     "--theorem", "bivariate-analytic", "--threads", "2"],
]


@pytest.mark.parametrize("argv", SMALL_COMMANDS, ids=lambda a: a[0] + ":" + a[2])
def test_wrapping_is_transparent(argv, tmp_path):
    cmd = {"id": argv[0], "kind": argv[0], "argv": argv, "check": {}}
    plain = harness.run_command(cmd, tmp_path)
    traced = harness.run_command(cmd, tmp_path, Tracer)
    assert plain.exit_code == traced.exit_code == 0
    assert plain.output and plain.output == traced.output
    assert plain.trace is None
    assert traced.trace["calls"]["cli.main"] == 1
    assert traced.trace["spans"][0][0] == "cli.main"


def test_uninstall_restores_every_module():
    import expandlab.degeneracy
    import expandlab.expr
    import expandlab.specialform

    before = (expandlab.expr.simplify, expandlab.degeneracy.simplify, expandlab.specialform.kappa)
    tracer = Tracer()
    tracer.install()
    try:
        assert expandlab.degeneracy.simplify is expandlab.expr.simplify
        assert expandlab.expr.simplify is not before[0]
        assert expandlab.specialform.kappa is expandlab.degeneracy.kappa
    finally:
        tracer.uninstall()
    assert (expandlab.expr.simplify, expandlab.degeneracy.simplify,
            expandlab.specialform.kappa) == before


def test_reentry_counts_calls_without_new_spans():
    import expandlab.expr as ex

    tracer = Tracer()
    tracer.install()
    try:
        ex.simplify(ex.parse("sin(x + 1) * (x + x) - 2*x*sin(1 + x)"))
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names.count("expr.simplify") == 1
    assert tracer.calls["expr.simplify"] >= 1


def test_self_time_on_a_span_tree_with_two_threads():
    # [name, start, end, parent, thread]
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],  # child, same thread
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: the union 1..6 counts once
        ["a.inner", 1.5, 2.5, 1, 0],
        ["worker", 2.0, 9.0, 0, 1],  # other thread: no effect on root
        ["worker.inner", 3.0, 5.0, 4, 1],
    ]
    # [name, parent, thread, calls, busy_s, work]
    leaves = [
        ["eval", 0, 0, 3, 1.5, 30],  # root's own thread: subtracted
        ["eval", 0, 1, 2, 4.0, 20],  # on thread 1 under root: ignored for root
        ["eval", 4, 1, 5, 0.5, 50],
    ]
    got = summary.self_times(spans, leaves)
    assert got == pytest.approx([10 - 5 - 1.5, 3 - 1, 3, 1, 7 - 2 - 0.5, 2])


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 21))  # 20 samples
    assert summary.percentile(values, 0.50) == 10  # 10 beyond
    with pytest.raises(ValueError):
        summary.percentile(values, 0.75)  # 5 beyond
    assert summary.percentile(list(range(40)), 0.75) == 29  # 10 beyond
    with pytest.raises(ValueError):
        summary.percentile(list(range(19)), 0.50)  # 9 beyond


def test_tree_and_dag_nodes():
    from expandlab.expr import parse

    assert tree_and_dag_nodes(parse("x*y + x*y")) == (7, 4)
    assert tree_and_dag_nodes(parse("x")) == (1, 1)
