"""Time ``dimlab.image_quantize`` in one process, case by case, to compare
two checkouts without the start-up and box counts around it.

For each case it prints one line: the case name, the minimum CPU time
(``time.process_time``) of N calls in ms, the sha256 of the occupancy map,
and the grid's lo and hi.  The cases are the four expand commands of
``perfbench/corpus.py`` (read as ``tools/answers_digest.py`` reads them,
at each command's finest rung and thread count), and five that the
benchmark leaves out:

- ``(x+y)^3``, ``x*exp(y)`` and ``exp(x+y)`` on b4d01:13 at 2^-16, which
  ``rising`` cannot prove, so their blocks take the run route of the scatter;
- ``sin(7*(x+y))`` on b4d01:12 at 2^-20, which takes two passes;
- ``x^2 + x*y`` on b4d01:12 at 2^-20 against a declared range of [0, 0.1],
  which the image leaves, so the range is widened.

``--src DIR`` imports ``expandlab`` from ``DIR/src`` (by default this
checkout's).  Alternate the rounds of two checkouts, one process a round,
so that a drift of the machine hits both alike:

    for i in 1 2 3 4 5 6 7 8; do
        python3 tools/quantize_probe.py --src ../parent --reps 7
        python3 tools/quantize_probe.py --reps 7
    done
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, f, vars, inputs, finest rung, threads, declared range)
EXTRA_CASES = [
    ("run/(x+y)^3", "(x+y)^3", "x,y", "b4d01:13", 2.0**-16, 1, None),
    ("run/x*exp(y)", "x*exp(y)", "x,y", "b4d01:13", 2.0**-16, 1, None),
    ("run/exp(x+y)", "exp(x+y)", "x,y", "b4d01:13", 2.0**-16, 1, None),
    ("two-pass/sin(7*(x+y))", "sin(7*(x+y))", "x,y", "b4d01:12", 2.0**-20, 1, None),
    ("widened/x^2+x*y", "x^2 + x*y", "x,y", "b4d01:12", 2.0**-20, 1, (0.0, 0.1)),
]


def corpus_cases(cli) -> list[tuple]:
    """The expand commands of the benchmark's corpus, as probe cases."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    cases = []
    for workload in ("expand-dense", "expand-fine"):
        for cmd in corpus.commands(workload, 0):
            opts = dict(zip(cmd["argv"][1::2], cmd["argv"][2::2]))
            finest = min(float(d) for d in cli._parse_ladder(opts["--ladder"]))
            cases.append((cmd["id"], opts["-f"], opts["--vars"], opts["--inputs"], finest,
                          int(opts["--threads"]), None))
    return cases


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT, help="the checkout whose expandlab is timed")
    parser.add_argument("--reps", type=int, default=7, help="calls per case; the minimum is printed")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")
    sys.path.insert(0, str(args.src.resolve() / "src"))
    from expandlab import cli
    from expandlab.dimlab import image_quantize
    from expandlab.expr import FunctionSpec, parse

    for name, text, names, inputs, delta_min, threads, value_range in corpus_cases(cli) + EXTRA_CASES:
        variables = tuple(names.split(","))
        f = FunctionSpec(parse(text), variables, ((0.0, 1.0),) * len(variables))
        sets = [cli._parse_set_spec(inputs, 1 << 24)] * len(variables)
        best = float("inf")
        for _ in range(args.reps):
            t0 = time.process_time()
            q = image_quantize(f, sets, delta_min=delta_min, value_range=value_range, threads=threads)
            best = min(best, time.process_time() - t0)
        digest = hashlib.sha256(q.hit.tobytes()).hexdigest()
        print(f"{name} {best * 1e3:.1f} ms {digest} lo={q.lo!r} hi={q.hi!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
