"""expandlab benchmark: CLI-command latency and image throughput.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up times fresh interpreters that import ``expandlab.cli`` and build the
workload's commands (``corpus.py``).  Measuring runs passes over the
command list, one forked child per command, until ``--seconds`` would be
exceeded by another pass (at least one pass).  Every answer is checked, and
each command's ``--no-timestamp`` JSON must be byte-identical across the
passes.  With ``--trace 1`` one more pass runs with the spans of
``tracer.py`` and the per-layer metrics are reported instead.

The last line of standard output is the result as one JSON object.  Details
(per-command times, sample counts, machine record) go to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import harness  # noqa: E402
import summary  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
SUBPROCESS_TIMEOUT = 120
LAYER_MODULES = ("expr", "degeneracy", "foldgeom", "specialform", "fractal", "dimlab", "cli")

# (name, unit) of every end-to-end metric this script can report; the
# gated ones are listed in BENCHMARK.json
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "classify_ms.p50": "ms",
    "classify_ms.p75": "ms",
    "recover_ms.p50": "ms",
    "image_Mtuples_per_s": "Mtuple/s",
    "fail_ratio": "1",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine_record() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup(workload: str, seed: int) -> tuple[list[dict], list[float]]:
    """Time fresh interpreters that import the CLI and build the commands."""
    argv = [sys.executable, str(HERE / "corpus.py"), "--workload", workload, "--seed", str(seed)]
    times, outputs = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        outputs.add(proc.stdout)
    if len(outputs) != 1:
        raise RuntimeError("set-up built different commands from the same seed")
    return json.loads(outputs.pop()), times


def import_times() -> dict[str, float]:
    """Median cumulative import time of each module, from -X importtime."""
    code = "import sys; sys.path.insert(0, 'src'); import expandlab.cli"
    samples: dict[str, list[float]] = {m: [] for m in LAYER_MODULES}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("expandlab."):
                module = parts[2].strip()[len("expandlab."):]
                if module in samples:
                    samples[module].append(int(parts[1]) / 1e6)
    return {f"{m}.import_s": statistics.median(v) if v else 0.0 for m, v in samples.items()}


def check_answer(cmd: dict, res) -> str | None:
    """Why the command's answer is wrong, or None when it is right."""
    check = cmd["check"]
    expected_exit = check.get("exit", 0)
    if res.exit_code != expected_exit:
        return f"exit code {res.exit_code}, expected {expected_exit}"
    try:
        report = json.loads(res.output)["report"]
    except (ValueError, KeyError):
        return "no JSON report"
    kind = cmd["kind"]
    if kind == "classify" and report["classification"] != check["classification"]:
        return f"classified {report['classification']}, expected {check['classification']}"
    if kind == "recover":
        if report["verdict"] != "success" or not report["residual"] < report["residual_tol"]:
            return f"recovery {report['verdict']} with residual {report['residual']}"
    if kind == "fold" and report["verdict"] != check["verdict"]:
        return f"fold verdict {report['verdict']}, expected {check['verdict']}"
    if kind == "expand":
        if "coverage" in check:
            delta, least = check["coverage"]
            got = [c["fraction"] for c in report["covered_trace"]
                   if abs(c["delta"] - delta) <= 1e-12 * delta]
            if not report["passed"] or not got or got[0] < least:
                return f"passed={report['passed']}, coverage at {delta:.3g} is {got}"
        else:
            counts = expand_counts(report)
            if counts != {k: check[k] for k in counts}:
                return "population or box counts differ from the recorded values"
    return None


def expand_counts(report: dict) -> dict:
    """The exact integers of an expand report: image population and every
    box count of the image and input ladders."""
    return {
        "population": report["population"],
        "image_counts": [[r["delta"], r["count"]] for r in report["image_estimate"]["ladder"]],
        "input_counts": [[[r["delta"], r["count"]] for r in est["ladder"]]
                         for est in report["input_estimates"]],
    }


def run_pass(commands, workdir: Path, tracer_factory=None) -> list:
    return [harness.run_command(cmd, workdir, tracer_factory) for cmd in commands]


def route_counts(commands, results) -> dict[str, int]:
    """How each classification certificate was decided, from the reports."""
    symbolic = sampled = 0
    for cmd, res in zip(commands, results):
        if cmd["kind"] != "classify" or not res.output:
            continue
        for cert in json.loads(res.output)["report"]["certificates"].values():
            if cert["status"] != "undefined":
                symbolic += bool(cert["symbolic"])
                sampled += not cert["symbolic"]
    return {"degeneracy.route.symbolic": symbolic, "degeneracy.route.sampled": sampled}


def e2e_metrics(commands, passes, setup_times) -> tuple[dict, dict]:
    """End-to-end values and their sample counts."""
    values, samples = {}, {}

    def put(name, value, n):
        values[name] = value
        samples[name] = n

    put("setup_s", statistics.median(setup_times), len(setup_times))
    walls = [sum(r.seconds for r in results) for results in passes]
    put("wall_s", statistics.median(walls), len(walls))
    rss = [r.maxrss_mb for results in passes for r in results]
    put("peak_rss_mb", max(rss), len(rss))
    by_kind: dict[str, list[float]] = {}
    tuples = 0
    for results in passes:
        for cmd, res in zip(commands, results):
            by_kind.setdefault(cmd["kind"], []).append(res.seconds)
            tuples += cmd["check"].get("tuples", 0)
    if "classify" in by_kind:
        ms = [1e3 * s for s in by_kind["classify"]]
        put("classify_ms.p50", summary.percentile(ms, 0.50), len(ms))
        put("classify_ms.p75", summary.percentile(ms, 0.75), len(ms))
    if "recover" in by_kind:
        ms = [1e3 * s for s in by_kind["recover"]]
        put("recover_ms.p50", summary.percentile(ms, 0.50), len(ms))
    if "expand" in by_kind:
        put("image_Mtuples_per_s", tuples / 1e6 / sum(by_kind["expand"]), len(by_kind["expand"]))
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="expandlab benchmark")
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "expandlab" / "__init__.py").is_file():
        return fail("run from the root of an expandlab checkout (src/expandlab is missing)")
    sys.path.insert(0, str(root / "src"))
    try:
        commands, setup_times = setup(args.workload, args.seed)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        return fail(str(err))
    import expandlab.cli  # noqa: F401  (children fork from an importer)

    if not Path(expandlab.cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        return fail(f"expandlab was imported from outside the checkout: {expandlab.cli.__file__}")

    results_dir = root / ".perfbench" / "results"
    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, commands, setup_times, workdir, results_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, commands, setup_times, workdir: Path, results_dir: Path) -> int:
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(commands, workdir))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    traced = None
    if args.trace:
        from tracer import Tracer

        traced = run_pass(commands, workdir, Tracer)

    # answers, and byte-identical JSON across every pass of this invocation
    failures = []
    attempted = 0
    for i, cmd in enumerate(commands):
        runs = [results[i] for results in passes + ([traced] if traced else [])]
        for res in runs:
            attempted += 1
            reason = check_answer(cmd, res)
            if reason is None and res.output != runs[0].output:
                reason = "JSON differs from the first pass"
            if reason:
                failures.append({"id": cmd["id"], "reason": reason})

    values, samples = e2e_metrics(commands, passes, setup_times)
    values["fail_ratio"] = len(failures) / attempted
    samples["fail_ratio"] = attempted
    layers = {}
    if traced:
        product_tuples = sum(cmd["check"].get("tuples", 0) for cmd in commands)
        layers = summary.layer_metrics([r.trace for r in traced if r.trace], product_tuples)
        layers.update(route_counts(commands, traced))
        layers["cli.json_bytes"] = sum(len(r.output) for r in traced)
        layers.update(import_times())
        layers["trace.overhead_s"] = sum(r.seconds for r in traced) - values["wall_s"]

    machine = machine_record()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "passes": len(passes),
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k], "samples": samples[k]}
                       for k, v in values.items()},
        "per_layer": layers,
        "setup_times_s": setup_times,
        "commands": {cmd["id"]: [results[i].seconds for results in passes]
                     for i, cmd in enumerate(commands)},
        "failures": failures,
        # near 1: the children were busy, so spread between runs is machine speed
        "child_cpu_over_wall": sum(r.child_cpu_s for p in passes for r in p)
        / sum(r.seconds for p in passes for r in p),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if traced:
        done = [(cmd["id"], r.trace) for cmd, r in zip(commands, traced) if r.trace]
        spans = {key: [[cid, *row] for cid, tr in done for row in tr[key]]
                 for key in ("spans", "leaves")}
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(commands)} commands; machine {json.dumps(machine)}")
    for f in failures:
        print(f"FAILED {f['id']}: {f['reason']}")
    for name, v in values.items():
        print(f"  {name:24s} {v:14.6g} {E2E_UNITS[name]:9s} n={samples[name]}")
    for name, v in layers.items():
        print(f"  {name:34s} {v:14.6g}")

    spec = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    reported = layers if args.trace else values
    metrics = {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

if __name__ == "__main__":
    sys.exit(main())
