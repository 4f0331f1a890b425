"""Command-line interface binding the modules into reproducible runs.

Commands: classify, thresholds, recover, fold, expand, surface-distance,
verify-recovery, gen-fractal.  Every run echoes its configuration in the
JSON output; with --no-timestamp the same config and seed produce
byte-identical documents.  Exact rationals are emitted as {"num", "den"}
objects, never floats.

Exit codes: 0 ok; 2 usage or parse error, or an expression too deep or
too large to process; 3 inconclusive classification, degenerate
precondition or undecidable zero test; 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .degeneracy import (
    INCONCLUSIVE,
    ZeroPolicy,
    classify,
    surface_distance_check,
    thresholds,
    THEOREMS,
)
from .dimlab import expansion_experiment
from .errors import NumericalError, PreconditionError, BudgetError
from .expr import DomainError, ExprError, FunctionSpec, ParseError, UndeterminableOnBox, parse
from .foldgeom import fold_verify
from .fractal import CantorSpec, cantor_points, digit_points, load_points, save_points
from .jsonutil import jsonable
from .specialform import (
    SampledFunction1D,
    reconstruction_residual,
    recover_bivariate,
    recover_trivariate,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("EXPANDLAB_THREADS", "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """float(text), which must be finite: NaN or infinity is a usage error."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_box(text: str, arity: int) -> tuple[tuple[float, float], ...]:
    parts = [_finite_float(p) for p in text.split(",")]
    if len(parts) != 2 * arity:
        raise ValueError(f"--box needs {2 * arity} comma-separated numbers, got {len(parts)}")
    return tuple((parts[2 * i], parts[2 * i + 1]) for i in range(arity))


def _parse_point(text: str, arity: int | None = None) -> tuple[float, ...]:
    parts = tuple(_finite_float(p) for p in text.split(","))
    if arity is not None and len(parts) != arity:
        raise ValueError(f"expected {arity} coordinates, got {len(parts)}")
    return parts


def _parse_params(items: list[str] | None) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = Fraction(value.strip())
    return out


def _parse_ladder(text: str) -> list:
    """'3^-4..3^-12' -> exact powers; otherwise comma-separated values
    (fractions like 1/243 stay exact, decimals become floats)."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)

        def split_power(s: str) -> tuple[int, int]:
            base_s, exp_s = s.split("^", 1)
            return int(base_s), int(exp_s)

        b1, e1 = split_power(lo_s.strip())
        b2, e2 = split_power(hi_s.strip())
        if b1 != b2:
            raise ValueError(f"ladder endpoints must share a base: {text!r}")
        if e1 > 0 or e2 > 0:
            raise ValueError("ladder exponents must be negative (e.g. 2^-6..2^-20)")
        ks = range(min(-e1, -e2), max(-e1, -e2) + 1)
        return [Fraction(1, b1**k) for k in ks]
    out = []
    for part in text.split(","):
        part = part.strip()
        if "/" in part:
            out.append(Fraction(part))
        else:
            out.append(_finite_float(part))
    return out


def _parse_set_spec(spec: str, budget: int):
    """'b4d01:12' (base-4 digits {0,1}, level 12), 'm2r1/3:14' (2-branch
    ratio-1/3 construction, level 14), or 'file:points.bin'."""
    spec = spec.strip()
    if spec.startswith("file:"):
        return load_points(spec[5:])
    head, _, level_s = spec.partition(":")
    if not level_s:
        raise ValueError(f"set spec {spec!r} needs ':<level>'")
    level = int(level_s)
    if head.startswith("b") and "d" in head:
        base_s, digits_s = head[1:].split("d", 1)
        digits = [int(ch) for ch in digits_s]
        return digit_points(int(base_s), digits, level, budget=budget)
    if head.startswith("m") and "r" in head:
        m_s, r_s = head[1:].split("r", 1)
        r = Fraction(r_s) if "/" in r_s or "." not in r_s else float(r_s)
        return cantor_points(CantorSpec(int(m_s), r, level), budget=budget)
    raise ValueError(f"unrecognized set spec {spec!r}")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    version = doc.pop("schema_version", 1)
    if version != 1:
        raise ValueError(f"unsupported config schema_version {version}")
    return doc


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser; it keeps its options by destination, so a
    config value goes through the same conversion as the flag."""

    def __init__(self, *args, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action

    def config_defaults(self, config: dict) -> dict:
        """The config values by destination, converted by each option's type
        from their JSON text and checked against its choices."""
        out = {}
        for key, value in config.items():
            action = self.options.get(key.replace("-", "_"))
            if action is None or action.dest == "help":
                raise ValueError(f"config key {key!r} does not match any option")
            if action.type is not None:
                text = value if isinstance(value, str) else json.dumps(value)
                try:
                    value = action.type(text)
                except (TypeError, ValueError) as err:
                    raise ValueError(f"config key {key!r}: {err}") from None
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
            out[action.dest] = value
        return out


def _apply_config(parser: argparse.ArgumentParser, command: _CommandParser, argv, config: dict):
    """Re-parse with config values as the subcommand's defaults; explicit
    flags keep priority."""
    command.set_defaults(**command.config_defaults(config))
    return parser.parse_args(argv)


def _emit(document: dict, args: argparse.Namespace):
    if not getattr(args, "no_timestamp", False):
        document["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(jsonable(document), indent=2, sort_keys=True, allow_nan=False)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _echo_config(args: argparse.Namespace, command: str) -> dict:
    skip = {"out", "func"}
    options = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and not k.startswith("_")
    }
    return {
        "command": command,
        "options": jsonable(options),
        "version": __version__,
        "schema_version": 1,
    }


def _function_from_args(args) -> FunctionSpec:
    expr = parse(args.function)
    if args.vars:
        names = tuple(v.strip() for v in args.vars.split(","))
    else:
        from .expr import free_vars

        names = tuple(sorted(free_vars(expr)))
        if not names:
            raise ValueError("the expression has no variables; pass --vars explicitly")
    box = _parse_box(args.box, len(names)) if args.box else ((0.0, 1.0),) * len(names)
    return FunctionSpec(expr, names, box)


def _policy(args) -> ZeroPolicy:
    return ZeroPolicy(
        samples=getattr(args, "samples", 64),
        rel_tol=getattr(args, "rel_tol", 1e-9),
        seed=getattr(args, "seed", 0),
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    f = _function_from_args(args)
    report = classify(f, _policy(args))
    doc = {"config": _echo_config(args, "classify"), "report": report.to_json_dict()}
    if args.thresholds:
        doc["thresholds"] = thresholds(args.thresholds, **_parse_params(args.param)).to_json_dict()
    print(f"classification: {report.classification}", file=sys.stderr)
    if report.witness_point is not None:
        print(
            f"witness: {report.witness_certificate} = {report.witness_value:.6g} "
            f"at {report.witness_point}",
            file=sys.stderr,
        )
    _emit(doc, args)
    return EXIT_INCONCLUSIVE if report.classification == INCONCLUSIVE else EXIT_OK


def cmd_thresholds(args) -> int:
    report = thresholds(args.theorem, **_parse_params(args.param))
    doc = {"config": _echo_config(args, "thresholds"), "report": report.to_json_dict()}
    _emit(doc, args)
    return EXIT_OK


def cmd_recover(args) -> int:
    f = _function_from_args(args)
    base = _parse_point(args.base, f.arity) if args.base else None
    kwargs = dict(base=base, grid_n=args.grid_n, residual_tol=args.residual_tol, policy=_policy(args))
    result = recover_bivariate(f, **kwargs) if f.arity == 2 else recover_trivariate(f, **kwargs)
    doc = {"config": _echo_config(args, "recover"), "report": result.to_json_dict()}
    if args.out_dir:
        _export_components(result.components, args.out_dir, result.to_json_dict())
        doc["components_dir"] = args.out_dir
    print(f"recovery: {result.verdict} (residual {result.residual:.3e})", file=sys.stderr)
    _emit(doc, args)
    return EXIT_OK if result.success else EXIT_NUMERICAL


def cmd_fold(args) -> int:
    f = _function_from_args(args)
    base = _parse_point(args.base, 2)
    report = fold_verify(f, base, theta=args.theta, policy=_policy(args), seed=args.seed)
    doc = {"config": _echo_config(args, "fold"), "report": report.to_json_dict()}
    verdict = report.verdict if report.reason is None else f"{report.verdict} ({report.reason})"
    print(f"fold check at {base}: {verdict}", file=sys.stderr)
    _emit(doc, args)
    return EXIT_OK if report.verified else EXIT_INCONCLUSIVE


def cmd_expand(args) -> int:
    f = _function_from_args(args)
    specs = [s for s in args.inputs.split(",") if s.strip()]
    if len(specs) == 1:
        specs = specs * f.arity
    inputs = [_parse_set_spec(s, args.budget) for s in specs]
    ladder = _parse_ladder(args.ladder)
    value_range = None
    if args.value_range:
        lo, hi = _parse_point(args.value_range, 2)
        value_range = (lo, hi)
    deg = classify(f, _policy(args)) if args.classify_first else None
    report = expansion_experiment(
        f,
        inputs,
        ladder,
        theorem=args.theorem,
        theorem_params=_parse_params(args.param),
        slack=args.slack,
        delta_min=args.delta_min,
        value_range=value_range,
        threads=args.threads,
        degeneracy_report=deg,
    )
    doc = {"config": _echo_config(args, "expand"), "report": report.to_json_dict()}
    if deg is not None:
        doc["classification"] = deg.to_json_dict()
    if args.ladder_csv:
        _write_ladder_csv(report, args.ladder_csv)
    status = "pass" if report.passed else "fail"
    print(
        f"image slope {report.image_estimate.slope:.4f} vs bound "
        f"{float(report.bound):.4f} - {report.slack} -> {status}",
        file=sys.stderr,
    )
    _emit(doc, args)
    return EXIT_OK


def cmd_surface_distance(args) -> int:
    components = [parse(c) for c in args.psi.split(";")]
    uvars = tuple(v.strip() for v in args.uvars.split(","))
    x = _parse_point(args.x)
    u = _parse_point(args.u)
    check = surface_distance_check(components, uvars, x, u, tol=args.tol)
    doc = {"config": _echo_config(args, "surface-distance"), "report": check.to_json_dict()}
    _emit(doc, args)
    return EXIT_OK


def cmd_verify_recovery(args) -> int:
    f = _function_from_args(args)
    components = _load_components(args.components)
    residual = reconstruction_residual(f, components, args.verify_n)
    ok = residual < args.residual_tol
    doc = {
        "config": _echo_config(args, "verify-recovery"),
        "report": {
            "residual": residual,
            "residual_tol": args.residual_tol,
            "verdict": "success" if ok else "failure",
        },
    }
    print(f"replayed residual: {residual:.3e}", file=sys.stderr)
    _emit(doc, args)
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_gen_fractal(args) -> int:
    ps = _parse_set_spec(args.spec, args.budget)
    save_points(ps, args.out_file)
    doc = {
        "config": _echo_config(args, "gen-fractal"),
        "report": {
            "count": len(ps),
            "dimension": ps.dimension,
            "interval": list(ps.interval),
            "path": args.out_file,
        },
    }
    _emit(doc, args)
    return EXIT_OK


def _export_components(components: dict, directory: str, meta: dict):
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for name, sf in components.items():
        with open(d / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["grid", "value"])
            for g, v in zip(sf.grid, sf.values):
                writer.writerow([repr(float(g)), repr(float(v))])
    text = json.dumps(jsonable(meta), indent=2, sort_keys=True, allow_nan=False)
    (d / "meta.json").write_text(text)


def _load_components(directory: str) -> dict:
    d = Path(directory)
    components = {}
    for path in sorted(d.glob("*.csv")):
        grid, values = [], []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                grid.append(float(row[0]))
                values.append(float(row[1]))
        components[path.stem] = SampledFunction1D(np.array(grid), np.array(values), name=path.stem)
    if not components:
        raise ValueError(f"no component CSV files found in {directory}")
    return components


def _write_ladder_csv(report, path: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "count", "log_inv_delta", "log_count", "covered_fraction"])
        covered = dict(report.covered_trace)
        for d, n in report.image_estimate.ladder:
            writer.writerow(
                [repr(d), n, repr(-math.log(d)), repr(math.log(n)), repr(covered.get(d, ""))]
            )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _common(p, function=True):
    if function:
        p.add_argument("-f", "--function", required=True, help="expression text")
        p.add_argument(
            "--vars",
            help="comma-separated variable names (default: free variables, sorted)",
        )
        p.add_argument(
            "--box",
            help="lo,hi per variable, comma-separated (default: 0,1 per variable)",
        )
    p.add_argument("--config", help="JSON config file; CLI flags override its fields")
    p.add_argument("--out", help="write the JSON document to a file instead of stdout")
    p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=64, help="zero-test sample count")
    p.add_argument(
        "--rel-tol", type=_finite_float, default=1e-9, help="zero-test relative tolerance"
    )


def _classify_options(p):
    _common(p)
    p.add_argument("--thresholds", choices=THEOREMS, help="append this theorem's thresholds")
    p.add_argument("--param", action="append", help="theorem parameter name=value")


def _thresholds_options(p):
    _common(p, function=False)
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--param", action="append", help="theorem parameter name=value")


def _recover_options(p):
    _common(p)
    p.add_argument("--base", help="base point coordinates, comma-separated (default: box center)")
    p.add_argument("--grid-n", type=int, default=257)
    p.add_argument("--residual-tol", type=_finite_float, default=1e-6)
    p.add_argument("--out-dir", help="export recovered components as CSV into this directory")


def _fold_options(p):
    _common(p)
    p.add_argument("--base", required=True, help="base point x,y")
    p.add_argument("--theta", type=_finite_float, default=1.0)


def _expand_options(p):
    _common(p)
    p.add_argument(
        "--inputs",
        "--cantor",
        dest="inputs",
        required=True,
        help="set specs, one per variable or one shared: b4d01:12, m2r1/3:14, file:pts.bin",
    )
    p.add_argument("--ladder", required=True, help="e.g. 2^-6..2^-20 or comma-separated deltas")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--param", action="append", help="theorem parameter name=value")
    p.add_argument("--slack", type=_finite_float, default=0.05)
    p.add_argument("--delta-min", type=_finite_float, default=None)
    p.add_argument("--value-range", help="declared image range lo,hi")
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--budget", type=int, default=1 << 24)
    p.add_argument("--ladder-csv", help="write the (delta, N) ladder as CSV")
    p.add_argument(
        "--classify-first",
        action="store_true",
        help="run the classifier and attach its report (warns when inputs leave the witness box)",
    )


def _surface_distance_options(p):
    _common(p, function=False)
    p.add_argument("--psi", required=True, help="semicolon-separated surface components")
    p.add_argument("--uvars", required=True, help="comma-separated parameter names")
    p.add_argument("--x", required=True, help="ambient point coordinates")
    p.add_argument("--u", required=True, help="surface parameter coordinates")
    p.add_argument("--tol", type=_finite_float, default=1e-9)


def _verify_recovery_options(p):
    _common(p)
    p.add_argument("--components", required=True, help="directory of component CSV files")
    p.add_argument("--verify-n", type=int, default=50)
    p.add_argument("--residual-tol", type=_finite_float, default=1e-6)


def _gen_fractal_options(p):
    _common(p, function=False)
    p.add_argument("--spec", required=True, help="b4d01:12 or m2r1/3:14")
    p.add_argument("--budget", type=int, default=1 << 24)
    p.add_argument("out_file", help="output path")


# name -> (help, handler, options), in the order of the top-level help
_COMMANDS = {
    "classify": ("special-form / expanding classification", cmd_classify, _classify_options),
    "thresholds": ("exact dimensional thresholds", cmd_thresholds, _thresholds_options),
    "recover": ("recover a special-form decomposition", cmd_recover, _recover_options),
    "fold": ("verify the fold certificate at a base point", cmd_fold, _fold_options),
    "expand": ("dimension-expansion experiment", cmd_expand, _expand_options),
    "surface-distance": (
        "tangency certificate for distance-to-hypersurface",
        cmd_surface_distance,
        _surface_distance_options,
    ),
    "verify-recovery": (
        "replay a recovery from exported components",
        cmd_verify_recovery,
        _verify_recovery_options,
    ),
    "gen-fractal": (
        "generate a point set and write it as binary",
        cmd_gen_fractal,
        _gen_fractal_options,
    ),
}


def _build_parsers(
    only: str | None = None,
) -> tuple[argparse.ArgumentParser, dict[str, _CommandParser]]:
    """The top-level parser and each subcommand's parser by name; with only,
    the top level carries that one subcommand."""
    parser = argparse.ArgumentParser(
        prog="expandlab",
        description="Degeneracy certificates, thresholds, fold verification, "
        "special-form recovery, and dimension-expansion experiments.",
    )
    parser.add_argument("--version", action="version", version=f"expandlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    commands: dict[str, _CommandParser] = {}
    for name, (summary, handler, options) in _COMMANDS.items():
        if only in (None, name):
            p = commands[name] = sub.add_parser(name, help=summary)
            options(p)
            p.set_defaults(func=handler)
    return parser, commands


def _parse(argv: list[str]):
    """Parse argv with a parser that builds only the invoked command's
    options, named by the first argument.  Top-level help, --version, a
    missing or unknown command and any unrecognized argument go to the full
    parser, so help, usage and error text are the same as with it."""
    parser, commands = _build_parsers(argv[0] if argv and argv[0] in _COMMANDS else None)
    args, extra = parser.parse_known_args(argv)
    if extra:
        _build_parsers()[0].parse_args(argv)  # exits with the full parser's usage error
    return parser, commands, args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, commands, args = _parse(argv)
        config = _load_config(getattr(args, "config", None))
        if config:
            args = _apply_config(parser, commands[args.command], argv, config)
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, BudgetError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as err:
        print(f"precondition: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except UndeterminableOnBox as err:
        print(f"inconclusive: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (NumericalError, DomainError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RecursionError:
        print("error: expression nested too deeply or too large to process", file=sys.stderr)
        return EXIT_USAGE
    except ExprError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
