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
from .expr import DomainError, ExprError, FunctionSpec, UndeterminableOnBox, parse
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


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """float(text), which must be finite: NaN or infinity is a usage error."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


class _OutOfRange(Exception):
    """An option value of the right type but outside the option's range.  It
    is no ValueError, so argparse lets it through, and main reports it with
    its own message (exit 2), as it reports a value the library refuses."""


def _at_least(parse, lo, message: str):
    """An option type: parse(text), refused below lo with message, formatted
    with the value.  It keeps parse's name for argparse's "invalid int
    value" text."""

    def check(text: str):
        value = parse(text)
        if not value >= lo:
            raise _OutOfRange(message.format(value))
        return value

    check.__name__ = parse.__name__
    return check


def _fraction(text: str) -> Fraction:
    """Fraction(text), whose denominator must not be 0: a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


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
        out[name.strip()] = _fraction(value.strip())
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
        if b1 < 2:
            raise ValueError(f"a ladder base must be at least 2, got {b1}")
        if e1 > 0 or e2 > 0:
            raise ValueError("ladder exponents must be negative (e.g. 2^-6..2^-20)")
        ks = range(min(-e1, -e2), max(-e1, -e2) + 1)
        return [Fraction(1, b1**k) for k in ks]
    parts = [part.strip() for part in text.split(",")]
    return [_fraction(part) if "/" in part else _finite_float(part) for part in parts]


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
        r = _fraction(r_s) if "/" in r_s or "." not in r_s else float(r_s)
        return cantor_points(CantorSpec(int(m_s), r, level), budget=budget)
    raise ValueError(f"unrecognized set spec {spec!r}")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    version = doc.pop("schema_version", 1)
    if version != 1:
        raise ValueError(f"unsupported config schema_version {version}")
    return doc


def _apply_config(options: dict[str, argparse.Action], config: dict):
    """Make each config value its option's default.  An option with a type
    converts the value's JSON text by it; a flag takes true or false; an
    option that may repeat takes a list of strings, or one string; any
    other option takes a string.  The value must be one of the option's
    choices."""
    for key, value in config.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} does not match any option")
        if action.type is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            try:
                value = action.type(text)
            except (TypeError, ValueError, _OutOfRange) as err:
                raise ValueError(f"config key {key!r}: {err}") from None
        elif action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r}: expected true or false, got {json.dumps(value)}")
        elif isinstance(action, argparse._AppendAction):
            value = [value] if isinstance(value, str) else value
            if not (isinstance(value, list) and all(isinstance(item, str) for item in value)):
                raise ValueError(f"config key {key!r}: expected a list of strings, got {json.dumps(value)}")
        elif not isinstance(value, str):
            raise ValueError(f"config key {key!r}: expected a string, got {json.dumps(value)}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
        action.default = value


def _emit(document: dict, args: argparse.Namespace):
    if not args.no_timestamp:
        document["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(jsonable(document), indent=2, sort_keys=True, allow_nan=False)
    out = getattr(args, "out", None)  # a namespace without out prints
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _echo_config(args: argparse.Namespace) -> dict:
    options = {k: v for k, v in sorted(vars(args).items()) if k != "out"}
    return {
        "command": args.command,
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
    return ZeroPolicy(samples=args.samples, rel_tol=args.rel_tol, seed=args.seed)


# ---------------------------------------------------------------------------
# Commands: each returns its JSON document, without the config, and its exit
# code; main adds the config and emits the document.
# ---------------------------------------------------------------------------


def cmd_classify(args) -> tuple[dict, int]:
    f = _function_from_args(args)
    report = classify(f, _policy(args))
    doc = {"report": report.to_json_dict()}
    if args.thresholds:
        doc["thresholds"] = thresholds(args.thresholds, **_parse_params(args.param)).to_json_dict()
    print(f"classification: {report.classification}", file=sys.stderr)
    if report.witness_point is not None:
        print(
            f"witness: {report.witness_certificate} = {report.witness_value:.6g} "
            f"at {report.witness_point}",
            file=sys.stderr,
        )
    return doc, EXIT_INCONCLUSIVE if report.classification == INCONCLUSIVE else EXIT_OK


def cmd_thresholds(args) -> tuple[dict, int]:
    report = thresholds(args.theorem, **_parse_params(args.param))
    return {"report": report.to_json_dict()}, EXIT_OK


def cmd_recover(args) -> tuple[dict, int]:
    f = _function_from_args(args)
    base = _parse_point(args.base, f.arity) if args.base else None
    kwargs = dict(base=base, grid_n=args.grid_n, residual_tol=args.residual_tol, policy=_policy(args))
    result = recover_bivariate(f, **kwargs) if f.arity == 2 else recover_trivariate(f, **kwargs)
    doc = {"report": result.to_json_dict()}
    if args.out_dir:
        _export_components(result.components, args.out_dir, result.to_json_dict())
        doc["components_dir"] = args.out_dir
    print(f"recovery: {result.verdict} (residual {result.residual:.3e})", file=sys.stderr)
    return doc, EXIT_OK if result.success else EXIT_NUMERICAL


def cmd_fold(args) -> tuple[dict, int]:
    f = _function_from_args(args)
    base = _parse_point(args.base, 2)
    report = fold_verify(f, base, theta=args.theta, policy=_policy(args))
    verdict = report.verdict if report.reason is None else f"{report.verdict} ({report.reason})"
    print(f"fold check at {base}: {verdict}", file=sys.stderr)
    return {"report": report.to_json_dict()}, EXIT_OK if report.verified else EXIT_INCONCLUSIVE


def cmd_expand(args) -> tuple[dict, int]:
    f = _function_from_args(args)
    specs = [s for s in args.inputs.split(",") if s.strip()]
    if len(specs) == 1:
        specs = specs * f.arity
    inputs = [_parse_set_spec(s, args.budget) for s in specs]
    ladder = _parse_ladder(args.ladder)
    value_range = _parse_point(args.value_range, 2) if args.value_range else None
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
    doc = {"report": report.to_json_dict()}
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
    return doc, EXIT_OK


def cmd_surface_distance(args) -> tuple[dict, int]:
    components = [parse(c) for c in args.psi.split(";")]
    uvars = tuple(v.strip() for v in args.uvars.split(","))
    x = _parse_point(args.x)
    u = _parse_point(args.u)
    check = surface_distance_check(components, uvars, x, u, tol=args.tol)
    return {"report": check.to_json_dict()}, EXIT_OK


def cmd_verify_recovery(args) -> tuple[dict, int]:
    f = _function_from_args(args)
    components = _load_components(args.components)
    residual = reconstruction_residual(f, components, args.verify_n)
    ok = residual < args.residual_tol
    report = {
        "residual": residual,
        "residual_tol": args.residual_tol,
        "verdict": "success" if ok else "failure",
    }
    print(f"replayed residual: {residual:.3e}", file=sys.stderr)
    return {"report": report}, EXIT_OK if ok else EXIT_NUMERICAL


def cmd_gen_fractal(args) -> tuple[dict, int]:
    ps = _parse_set_spec(args.spec, args.budget)
    save_points(ps, args.out_file)
    report = {
        "count": len(ps),
        "dimension": ps.dimension,
        "interval": list(ps.interval),
        "path": args.out_file,
    }
    return {"report": report}, EXIT_OK


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


# Options are (flags, argparse keywords), in the order of each command's help.
_FUNCTION_OPTIONS = (
    (("-f", "--function"), dict(required=True, help="expression text")),
    (("--vars",), dict(help="comma-separated variable names (default: free variables, sorted)")),
    (("--box",), dict(help="lo,hi per variable, comma-separated (default: 0,1 per variable)")),
)
_RUN_OPTIONS = (
    (("--config",), dict(help="JSON config file; CLI flags override its fields")),
    (("--out",), dict(help="write the JSON document to a file instead of stdout")),
    (("--no-timestamp",), dict(action="store_true", help="omit the timestamp field")),
    (("--seed",), dict(type=_at_least(int, 0, "the seed must be a non-negative integer, got {}"), default=0)),
    (("--samples",), dict(type=int, default=64, help="zero-test sample count")),
    (
        ("--rel-tol",),
        dict(type=_at_least(_finite_float, 0, "--rel-tol must be at least 0, got {}"), default=1e-9,
             help="zero-test relative tolerance"),
    ),
)
_THEOREM = (("--theorem",), dict(required=True, choices=THEOREMS))
_PARAM = (("--param",), dict(action="append", help="theorem parameter name=value"))
_RESIDUAL_TOL = (
    ("--residual-tol",),
    dict(type=_at_least(_finite_float, 0, "--residual-tol must be at least 0, got {}"), default=1e-6),
)
_BUDGET = (("--budget",), dict(type=int, default=1 << 24))

# name -> (help, handler, options), in the order of the top-level help
_COMMANDS = {
    "classify": (
        "special-form / expanding classification",
        cmd_classify,
        (
            *_FUNCTION_OPTIONS,
            *_RUN_OPTIONS,
            (("--thresholds",), dict(choices=THEOREMS, help="append this theorem's thresholds")),
            _PARAM,
        ),
    ),
    "thresholds": ("exact dimensional thresholds", cmd_thresholds, (*_RUN_OPTIONS, _THEOREM, _PARAM)),
    "recover": (
        "recover a special-form decomposition",
        cmd_recover,
        (
            *_FUNCTION_OPTIONS,
            *_RUN_OPTIONS,
            (("--base",), dict(help="base point coordinates, comma-separated (default: box center)")),
            # the spline through each recovered component needs 4 nodes
            (("--grid-n",), dict(type=_at_least(int, 4, "--grid-n must be at least 4, got {}"), default=257)),
            _RESIDUAL_TOL,
            (("--out-dir",), dict(help="export recovered components as CSV into this directory")),
        ),
    ),
    "fold": (
        "verify the fold certificate at a base point",
        cmd_fold,
        (
            *_FUNCTION_OPTIONS,
            *_RUN_OPTIONS,
            (("--base",), dict(required=True, help="base point x,y")),
            (("--theta",), dict(type=_finite_float, default=1.0)),
        ),
    ),
    "expand": (
        "dimension-expansion experiment",
        cmd_expand,
        (
            *_FUNCTION_OPTIONS,
            *_RUN_OPTIONS,
            (
                ("--inputs", "--cantor"),
                dict(dest="inputs", required=True, help="set specs, one per variable or one shared: "
                     "b4d01:12, m2r1/3:14, file:pts.bin"),
            ),
            (("--ladder",), dict(required=True, help="e.g. 2^-6..2^-20 or comma-separated deltas")),
            _THEOREM,
            _PARAM,
            (("--slack",), dict(type=_finite_float, default=0.05)),
            (("--delta-min",), dict(type=_finite_float, default=None)),
            (("--value-range",), dict(help="declared image range lo,hi")),
            (("--threads",), dict(type=int, default=1)),
            _BUDGET,
            (("--ladder-csv",), dict(help="write the (delta, N) ladder as CSV")),
            (
                ("--classify-first",),
                dict(action="store_true", help="run the classifier and attach its report "
                     "(warns when inputs leave the witness box)"),
            ),
        ),
    ),
    "surface-distance": (
        "tangency certificate for distance-to-hypersurface",
        cmd_surface_distance,
        (
            *_RUN_OPTIONS,
            (("--psi",), dict(required=True, help="semicolon-separated surface components")),
            (("--uvars",), dict(required=True, help="comma-separated parameter names")),
            (("--x",), dict(required=True, help="ambient point coordinates")),
            (("--u",), dict(required=True, help="surface parameter coordinates")),
            (("--tol",), dict(type=_at_least(_finite_float, 0, "--tol must be at least 0, got {}"), default=1e-9)),
        ),
    ),
    "verify-recovery": (
        "replay a recovery from exported components",
        cmd_verify_recovery,
        (
            *_FUNCTION_OPTIONS,
            *_RUN_OPTIONS,
            (("--components",), dict(required=True, help="directory of component CSV files")),
            (("--verify-n",), dict(type=_at_least(int, 1, "--verify-n must be at least 1, got {}"),
                                   default=50)),
            _RESIDUAL_TOL,
        ),
    ),
    "gen-fractal": (
        "generate a point set and write it as binary",
        cmd_gen_fractal,
        (
            *_RUN_OPTIONS,
            (("--spec",), dict(required=True, help="b4d01:12 or m2r1/3:14")),
            _BUDGET,
            (("out_file",), dict(help="output path")),
        ),
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse reads a token that starts with "-" as a flag unless it is a
    lone number.  This parser reads it as a value unless it starts with "--"
    or with one of the parser's short flags (-f, -h), so --box -1,1,0,1
    means --box=-1,1,0,1 and -f -x*y means -f=-x*y."""

    def _parse_optional(self, arg_string):
        if arg_string[1:2] != "-" and arg_string[:2] not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def _build_parsers(
    only: str | None = None,
) -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The top-level parser and each subcommand's options by destination;
    with only, the top level carries that one subcommand."""
    parser = _Parser(
        prog="expandlab",
        description="Degeneracy certificates, thresholds, fold verification, "
        "special-form recovery, and dimension-expansion experiments.",
    )
    parser.add_argument("--version", action="version", version=f"expandlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {}
    for name, (summary, _, table) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=summary)
            actions = (p.add_argument(*flags, **kwargs) for flags, kwargs in table)
            options[name] = {action.dest: action for action in actions}
    return parser, options


def _parse(argv: list[str]):
    """Parse argv with a parser that builds only the invoked command's
    options, named by the first argument.  Top-level help, --version, a
    missing or unknown command and any unrecognized argument go to the full
    parser, so help, usage and error text are the same as with it."""
    parser, options = _build_parsers(argv[0] if argv and argv[0] in _COMMANDS else None)
    args, extra = parser.parse_known_args(argv)
    if extra:
        _build_parsers()[0].parse_args(argv)  # exits with the full parser's usage error
    return parser, options, args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, options, args = _parse(argv)
        config = _load_config(args.config)
        if config:
            _apply_config(options[args.command], config)
            args = parser.parse_args(argv)  # explicit flags win over config values
        doc, code = _COMMANDS[args.command][1](args)
        doc["config"] = _echo_config(args)
        _emit(doc, args)
        return code
    except (ValueError, _OutOfRange, BudgetError, OSError) as err:
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
