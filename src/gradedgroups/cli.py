"""Command line interface.

Every subcommand assembles a configuration object and funnels it through
:func:`run_config`, so a run is fully described by a JSON document.  The
``run`` subcommand takes such a document directly; the other subcommands
are shorthand for common operations on the builtin fixtures.  Reports are
deterministic for a fixed configuration: keys are sorted, every sampling
operation requires an explicit seed, and no timestamps are recorded.

Exit codes: 0 success, 2 configuration problem, 3 algebra validation
failure, 4 a scan or walk ran out of numerical resolution.  Each runner
imports its op's modules as it runs (once per process, as Python keeps
them): ``--help``, ``fixtures``, ``frame-show`` and a refused config never
load numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__, fixtures
from .algebra import (GroupValidationError, NumericalResolutionError, spec_from_json,
                      validate_algebra)
from .frame import METRIC_EUCLIDEAN, METRIC_LEFT
from .group import GroupLaw, bch_group_law

class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


# -- value checks -------------------------------------------------------------------


def _number(what: str, value) -> float:
    """A finite JSON number as a float; booleans are not numbers."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _parse_number(what: str, tok: str) -> float:
    try:
        value = float(tok)
    except ValueError as exc:
        raise ConfigError(f"{what}: expected a number, got {tok!r}") from exc
    return _number(what, value)


def _numbers(what: str, value) -> list:
    """A JSON list of finite numbers, as floats."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list of numbers, got {value!r}")
    return [_number(what, v) for v in value]


def _float_list(what: str, value) -> list:
    """A list of finite numbers, given as JSON or as a comma separated string."""
    if isinstance(value, str):
        return [_parse_number(what, t) for t in value.split(",") if t.strip()]
    return _numbers(what, value)


def _power(tok: str) -> tuple:
    """(base, exponent) of a schedule token: ``base^exp`` or a plain number."""
    base, caret, exp = tok.partition("^")
    try:
        return _parse_number("schedule base", base), int(exp) if caret else 1
    except ValueError as exc:
        raise ConfigError(f"bad schedule token {tok!r}; expected base^exponent") from exc


def parse_schedule(value) -> list:
    """Radius/delta schedules: a JSON list, "2^-2..2^-8", or "0.5,0.25"."""
    try:
        if isinstance(value, (list, tuple)):
            out = _numbers("schedule entry", value)
        elif isinstance(value, str) and ".." in value:
            lo, _, hi = value.partition("..")
            if "^" not in lo or "^" not in hi:
                raise ConfigError(f"schedule range endpoints need the form base^exp: {value!r}")
            (b1, e1), (b2, e2) = _power(lo), _power(hi)
            if b1 != b2:
                raise ConfigError(f"schedule range endpoints must share a base: {value!r}")
            if b1 == 1.0:                # every entry 1.0, however long the range
                raise ConfigError(f"schedule range of base 1 repeats one value: {value!r}")
            step = 1 if e2 >= e1 else -1
            out = []
            for e in range(e1, e2 + step, step):
                out.append(b1 ** e)
                if not out[-1] > 0:     # refused below, before the range runs on
                    break
        elif isinstance(value, str):
            out = [b ** e for b, e in (_power(t) for t in value.split(",") if t.strip())]
        else:
            raise ConfigError(f"cannot parse schedule from {value!r}")
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"schedule value out of range: {value!r}") from exc
    if not out or any(not v > 0 for v in out):
        raise ConfigError(f"schedule values must be positive: {value!r}")
    return out


# -- option table --------------------------------------------------------------------


class _Kind(NamedTuple):
    """How the values of one option are checked, and how its flag is parsed."""

    check: Callable        # (key, value) -> typed value; raises ConfigError
    flag_type: type = str
    choices: tuple | None = None


def _holds(what: str, ok) -> Callable:
    """A check that passes on the values for which ``ok`` holds."""
    def check(key, value):
        if not ok(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return value
    return check


def _check_schedule(key, value):
    parse_schedule(value)
    return value  # echoed as written


_METRICS = (METRIC_LEFT, METRIC_EUCLIDEAN)
COUNT = _Kind(_holds("an integer >= 0", lambda v: type(v) is int and v >= 0), int)
POSITIVE = _Kind(_holds("an integer >= 1", lambda v: type(v) is int and v >= 1), int)
FLOAT = _Kind(_number, float)
STR = _Kind(_holds("a string", lambda v: isinstance(v, str)))
SCHEDULE = _Kind(_check_schedule)
FLOATS = _Kind(_float_list)
METRIC = _Kind(_holds(f"one of {_METRICS}", lambda v: v in _METRICS), choices=_METRICS)
REQUIRED = object()  # stands in for the default of a key that has none

_LAW = {"group": (STR, None, "builtin group name"),
        "algebra_file": (STR, None, "JSON file with layers and brackets")}
_CURVE = {"curve": (STR, None, "builtin curve name"),
          "curve_file": (STR, None, "JSON file with group and C1 samples")}
_EPS = {"eps": (FLOATS, None, "comma separated layer scales")}
_INTERVAL = {"interval": (FLOATS, None, "a,b restriction of the parameter domain")}
_SEED = {"seed": (COUNT, REQUIRED, "random seed")}

# op -> key -> (kind, default or REQUIRED, flag help)
_OPTIONS = {
    "fixtures": {},
    "group-check": {**_LAW, **_SEED,
                    "samples": (COUNT, 1000, "random float triples"),
                    "exact_triples": (COUNT, 20, "random rational triples"),
                    "tol": (FLOAT, 1e-12, "largest float associativity defect")},
    "frame-show": _LAW,
    "metric-audit": {"group": (STR, REQUIRED, "builtin group name"), **_EPS, **_SEED,
                     "samples": (POSITIVE, 100_000, "random triples")},
    "curve-degree": {**_CURVE, "grid": (POSITIVE, 512, "profile grid points")},
    "blowup": {**_CURVE, **_EPS, "t0": (FLOAT, REQUIRED, "curve parameter"),
               "radii": (SCHEDULE, "2^-1..2^-10", "radius schedule"),
               "metric": (METRIC, METRIC_EUCLIDEAN, "curve metric")},
    "diverge": {**_CURVE, **_EPS, "t0": (FLOAT, REQUIRED, "curve parameter"),
                "radii": (SCHEDULE, "2^-4..2^-12", "radius schedule"),
                "metric": (METRIC, METRIC_LEFT, "curve metric"),
                "margin": (FLOAT, 0.5, "slope margin to certify")},
    "cover": {**_CURVE, **_EPS, **_INTERVAL,
              "q": (FLOAT, None, "measure exponent (default: the curve degree)"),
              "deltas": (SCHEDULE, "2^-2..2^-8", "delta schedule")},
    "area": {**_CURVE, **_EPS, **_INTERVAL,
             "deltas": (SCHEDULE, "2^-2..2^-8", "delta schedule")},
    "negligibility": {**_CURVE, **_EPS,
                      "deltas": (SCHEDULE, "2^-2..2^-10", "delta schedule"),
                      "grid": (POSITIVE, 512, "profile grid points")},
}


def resolve_config(cfg) -> dict:
    """Check a configuration object against the option table, fill in defaults.

    Unknown keys are rejected rather than ignored, so a typo cannot
    silently fall back to a default.  Every value must have its option's
    kind, and ``null`` is accepted only where the default is None.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    op = cfg.get("op")
    if not isinstance(op, str) or op not in _OPTIONS:
        raise ConfigError(f"unknown or missing op {op!r}; "
                          f"choose from {sorted(_OPTIONS)}")
    options = _OPTIONS[op]
    unknown = sorted(set(cfg) - set(options) - {"op"})
    if unknown:
        raise ConfigError(f"unknown config keys for op {op!r}: {unknown}")
    missing = sorted(k for k, (_, default, _) in options.items()
                     if default is REQUIRED and k not in cfg)
    if missing:
        raise ConfigError(f"missing required keys for op {op!r}: {missing}")
    resolved = {"op": op}
    for key, (kind, default, _) in options.items():
        value = cfg.get(key, default)
        if value is not None or default is not None:
            value = kind.check(key, value)
        resolved[key] = value
    return resolved


# -- shared resolution helpers ------------------------------------------------------


def _resolve_law(cfg) -> GroupLaw:
    name = cfg.get("group")
    path = cfg.get("algebra_file")
    if (name is None) == (path is None):
        raise ConfigError("exactly one of 'group' and 'algebra_file' is required")
    if name is not None:
        try:
            return fixtures.group_law(name)
        except KeyError as exc:   # str() of a KeyError is the repr of its text
            raise ConfigError(exc.args[0]) from exc
    with open(path, "r", encoding="utf-8") as fh:
        return bch_group_law(validate_algebra(spec_from_json(fh.read())))


def _resolve_sample(s, n: int) -> dict:
    if not isinstance(s, dict) or set(s) != {"t", "position", "velocity"}:
        raise ConfigError("each curve sample must be "
                          "{\"t\": ..., \"position\": [...], \"velocity\": [...]}")
    out = {"t": _number("sample t", s["t"])}
    for key in ("position", "velocity"):
        out[key] = _numbers(f"sample {key}", s[key])
        if len(out[key]) != n:
            raise ConfigError(f"sample {key} must list {n} numbers, got {s[key]!r}")
    return out


def _resolve_curve(cfg):
    """(law, curve, group name) from a fixture name or a sample file."""
    name = cfg.get("curve")
    path = cfg.get("curve_file")
    if (name is None) == (path is None):
        raise ConfigError("exactly one of 'curve' and 'curve_file' is required")
    if name is not None:
        try:
            fx = fixtures.curve_fixture(name)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
        return fixtures.group_law(fx.group), fx.curve, fx.group
    from .curve import curve_from_samples
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or set(doc) - {"group", "samples"}:
        raise ConfigError("curve file must be {\"group\": ..., \"samples\": [...]}")
    group = doc.get("group")
    if group not in fixtures.group_names():
        raise ConfigError(f"curve file group must be one of {fixtures.group_names()}")
    law = fixtures.group_law(group)
    samples = doc.get("samples", [])
    if not isinstance(samples, list):
        raise ConfigError(f"curve file samples must be a list, got {samples!r}")
    curve = curve_from_samples([_resolve_sample(s, law.n) for s in samples], law.n,
                               name="curve_file")
    return law, curve, group


def _resolve_distance(law, cfg):
    from .metric import HomogeneousDistance
    eps = cfg["eps"]
    try:
        return HomogeneousDistance(law, (1.0,) * law.step if eps is None else tuple(eps))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_interval(cfg):
    iv = cfg["interval"]
    if iv is not None and (len(iv) != 2 or not iv[0] < iv[1]):
        raise ConfigError(f"interval must be [a, b] with a < b, got {iv!r}")
    return None if iv is None else tuple(iv)


# -- operations ---------------------------------------------------------------------


def _run_fixtures(cfg) -> dict:
    return fixtures.catalog()


def _run_group_check(cfg) -> dict:
    law = _resolve_law(cfg)
    rng = random.Random(cfg["seed"])
    # Fraction(randint(-8, 8), randint(1, 8)) drawn alike: randint(a, b) is a + randrange(b - a + 1)
    table = [[Fraction(a, b) for b in range(1, 9)] for a in range(-8, 9)]

    def point():
        return [table[rng.randrange(17)][rng.randrange(8)] for _ in range(law.n)]

    exact_ok = True
    for _ in range(cfg["exact_triples"]):
        x, y, z = point(), point(), point()
        lhs = law.multiply_exact(law.multiply_exact(x, y), z)
        rhs = law.multiply_exact(x, law.multiply_exact(y, z))
        if lhs != rhs:
            exact_ok = False
            break

    import numpy as np
    m = cfg["samples"]
    fr = np.random.default_rng(cfg["seed"])
    x = fr.uniform(-1.0, 1.0, (m, law.n))
    y = fr.uniform(-1.0, 1.0, (m, law.n))
    z = fr.uniform(-1.0, 1.0, (m, law.n))
    # x * y and y * z in one call, then (x * y) * z and x * (y * z) in one
    first = law.multiply(np.concatenate([x, y]), np.concatenate([y, z]))
    second = law.multiply(np.concatenate([first[:m], x]), np.concatenate([z, first[m:]]))
    gap = second[:m] - second[m:]
    defect = float(np.max(np.abs(gap))) if m else 0.0
    return {"n": law.n, "step": law.step, "degrees": list(law.degrees),
            "exact_triples": cfg["exact_triples"],
            "exact_associative": exact_ok,
            "float_samples": m, "max_associativity_defect": defect,
            "tol": cfg["tol"], "passed": exact_ok and defect <= cfg["tol"]}


def _run_frame_show(cfg) -> dict:
    law = _resolve_law(cfg)
    names = [f"x{i + 1}" for i in range(law.n)] + [f"y{i + 1}" for i in range(law.n)]
    q = {f"q{i + 1}": law.q_polys[i].format(names)
         for i in range(law.n) if not law.q_polys[i].is_zero()}
    return {"n": law.n, "step": law.step, "degrees": list(law.degrees),
            "group_law_terms": q, "frame_entries": law.frame.describe()}


def _run_metric_audit(cfg) -> dict:
    from .metric import triangle_audit
    dist = _resolve_distance(_resolve_law(cfg), cfg)
    audit = triangle_audit(dist, samples=cfg["samples"], seed=cfg["seed"])
    return {"eps": list(dist.eps), "samples": audit.samples, "seed": audit.seed,
            "max_ratio": audit.max_ratio, "passed": audit.passed,
            "witness": audit.witness}


def _run_curve_degree(cfg) -> dict:
    from .curve import degree_profile
    law, curve, group = _resolve_curve(cfg)
    prof = degree_profile(law, curve, grid_points=cfg["grid"])
    counts = {}
    for d in prof.degrees.tolist():
        counts[str(d)] = counts.get(str(d), 0) + 1
    return {"group": group, "degree": prof.degree,
            "grid_points": cfg["grid"],
            "degree_counts": counts,
            "low_degree_intervals": [list(iv) for iv in prof.low_degree_intervals]}


def _measured(cfg):
    """(curve, distance, group name) of the ops that measure a curve."""
    law, curve, group = _resolve_curve(cfg)
    return curve, _resolve_distance(law, cfg), group


def _run_blowup(cfg) -> dict:
    from .measure import blowup_sequence
    curve, dist, group = _measured(cfg)
    rep = blowup_sequence(dist, curve, cfg["t0"], parse_schedule(cfg["radii"]),
                          metric=cfg["metric"])
    return {"group": group, **asdict(rep)}


def _run_diverge(cfg) -> dict:
    from .measure import density_divergence
    curve, dist, group = _measured(cfg)
    rep = density_divergence(dist, curve, cfg["t0"], parse_schedule(cfg["radii"]),
                             metric=cfg["metric"], margin=cfg["margin"])
    return {"group": group, **asdict(rep)}


def _run_cover(cfg) -> dict:
    from .curve import curve_degree
    from .measure import covering_values
    curve, dist, group = _measured(cfg)
    q = cfg["q"]
    if q is None:
        q = float(curve_degree(dist.law, curve))
    interval = _resolve_interval(cfg)
    rep = covering_values(dist, curve, q, parse_schedule(cfg["deltas"]),
                          intervals=None if interval is None else [interval])
    return {"group": group, **asdict(rep)}


def _run_area(cfg) -> dict:
    from .measure import area_formula_residual
    curve, dist, group = _measured(cfg)
    rep = asdict(area_formula_residual(dist, curve, deltas=parse_schedule(cfg["deltas"]),
                                       interval=_resolve_interval(cfg)))
    covering = rep.pop("covering")      # flattened: its q is the report's q
    return {"group": group, **covering, **rep}


def _run_negligibility(cfg) -> dict:
    from .measure import negligibility_estimate
    curve, dist, group = _measured(cfg)
    rep = asdict(negligibility_estimate(dist, curve, parse_schedule(cfg["deltas"]),
                                        grid_points=cfg["grid"]))
    rep["low_degree_intervals"] = rep.pop("intervals")
    v = rep["values"]
    rep["successive_ratios"] = [v[i + 1] / v[i] if v[i] > 0 else 0.0
                                for i in range(len(v) - 1)]
    return {"group": group, **rep}


_SCHEDULE_CSV = ("deltas", "values", "ball_counts")
_RADII_CSV = ("radii", "ratios")

_RUNNERS = {  # op -> (runner, subcommand help, CSV columns or None)
    "fixtures": (_run_fixtures, "list builtin groups and curves", None),
    "group-check": (_run_group_check,
                    "validate a bracket table and the associativity of its group law", None),
    "frame-show": (_run_frame_show,
                   "print the group law terms and the left frame entries", None),
    "metric-audit": (_run_metric_audit,
                     "sample the triangle inequality for a gauge distance", None),
    "curve-degree": (_run_curve_degree, "degree profile of a curve", None),
    "blowup": (_run_blowup, "ball measure ratios at a point of maximal degree", _RADII_CSV),
    "diverge": (_run_diverge, "certify density blow-up at a point below maximal degree",
                _RADII_CSV),
    "cover": (_run_cover, "greedy covering values along a delta schedule", _SCHEDULE_CSV),
    "area": (_run_area, "covering value against the tangent integral", _SCHEDULE_CSV),
    "negligibility": (_run_negligibility,
                      "covering values of the low-degree parameter set", _SCHEDULE_CSV),
}


def run_config(cfg) -> dict:
    resolved = resolve_config(cfg)
    result = _RUNNERS[resolved["op"]][0](resolved)
    return {"version": __version__, "config": _jsonable(resolved),
            "result": _jsonable(result)}


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):        # a numpy array or scalar
        return _jsonable(value.tolist())
    if isinstance(value, Fraction):
        return str(value)
    return value


# -- output --------------------------------------------------------------------------

def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    op = report["config"]["op"]
    cols = _RUNNERS[op][2]
    if cols is None:
        raise ConfigError(f"csv output is not available for op {op!r}; use json")
    result = report["result"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in zip(*(result[c] for c in cols)):
        writer.writerow(row)
    return buf.getvalue()


def _emit(report: dict, fmt: str, out: str | None) -> None:
    text = render_report(report, fmt)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- argument parsing -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ConfigError, so that they print as
    JSON and exit 2 like every other configuration error; ``--help`` still
    prints and exits 0.  Subcommand parsers are of the same class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per op and one ``--flag`` per key of the option table."""
    p = _Parser(
        prog="gradedgroups",
        description="group laws, gauge metrics and curve measures from "
                    "graded bracket tables")
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one operation from a JSON config file")
    runp.add_argument("--config", required=True, help="path to the config document")
    parsers = [runp]
    for op, options in _OPTIONS.items():
        sp = sub.add_parser(op, help=_RUNNERS[op][1])
        for key, (kind, default, text) in options.items():
            sp.add_argument("--" + key.replace("_", "-"), type=kind.flag_type,
                            choices=kind.choices, required=default is REQUIRED, help=text)
        parsers.append(sp)
    for sp in parsers:
        sp.add_argument("--out", help="write the report to this file instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    return p


def _config_from_args(args: argparse.Namespace) -> dict:
    if args.command == "run":
        with open(args.config, "r", encoding="utf-8") as fh:
            return json.load(fh)
    skip = {"command", "out", "format"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    cfg["op"] = args.command
    return cfg


def _fail(exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = run_config(_config_from_args(args))
        _emit(report, args.format, args.out)
        return 0
    except ConfigError as exc:
        return _fail(exc, 2)
    except GroupValidationError as exc:
        return _fail(exc, 3)
    except NumericalResolutionError as exc:
        return _fail(exc, 4)
    except (ValueError, OSError, KeyError) as exc:
        return _fail(exc, 2)
    except MemoryError as exc:
        # a count too large to allocate, e.g. --samples 10^15
        return _fail(ConfigError(f"not enough memory for this config: {exc}"), 2)


if __name__ == "__main__":
    sys.exit(main())
