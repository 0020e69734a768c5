"""Command line interface.

Every subcommand assembles a configuration object and funnels it through
:func:`run_config`, so a run is fully described by a JSON document.  The
``run`` subcommand takes such a document directly; the other subcommands
are shorthand for common operations on the builtin fixtures.  Reports are
deterministic for a fixed configuration: keys are sorted, every sampling
operation requires an explicit seed, and no timestamps are recorded.

Exit codes: 0 success, 2 configuration problem, 3 algebra validation
failure, 4 a scan or walk ran out of numerical resolution.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

import numpy as np

from . import __version__, fixtures
from .algebra import GroupValidationError, spec_from_json, validate_algebra
from .curve import curve_from_samples, degree_profile
from .group import GroupLaw, bch_group_law
from .measure import (NumericalResolutionError, area_formula_residual,
                      blowup_sequence, covering_values, density_divergence,
                      negligibility_estimate)
from .metric import HomogeneousDistance, triangle_audit

class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


# -- schedule / option parsing ----------------------------------------------------


def _parse_power(tok: str):
    base, _, exp = tok.partition("^")
    try:
        return float(base) ** int(exp)
    except ValueError as exc:
        raise ConfigError(f"bad schedule token {tok!r}; expected base^exponent") from exc


def parse_schedule(value) -> list:
    """Radius/delta schedules: a JSON list, "2^-2..2^-8", or "0.5,0.25"."""
    if isinstance(value, (list, tuple)):
        try:
            out = [float(v) for v in value]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"schedule entries must be numbers: {value!r}") from exc
    elif isinstance(value, str):
        if ".." in value:
            lo, _, hi = value.partition("..")
            lo, hi = lo.strip(), hi.strip()
            if "^" not in lo or "^" not in hi:
                raise ConfigError(f"schedule range endpoints need the form base^exp: {value!r}")
            b1 = lo.partition("^")[0]
            b2 = hi.partition("^")[0]
            if float(b1) != float(b2):
                raise ConfigError(f"schedule range endpoints must share a base: {value!r}")
            try:
                e1 = int(lo.partition("^")[2])
                e2 = int(hi.partition("^")[2])
            except ValueError as exc:
                raise ConfigError(f"schedule exponents must be integers: {value!r}") from exc
            step = 1 if e2 >= e1 else -1
            out = [float(b1) ** e for e in range(e1, e2 + step, step)]
        else:
            out = [_parse_power(t) if "^" in t else _parse_float(t)
                   for t in value.split(",") if t.strip()]
    else:
        raise ConfigError(f"cannot parse schedule from {value!r}")
    if not out or any(not v > 0 for v in out):
        raise ConfigError(f"schedule values must be positive: {value!r}")
    return out


def _parse_float(tok: str) -> float:
    try:
        return float(tok)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {tok!r}") from exc


# -- configuration -----------------------------------------------------------------

_OP_DEFAULTS = {
    "fixtures": {},
    "group-check": {"group": None, "algebra_file": None, "samples": 1000,
                    "exact_triples": 20, "tol": 1e-12},
    "frame-show": {"group": None, "algebra_file": None},
    "metric-audit": {"group": None, "eps": None, "samples": 100_000},
    "curve-degree": {"curve": None, "curve_file": None, "grid": 512,
                     "tol_rel": 1e-8},
    "blowup": {"curve": None, "curve_file": None, "eps": None, "t0": None,
               "radii": "2^-1..2^-10", "metric": "euclidean"},
    "diverge": {"curve": None, "curve_file": None, "eps": None, "t0": None,
                "radii": "2^-4..2^-12", "metric": "left", "margin": 0.5},
    "cover": {"curve": None, "curve_file": None, "eps": None, "q": None,
              "deltas": "2^-2..2^-8", "interval": None},
    "area": {"curve": None, "curve_file": None, "eps": None,
             "deltas": "2^-2..2^-8", "interval": None, "metric": "euclidean"},
    "negligibility": {"curve": None, "curve_file": None, "eps": None,
                      "deltas": "2^-2..2^-10", "grid": 512},
}

_OP_REQUIRED = {
    "metric-audit": {"group", "seed"},
    "group-check": {"seed"},
    "blowup": {"t0"},
    "diverge": {"t0"},
}


def resolve_config(cfg) -> dict:
    """Validate a configuration object and fill in defaults.

    Unknown keys are rejected rather than ignored, so a typo cannot
    silently fall back to a default.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    op = cfg.get("op")
    if op not in _OP_DEFAULTS:
        raise ConfigError(f"unknown or missing op {op!r}; "
                          f"choose from {sorted(_OP_DEFAULTS)}")
    required = _OP_REQUIRED.get(op, set())
    allowed = set(_OP_DEFAULTS[op]) | required | {"op"}
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for op {op!r}: {unknown}")
    missing = sorted(required - set(cfg))
    if missing:
        raise ConfigError(f"missing required keys for op {op!r}: {missing}")
    resolved = dict(_OP_DEFAULTS[op])
    resolved.update(cfg)
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
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    with open(path, "r", encoding="utf-8") as fh:
        return bch_group_law(validate_algebra(spec_from_json(fh.read())))


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
            raise ConfigError(str(exc)) from exc
        return fixtures.group_law(fx.group), fx.curve, fx.group
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or set(doc) - {"group", "samples"}:
        raise ConfigError("curve file must be {\"group\": ..., \"samples\": [...]}")
    group = doc.get("group")
    if group not in fixtures.group_names():
        raise ConfigError(f"curve file group must be one of {fixtures.group_names()}")
    law = fixtures.group_law(group)
    curve = curve_from_samples(doc.get("samples", []), law.n, name="curve_file")
    return law, curve, group


def _resolve_distance(law, cfg) -> HomogeneousDistance:
    eps = cfg.get("eps")
    if eps is None:
        eps = [1.0] * law.step
    if isinstance(eps, str):
        eps = [_parse_float(t) for t in eps.split(",") if t.strip()]
    if not isinstance(eps, (list, tuple)) or len(eps) != law.step:
        raise ConfigError(f"eps must list {law.step} positive scale factors")
    try:
        return HomogeneousDistance(law, tuple(float(e) for e in eps))
    except GroupValidationError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_interval(cfg):
    iv = cfg.get("interval")
    if iv is None:
        return None
    if isinstance(iv, str):
        iv = [_parse_float(t) for t in iv.split(",") if t.strip()]
    if not isinstance(iv, (list, tuple)) or len(iv) != 2 or not iv[0] < iv[1]:
        raise ConfigError(f"interval must be [a, b] with a < b, got {cfg['interval']!r}")
    return float(iv[0]), float(iv[1])


# -- operations ---------------------------------------------------------------------


def _run_fixtures(cfg) -> dict:
    return fixtures.catalog()


def _run_group_check(cfg) -> dict:
    law = _resolve_law(cfg)
    rng = random.Random(cfg["seed"])

    def point():
        return [Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                for _ in range(law.n)]

    exact_ok = True
    for _ in range(int(cfg["exact_triples"])):
        x, y, z = point(), point(), point()
        lhs = law.multiply_exact(law.multiply_exact(x, y), z)
        rhs = law.multiply_exact(x, law.multiply_exact(y, z))
        if lhs != rhs:
            exact_ok = False
            break

    m = int(cfg["samples"])
    fr = np.random.default_rng(cfg["seed"])
    x = fr.uniform(-1.0, 1.0, (m, law.n))
    y = fr.uniform(-1.0, 1.0, (m, law.n))
    z = fr.uniform(-1.0, 1.0, (m, law.n))
    gap = law.multiply(law.multiply(x, y), z) - law.multiply(x, law.multiply(y, z))
    defect = float(np.max(np.abs(gap))) if m else 0.0
    tol = float(cfg["tol"])
    return {"n": law.n, "step": law.step, "degrees": list(law.degrees),
            "exact_triples": int(cfg["exact_triples"]),
            "exact_associative": exact_ok,
            "float_samples": m, "max_associativity_defect": defect,
            "tol": tol, "passed": exact_ok and defect <= tol}


def _run_frame_show(cfg) -> dict:
    law = _resolve_law(cfg)
    names = [f"x{i + 1}" for i in range(law.n)] + [f"y{i + 1}" for i in range(law.n)]
    q = {f"q{i + 1}": law.q_polys[i].format(names)
         for i in range(law.n) if not law.q_polys[i].is_zero()}
    return {"n": law.n, "step": law.step, "degrees": list(law.degrees),
            "group_law_terms": q, "frame_entries": law.frame.describe()}


def _run_metric_audit(cfg) -> dict:
    if cfg.get("group") is None:
        raise ConfigError("metric-audit needs a builtin 'group'")
    law = _resolve_law({"group": cfg["group"]})
    dist = _resolve_distance(law, cfg)
    audit = triangle_audit(dist, samples=int(cfg["samples"]), seed=int(cfg["seed"]))
    return {"eps": list(dist.eps), "samples": audit.samples, "seed": audit.seed,
            "max_ratio": audit.max_ratio, "passed": audit.passed,
            "witness": audit.witness}


def _run_curve_degree(cfg) -> dict:
    law, curve, group = _resolve_curve(cfg)
    prof = degree_profile(law, curve, grid_points=int(cfg["grid"]),
                          tol_rel=float(cfg["tol_rel"]))
    counts = {}
    for d in prof.degrees.tolist():
        counts[str(d)] = counts.get(str(d), 0) + 1
    return {"group": group, "degree": prof.degree,
            "grid_points": int(cfg["grid"]),
            "degree_counts": counts,
            "low_degree_intervals": [list(iv) for iv in prof.low_degree_intervals]}


def _run_blowup(cfg) -> dict:
    law, curve, group = _resolve_curve(cfg)
    dist = _resolve_distance(law, cfg)
    rep = blowup_sequence(dist, curve, float(cfg["t0"]), parse_schedule(cfg["radii"]),
                          metric=cfg["metric"])
    return {"group": group, "t0": rep.t0, "q": rep.q, "radii": list(rep.radii),
            "ratios": list(rep.ratios), "predicted": rep.predicted,
            "diagnostic": rep.diagnostic, "truncated": rep.truncated}


def _run_diverge(cfg) -> dict:
    law, curve, group = _resolve_curve(cfg)
    dist = _resolve_distance(law, cfg)
    rep = density_divergence(dist, curve, float(cfg["t0"]),
                             parse_schedule(cfg["radii"]), metric=cfg["metric"],
                             margin=float(cfg["margin"]))
    return {"group": group, "t0": rep.t0, "q": rep.q, "radii": list(rep.radii),
            "ratios": list(rep.ratios), "slope": rep.slope,
            "certified": rep.certified, "margin": rep.margin}


def _run_cover(cfg) -> dict:
    law, curve, group = _resolve_curve(cfg)
    dist = _resolve_distance(law, cfg)
    q = cfg.get("q")
    if q is None:
        q = degree_profile(law, curve).degree
    interval = _resolve_interval(cfg)
    rep = covering_values(dist, curve, float(q), parse_schedule(cfg["deltas"]),
                          intervals=None if interval is None else [interval])
    return {"group": group, "q": rep.q, "deltas": list(rep.deltas),
            "values": list(rep.values), "ball_counts": list(rep.ball_counts),
            "extrapolated": rep.extrapolated}


def _run_area(cfg) -> dict:
    law, curve, group = _resolve_curve(cfg)
    dist = _resolve_distance(law, cfg)
    rep = area_formula_residual(dist, curve, metric=cfg["metric"],
                                deltas=parse_schedule(cfg["deltas"]),
                                interval=_resolve_interval(cfg))
    return {"group": group, "q": rep.q, "c_q": rep.c_q,
            "deltas": list(rep.covering.deltas), "values": list(rep.covering.values),
            "ball_counts": list(rep.covering.ball_counts),
            "extrapolated": rep.covering.extrapolated,
            "lhs": rep.lhs, "rhs": rep.rhs, "residual": rep.residual,
            "low_degree_warning": rep.low_degree_warning}


def _run_negligibility(cfg) -> dict:
    law, curve, group = _resolve_curve(cfg)
    dist = _resolve_distance(law, cfg)
    rep = negligibility_estimate(dist, curve, parse_schedule(cfg["deltas"]),
                                 grid_points=int(cfg["grid"]))
    ratios = [rep.values[i + 1] / rep.values[i] if rep.values[i] > 0 else 0.0
              for i in range(len(rep.values) - 1)]
    return {"group": group, "q": rep.q, "deltas": list(rep.deltas),
            "values": list(rep.values),
            "ball_counts": [int(c) for c in rep.ball_counts],
            "low_degree_intervals": [list(iv) for iv in rep.intervals],
            "successive_ratios": ratios}


_RUNNERS = {
    "fixtures": _run_fixtures,
    "group-check": _run_group_check,
    "frame-show": _run_frame_show,
    "metric-audit": _run_metric_audit,
    "curve-degree": _run_curve_degree,
    "blowup": _run_blowup,
    "diverge": _run_diverge,
    "cover": _run_cover,
    "area": _run_area,
    "negligibility": _run_negligibility,
}


def run_config(cfg) -> dict:
    resolved = resolve_config(cfg)
    result = _RUNNERS[resolved["op"]](resolved)
    return {"version": __version__, "config": _jsonable(resolved),
            "result": _jsonable(result)}


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, Fraction):
        return str(value)
    return value


# -- output --------------------------------------------------------------------------

_CSV_COLUMNS = {
    "blowup": ("radii", "ratios"),
    "diverge": ("radii", "ratios"),
    "cover": ("deltas", "values", "ball_counts"),
    "area": ("deltas", "values", "ball_counts"),
    "negligibility": ("deltas", "values", "ball_counts"),
}


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    op = report["config"]["op"]
    cols = _CSV_COLUMNS.get(op)
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


def _add_output_args(p) -> None:
    p.add_argument("--out", help="write the report to this file instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gradedgroups",
        description="group laws, gauge metrics and curve measures from "
                    "graded bracket tables")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one operation from a JSON config file")
    runp.add_argument("--config", required=True, help="path to the config document")
    _add_output_args(runp)

    fx = sub.add_parser("fixtures", help="list builtin groups and curves")
    _add_output_args(fx)

    gc = sub.add_parser("group-check", help="validate a bracket table and the "
                                            "associativity of its group law")
    gc.add_argument("--group", help="builtin group name")
    gc.add_argument("--algebra-file", help="JSON file with layers and brackets")
    gc.add_argument("--seed", type=int, required=True)
    gc.add_argument("--samples", type=int)
    gc.add_argument("--exact-triples", type=int)
    gc.add_argument("--tol", type=float)
    _add_output_args(gc)

    fs = sub.add_parser("frame-show", help="print the group law terms and the "
                                           "left frame entries")
    fs.add_argument("--group")
    fs.add_argument("--algebra-file")
    _add_output_args(fs)

    ma = sub.add_parser("metric-audit", help="sample the triangle inequality "
                                             "for a gauge distance")
    ma.add_argument("--group", required=True)
    ma.add_argument("--eps", help="comma separated layer scales")
    ma.add_argument("--samples", type=int)
    ma.add_argument("--seed", type=int, required=True)
    _add_output_args(ma)

    cd = sub.add_parser("curve-degree", help="degree profile of a curve")
    cd.add_argument("--curve", help="builtin curve name")
    cd.add_argument("--curve-file", help="JSON file with group and C1 samples")
    cd.add_argument("--grid", type=int)
    cd.add_argument("--tol-rel", type=float)
    _add_output_args(cd)

    def curve_common(sp, radii_flag):
        sp.add_argument("--curve")
        sp.add_argument("--curve-file")
        sp.add_argument("--eps")
        sp.add_argument(radii_flag)
        _add_output_args(sp)

    bl = sub.add_parser("blowup", help="ball measure ratios at a point of "
                                       "maximal degree")
    bl.add_argument("--t0", type=float, required=True)
    bl.add_argument("--metric", choices=("euclidean", "left"))
    curve_common(bl, "--radii")

    dv = sub.add_parser("diverge", help="certify density blow-up at a point "
                                        "below maximal degree")
    dv.add_argument("--t0", type=float, required=True)
    dv.add_argument("--metric", choices=("euclidean", "left"))
    dv.add_argument("--margin", type=float)
    curve_common(dv, "--radii")

    cv = sub.add_parser("cover", help="greedy covering values along a delta "
                                      "schedule")
    cv.add_argument("--q", type=float)
    cv.add_argument("--interval", help="a,b restriction of the parameter domain")
    curve_common(cv, "--deltas")

    ar = sub.add_parser("area", help="covering value against the tangent "
                                     "integral")
    ar.add_argument("--interval", help="a,b restriction of the parameter domain")
    ar.add_argument("--metric", choices=("euclidean", "left"))
    curve_common(ar, "--deltas")

    ng = sub.add_parser("negligibility", help="covering values of the "
                                              "low-degree parameter set")
    ng.add_argument("--grid", type=int)
    curve_common(ng, "--deltas")

    return p


def _config_from_args(args: argparse.Namespace) -> dict:
    if args.command == "run":
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        return cfg
    skip = {"command", "out", "format"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    cfg["op"] = args.command
    return cfg


def _fail(exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
