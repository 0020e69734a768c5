import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedgroups
from gradedgroups import cli, curve, fixtures, roots
from gradedgroups.cli import ConfigError, main, parse_schedule, resolve_config, run_config
from gradedgroups.measure import ball_param_set, quad
from gradedgroups.metric import HomogeneousDistance
from gradedgroups.poly import RationalPoly
from json_strategy import JSON


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- schedule parsing -------------------------------------------------------


def test_parse_schedule_forms():
    assert parse_schedule([0.5, 0.25]) == [0.5, 0.25]
    assert parse_schedule("2^-1..2^-4") == [0.5, 0.25, 0.125, 0.0625]
    assert parse_schedule("0.5, 0.25") == [0.5, 0.25]
    assert parse_schedule("2^-3") == [0.125]


def test_parse_schedule_rejects_garbage():
    for bad in ("", "1..4", "2^-1..3^-5", "-0.5", [0.5, -1.0], 7, [0.5, True], "inf",
                "a^-1..a^-3", "2^5000", "0^-1", "nan^0"):
        with pytest.raises(ConfigError):
            parse_schedule(bad)


def test_parse_schedule_refuses_an_underflowing_range_at_its_first_zero():
    # 2^-1075 rounds to 0: the range is refused there, not after three million entries
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="must be positive"):
            parse_schedule("2^-1..2^-3000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_parse_schedule_refuses_a_range_of_base_1_before_building_it():
    # every entry of 1^-1..1^-3000000 is 1.0: refused before the first one
    tracemalloc.start()
    try:
        for bad in ("1^-1..1^-3000000", "1.0^3..1^-3"):
            with pytest.raises(ConfigError, match="base 1 repeats one value"):
                parse_schedule(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# -- config validation --------------------------------------------------------


def test_resolve_config_fills_defaults():
    cfg = resolve_config({"op": "blowup", "curve": "vertical", "t0": 0.0})
    assert cfg["radii"] == "2^-1..2^-10"
    assert cfg["metric"] == "euclidean"


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        resolve_config({"op": "blowup", "curve": "vertical", "t0": 0.0, "radius": 1})


def test_resolve_config_requires_seed_for_sampling_ops():
    with pytest.raises(ConfigError, match="seed"):
        resolve_config({"op": "metric-audit", "group": "heisenberg"})


def test_resolve_config_types_values():
    cfg = resolve_config({"op": "cover", "curve": "vertical", "q": 3,
                          "interval": "0, 1", "eps": [1, 0.5]})
    assert type(cfg["q"]) is float and cfg["q"] == 3.0
    assert cfg["interval"] == [0.0, 1.0] and cfg["eps"] == [1.0, 0.5]
    assert cfg["deltas"] == "2^-2..2^-8"


@pytest.mark.parametrize("cfg", [
    {"op": "group-check", "group": "heisenberg", "seed": 1.5},
    {"op": "group-check", "group": "heisenberg", "seed": "7"},
    {"op": "group-check", "group": "heisenberg", "seed": True},
    {"op": "group-check", "group": "heisenberg", "seed": -3},
    {"op": "blowup", "curve": "vertical", "t0": [0.1]},
    {"op": "blowup", "curve": "vertical", "t0": None},
    {"op": "blowup", "curve": "vertical", "t0": 0.0, "metric": "frame"},
    {"op": "cover", "curve": "vertical", "eps": [1, None]},
    {"op": "cover", "curve": "vertical", "interval": [0, None]},
    {"op": "cover", "curve": "vertical", "q": [2]},
    {"op": "curve-degree", "curve": "vertical", "grid": None},
    {"op": "curve-degree", "curve": "vertical", "grid": 2.9},
    {"op": "curve-degree", "curve": ["vertical"]},
    {"op": "metric-audit", "group": "heisenberg", "seed": 1, "samples": 1.7},
    {"op": "frame-show", "algebra_file": 5},
    {"op": ["blowup"]},
])
def test_resolve_config_rejects_values_of_the_wrong_kind(cfg):
    with pytest.raises(ConfigError):
        resolve_config(cfg)


_OUT_OF_RANGE = [
    (("negligibility", "--curve", "glued_hv", "--grid", "0"), "ConfigError"),
    (("metric-audit", "--group", "heisenberg", "--seed", "1", "--samples", "0"), "ConfigError"),
    (("group-check", "--group", "heisenberg", "--seed", "-3"), "ConfigError"),
    (("blowup", "--curve", "vertical", "--t0", "inf"), "ConfigError"),
    # too large to allocate: numpy's MemoryError becomes a ConfigError
    (("group-check", "--group", "heisenberg", "--seed", "1", "--samples", "1000000000000000"),
     "ConfigError"),
    (("curve-degree", "--curve", "vertical", "--grid", "1000000000000000"), "ConfigError"),
    # intervals reaching past the domain (-1, 1), and measure exponents <= 0,
    # are refused by the covering itself
    (("area", "--curve", "parabola_lift", "--interval=2,3", "--deltas", "2^-2..2^-4"),
     "ValueError"),
    (("area", "--curve", "parabola_lift", "--interval=0.5,3", "--deltas", "2^-2..2^-4"),
     "ValueError"),
    (("cover", "--curve", "parabola_lift", "--interval=2,3", "--deltas", "2^-2..2^-4"),
     "ValueError"),
    (("cover", "--curve", "vertical", "--q", "-1", "--deltas", "2^-2"), "ValueError"),
    (("cover", "--curve", "vertical", "--q", "0", "--deltas", "2^-2"), "ValueError"),
    # a slope needs two distinct radii
    (("diverge", "--curve", "parabola_lift", "--t0", "0", "--radii", "0.5"), "ValueError"),
    (("diverge", "--curve", "parabola_lift", "--t0", "0", "--radii", "0.5,0.5"), "ValueError"),
]


@pytest.mark.parametrize("argv, error", _OUT_OF_RANGE,
                         ids=[f"argv{i}" for i in range(len(_OUT_OF_RANGE))])
def test_out_of_range_flags_exit_2(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == error
    if any(arg.startswith("--interval") for arg in argv):
        assert "domain [-1.0, 1.0]" in doc["message"]


@pytest.mark.parametrize("argv, code, error", [
    # a ball below the parameter's float resolution: the slope was NaN
    (("diverge", "--curve", "glued_hv", "--t0", "-0.5", "--radii", "2^-50..2^-60"), 4,
     "NumericalResolutionError"),
    # a degree-3 ball of width 2 r^3 below it: every ratio was 0.0
    (("blowup", "--curve", "engel_vertical", "--t0", "0.3", "--radii", "2^-20..2^-24"), 4,
     "NumericalResolutionError"),
    # an interval inside the low-degree set: the residual was Infinity
    (("area", "--curve", "glued_hv", "--interval=-1,-0.5", "--deltas", "2^-2..2^-4"), 2,
     "ValueError"),
    # weights whose gauge overflows: the audit passed with max_ratio 0.0
    (("metric-audit", "--group", "heisenberg", "--seed", "1", "--eps", "1e308,1e308",
      "--samples", "10"), 4, "NumericalResolutionError"),
    # subnormal weights: the audit failed with max_ratio 2.0, rounding noise
    (("metric-audit", "--group", "heisenberg", "--seed", "0", "--eps", "5e-324,5e-324",
      "--samples", "20000"), 4, "NumericalResolutionError"),
    # delta^q past the largest float: an OverflowError traceback, exit 1
    (("cover", "--curve", "vertical", "--deltas", "10^308"), 4, "NumericalResolutionError"),
    (("negligibility", "--curve", "glued_hv", "--deltas", "10^308"), 4,
     "NumericalResolutionError"),
    # r^q past the largest float in the ratios: an OverflowError traceback, exit 1
    (("blowup", "--curve", "vertical", "--t0", "0", "--radii", "2^600..2^601"), 4,
     "NumericalResolutionError"),
    (("diverge", "--curve", "parabola_lift", "--t0", "0", "--radii", "2^1000..2^1001"), 4,
     "NumericalResolutionError"),
    # a closed form 2 / eps_q^q or 2 |lam| / N(lam)^q out of float range: an
    # OverflowError or ZeroDivisionError traceback, exit 1, where eps_q^q
    # overflows or underflows to 0; an infinite constant where it is subnormal
    *[((op, "--curve", "vertical", *args, "--eps", f"1,{eps}"), 4, "NumericalResolutionError")
      for op, args in (("area", ("--interval", "0,1", "--deltas", "2^-2..2^-3")),
                       ("blowup", ("--t0", "0", "--radii", "2^-1..2^-3")))
      for eps in ("1e200", "1e-170", "1e-160")],
], ids=["diverge", "blowup", "area", "metric-audit", "metric-audit-subnormal", "cover",
        "negligibility", "blowup-overflow", "diverge-overflow",
        *[f"{op}-eps-{eps}" for op in ("area", "blowup") for eps in ("1e200", "1e-170", "1e-160")]])
def test_reports_without_a_finite_number_are_errors(capsys, argv, code, error):
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert json.loads(err)["error"] == error


def test_json_reports_refuse_non_finite_numbers():
    report = {"version": "0", "config": {"op": "blowup"}, "result": {"slope": float("nan")}}
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.render_report(report, "json")


def test_run_config_needs_exactly_one_curve_source():
    with pytest.raises(ConfigError, match="exactly one"):
        run_config({"op": "curve-degree"})
    with pytest.raises(ConfigError, match="exactly one"):
        run_config({"op": "curve-degree", "curve": "vertical", "curve_file": "x.json"})


# -- subcommands ---------------------------------------------------------------


def test_fixtures_listing(capsys):
    code, out, err = run_cli(capsys, "fixtures")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert "heisenberg" in doc["result"]["groups"]
    assert "parabola_lift" in doc["result"]["curves"]
    assert "glued_hv" in doc["result"]["curves"]
    assert doc["result"]["curves"]["engel_vertical"]["group"] == "engel"


def run_python(*args):
    """``python ARGS`` in a fresh interpreter that imports this gradedgroups."""
    env = dict(os.environ)
    src = str(Path(gradedgroups.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def run_module(*argv):
    """``python -m gradedgroups`` in a fresh interpreter."""
    return run_python("-m", "gradedgroups", *argv)


def test_module_entry_point():
    # ``python -m gradedgroups`` runs the same command line
    proc = run_module("fixtures")
    assert proc.returncode == 0, proc.stderr
    assert "parabola_lift" in json.loads(proc.stdout)["result"]["curves"]


def test_package_exports_every_public_name():
    names = {name for name, value in vars(gradedgroups).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(gradedgroups.__all__) == names


def test_reports_are_byte_identical(capsys):
    args = ("group-check", "--group", "engel", "--seed", "42", "--samples", "200")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert json.loads(first)["result"]["passed"] is True


def test_frame_show_engel(capsys):
    code, out, _ = run_cli(capsys, "frame-show", "--group", "engel")
    assert code == 0
    entries = json.loads(out)["result"]["frame_entries"]
    assert entries["a[4,2]"] == "1/12*x1^2"


def test_blowup_csv(capsys):
    code, out, _ = run_cli(capsys, "blowup", "--curve", "vertical", "--t0", "0.0",
                           "--radii", "2^-1..2^-4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "radii,ratios"
    assert len(lines) == 5
    last_ratio = float(lines[-1].split(",")[1])
    assert last_ratio == pytest.approx(2.0, rel=1e-6)


# op -> (small config, exact key set of its result); results are built from
# the library's report dataclasses, so renaming a field renames a key here
_RESULT_KEYS = {
    "fixtures": ({}, {"curves", "groups"}),
    "group-check": ({"group": "heisenberg", "seed": 1, "samples": 10, "exact_triples": 2},
                    {"degrees", "exact_associative", "exact_triples", "float_samples",
                     "max_associativity_defect", "n", "passed", "step", "tol"}),
    "frame-show": ({"group": "heisenberg"},
                   {"degrees", "frame_entries", "group_law_terms", "n", "step"}),
    "metric-audit": ({"group": "heisenberg", "seed": 1, "samples": 100},
                     {"eps", "max_ratio", "passed", "samples", "seed", "witness"}),
    "curve-degree": ({"curve": "glued_hv", "grid": 64},
                     {"degree", "degree_counts", "grid_points", "group",
                      "low_degree_intervals"}),
    "blowup": ({"curve": "vertical", "t0": 0.0, "radii": "2^-1..2^-3"},
               {"diagnostic", "group", "predicted", "q", "radii", "ratios", "t0",
                "truncated"}),
    "diverge": ({"curve": "parabola_lift", "t0": 0.0, "radii": "2^-4..2^-6"},
                {"certified", "group", "margin", "q", "radii", "ratios", "slope", "t0"}),
    "cover": ({"curve": "vertical", "interval": [0, 1], "deltas": "2^-2..2^-3"},
              {"ball_counts", "deltas", "extrapolated", "group", "q", "values"}),
    "area": ({"curve": "vertical", "deltas": "2^-2..2^-3"},
             {"ball_counts", "c_q", "deltas", "extrapolated", "group", "lhs",
              "low_degree_warning", "q", "residual", "rhs", "values"}),
    "negligibility": ({"curve": "glued_hv", "deltas": "2^-2..2^-3", "grid": 64},
                      {"ball_counts", "deltas", "group", "low_degree_intervals", "q",
                       "successive_ratios", "values"}),
}


@pytest.mark.parametrize("op", sorted(_RESULT_KEYS))
def test_result_keys_are_pinned(op):
    assert set(_RESULT_KEYS) == set(cli._OPTIONS)   # every op is pinned
    cfg, keys = _RESULT_KEYS[op]
    report = run_config({"op": op, **cfg})
    assert set(report["result"]) == keys
    if op in ("cover", "area", "negligibility"):
        header = cli.render_report(report, "csv").splitlines()[0]
        assert header == "deltas,values,ball_counts"


def test_csv_rejected_for_scalar_reports(capsys):
    code, out, err = run_cli(capsys, "frame-show", "--group", "engel",
                             "--format", "csv")
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # area's integrand needs no metric, and the degree cut is curve.TOL_REL
    for doc, key in (({"op": "blowup", "curve": "vertical", "t0": 0.0, "bogus": 1}, "bogus"),
                     ({"op": "area", "curve": "parabola_lift", "metric": "left"}, "metric"),
                     ({"op": "curve-degree", "curve": "vertical", "tol_rel": 1e-8},
                      "tol_rel")):
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2, doc
        assert json.loads(err)["error"] == "ConfigError"
        assert repr(key) in json.loads(err)["message"]


def test_invalid_algebra_exits_3(tmp_path, capsys):
    doc = {"layers": [3, 1, 1],
           "brackets": [{"i": 1, "j": 2, "k": 4, "c": "1"},
                        {"i": 3, "j": 4, "k": 5, "c": "1"}]}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "group-check", "--algebra-file", str(path),
                             "--seed", "1")
    assert code == 3
    assert json.loads(err)["error"] == "JacobiViolation"

    for doc in ({"layers": [2, 1], "brackets": [{"i": 1.7, "j": 2, "k": 3, "c": "1"}]},
                {"layers": [2, 1], "brackets": [{"i": 1, "j": 2, "k": 3, "c": True}]},
                {"layers": [2, 1], "brackets": 5},
                {"layers": [2, 1], "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1/0"}]},
                {"layers": [2, 1000]}):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "frame-show", "--algebra-file", str(path))
        assert code == 3
        assert json.loads(err)["error"] == "GroupValidationError"


def test_exact_ops_compile_only_what_they_evaluate(tmp_path, monkeypatch):
    doc = {"layers": [2, 1, 1], "brackets": [{"i": 1, "j": 2, "k": 3, "c": "3/7"},
                                             {"i": 1, "j": 3, "k": 4, "c": "-2/11"}]}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    compiled = []
    as_callable = RationalPoly.as_callable
    monkeypatch.setattr(RationalPoly, "as_callable",
                        lambda poly: compiled.append(poly) or as_callable(poly))
    assert run_config({"op": "frame-show", "algebra_file": str(path)})["result"]["frame_entries"]
    assert compiled == []
    assert run_config({"op": "group-check", "algebra_file": str(path), "seed": 3})["result"]["passed"]
    assert len(compiled) == 4       # one float evaluator per coordinate of Q


def test_missing_config_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "run", "--config", "/nonexistent/cfg.json")
    assert code == 2


_OVERFLOWING_CURVE = {"group": "heisenberg", "samples": [
    {"t": 0.0, "position": [1e300, -1e300, 1e300], "velocity": [1e300, 1e300, -1e300]},
    {"t": 1.0, "position": [-1e300, 1e300, -1e300], "velocity": [-1e300, 1e300, 1e300]}]}


def test_bad_curve_files_exit_2(tmp_path, capsys):
    good = {"t": 0.0, "position": [0, 0, 0], "velocity": [0, 0, 1]}
    path = tmp_path / "curve.json"
    for samples in (5, [5, 6], [dict(good, t="1")], [dict(good, t=True)],
                    [dict(good, position=[0, 0])], [dict(good, velocity=[0, 0, True])],
                    [dict(good, extra=1)]):
        path.write_text(json.dumps({"group": "heisenberg", "samples": samples}))
        code, out, err = run_cli(capsys, "curve-degree", "--curve-file", str(path))
        assert code == 2, samples
        assert json.loads(err)["error"] == "ConfigError"

    # parameters so close that the cubic interpolant's coefficients overflow
    path.write_text(json.dumps({"group": "heisenberg", "samples": [
        good, {"t": 1e-300, "position": [0, 0, 1], "velocity": [0, 0, 1]}]}))
    code, out, err = run_cli(capsys, "curve-degree", "--curve-file", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"
    assert "spacing" in json.loads(err)["message"]

    # finite samples whose frame coordinates overflow
    path.write_text(json.dumps(_OVERFLOWING_CURVE))
    code, out, err = run_cli(capsys, "curve-degree", "--curve-file", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"
    assert "frame coordinates of the velocity are not finite" in json.loads(err)["message"]

    # finite frame coordinates whose norm overflows
    small = {"group": "heisenberg", "samples": [
        {k: [v * 1e-200 for v in s[k]] if k != "t" else s[k] for k in s}
        for s in _OVERFLOWING_CURVE["samples"]]}
    path.write_text(json.dumps(small))
    code, out, err = run_cli(capsys, "curve-degree", "--curve-file", str(path))
    assert code == 2
    assert "norm of the velocity's frame coordinates overflows" in json.loads(err)["message"]


def test_overflow_error_is_one_json_line(tmp_path):
    # numpy's overflow warnings stay off stderr, so it holds the error alone
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(_OVERFLOWING_CURVE))
    proc = run_module("curve-degree", "--curve-file", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "ValueError"


def test_curve_file_flow(tmp_path, capsys):
    doc = {"group": "heisenberg",
           "samples": [
               {"t": 0.0, "position": [0, 0, 0], "velocity": [0, 0, 1]},
               {"t": 1.0, "position": [0, 0, 1], "velocity": [0, 0, 1]},
           ]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "curve-degree", "--curve-file", str(path))
    assert code == 0
    assert json.loads(out)["result"]["degree"] == 2


def test_no_scipy_is_imported(tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"group": "heisenberg", "samples": [
        {"t": 0.0, "position": [0, 0, 0], "velocity": [0, 0, 1]},
        {"t": 1.0, "position": [0, 0, 1], "velocity": [0, 0, 1]}]}))
    runs = [["frame-show", "--group", "engel"],
            ["cover", "--curve-file", str(curve), "--deltas", "2^-2..2^-3"],
            ["area", "--curve", "glued_hv", "--deltas", "2^-2..2^-3"]]
    script = (f"import sys\nfrom gradedgroups import cli\n"
              f"for argv in {runs!r}:\n"
              f"    assert cli.main(argv + ['--out', {str(tmp_path / 'out.json')!r}]) == 0\n"
              f"print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_blowup_on_a_rough_curve_file_meets_its_tolerance(tmp_path, capsys):
    # nearly straight, with random sampled velocities: the speed kinks at 201 nodes
    rng = np.random.default_rng(0)
    path = tmp_path / "rough.json"
    path.write_text(json.dumps({"group": "heisenberg", "samples": [
        {"t": t, "position": [t, *(0.01 * rng.uniform(-1.0, 1.0, 2)).tolist()],
         "velocity": [1.0, *rng.uniform(-1.0, 1.0, 2).tolist()]}
        for t in np.linspace(-1.0, 1.0, 201).tolist()]}))
    code, out, err = run_cli(capsys, "blowup", "--curve-file", str(path), "--t0", "0.1234")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]

    law, curve, _ = cli._resolve_curve({"curve_file": str(path)})
    dist = HomogeneousDistance(law, (1.0, 1.0))

    def speed(t):
        return np.linalg.norm(curve.velocities(t), axis=-1)

    for r, ratio in zip(result["radii"], result["ratios"]):
        pieces, _ = ball_param_set(dist, curve, 0.1234, r)
        tight = sum(quad(speed, lo, hi, 1e-14, 1e-14, curve.breaks) for lo, hi in pieces)
        assert ratio == pytest.approx(tight / r ** 2, rel=1e-9, abs=0.0)


def test_cover_interval_restriction(capsys):
    code, out, _ = run_cli(capsys, "cover", "--curve", "vertical",
                           "--interval", "0,1", "--deltas", "2^-2..2^-4")
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["values"] == [0.5, 0.5, 0.5]
    assert doc["ball_counts"] == [8, 32, 128]


def test_cover_ending_at_the_domain_end(capsys):
    code, out, err = run_cli(capsys, "cover", "--curve", "parabola_lift",
                             "--interval", "0.9999999999999,1", "--deltas", "2^-2..2^-3")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["ball_counts"] == [1, 1]


def test_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "fixtures", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "curves" in json.loads(target.read_text())["result"]


def test_config_echo_includes_resolved_defaults(capsys):
    _, out, _ = run_cli(capsys, "curve-degree", "--curve", "horizontal")
    cfg = json.loads(out)["config"]
    assert cfg["grid"] == 512
    assert cfg["op"] == "curve-degree"


def test_readme_command_lines_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = block.split("```sh")[1].split("```")[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("gradedgroups ")]
    assert len(lines) >= 10
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        resolve_config(cli._config_from_args(args))


# -- fuzzing -------------------------------------------------------------------------

_ANY = JSON | st.sampled_from(["2^5000", "0^-1", "nan", "1e400", "2^-1..3^-2", "Left"]) \
    | st.text(alphabet="0123456789^.,-e ", max_size=10)
# a valid value per key; the strategies below replace some of them with _ANY
_SCHEDULES = st.sampled_from(["2^-1..2^-3", "0.5,0.25", "2^-4", [0.5, 1]])
_VALID = {
    "group": st.sampled_from(["heisenberg", "engel"]), "algebra_file": st.just("a.json"),
    "curve": st.just("vertical"), "curve_file": st.just("c.json"),
    "seed": st.integers(0, 2 ** 40), "samples": st.integers(1, 10 ** 6),
    "exact_triples": st.integers(0, 50), "grid": st.integers(1, 4096),
    "tol": st.floats(0.0, 1.0), "t0": st.integers(-1, 1),
    "margin": st.floats(0.0, 1.0), "q": st.integers(1, 3) | st.floats(0.5, 3.0),
    "eps": st.lists(st.integers(1, 3) | st.floats(0.1, 2.0), max_size=3) | st.just("1,0.5"),
    "interval": st.just([0, 1]) | st.just("-0.5, 0.5"),
    "radii": _SCHEDULES, "deltas": _SCHEDULES,
    "metric": st.sampled_from(["left", "euclidean"]),
}


def _has_kind(kind, value) -> bool:
    if kind in (cli.COUNT, cli.POSITIVE):
        return type(value) is int and value >= (1 if kind is cli.POSITIVE else 0)
    if kind is cli.FLOAT:
        return type(value) is float and math.isfinite(value)
    if kind is cli.STR:
        return type(value) is str
    if kind is cli.SCHEDULE:
        return bool(parse_schedule(value))
    if kind is cli.FLOATS:
        return type(value) is list and all(type(v) is float and math.isfinite(v)
                                           for v in value)
    return kind is cli.METRIC and value in ("left", "euclidean")


@st.composite
def _configs(draw):
    op = draw(st.sampled_from(sorted(cli._OPTIONS)))
    options = cli._OPTIONS[op]
    cfg = {"op": op}
    for key in draw(st.lists(st.sampled_from(sorted(options)), unique=True)) if options else []:
        cfg[key] = draw(_VALID[key])
    for key, (_, default, _) in options.items():
        if default is cli.REQUIRED:
            cfg[key] = draw(_VALID[key])
    for key in draw(st.lists(st.sampled_from(["op", "bogus", *options]), max_size=2)):
        cfg[key] = draw(_ANY)
    return cfg


@settings(max_examples=200, deadline=None)
@given(_configs())
def test_resolve_config_returns_declared_kinds_or_config_error(cfg):
    try:
        resolved = resolve_config(cfg)
    except ConfigError:
        return
    options = cli._OPTIONS[cfg["op"]]
    assert set(resolved) == set(options) | {"op"}
    for key, (kind, default, _) in options.items():
        value = resolved[key]
        assert (value is None and default is None) or _has_kind(kind, value), (key, value)
        if key in cfg and kind is not cli.FLOATS:  # no silent coercion
            assert type(cfg[key]) is not bool and cfg[key] == value, (key, cfg[key])


@st.composite
def _curve_docs(draw):
    group = draw(st.sampled_from(["heisenberg", "engel"]))
    vector = st.lists(st.floats(-2.0, 2.0), min_size=3 if group == "heisenberg" else 4,
                      max_size=3 if group == "heisenberg" else 4)
    ts = sorted(draw(st.lists(st.integers(-20, 20), min_size=2, max_size=4, unique=True)))
    ts = [k / 10 for k in ts]
    samples = [{"t": t, "position": draw(vector), "velocity": draw(vector)} for t in ts]
    doc = {"group": group, "samples": samples}
    # inner parts first, so each replacement finds the structure it edits
    order = ["t", "entry", "sample", "group", "samples", "doc"]
    for where in sorted(draw(st.lists(st.sampled_from(order), max_size=2)), key=order.index):
        i = draw(st.integers(0, len(ts) - 1))
        if where == "t":
            samples[i]["t"] = draw(_ANY)
        elif where == "entry":
            samples[i]["velocity"][draw(st.integers(0, 2))] = draw(_ANY)
        elif where == "sample":
            samples[i] = draw(_ANY)
        elif where == "doc":
            return draw(_ANY)
        else:
            doc[where] = draw(_ANY)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=_curve_docs())
def test_curve_files_fail_only_with_value_errors(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("curve") / "curve.json"
    path.write_text(json.dumps(doc))
    try:
        cli._resolve_curve({"curve_file": str(path)})
    except ValueError:  # ConfigError is a ValueError; both exit 2
        pass


def test_cover_blowup_and_diverge_read_only_the_degree(monkeypatch):
    # cover without q, blowup and diverge read the curve's degree alone
    # (curve.curve_degree): none runs the low-degree search of
    # degree_profile, roots.table_runs called from there, which costs
    # time and may raise where they need none of it
    table_runs = roots.table_runs

    def no_low_degree_search(*args, **kwargs):
        if sys._getframe(1).f_code is curve.degree_profile.__code__:
            raise AssertionError("the low-degree search ran")
        return table_runs(*args, **kwargs)      # ball sets, as blowup and diverge need

    monkeypatch.setattr(roots, "table_runs", no_low_degree_search)
    with pytest.raises(AssertionError, match="low-degree search"):
        curve.degree_profile(fixtures.group_law("heisenberg"), fixtures.curve("vertical"))
    for cfg in ({"op": "cover", "curve": "parabola_lift", "deltas": "2^-2..2^-3"},
                {"op": "blowup", "curve": "vertical", "t0": 0.0, "radii": "2^-1..2^-3"},
                {"op": "diverge", "curve": "glued_hv", "t0": -0.5, "radii": "2^-2..2^-4"}):
        assert run_config(cfg)["result"]["q"] == 2, cfg["op"]
