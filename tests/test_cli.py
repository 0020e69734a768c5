import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedgroups
from gradedgroups import cli
from gradedgroups.cli import ConfigError, main, parse_schedule, resolve_config, run_config
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


def run_module(*argv):
    """``python -m gradedgroups`` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(gradedgroups.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gradedgroups", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point():
    # ``python -m gradedgroups`` runs the same command line
    proc = run_module("fixtures")
    assert proc.returncode == 0, proc.stderr
    assert "parabola_lift" in json.loads(proc.stdout)["result"]["curves"]


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


def test_cover_interval_restriction(capsys):
    code, out, _ = run_cli(capsys, "cover", "--curve", "vertical",
                           "--interval", "0,1", "--deltas", "2^-2..2^-4")
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["values"] == [0.5, 0.5, 0.5]
    assert doc["ball_counts"] == [8, 32, 128]


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
