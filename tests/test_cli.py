import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedgroups
from gradedgroups.cli import ConfigError, main, parse_schedule, resolve_config, run_config


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
    for bad in ("", "1..4", "2^-1..3^-5", "-0.5", [0.5, -1.0], 7):
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


def test_module_entry_point():
    # ``python -m gradedgroups`` runs the same command line
    env = dict(os.environ)
    src = str(Path(gradedgroups.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gradedgroups", "fixtures"],
                          capture_output=True, text=True, env=env, timeout=120)
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
    cfg.write_text(json.dumps({"op": "blowup", "curve": "vertical",
                               "t0": 0.0, "bogus": 1}))
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert "bogus" in json.loads(err)["message"]


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
                {"layers": [2, 1], "brackets": 5}):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "frame-show", "--algebra-file", str(path))
        assert code == 3
        assert json.loads(err)["error"] == "GroupValidationError"


def test_missing_config_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "run", "--config", "/nonexistent/cfg.json")
    assert code == 2


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
    assert cfg["tol_rel"] == 1e-8
    assert cfg["op"] == "curve-degree"
