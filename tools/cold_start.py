"""Whole-process cold starts of two trees, command by command.

    python3 tools/cold_start.py OLD NEW [--runs 10]

OLD and NEW are checkouts (or their ``src`` directories).  Each run is
one fresh ``python -m gradedgroups`` process, with the tree's ``src``
first on ``PYTHONPATH``, timed from the outside by the wall clock around
the whole process.  The two trees alternate: every command runs once on
each tree in turn, the tree that goes first swapping from run to run, so
a drift in the machine's speed falls on both alike.  The environment,
``PYTHONDONTWRITEBYTECODE`` with it, is the caller's.

The commands: ``frame-show`` and ``group-check`` on the ``filiform_8``
algebra of the benchmark's ``exact`` workload at seed 1, ``fixtures``,
``group-check`` without its required ``--seed`` (refused with exit 2),
``cover`` on the builtin vertical line and a small ``metric-audit`` on
engel.  A run that exits with another code than its command's stops the
script.

Prints, per command and tree, the median and the quartiles in ms, and
the ratio of the medians (NEW / OLD); the last line is the same as one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def commands(tmp: Path) -> dict:
    """name -> (argv after ``python -m gradedgroups``, expected exit code)."""
    configs = workloads.generate("exact", 1, tmp)
    seed, path = next((c["seed"], c["algebra_file"]) for c in configs
                      if c["op"] == "group-check" and c["algebra_file"].endswith("filiform_8.json"))
    return {
        "frame-show": (["frame-show", "--algebra-file", path], 0),
        "group-check": (["group-check", "--algebra-file", path, "--seed", str(seed)], 0),
        "fixtures": (["fixtures"], 0),
        "exit-2": (["group-check", "--algebra-file", path], 2),
        "cover": (["cover", "--curve", "vertical", "--interval", "0,1",
                   "--deltas", "2^-2..2^-6"], 0),
        "metric-audit": (["metric-audit", "--group", "engel", "--samples", "20000",
                          "--seed", "1"], 0),
    }


def _src(tree: Path) -> str:
    for path in (tree / "src", tree):
        if (path / "gradedgroups" / "__init__.py").is_file():
            return str(path.resolve())
    raise SystemExit(f"no gradedgroups package under {tree}")


def run_once(src: str, argv: list, code: int) -> float:
    """Seconds of one fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gradedgroups", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != code:
        raise SystemExit(f"{src}: {argv} exited {proc.returncode}, not {code}: {proc.stderr}")
    return elapsed


def summary(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": round(1e3 * median, 1), "q1_ms": round(1e3 * q1, 1),
            "q3_ms": round(1e3 * q3, 1), "runs": len(times)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path, help="the tree to compare against")
    p.add_argument("new", type=Path, help="the tree to measure")
    p.add_argument("--runs", type=int, default=10, help="runs per tree and command (>= 10)")
    args = p.parse_args(argv)
    if args.runs < 10:
        p.error("--runs must be at least 10")
    trees = {"old": _src(args.old), "new": _src(args.new)}
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(Path(tmp))
        times = {name: {side: [] for side in trees} for name in cmds}
        for run in range(args.runs):
            order = list(trees) if run % 2 == 0 else list(reversed(trees))
            for name, (cmd, code) in cmds.items():
                for side in order:
                    times[name][side].append(run_once(trees[side], cmd, code))
    result = {}
    for name, sides in times.items():
        result[name] = {side: summary(values) for side, values in sides.items()}
        old, new = result[name]["old"], result[name]["new"]
        result[name]["ratio"] = round(new["median_ms"] / old["median_ms"], 3)
        print(f"{name:13s} old {old['median_ms']:7.1f} [{old['q1_ms']:.1f}, {old['q3_ms']:.1f}]"
              f"  new {new['median_ms']:7.1f} [{new['q1_ms']:.1f}, {new['q3_ms']:.1f}] ms"
              f"  x{result[name]['ratio']:.3f}")
    print(json.dumps({"python": sys.version.split()[0],
                      "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                      "commands": result}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
