"""Digests of the ``result`` blocks of the benchmark configs and the README commands.

    python3 tools/result_digest.py --src DIR [--seeds 11 12] [--workloads exact ...]

Imports ``gradedgroups`` from DIR (a checkout, or the ``src`` directory
of one) and runs, through ``cli.run_config``:

- every config that ``bench/workloads.py`` generates, for each workload
  and each seed;
- every ``gradedgroups`` command line in the README's command-line block;
- for every builtin curve: ``curve-degree``, ``cover`` and ``area`` over
  the interval 0,1 at deltas 2^-2..2^-4, and ``blowup`` at t0 = 0.5.

``--workloads`` keeps the named groups of documents alone, out of the
benchmark workloads and ``readme`` and ``fixture``; by default all of
them run.  ``--workloads exact`` checks a change to the exact layer in
seconds.

The documents are taken from the checkout this script lives in, so two
trees are compared on the same documents: run the script once with each
tree as ``--src`` and diff the outputs.

One line per document: workload, seed, index, op, format and the sha256
(the per-curve documents read ``fixture`` and the curve name in place of
workload and seed) of the sorted-key ``json.dumps`` of ``result``.  Where the op renders as
CSV, a second line gives the sha256 of the CSV text.  A document whose
run raises is digested as its error type and message.  The last line
gives the number of lines and one sha256 over all of them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

GROUPS = (*workloads.WORKLOADS, "readme", "fixture")


def _import_package(src: Path):
    """``gradedgroups`` from ``src`` or ``src/src``, ahead of any other copy."""
    for path in (src / "src", src):
        if (path / "gradedgroups" / "__init__.py").is_file():
            sys.path.insert(0, str(path))
            return importlib.import_module("gradedgroups")
    raise SystemExit(f"no gradedgroups package under {src}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def readme_configs(cli) -> list:
    """The configs of the ``gradedgroups`` lines of the README's command-line block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line")[1].split("```sh")[1].split("```")[0]
    parser = cli.build_parser()
    return [cli._config_from_args(parser.parse_args(shlex.split(line)[1:]))
            for line in block.splitlines() if line.startswith("gradedgroups ")]


def fixture_configs(fixtures) -> list:
    """(curve name, config) of the per-curve documents, for every builtin curve."""
    span = {"interval": "0,1", "deltas": "2^-2..2^-4"}
    return [(name, cfg) for name in fixtures.curve_names()
            for cfg in ({"op": "curve-degree", "curve": name},
                        {"op": "cover", "curve": name, **span},
                        {"op": "area", "curve": name, **span},
                        {"op": "blowup", "curve": name, "t0": 0.5})]


def digests(cli, cfg) -> list:
    """(format, sha256) of one document: its JSON result, and its CSV if the op has one."""
    try:
        report = cli.run_config(cfg)
    except Exception as exc:  # a failing run is an outcome to compare too
        return [("error", _sha(f"{type(exc).__name__}: {exc}"))]
    out = [("json", _sha(json.dumps(report["result"], sort_keys=True)))]
    try:
        out.append(("csv", _sha(cli.render_report(report, "csv"))))
    except cli.ConfigError:
        pass                    # the op has no CSV rendering
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, type=Path,
                   help="checkout (or its src directory) to import gradedgroups from")
    p.add_argument("--seeds", type=int, nargs="+", default=[11, 12])
    p.add_argument("--workloads", nargs="+", choices=GROUPS, default=list(GROUPS),
                   help="groups of documents to digest (default: all)")
    args = p.parse_args(argv)

    pkg = _import_package(args.src.resolve())
    sys.stderr.write(f"gradedgroups from {Path(pkg.__file__).parent}\n")
    from gradedgroups import cli, fixtures

    lines = []

    def emit(line: str) -> None:
        lines.append(line)
        print(line, flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for workload in (w for w in workloads.WORKLOADS if w in args.workloads):
            for seed in args.seeds:
                out_dir = Path(tmp) / f"{workload}-{seed}"
                for i, cfg in enumerate(workloads.generate(workload, seed, out_dir)):
                    for fmt, sha in digests(cli, cfg):
                        emit(f"{workload} {seed} {i} {cfg['op']} {fmt} {sha}")
    for i, cfg in enumerate(readme_configs(cli) if "readme" in args.workloads else ()):
        for fmt, sha in digests(cli, cfg):
            emit(f"readme - {i} {cfg['op']} {fmt} {sha}")
    for i, (name, cfg) in enumerate(fixture_configs(fixtures)
                                    if "fixture" in args.workloads else ()):
        for fmt, sha in digests(cli, cfg):
            emit(f"fixture {name} {i} {cfg['op']} {fmt} {sha}")
    print(f"total {len(lines)} {_sha(chr(10).join(lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
