"""Benchmark of the gradedgroups command-line ops, end to end and per layer.

    python3 bench/run.py --workload walk --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15
    python3 -m pytest bench/test_smoke.py -q

Run from the repository root.  A run generates the workload's inputs from
the seed (``workloads.py``), then drives ``gradedgroups.cli.run_config``
in this process, on one thread pinned to one core, over the workload's
config list:

1. ``--trace 0`` only: ``setup_s``, the median over several fresh
   interpreters of importing the package, loading the inputs and building
   the first laws, frames and distances (``setup_probe.py``).
2. A check pass, untimed, whose outputs are checked by ``checks.py``.
3. Timed passes until ``--seconds`` have elapsed, and with ``--trace 0``
   at least ``MIN_PASSES`` of them, so that the median drops a pass hit
   by a burst of load on the machine (a ``walk`` pass takes 8-14 s on a
   2-core x86_64 virtual machine, so 15 s often holds only two).  Every
   pass starts with every memo of the package emptied (the fixture law
   cache and the BCH coefficient cache), as a command-line run does, and
   every pass must reproduce the check pass's ``result`` blocks byte for
   byte.
   With ``--trace 1`` untraced and traced passes alternate; the traced
   ones give the per-layer metrics (``tracing.py``) and must also
   reproduce the result blocks.

End-to-end times (``wall_s``, ``setup_s`` and the ``work_per_s`` derived
from ``wall_s``) are calibrated: each op or cold start is timed between
two runs of a fixed machine-speed kernel and scaled to reference seconds
(``calibrate.py``), because the shared machines this runs on change speed
by tens of percent from minute to minute.  The raw wall times are kept
in the run record.  Per-layer times are raw.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count ops (an op fails when it raises, fails
its check, or changes its result between passes) and ``metrics`` holds
the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``).  The lines before it print the same metrics with their
units, plus ``fail_frac``.  A record of the run (versions, ``nproc``, git
commit, seed, per-op outcomes) goes to ``bench/out/runs/``; spans of the
last traced pass go to ``bench/out/spans-<workload>.json``.

``--workload all`` runs every workload in its own process and prints
their metrics together.
"""

from __future__ import annotations

import os

# one thread everywhere, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_RUNS = 5
MIN_PASSES = 3
WORKLOADS = ("walk", "scan", "exact")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# "<span>.<field>" metrics read from the tracer, plus derived ones
PER_LAYER = (
    "cli.run_config.calls", "cli.run_config.self_s",
    "poly.mul.calls", "poly.mul.self_s",
    "poly.evaluate.calls", "poly.evaluate.self_s",
    "poly.as_callable.calls", "poly.as_callable.self_s",
    "algebra.validate_algebra.calls", "algebra.validate_algebra.self_s",
    "group.bch_group_law.self_s", "group.bch_group_law.total_s",
    "frame.compute_frame.self_s", "frame.compute_frame.total_s",
    "group.multiply_exact.calls", "group.multiply_exact.self_s",
    "group.multiply_exact.total_s",
    "group.multiply.calls", "group.multiply.points", "group.multiply.self_s",
    "metric.norm.calls", "metric.norm.points", "metric.norm.self_s",
    "metric.distance_from.calls", "metric.probe.calls", "metric.probe.self_s",
    "metric.triangle_audit.self_s", "metric.triangle_audit.total_s",
    "curve.position_at.calls", "curve.position_at.self_s",
    "curve.positions.calls", "curve.positions.points",
    "curve.velocity_at.calls",
    "curve.degree_profile.self_s", "curve.pointwise_degree.calls",
    "frame.coordinates.calls", "frame.coordinates.self_s", "frame.speed.calls",
    "measure.spherical_measure_upper.calls",
    "measure.spherical_measure_upper.self_s",
    "measure.spherical_measure_upper.total_s",
    "measure.balls", "measure.probes_per_ball",
    "measure.ball_param_set.calls", "measure.ball_param_set.self_s",
    "measure.ball_param_set.total_s",
    "measure.quad.calls", "measure.quad.self_s",
    "measure.riemannian_length.calls",
    "measure.resolution_errors",
    "trace.wall_s", "trace.overhead_s",
)
SPAN_FIELDS = ("calls", "points", "self_s", "total_s")
TRACED_SPANS = {m.rpartition(".")[0] for m in PER_LAYER
                if m.rpartition(".")[2] in SPAN_FIELDS}


def unit_of(metric: str) -> str:
    if metric == "measure.probes_per_ball":
        return "probes/ball"
    return "s" if metric.endswith("_s") else "count"


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    """Commit of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload, seed, seconds, trace) -> dict:
    import numpy
    import scipy

    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "CARNOT_THREADS": os.environ.get("CARNOT_THREADS"),
            "git_commit": git_commit()}


# -- passes -----------------------------------------------------------------


def clear_caches() -> None:
    """Empty every memo of the package, as a fresh command-line run has them."""
    for name, mod in list(sys.modules.items()):
        if name == "gradedgroups" or name.startswith("gradedgroups."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Pass:
    """One run over the config list: wall time, reports, raised errors.

    ``tracer`` traces the pass; ``capture`` keeps the covering estimates
    of each op for the checks.  Either hook is installed before the clock
    starts.  With ``calibrated`` the machine-speed kernel runs before the
    first op and after every op, outside the timed region, and
    ``scaled`` holds the pass time in reference seconds.
    """

    def __init__(self, configs, tracer=None, capture=False, calibrated=False):
        from gradedgroups import cli

        import calibrate
        import tracing

        self.estimates = [[] for _ in configs]
        self.reports = [None] * len(configs)
        self.errors = [None] * len(configs)
        self.wall = self.scaled = 0.0
        sink = []
        if capture:
            hook = tracing.capturing(sink)
        elif tracer is not None:
            hook = tracing.traced(tracer)
        else:
            hook = contextlib.nullcontext()
        clear_caches()
        gc.collect()
        with hook:
            before = calibrate.kernel() if calibrated else None
            for i, cfg in enumerate(configs):
                start = time.perf_counter()
                try:
                    self.reports[i] = cli.run_config(cfg)
                except Exception as exc:  # an op failure is a measured outcome
                    self.errors[i] = exc
                elapsed = time.perf_counter() - start
                self.wall += elapsed
                if calibrated:
                    after = calibrate.kernel()
                    self.scaled += calibrate.scaled(elapsed, before, after)
                    before = after
                self.estimates[i] = sink[:]
                sink.clear()

    def results(self) -> list:
        return [None if r is None else json.dumps(r["result"], sort_keys=True)
                for r in self.reports]

    def resolution_errors(self) -> int:
        from gradedgroups import NumericalResolutionError

        return sum(isinstance(e, NumericalResolutionError) for e in self.errors)


def work_units(workload: str, configs, reports) -> int:
    """Balls placed (walk), radii evaluated (scan) or ops completed (exact)."""
    done = [(c, r["result"]) for c, r in zip(configs, reports) if r is not None]
    if workload == "walk":
        return sum(sum(res["ball_counts"]) for _, res in done)
    if workload == "scan":
        return sum(len(res["radii"]) for c, res in done if c["op"] in ("blowup", "diverge"))
    return len(done)


def setup_seconds(configs_path: Path, runs: int) -> list:
    """Cold starts, in calibrated seconds."""
    import calibrate

    times = []
    before = calibrate.kernel()
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                               str(configs_path)], capture_output=True, text=True,
                              timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        after = calibrate.kernel()
        times.append(calibrate.scaled(elapsed, before, after))
        before = after
    return times


def layer_metrics(tracers, untraced, traced, resolution_errors) -> dict:
    """Per-layer metrics: counts from the last traced pass, times as medians."""
    last = tracers[-1]
    out = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field in ("calls", "points"):
            out[metric] = last[span][field]
        elif field in SPAN_FIELDS:
            out[metric] = statistics.median(t[span][field] for t in tracers)
    balls = last["measure.spherical_measure_upper"]["points"]
    out["measure.balls"] = balls
    out["measure.probes_per_ball"] = (last["metric.probe"]["calls"] / balls
                                      if balls else 0.0)
    out["measure.resolution_errors"] = resolution_errors
    out["trace.wall_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {m: out[m] for m in PER_LAYER}


def check_ops(configs, reference: Pass, unstable: set, seed: int) -> list:
    """Outcome of every op: the problems its check pass and reruns showed."""
    import checks

    checker = checks.Checker(seed)
    ops = []
    for i, cfg in enumerate(configs):
        exc = reference.errors[i]
        if exc is not None:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            try:
                problems = checker.check_op(i, cfg, reference.reports[i]["result"],
                                            reference.estimates[i])
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if i in unstable:
            problems.append("result block changed between passes")
        ops.append({"op": cfg["op"], "config": cfg, "problems": problems})
    return ops


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    import tracing
    import workloads

    tag = f"{workload}-seed{seed}" + ("-small" if small else "")
    inputs = OUT / "inputs" / tag
    configs = workloads.generate(workload, seed, inputs, small=small)
    setups = [] if trace else setup_seconds(inputs / "configs.json",
                                            1 if small else SETUP_RUNS)

    reference = Pass(configs, capture=True)
    expected = reference.results()
    unstable = set()

    def compare(p: Pass):
        for i, (got, want) in enumerate(zip(p.results(), expected)):
            if got != want:
                unstable.add(i)

    walls, scaled_walls, traced_walls, summaries, resolution_errors = [], [], [], [], 0
    tracer = None
    begin = time.perf_counter()
    min_passes = 1 if trace else MIN_PASSES
    while len(walls) < min_passes or time.perf_counter() - begin < seconds:
        p = Pass(configs, calibrated=not trace)
        walls.append(p.wall)
        if not trace:
            scaled_walls.append(p.scaled)
        compare(p)
        if trace:
            tracer = tracing.Tracer()
            p = Pass(configs, tracer=tracer)
            traced_walls.append(p.wall)
            summaries.append({name: tracer.stat(name) for name in TRACED_SPANS})
            resolution_errors = p.resolution_errors()
            compare(p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    ops = check_ops(configs, reference, unstable, seed)
    failed = sum(bool(o["problems"]) for o in ops)
    check_s = time.perf_counter() - check_start

    if trace:
        metrics = layer_metrics(summaries, walls, traced_walls, resolution_errors)
        spans_path = OUT / f"spans-{workload}.json"
        spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    else:
        wall_s = statistics.median(scaled_walls)
        metrics = {"wall_s": wall_s, "setup_s": statistics.median(setups),
                   "work_per_s": work_units(workload, configs, reference.reports) / wall_s,
                   "peak_rss_mb": peak_rss_mb}
    units = {name: unit for name, unit in END_TO_END} if not trace else \
        {name: unit_of(name) for name in PER_LAYER}
    counts = [{k: (v["calls"], v["points"]) for k, v in s.items()} for s in summaries]
    record = {"environment": environment(workload, seed, seconds, int(trace)),
              "passes": len(walls), "walls": walls, "scaled_walls": scaled_walls,
              "traced_walls": traced_walls, "setups": setups, "check_s": check_s,
              "counts_repeat": all(c == counts[0] for c in counts),
              "ops": ops, "attempted": len(configs), "failed": failed,
              "fail_frac": failed / len(configs),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{tag}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"# {env['workload']} seed={env['seed']} passes={record['passes']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} commit={env['git_commit']}")
    for name, m in record["metrics"].items():
        print(f"{env['workload']:6s} {name:42s} {m['value']:>16.6g} {m['unit']}")
    if record["scaled_walls"]:
        raw = statistics.median(record["walls"])
        print(f"{env['workload']:6s} {'wall_s (raw, not calibrated)':42s} {raw:>16.6g} s")
    print(f"{env['workload']:6s} {'fail_frac':42s} {record['fail_frac']:>16.6g} "
          f"({record['failed']}/{record['attempted']})")
    for op in record["ops"]:
        for problem in op["problems"]:
            print(f"{env['workload']:6s} FAILED {op['op']}: {problem}")


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="shrink every schedule and grid (smoke test size)")
    args = p.parse_args(argv)

    if "CARNOT_THREADS" in os.environ:
        fail("CARNOT_THREADS must be unset: the benchmark measures one thread")
    if not (ROOT / "src" / "gradedgroups").is_dir():
        fail(f"no gradedgroups package under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "tests" / "bch_oracle.py").is_file():
        fail("tests/bch_oracle.py is missing; the exact checks need it")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    # one core for the run, the calibration kernel and the cold starts
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          small=args.small)
    print_record(record)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
