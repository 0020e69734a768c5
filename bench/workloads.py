"""Seeded inputs for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes every input file a workload
needs (algebra documents, sampled curve files) into ``out_dir`` and
returns the list of ``run_config`` documents that make up one pass.  The
program under test only ever sees these files and configs; the seed is
consumed here and nowhere else.

Workloads:

- ``walk``: greedy covering walks (``cover``, ``negligibility``).
- ``scan``: ball-intersection scans and batched kernels (``blowup``,
  ``diverge``, ``curve-degree``, ``metric-audit``); never walks.
- ``exact``: the symbolic layer (``frame-show``, ``group-check``) on
  generated filiform and free step-2 algebras.

``small=True`` shrinks every schedule and grid for the smoke test.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("walk", "scan", "exact")

# the seeded curve lives on (-1, 1) in the 3-d step-2 group
CURVE_DOMAIN = (-1.0, 1.0)
CURVE_NODES = 33


def _rational(rng: random.Random) -> str:
    """A nonzero rational with small numerator and denominator."""
    num = rng.choice([k for k in range(-9, 10) if k])
    return str(Fraction(num, rng.randint(1, 9)))


def filiform_doc(step: int, rng: random.Random) -> dict:
    """Model filiform algebra of the given step: [e1, e_i] = c_i e_(i+1).

    Layers are [2, 1, ..., 1]; Jacobi holds for any coefficients because
    every nonzero bracket involves e1.
    """
    n = step + 1
    brackets = [{"i": 1, "j": i, "k": i + 1, "c": _rational(rng)}
                for i in range(2, n)]
    return {"layers": [2] + [1] * (step - 1), "brackets": brackets}


def free_step2_doc(rank: int, rng: random.Random) -> dict:
    """Free step-2 algebra of the given rank, brackets scaled by rationals."""
    brackets = []
    k = rank
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            k += 1
            brackets.append({"i": i, "j": j, "k": k, "c": _rational(rng)})
    return {"layers": [rank, rank * (rank - 1) // 2], "brackets": brackets}


def curve_doc(rng: random.Random) -> dict:
    """Cubic Hermite samples of a smooth curve of degree 2 everywhere.

    x1, x2 are small trigonometric sums (|x| < 0.08, |x'| < 0.36) and x3 is
    t plus a full-period wave, so the vertical speed stays above
    1 - 0.16 * pi > 0.49 while the horizontal correction
    (x1 x2' - x2 x1') / 2 stays below 0.03: the top-layer frame component
    of the velocity never vanishes.  Whole periods on (-1, 1) keep the
    height gained over the domain at exactly 2 for every seed.
    """
    waves = []
    for _ in range(2):
        waves.append([(rng.uniform(-0.12, 0.12), k, rng.uniform(0.0, 2 * math.pi))
                      for k in (1, 2)])
    lift = (rng.uniform(-0.08, 0.08), rng.uniform(0.0, 2 * math.pi))

    def horizontal(terms, t):
        pos = sum(a * math.sin(math.pi * k * t + p) for a, k, p in terms) / math.pi
        vel = sum(a * k * math.cos(math.pi * k * t + p) for a, k, p in terms)
        return pos, vel

    samples = []
    lo, hi = CURVE_DOMAIN
    for i in range(CURVE_NODES):
        t = lo + (hi - lo) * i / (CURVE_NODES - 1)
        x1, v1 = horizontal(waves[0], t)
        x2, v2 = horizontal(waves[1], t)
        a, p = lift
        x3 = t + a * math.sin(2 * math.pi * t + p)
        v3 = 1.0 + a * 2 * math.pi * math.cos(2 * math.pi * t + p)
        samples.append({"t": t, "position": [x1, x2, x3], "velocity": [v1, v2, v3]})
    return {"group": "heisenberg", "samples": samples}


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return str(path)


def generate(workload: str, seed: int, out_dir: Path, small: bool = False) -> list:
    """Write the inputs of one workload and return its config list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "walk":
        configs = _walk(rng, out_dir, small)
    elif workload == "scan":
        configs = _scan(rng, out_dir, small)
    else:
        configs = _exact(rng, out_dir, small)
    _write(out_dir / "configs.json", configs)
    return configs


def _walk(rng, out_dir, small):
    curve_file = _write(out_dir / "curve.json", curve_doc(rng))
    deep, shallow = ("2^-2..2^-6", "2^-2..2^-4") if not small else ("2^-2..2^-3",) * 2
    return [
        {"op": "cover", "curve": "vertical", "interval": [0.0, 1.0], "deltas": deep},
        {"op": "cover", "curve": "parabola_lift", "interval": [0.0, 1.0], "deltas": deep},
        {"op": "cover", "curve": "engel_vertical", "q": 3, "interval": [0.0, 1.0],
         "deltas": shallow},
        {"op": "negligibility", "curve": "glued_hv",
         "deltas": "2^-2..2^-10" if not small else "2^-2..2^-5"},
        {"op": "cover", "curve_file": curve_file,
         "deltas": "2^-2..2^-5" if not small else "2^-2..2^-3"},
    ]


def _scan(rng, out_dir, small):
    curve_file = _write(out_dir / "curve.json", curve_doc(rng))
    radii = "2^-1..2^-10" if not small else "2^-1..2^-4"
    div_radii = "2^-4..2^-12" if not small else "2^-4..2^-7"

    def t0(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    return [
        {"op": "blowup", "curve": "vertical", "t0": t0(-0.8, 0.8), "radii": radii},
        {"op": "blowup", "curve": "parabola_lift", "t0": t0(0.2, 0.8), "radii": radii},
        {"op": "blowup", "curve_file": curve_file, "t0": t0(-0.8, 0.8), "radii": radii},
        {"op": "diverge", "curve": "parabola_lift", "t0": 0.0, "radii": div_radii},
        {"op": "diverge", "curve": "glued_hv", "t0": t0(-0.8, -0.2), "radii": div_radii},
        {"op": "curve-degree", "curve": "glued_hv", "grid": 4096 if not small else 512},
        {"op": "curve-degree", "curve_file": curve_file, "grid": 4096 if not small else 512},
        {"op": "metric-audit", "group": "engel", "samples": 400_000 if not small else 20_000,
         "seed": rng.randrange(2 ** 31)},
    ]


def _exact(rng, out_dir, small):
    docs = {}
    for step in range(2, 9 if not small else 5):
        docs[f"filiform_{step}"] = filiform_doc(step, rng)
    for rank in range(3, 6 if not small else 4):
        docs[f"free2_rank{rank}"] = free_step2_doc(rank, rng)
    configs = []
    for name, doc in docs.items():
        path = _write(out_dir / f"{name}.json", doc)
        configs.append({"op": "frame-show", "algebra_file": path})
        configs.append({"op": "group-check", "algebra_file": path,
                        "seed": rng.randrange(2 ** 31)})
    return configs
