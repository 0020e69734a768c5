"""The benchmark's span tracer patches package functions by name.

``bench/tracing.py`` lists them as "module:attribute" strings, so a rename
in the package would only break traced benchmark runs.  This check keeps
that breakage in the default test run.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    specs = [spec for _, spec, _ in tracing.TARGETS]
    specs.append("metric:HomogeneousDistance.distance_from")
    for spec in specs:
        assert callable(tracing._resolve(spec)), spec
