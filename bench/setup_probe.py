"""One cold start, as a command-line user pays it on every run.

    python3 bench/setup_probe.py CONFIGS_JSON

Imports ``gradedgroups``, loads the generated inputs a workload's configs
name, and builds the law, frame and distance of each group they use,
resolving them as the command line does.  The benchmark times this whole
process from the outside.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gradedgroups import HomogeneousDistance, cli  # noqa: E402

INPUT_KEYS = ("group", "curve", "curve_file", "algebra_file")


def main(path: str) -> None:
    configs = json.loads(Path(path).read_text(encoding="utf-8"))
    seen = set()
    for cfg in configs:
        inputs = {k: cfg[k] for k in INPUT_KEYS if k in cfg}
        key = tuple(sorted(inputs.items()))
        if key in seen:
            continue
        seen.add(key)
        if "curve" in inputs or "curve_file" in inputs:
            law = cli._resolve_curve(inputs)[0]
        else:
            law = cli._resolve_law(inputs)
        law.frame
        HomogeneousDistance(law, (1.0,) * law.step)


if __name__ == "__main__":
    main(sys.argv[1])
