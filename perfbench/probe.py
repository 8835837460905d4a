"""Set-up probe, run in a fresh interpreter: python3 probe.py <inputs...>

Times what a memcat process does before its first verdict: importing
memcat.cli, loading the 7 bundled models, and reading, parsing and
projecting the inputs (.litmus files, and .thr shapes for the miner).
Prints one JSON object of seconds.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main(inputs):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import memcat.cli  # noqa: F401
    from memcat.cycles import parse_thr
    from memcat.litmus import parse_litmus, project
    from memcat.models import BUILTIN_MODELS, load_builtin

    t1 = perf_counter()
    for name in BUILTIN_MODELS:
        load_builtin(name)
    t2 = perf_counter()
    for arg in inputs:
        path = Path(arg)
        text = path.read_text()
        if path.suffix == ".thr":
            parse_thr(text, name=path.stem)
        else:
            project(parse_litmus(text))
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "models_load_s": t2 - t1, "inputs_s": t3 - t2,
                      "setup_s": t3 - t0}))


if __name__ == "__main__":
    main(sys.argv[1:])
