"""Set-up probe: time `import oklim` plus building one workload's configuration objects.

Run in a fresh interpreter by run.py, once per sample:

    python3 perfbench/probe.py <workload> <inputs.json>

prints {"import_s": ..., "build_s": ...}.  Reading the inputs happens before
the clock starts, and this module imports nothing but the standard library at
the top, so the import time includes numpy and scipy as a user of oklim pays
them.
"""

from __future__ import annotations

import json
import sys
import time


def _particles(config):
    return list(zip(config["masses"], config["positions"]))


def build(oklim, workload, inputs):
    """The configuration objects a workload's operations start from."""
    if workload == "finite-scale":
        balls = [oklim.BallConfiguration(c["dim"], c["eta"], _particles(c))
                 for c in inputs["sharp"] + [inputs["direct"]]]
        templates = [oklim.PointConfiguration(c["dim"], _particles(c)) for c in inputs["expand"]]
        return {"balls": balls, "templates": templates}
    if workload == "limit":
        # what `oklim energy` builds from each config file before it computes
        return {"configs": [oklim.PointConfiguration(c["dim"], _particles(c))
                            for c in inputs["energy"]]}
    if workload == "placement":
        import numpy as np  # already loaded by oklim
        return {"masses": [np.array(c["masses"]) for c in inputs["place"]]}
    raise ValueError(f"unknown workload {workload!r}")


def main(argv):
    workload, path = argv
    with open(path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    t0 = time.perf_counter()
    import oklim
    t1 = time.perf_counter()
    build(oklim, workload, inputs)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1:])
