"""Set-up probe: import pumpwise, then load and validate a workload's inputs.

    python3 perfbench/setup_probe.py INPUTS.json

INPUTS.json holds {"graphs": [graph JSON text, ...]} or {"datasets": [name,
...]}.  Prints one JSON line with the import and load times in ms once the
inputs are ready, then exits.
"""

import json
import sys
import time

t0 = time.perf_counter()
import pumpwise  # noqa: E402
from pumpwise import datasets  # noqa: E402

t1 = time.perf_counter()
from fractions import Fraction  # noqa: E402

with open(sys.argv[1]) as f:
    spec = json.load(f)
graphs = [json.loads(text, parse_float=Fraction) for text in spec.get("graphs", [])]
t2 = time.perf_counter()
for data in graphs:
    pumpwise.dfg_from_dict(data).validate()
for name in spec.get("datasets", []):
    pumpwise.load_dfg(datasets.path(name))
t3 = time.perf_counter()
n = len(graphs) + len(spec.get("datasets", []))
print(json.dumps({"import_ms": 1e3 * (t1 - t0), "load_ms_per_graph": 1e3 * (t3 - t2) / n}),
      flush=True)
