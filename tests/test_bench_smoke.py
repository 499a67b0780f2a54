"""The benchmark's workloads run a short slice in-process and pass their own checks.

A refactor that deletes something the benchmark reads fails here, not
only when the benchmark runs.
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
# leave no bytecode under perfbench/
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import run  # noqa: E402
import workloads  # noqa: E402

sys.dont_write_bytecode = _dont_write


@pytest.mark.parametrize("name", ["sim-shallow", "dse", "cli"])
def test_probe_slice_passes_its_checks(name, tmp_path):
    # the cli workload writes its plans and bundles under tmp_path
    w = workloads.workloads(ROOT, tmp_path / "cli")[name]
    w.trim_to_probe()
    w.generate(random.Random("smoke"))
    w.prepare(run.NullTracer())
    results = []
    for i in range(len(w.ops)):
        w.before(i)
        results.append(w.run(i, run.NullTracer()))
    assert results and all(w.check(results))
    w.exact(results)
