"""Golden CLI matrix: stdout, stderr, exit code and written files pinned by digest.

Every command of the matrix runs in-process through ``main()`` in one
scratch directory, in order, so ``simulate`` reads the plans that
``optimize`` wrote before it.  ``tests/golden_cli.json`` holds, per
command, the exit code and the sha256 of stdout, stderr and each file
the command wrote or changed (by size or modification time).  A
refactor that keeps behaviour keeps every digest.

To regenerate the digests after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py

With ``--check`` the script compares instead of writing: it exits 1 and
names each command whose digests differ.  It needs no pytest, so it
checks the matrix under every supported Python version.
"""

import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from pumpwise.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
ITERATIONS = "2000"

CLOCKS = {
    "conv2d.json": ["165", "330", "1000/7"],
    "optical.json": ["155", "700/3"],
    "vms.json": ["110", "1000/9"],
}


def matrix() -> list[list[str]]:
    cmds = []
    for ds, clocks in CLOCKS.items():
        stem = ds.removesuffix(".json")
        for f in clocks:
            tag = f"{stem}-{f.replace('/', '_')}"
            cmds.append(["analyze", ds, "--f-base", f])
            cmds.append(["optimize", ds, "--f-base", f])  # default strategy and file name
            for s in ("base", "s-pump", "m-pump"):
                plan = f"{tag}-{s}.plan"
                cmds.append(["optimize", ds, "--f-base", f, "--strategy", s, "--out", plan])
                sim = ["simulate", ds, plan, "--iterations", ITERATIONS]
                if f == clocks[-1]:  # traces cost most, so only at the coprime clock
                    sim += ["--trace", f"{tag}-{s}.trace.csv"]
                cmds.append(sim)
            cmds.append(["report", ds, "--f-base", f, "--out", f"{tag}-report",
                         "--iterations", ITERATIONS])
        # stdout and --out print the same CSV, so the fine step only goes to a file
        cmds.append(["sweep", ds, "--f-lo", "20", "--f-hi", "600", "--step", "5"])
        for step in ("5", "1/3"):
            cmds.append(["sweep", ds, "--f-lo", "20", "--f-hi", "600", "--step", step,
                         "--out", f"{stem}-sweep-{step.replace('/', '_')}.csv"])
    # error paths: infeasible clock, missing file, plan for another graph
    cmds.append(["analyze", "conv2d.json", "--f-base", "600"])
    cmds.append(["analyze", "missing.json", "--f-base", "100"])
    cmds.append(["simulate", "vms.json", "conv2d-165-base.plan"])
    return cmds


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stats(root: Path) -> dict[Path, tuple[int, int]]:
    return {p: (p.stat().st_mtime_ns, p.stat().st_size) for p in root.rglob("*") if p.is_file()}


def run_matrix(root: Path) -> dict[str, dict]:
    """Run every command in ``root`` and digest what each one produced."""
    results = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in matrix():
            before = _stats(root)
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            written = sorted(p for p, st in _stats(root).items() if before.get(p) != st)
            results[" ".join(argv)] = {
                "exit": code,
                "stdout": _sha(out.getvalue().encode()),
                "stderr": _sha(err.getvalue().encode()),
                "files": {p.relative_to(root).as_posix(): _sha(p.read_bytes()) for p in written},
            }
    finally:
        os.chdir(cwd)
    return results


def test_cli_matrix_matches_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_matrix(tmp_path)
    assert list(got) == list(golden)
    for cmd, want in golden.items():
        assert got[cmd] == want, cmd


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_matrix(Path(tmp))
    if sys.argv[1:] == ["--check"]:
        golden = json.loads(GOLDEN.read_text())
        differ = sorted(cmd for cmd in golden.keys() | digests.keys()
                        if golden.get(cmd) != digests.get(cmd))
        for cmd in differ:
            print(f"differs: {cmd}", file=sys.stderr)
        print(f"{len(golden)} commands checked, {len(differ)} differ", file=sys.stderr)
        sys.exit(1 if differ else 0)
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"{len(digests)} commands written to {GOLDEN}", file=sys.stderr)
