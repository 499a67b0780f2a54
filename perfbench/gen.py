"""Seeded input generators for the pumpwise benchmark.

The shapes follow the randomized corpora of the test suite, but the code
is kept apart from it so that editing a test cannot move a workload.
Every generator draws only from the ``random.Random`` it is handed and
returns plain JSON-ready data: the package sees the generated graphs and
command lines, never the generator.
"""

from __future__ import annotations

import random
from fractions import Fraction

# decimal delays, written to JSON as floats and read back as exact decimals
DELAYS_NS = [0.3, 0.8, 1.0, 1.7, 2.5, 3.0, 4.2, 6.0]
OP_CLASSES = ["mul", "add", "load", "store"]
DEVICE_DSP = 4096

# sim-shallow graphs cycle through these sizes, so that the per-op cost mix is
# the same for every seed and only the graph structure is random
SIM_TASKS = (4, 5, 6, 7, 8)
# every dse graph has the same shape for the same reason
DSE_TASKS = 5
DSE_DDG_OPS = (4, 8, 12)
DSE_SWEEP_ROWS = 4


def pipeline(rng: random.Random, n: int, depth, skip_prob: float, f_max=(200, 1000)) -> dict:
    """Chain of ``n`` tasks plus a ``skip_prob`` share of all forward skip edges.

    ``depth()`` sizes each FIFO.  Fixed edge counts keep the cost of graphs
    of one size alike, so that seeds differ in structure, not in cost.
    """
    dsp_idx = rng.randrange(n)
    tasks = []
    for i in range(n):
        has_dsp = i == dsp_idx or rng.random() < 0.5
        tasks.append({
            "name": f"T{i}",
            "f_max_mhz": rng.randint(*f_max),
            "n_op_dsp": rng.randint(8, 512) if has_dsp else 0,
            "n_op_mem": rng.randint(0, 4),
            "base_partition_factor": rng.choice([1, 2, 4, 8]),
            "ii_min_base": 1,
            "pipeline_depth": rng.randint(1, 6),
        })
    channels = [{"from": f"T{i}", "to": f"T{i + 1}", "depth": depth()} for i in range(n - 1)]
    skips = [(i, j) for i in range(n - 1) for j in range(i + 2, n)]
    for i, j in sorted(rng.sample(skips, round(skip_prob * len(skips)))):
        channels.append({"from": f"T{i}", "to": f"T{j}", "depth": depth()})
    return {"tasks": tasks, "channels": channels, "device_dsp_total": DEVICE_DSP}


def min_f_max(graph: dict) -> int:
    return min(t["f_max_mhz"] for t in graph["tasks"])


def sim_shallow(rng: random.Random, k: int) -> tuple[dict, Fraction]:
    """k-th sim-shallow input: 1-3 deep FIFOs, more skips, base clock p/q."""
    g = pipeline(rng, SIM_TASKS[k % len(SIM_TASKS)], lambda: rng.randint(1, 3), 0.45)
    q = rng.choice([3, 7, 11])
    p = rng.randint(50 * q + 1, min_f_max(g) * q - 1)
    if p % q == 0:
        p += 1
    return g, Fraction(p, q)


def ddg(rng: random.Random, n: int) -> dict:
    """Random DDG of ``n`` ops with at least one loop-carried cycle.

    It has 2.4 dependences per op.  Dist-0 edges follow a hidden
    topological order, so the DDG is always valid; op o0 carries an accumulator self-loop, so ``critical_cycle``
    always has a cycle to return.
    """
    order = list(range(n))
    rng.shuffle(order)
    pos = {order[i]: i for i in range(n)}
    ops = [{"id": f"o{i}", "class": rng.choice(OP_CLASSES), "delay_ns": rng.choice(DELAYS_NS)}
           for i in range(n)]
    deps = [{"from": "o0", "to": "o0", "dist": rng.randint(1, 3)}]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for a, b in sorted(rng.sample(pairs, min(len(pairs), round(2.4 * n)))):
        dist = rng.choice([0, 0, 1, 2]) if pos[a] < pos[b] else rng.randint(1, 3)
        deps.append({"from": f"o{a}", "to": f"o{b}", "dist": dist})
    return {"ops": ops, "deps": deps}


def dse_graph(rng: random.Random, k: int) -> tuple[dict, Fraction, tuple[Fraction, Fraction, Fraction]]:
    """k-th dse input: graph, analysis clock, and sweep range (lo, hi, step).

    Three of the five tasks (60 %) carry a DDG, one of each size in
    DSE_DDG_OPS, and declare neither ``ii_min_base`` nor ``pipeline_depth``,
    so the II engine derives both.  The sweep samples the feasible base
    clocks from 50 MHz up to the slowest f_max in DSE_SWEEP_ROWS steps.
    """
    g = pipeline(rng, DSE_TASKS, lambda: 16, 0.25, f_max=(250, 500))
    for i, n_ops in zip(rng.sample(range(DSE_TASKS), len(DSE_DDG_OPS)), DSE_DDG_OPS):
        t = g["tasks"][i]
        del t["ii_min_base"], t["pipeline_depth"]
        t["ddg"] = ddg(rng, n_ops)
    hi = Fraction(min_f_max(g))
    lo = Fraction(50)
    step = (hi - lo) / (DSE_SWEEP_ROWS - 1)
    return g, Fraction(rng.randint(50, int(hi))), (lo, hi, step)


DATASETS = ("conv2d.json", "optical.json", "vms.json")
# analysis clocks per dataset: every one is feasible for all three strategies
CLI_F_BASE = {
    "conv2d.json": (150, 165, 200, 250),
    "optical.json": (100, 125, 150, 155),
    "vms.json": (100, 110, 150, 200),
}
CLI_SWEEP = {
    "conv2d.json": ("100", "260", "5"),
    "optical.json": ("25", "310", "5"),
    "vms.json": ("50", "220", "5"),
}
CLI_SIM_ITERATIONS = "2000"


def cli_commands(rng: random.Random, work: str) -> tuple[list, dict[str, int]]:
    """CLI commands as (kind, dataset, argv) in seeded order, and the base clocks.

    Each dataset gets analyze, optimize for all three strategies, sweep,
    simulate and report at one seeded base clock.  Output files go under
    ``work``; simulate reads ``<dataset>.sim.plan``, the m-pump plan at that
    clock, which the caller writes beforehand.
    """
    f_base = {ds: rng.choice(CLI_F_BASE[ds]) for ds in DATASETS}
    cmds = []
    for ds in DATASETS:
        f = str(f_base[ds])
        stem = ds.removesuffix(".json")
        cmds.append(("analyze", ds, ["analyze", ds, "--f-base", f]))
        for s in ("base", "s-pump", "m-pump"):
            cmds.append(("optimize", ds, ["optimize", ds, "--f-base", f, "--strategy", s,
                                          "--out", f"{work}/{stem}.{s}.plan"]))
        lo, hi, step = CLI_SWEEP[ds]
        cmds.append(("sweep", ds, ["sweep", ds, "--f-lo", lo, "--f-hi", hi, "--step", step]))
        cmds.append(("simulate", ds, ["simulate", ds, f"{work}/{stem}.sim.plan",
                                      "--iterations", CLI_SIM_ITERATIONS]))
        # the report's sweep range is fixed, so that its cost does not hang on the seed
        cmds.append(("report", ds, ["report", ds, "--f-base", f, "--out", f"{work}/{stem}.report",
                                    "--f-lo", lo, "--f-hi", hi, "--step", step,
                                    "--iterations", CLI_SIM_ITERATIONS]))
    rng.shuffle(cmds)
    return cmds, f_base
