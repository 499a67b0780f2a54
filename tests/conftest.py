"""Shared corpus generators for the randomized property suites."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pumpwise import Channel, Ddg, Dep, Dfg, Op, Task

sys.path.insert(0, str(Path(__file__).parent))

DELAY_CHOICES = [0.3, 0.8, 1.0, 1.7, 2.5, 3.0, 4.2, 6.0]
FREQ_CHOICES = [100, 250, 333, 500, 750]


def random_ddg(rng: random.Random, max_ops: int = 12) -> Ddg:
    """Random DDG whose dist-0 edges respect a hidden topological order."""
    n = rng.randint(1, max_ops)
    order = list(range(n))
    rng.shuffle(order)
    pos = {order[i]: i for i in range(n)}
    ops = [Op(f"o{i}", rng.choice(["mul", "add", "load", "store"]), rng.choice(DELAY_CHOICES))
           for i in range(n)]
    deps = []
    for a in range(n):
        for b in range(n):
            if a == b:
                if rng.random() < 0.08:
                    deps.append(Dep(f"o{a}", f"o{b}", rng.randint(1, 3)))
            elif rng.random() < 0.18:
                dist = rng.choice([0, 0, 1, 2]) if pos[a] < pos[b] else rng.randint(1, 3)
                deps.append(Dep(f"o{a}", f"o{b}", dist))
    return Ddg(ops, deps)


def random_pipeline_dfg(
    rng: random.Random,
    max_tasks: int = 8,
    channel_depth: int = 64,
    max_pipeline_depth: int = 6,
    min_dsp: int = 8,
    skip_prob: float = 0.25,
) -> Dfg:
    """Random acyclic pipeline: a chain backbone plus forward skip edges.

    Channel depths default to 64 tokens, enough to absorb the pipeline
    latency imbalance of reconvergent paths (at most 8 tasks of depth 6),
    so steady-state throughput is governed by the bottleneck task alone.
    Pass ``skip_prob=0`` for pure chains (the only topology where
    single-slot FIFOs do not serialize reconvergent paths).
    """
    n = rng.randint(2, max_tasks)
    dsp_idx = rng.randrange(n)
    tasks = []
    for i in range(n):
        has_dsp = i == dsp_idx or rng.random() < 0.5
        tasks.append(
            Task(
                name=f"T{i}",
                f_max_mhz=rng.randint(200, 1000),
                n_op_dsp=rng.randint(min_dsp, 512) if has_dsp else 0,
                n_op_mem=rng.randint(0, 4),
                base_partition_factor=rng.choice([1, 2, 4, 8]),
                ii_min_base=1,
                pipeline_depth=rng.randint(1, max_pipeline_depth),
            )
        )
    channels = [Channel(f"T{i}", f"T{i+1}", depth=channel_depth) for i in range(n - 1)]
    for i in range(n - 1):
        for j in range(i + 2, n):
            if rng.random() < skip_prob:
                channels.append(Channel(f"T{i}", f"T{j}", depth=channel_depth))
    return Dfg(tasks, channels, device_dsp_total=4096)


def feasible_f_base(rng: random.Random, dfg: Dfg) -> int:
    return rng.randint(50, int(dfg.min_f_max_mhz))


def random_shallow_dfg(rng: random.Random, max_tasks: int = 7) -> tuple[Dfg, Fraction]:
    """Random pipeline with 1-3 deep FIFOs, reconvergent skips and a p/q base clock.

    Back-pressure, not the bottleneck task, sets the rate here.  The task
    list is shuffled, so channels run from higher to lower task indices
    as often as the other way round, and the same-picosecond event order
    cannot follow from the topological order alone.  The base clock has
    denominator 3, 7 or 11, so the pumped clock periods are coprime.
    """
    n = rng.randint(2, max_tasks)
    f_max = [rng.randint(150, 900) for _ in range(n)]
    tasks = [
        Task(
            name=f"T{i}",
            f_max_mhz=f_max[i],
            n_op_dsp=rng.choice([0, rng.randint(2, 64)]),
            ii_min_base=rng.randint(1, 3),
            pipeline_depth=rng.randint(1, 6),
        )
        for i in range(n)
    ]
    channels = [Channel(f"T{i}", f"T{i+1}", depth=rng.randint(1, 3)) for i in range(n - 1)]
    for i in range(n - 1):
        for j in range(i + 2, n):
            if rng.random() < 0.4:
                channels.append(Channel(f"T{i}", f"T{j}", depth=rng.randint(1, 3)))
    rng.shuffle(tasks)
    q = rng.choice([3, 7, 11])
    p = rng.randint(50 * q + 1, min(f_max) * q - 1)
    if p % q == 0:
        p += 1
    return Dfg(tasks, channels, device_dsp_total=4096), Fraction(p, q)


@pytest.fixture
def rng():
    return random.Random(20260810)
