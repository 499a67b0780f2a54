"""II engine vs hand values and the brute-force cycle-ratio oracle."""

import random
from fractions import Fraction
from math import ceil

import pytest

from oracles import (
    max_ratio,
    min_dist_edges,
    oracle_critical_cycle,
    oracle_min_ii,
    oracle_toposort,
    quantized_latency,
)
from pumpwise.ii import _toposort
from pumpwise import Ddg, Dep, Op, ValidationError, critical_cycle, min_ii, op_latency_cycles, pipeline_depth
from conftest import FREQ_CHOICES, random_ddg


@pytest.mark.parametrize(
    "delay,f,want",
    [
        (3.0, 250, 1),  # period 4 ns
        (3.0, 500, 2),  # period 2 ns
        (0.1, 100, 1),  # clamps at one full cycle, no chaining
        (11, 250, 3),
        (4.0, 1000, 4),
        # delay * f / 1000 an exact integer: no extra cycle
        (2.5, 400, 1),
        (7.5, 400, 3),
        (Fraction(10, 3), 300, 1),
        (Fraction(10, 3), 600, 2),
    ],
)
def test_op_latency_examples(delay, f, want):
    assert op_latency_cycles(delay, f) == want


def test_op_latency_monotone_in_frequency():
    for delay in [0.3, 1.0, 2.5, 6.0]:
        lats = [op_latency_cycles(delay, f) for f in [50, 100, 200, 400, 800]]
        assert lats == sorted(lats)


def test_op_latency_rejects_nonpositive():
    with pytest.raises(ValidationError):
        op_latency_cycles(0, 100)
    with pytest.raises(ValidationError):
        op_latency_cycles(1.0, 0)


def accumulator_ddg():
    # a = a + b: the self-dependence forces II = adder latency
    return Ddg([Op("acc", "add", 11.0)], [Dep("acc", "acc", 1)])


def test_min_ii_equals_adder_latency():
    ddg = accumulator_ddg()
    assert op_latency_cycles(11.0, 250) == 3
    assert min_ii(ddg, 250) == 3
    assert critical_cycle(ddg, 250) == ["acc"]


def test_min_ii_acyclic_filter_body_is_one():
    ops = [Op("ld0", "load", 1.5), Op("ld1", "load", 1.5),
           Op("mul0", "mul", 3.0), Op("mul1", "mul", 3.0),
           Op("add0", "add", 2.5), Op("st", "store", 1.5)]
    deps = [Dep("ld0", "mul0", 0), Dep("ld1", "mul1", 0),
            Dep("mul0", "add0", 0), Dep("mul1", "add0", 0), Dep("add0", "st", 0)]
    assert min_ii(Ddg(ops, deps), 250) == 1


def test_min_ii_combinational_cycle_rejected():
    with pytest.raises(ValidationError, match="combinational cycle"):
        ddg = Ddg(
            [Op("a", "add", 1.0), Op("b", "add", 1.0)],
            [Dep("a", "b", 0), Dep("b", "a", 0)],
        )
        min_ii(ddg, 100)


def test_min_ii_parallel_deps_use_smallest_distance():
    ddg = Ddg(
        [Op("a", "mul", 4.0)],
        [Dep("a", "a", 2), Dep("a", "a", 1)],
    )
    assert min_ii(ddg, 1000) == 4


def test_critical_cycle_picks_higher_ratio():
    # 3/1 beats 5/2: unit-ns quantization at 1 GHz makes delays latencies
    ops = [Op("a", "add", 3.0), Op("b", "mul", 2.0), Op("c", "mul", 3.0)]
    deps = [Dep("a", "a", 1), Dep("b", "c", 1), Dep("c", "b", 1)]
    ddg = Ddg(ops, deps)
    assert min_ii(ddg, 1000) == 3
    assert critical_cycle(ddg, 1000) == ["a"]


def test_critical_cycle_tie_breaks_lexicographically():
    # both cycles have ratio 2; the canonical smallest sequence wins
    ops = [Op("a", "add", 2.0), Op("b", "add", 2.0), Op("c", "add", 2.0)]
    deps = [Dep("a", "a", 1), Dep("b", "c", 1), Dep("c", "b", 1)]
    assert critical_cycle(Ddg(ops, deps), 1000) == ["a"]


def test_critical_cycle_acyclic_errors():
    ddg = Ddg([Op("a", "add", 1.0), Op("b", "add", 1.0)], [Dep("a", "b", 0)])
    with pytest.raises(ValidationError, match="acyclic"):
        critical_cycle(ddg, 100)


def test_min_ii_matches_bruteforce_enumeration():
    rng = random.Random(1234)
    for _ in range(120):
        ddg = random_ddg(rng)
        f = rng.choice(FREQ_CHOICES)
        assert min_ii(ddg, f) == oracle_min_ii(ddg, f)


def test_critical_cycle_matches_bruteforce():
    rng = random.Random(5678)
    checked = 0
    while checked < 60:
        ddg = random_ddg(rng)
        f = rng.choice(FREQ_CHOICES)
        lam, _ = max_ratio(ddg, f)
        if lam is None:
            continue
        checked += 1
        cyc = critical_cycle(ddg, f)
        # the returned cycle attains the oracle's maximum ratio exactly
        lat = {op.id: quantized_latency(op.delay_ns, f) for op in ddg.ops}
        edges = min_dist_edges(ddg)
        total_lat = sum(lat[v] for v in cyc)
        total_dist = sum(edges[(cyc[i], cyc[(i + 1) % len(cyc)])] for i in range(len(cyc)))
        assert Fraction(total_lat, total_dist) == lam
        assert cyc == oracle_critical_cycle(ddg, f)


def test_max_cycle_ratio_matches_bruteforce():
    from pumpwise.ii import _collapsed_edges, _latencies, _max_cycle_ratio

    rng = random.Random(2468)
    acyclic = 0
    for _ in range(200):
        ddg = random_ddg(rng, max_ops=rng.choice([4, 8, 12]))
        f = rng.choice(FREQ_CHOICES)
        lam, _ = _max_cycle_ratio(_latencies(ddg, f), _collapsed_edges(ddg))
        want, _ = max_ratio(ddg, f)
        assert lam == (0 if want is None else want)
        acyclic += want is None
        for q in (3, 7, 11):
            fq = Fraction(f * q + 1, q)
            want_lat = {op.id: max(1, ceil(op.delay_ns * fq / 1000)) for op in ddg.ops}
            assert _latencies(ddg, fq) == want_lat
    assert 0 < acyclic < 200  # both kinds of DDG were drawn


def test_feasibility_is_monotone_in_ii():
    # no positive cycle at II implies none at any larger II
    from fractions import Fraction as F

    from pumpwise.ii import _collapsed_edges, _latencies, _positive_cycle

    rng = random.Random(77)
    for _ in range(30):
        ddg = random_ddg(rng)
        f = rng.choice(FREQ_CHOICES)
        lat = _latencies(ddg, f)
        edges = _collapsed_edges(ddg)
        feasible = [not _positive_cycle(lat, edges, F(ii))[0] for ii in range(1, 20)]
        assert feasible == sorted(feasible)  # False... then True...
        first = min_ii(ddg, f)
        for ii, ok in enumerate(feasible, start=1):
            assert ok == (ii >= first)


def test_min_ii_nondecreasing_in_frequency():
    rng = random.Random(91)
    for _ in range(40):
        ddg = random_ddg(rng)
        vals = [min_ii(ddg, f) for f in [100, 200, 400, 800]]
        assert vals == sorted(vals)


def test_pipeline_depth_chain_of_unit_ops():
    ops = [Op("ld", "load", 3.0), Op("mul", "mul", 3.0), Op("add0", "add", 3.0),
           Op("add1", "add", 3.0), Op("st", "store", 3.0)]
    deps = [Dep("ld", "mul", 0), Dep("mul", "add0", 0),
            Dep("add0", "add1", 0), Dep("add1", "st", 0)]
    assert pipeline_depth(Ddg(ops, deps), 250) == 5


def test_pipeline_depth_single_op_is_own_latency():
    assert pipeline_depth(Ddg([Op("m", "mul", 11.0)], []), 250) == 3


def test_pipeline_depth_nondecreasing_in_frequency():
    rng = random.Random(17)
    for _ in range(30):
        ddg = random_ddg(rng)
        vals = [pipeline_depth(ddg, f) for f in [100, 200, 400, 800]]
        assert vals == sorted(vals)


def test_ddg_order_puts_dist0_sources_first():
    rng = random.Random(4321)
    for _ in range(50):
        ddg = random_ddg(rng, max_ops=rng.choice([4, 8, 12]))
        assert sorted(ddg.order) == sorted(op.id for op in ddg.ops)
        pos = {v: i for i, v in enumerate(ddg.order)}
        assert all(pos[d.src] < pos[d.dst] for d in ddg.deps if d.dist == 0)


def test_toposort_equals_graphlib_in_order_and_cycle():
    # random nodes in random order; parallel edges, self-loops and cycles,
    # and half the graphs acyclic by construction
    rng = random.Random(2024)
    cyclic = 0
    for _ in range(3000):
        nodes = [f"v{i}" for i in rng.sample(range(20), rng.randint(1, 9))]
        acyclic = rng.random() < 0.5
        edges = []
        for _ in range(rng.randint(0, 3 * len(nodes))):
            u, v = rng.choice(nodes), rng.choice(nodes)
            if acyclic and nodes.index(u) >= nodes.index(v):
                continue
            edges += [(u, v)] * rng.choice([1, 1, 1, 2])
        got = _toposort(nodes, edges)
        assert got == oracle_toposort(nodes, edges), (nodes, edges)
        cyclic += got[1] is not None
    assert 500 < cyclic < 1500


def test_pipeline_depth_ignores_carried_deps():
    ddg = accumulator_ddg()
    assert pipeline_depth(ddg, 250) == 3  # the dist-1 self edge adds no path


def test_ddg_validation_errors():
    with pytest.raises(ValidationError, match="unknown op"):
        Ddg([Op("a", "add", 1.0)], [Dep("a", "zz", 0)])
    with pytest.raises(ValidationError, match="duplicate op id"):
        Ddg([Op("a", "add", 1.0), Op("a", "mul", 2.0)], [])
    with pytest.raises(ValidationError, match="delay_ns"):
        Ddg([Op("a", "add", 0)], [])
    with pytest.raises(ValidationError, match="dist"):
        Ddg([Op("a", "add", 1.0), Op("b", "add", 1.0)], [Dep("a", "b", -1)])


# (call, exact ValidationError message)
INPUT_CHECKS = {
    "no ops": (lambda: Ddg([], []), "ddg has no operations"),
    "zero delay": (
        lambda: op_latency_cycles(0, 100),
        "op_latency_cycles requires positive delay and frequency",
    ),
    "zero clock": (
        lambda: op_latency_cycles(1, 0),
        "op_latency_cycles requires positive delay and frequency",
    ),
    "min_ii zero clock": (lambda: min_ii(accumulator_ddg(), 0), "clock frequency must be positive"),
    "pipeline_depth negative clock": (
        lambda: pipeline_depth(accumulator_ddg(), -1), "clock frequency must be positive"
    ),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_checks(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(ValidationError) as e:
        call()
    assert str(e.value) == message
