"""Simulator: hand-traced cases, fidelity bands, safety, determinism."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from pumpwise import (
    Channel,
    Dfg,
    PumpPlan,
    SimConfig,
    SimulationError,
    Task,
    TaskPlan,
    ValidationError,
    clock_period_ps,
    compute_throughput,
    datasets,
    default_warmup,
    load_dfg,
    make_plan,
    simulate,
)
from conftest import feasible_f_base, random_pipeline_dfg, random_shallow_dfg
from oracles import oracle_simulate
from pumpwise import sim

BUDGET = sim.REPEAT_SEARCH_ITERATIONS


def chain(freqs, iis, pds, depths, n_op_dsp=None):
    """Linear pipeline with a hand-built ``custom`` plan of per-task (clock, ii)."""
    n = len(freqs)
    tasks = [
        Task(
            name=f"T{i}",
            f_max_mhz=max(freqs),
            n_op_dsp=(n_op_dsp or [0] * n)[i],
            ii_min_base=iis[i],
            pipeline_depth=pds[i],
        )
        for i in range(n)
    ]
    channels = [Channel(f"T{i}", f"T{i+1}", depth=depths[i]) for i in range(n - 1)]
    dfg = Dfg(tasks, channels, device_dsp_total=64)
    plan = PumpPlan(
        "custom",
        {f"T{i}": TaskPlan(1, Fraction(freqs[i]), iis[i]) for i in range(n)},
        Fraction(min(freqs)),
    )
    return dfg, plan


def model_error(dfg, plan, cfg):
    """Relative error of the simulated rate against the analytic, memory-unbounded one."""
    analytic = compute_throughput(dfg, plan)
    return abs(simulate(dfg, plan, cfg).throughput_msps - analytic) / analytic


def test_clock_period_rounding():
    assert clock_period_ps(100) == 10000
    assert clock_period_ps(165) == 6061  # 6060.60.. rounds up
    assert clock_period_ps(10**6) == 1
    with pytest.raises(SimulationError, match="zero-period"):
        clock_period_ps(2 * 10**6)
    with pytest.raises(SimulationError, match="zero-period"):
        clock_period_ps(10**6 + Fraction(1, 3))
    # exact half-picosecond periods round to the even neighbour
    assert clock_period_ps(Fraction(2 * 10**6, 1001)) == 500  # 500.5 ps
    assert clock_period_ps(Fraction(2 * 10**6, 1003)) == 502  # 501.5 ps
    for q in (3, 7, 11):
        for p in (1, 2, 299, 500, 997, 1000, 2 * 10**6 - 1, 3 * 10**6):
            f = Fraction(p, q)
            if f <= 10**6:
                assert clock_period_ps(f) == round(Fraction(10**6) / f)


def test_two_task_chain_100mhz():
    dfg, plan = chain([100, 100], [1, 1], [1, 1], [2])
    rep = simulate(dfg, plan, SimConfig(10000, 100))
    assert rep.throughput_msps == 100  # one token per 10 ns in steady state
    assert rep.firings == {"T0": 10000, "T1": 10000}


def test_two_task_chain_hand_trace(tmp_path):
    dfg, plan = chain([100, 100], [1, 1], [1, 1], [2])
    trace = tmp_path / "trace.csv"
    simulate(dfg, plan, SimConfig(3, 0), trace_path=trace)
    # completion sorts before the same task's start, tasks in index order
    assert trace.read_text().splitlines() == [
        "time_ps,task,kind,iteration",
        "0,T0,start,0",
        "10000,T0,complete,0",
        "10000,T0,start,1",
        "10000,T1,start,0",
        "20000,T0,complete,1",
        "20000,T0,start,2",
        "20000,T1,complete,0",
        "20000,T1,start,1",
        "30000,T0,complete,2",
        "30000,T1,complete,1",
        "30000,T1,start,2",
        "40000,T1,complete,2",
    ]


def test_backpressure_slow_consumer():
    dfg, plan = chain([200, 100], [1, 1], [1, 1], [2])
    rep = simulate(dfg, plan, SimConfig(10000, 100))
    assert rep.throughput_msps == 100  # bottleneck is the consumer
    assert rep.channels[0].peak_occupancy == 2  # producer fills the FIFO


def test_fast_consumer_keeps_fifo_shallow():
    dfg, plan = chain([100, 200], [1, 1], [1, 1], [2])
    rep = simulate(dfg, plan, SimConfig(5000, 100))
    assert rep.throughput_msps == 100
    assert rep.channels[0].peak_occupancy == 1


def test_warmup_must_be_smaller_than_iterations():
    dfg, plan = chain([100, 100], [1, 1], [1, 1], [2])
    with pytest.raises(ValidationError, match="warmup"):
        simulate(dfg, plan, SimConfig(10, 10))
    with pytest.raises(ValidationError, match="warmup"):
        simulate(dfg, plan, SimConfig(10, -1))


def test_zero_length_window_rejected():
    # one iteration of a one-task graph: its only sink start is at 0
    dfg = Dfg([Task(name="A", f_max_mhz=100, ii_min_base=1, pipeline_depth=1)], [], 8)
    with pytest.raises(SimulationError, match="measurement window has zero length"):
        simulate(dfg, make_plan(dfg, 100, "base"), SimConfig(1, 0))


def test_single_task_graph_exact():
    dfg = Dfg([Task(name="A", f_max_mhz=320, n_op_dsp=4, ii_min_base=2, pipeline_depth=3)], [], 8)
    plan = make_plan(dfg, 320, "base")
    err = model_error(dfg, plan, SimConfig(10000, 100))
    assert err <= Fraction(1, 1000)


def test_conv2d_mpump_matches_base_at_250():
    dfg = load_dfg(datasets.path("conv2d.json"))
    cfg = SimConfig(10000, 100)
    rep_m = simulate(dfg, make_plan(dfg, 250, "m-pump"), cfg)
    rep_b = simulate(dfg, make_plan(dfg, 250, "base"), cfg)
    assert abs(rep_m.throughput_msps - 250) / 250 <= Fraction(1, 100)
    assert rep_m.throughput_msps == rep_b.throughput_msps  # preservation


def test_randomized_chains_and_diamonds_fidelity():
    rng = random.Random(88)
    for _ in range(12):
        dfg = random_pipeline_dfg(rng)
        f_base = feasible_f_base(rng, dfg)
        for strategy in ("base", "s-pump", "m-pump"):
            plan = make_plan(dfg, f_base, strategy)
            cfg = SimConfig(10000, default_warmup(dfg, plan))
            err = model_error(dfg, plan, cfg)
            assert err <= Fraction(2, 100), (strategy, float(err))


def test_depth_one_rendezvous_single_clock():
    # one token in flight per hop: with unit pipeline depth the handshake
    # still sustains the full rate on a shared clock
    dfg, plan = chain([100, 100], [1, 1], [1, 1], [1])
    rep = simulate(dfg, plan, SimConfig(5000, 100))
    assert rep.throughput_msps == 100
    assert rep.channels[0].peak_occupancy == 1

    rng = random.Random(89)
    for _ in range(8):
        n = rng.randint(2, 6)
        freqs = [rng.randint(100, 500)] * n
        dfg, plan = chain(freqs, [1] * n, [1] * n, [1] * (n - 1))
        err = model_error(dfg, plan, SimConfig(10000, 100))
        assert err <= Fraction(5, 100)


def test_depth_one_deep_pipeline_throttles():
    # a 3-deep pipeline behind a single-slot FIFO holds one iteration in
    # flight, so the rate drops to a third: the depth-1 band is about
    # handshake coupling, not free pipelining
    dfg, plan = chain([100, 100], [1, 1], [3, 1], [1])
    rep = simulate(dfg, plan, SimConfig(3000, 100))
    assert abs(rep.throughput_msps - Fraction(100, 3)) / Fraction(100, 3) < Fraction(1, 100)


def test_throughput_independent_of_depths_in_envelope():
    reference = None
    for channel_depth in (2, 4, 16, 64):
        for pd in (1, 2):
            dfg, plan = chain([250, 125], [1, 1], [pd, pd], [channel_depth])
            rep = simulate(dfg, plan, SimConfig(4000, 100))
            if reference is None:
                reference = rep.throughput_msps
            assert rep.throughput_msps == reference
    # deeper pipelines keep the rate once the FIFO covers the in-flight window
    dfg, plan = chain([250, 125], [1, 1], [5, 5], [8])
    rep = simulate(dfg, plan, SimConfig(4000, 100))
    assert rep.throughput_msps == reference


def test_cdc_safety_with_coprime_periods():
    # 3 ps vs 7 ps periods exercise every edge alignment
    assert clock_period_ps(333333) == 3
    assert clock_period_ps(142857) == 7
    dfg, plan = chain([333333, 142857], [1, 1], [1, 1], [2])
    rep = simulate(dfg, plan, SimConfig(3000, 100))
    assert rep.channels[0].peak_occupancy <= 2
    analytic = compute_throughput(dfg, plan)
    assert abs(rep.throughput_msps - analytic) / analytic < Fraction(1, 1000)
    dfg, plan = chain([142857, 333333], [1, 1], [1, 1], [2])
    rep = simulate(dfg, plan, SimConfig(3000, 100))
    assert rep.channels[0].peak_occupancy <= 2


def test_token_conservation():
    rng = random.Random(90)
    for _ in range(6):
        dfg = random_pipeline_dfg(rng, max_tasks=6)
        plan = make_plan(dfg, feasible_f_base(rng, dfg), "m-pump")
        rep = simulate(dfg, plan, SimConfig(500, 0))
        assert all(n == 500 for n in rep.firings.values())
        for ch, decl in zip(rep.channels, dfg.channels):
            pushed = rep.firings[decl.src]
            popped = rep.firings[decl.dst]
            assert pushed - popped == ch.residual_tokens
            assert 0 <= ch.peak_occupancy <= decl.depth
        for t in dfg.tasks:
            assert rep.firings[t.name] <= 500


def test_multiple_sinks_measured_at_last_finisher():
    tasks = [
        Task(name="A", f_max_mhz=400, ii_min_base=1, pipeline_depth=1),
        Task(name="B", f_max_mhz=400, ii_min_base=2, pipeline_depth=1),
        Task(name="C", f_max_mhz=400, ii_min_base=1, pipeline_depth=1),
    ]
    dfg = Dfg(tasks, [Channel("A", "B", 4), Channel("A", "C", 4)], 8)
    plan = make_plan(dfg, 200, "base")
    rep = simulate(dfg, plan, SimConfig(2000, 100))
    assert rep.firings == {"A": 2000, "B": 2000, "C": 2000}
    analytic = compute_throughput(dfg, plan)  # 100 msps via B
    assert abs(rep.throughput_msps - analytic) / analytic < Fraction(1, 100)


def test_validate_plan_excludes_memory_bound():
    dfg = load_dfg(datasets.path("optical.json"))
    plan = make_plan(dfg, 200, "base")
    assert compute_throughput(dfg, plan) == 200  # above the 175 msps bound
    err = model_error(dfg, plan, SimConfig(8000, 100))
    assert err < Fraction(1, 100)  # reference is the unclamped 200


def test_determinism_bit_identical_reports():
    dfg = load_dfg(datasets.path("vms.json"))
    plan = make_plan(dfg, 110, "m-pump")
    cfg = SimConfig(3000, 150)
    a = simulate(dfg, plan, cfg)
    b = simulate(dfg, plan, cfg)
    assert a == b


def test_default_warmup_covers_fill():
    dfg = load_dfg(datasets.path("conv2d.json"))
    plan = make_plan(dfg, 165, "base")
    assert default_warmup(dfg, plan) == max(100, 10 * 12)


def test_plan_mismatch_rejected():
    dfg = load_dfg(datasets.path("conv2d.json"))
    other = load_dfg(datasets.path("vms.json"))
    plan = make_plan(other, 110, "base")
    with pytest.raises(ValidationError):
        simulate(dfg, plan, SimConfig(100, 0))


def test_trace_off_by_default(tmp_path):
    dfg, plan = chain([100, 100], [1, 1], [1, 1], [2])
    simulate(dfg, plan, SimConfig(10, 0))
    assert list(tmp_path.iterdir()) == []


# --- differential check against the heap event engine ------------------------


def assert_matches_oracle(dfg, plan, cfg, tmp_path):
    ours = simulate(dfg, plan, cfg, trace_path=tmp_path / "ours.csv")
    ref = oracle_simulate(dfg, plan, cfg, trace_path=tmp_path / "ref.csv")
    assert not ref.stalled
    assert ours.throughput_msps == ref.throughput_msps
    assert ours.channels == ref.channels  # peaks and residual tokens
    assert ours.firings == ref.firings
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # the bounded window outside trace mode gives the same report
    assert simulate(dfg, plan, cfg) == ours


def test_recurrence_matches_oracle_on_shallow_corpus(tmp_path):
    rng = random.Random(0x5A11)
    for _ in range(40):
        dfg, f_base = random_shallow_dfg(rng)
        dfg.validate()
        for strategy in ("base", "s-pump", "m-pump"):
            iterations = rng.choice([20, 150, 400])
            cfg = SimConfig(iterations, rng.randrange(iterations))
            assert_matches_oracle(dfg, make_plan(dfg, f_base, strategy), cfg, tmp_path)


@pytest.mark.parametrize("name,f_base", [("conv2d.json", 165), ("optical.json", 155),
                                         ("vms.json", 110)])
def test_recurrence_matches_oracle_on_datasets(name, f_base, tmp_path):
    dfg = load_dfg(datasets.path(name))
    for strategy in ("base", "s-pump", "m-pump"):
        assert_matches_oracle(dfg, make_plan(dfg, f_base, strategy), SimConfig(600, 150), tmp_path)


def test_same_picosecond_order_consumer_indexed_before_producer(tmp_path):
    # B consumes from A but comes first in the task list, and both share a
    # clock.  At 20 ns B's start waits for A's completion at the same
    # picosecond, and A's start waits for the slot B frees; at 40 ns B's
    # start needs nothing from A's completion, so it pops first and the
    # FIFO never holds two tokens
    tasks = [
        Task(name="B", f_max_mhz=100, ii_min_base=2, pipeline_depth=1),
        Task(name="A", f_max_mhz=100, ii_min_base=1, pipeline_depth=2),
    ]
    dfg = Dfg(tasks, [Channel("A", "B", depth=2)], device_dsp_total=8)
    plan = make_plan(dfg, 100, "base")
    trace = tmp_path / "trace.csv"
    rep = simulate(dfg, plan, SimConfig(4, 0), trace_path=trace)
    assert rep.channels[0].peak_occupancy == 1
    assert trace.read_text().splitlines()[3:10] == [
        "20000,A,complete,0",
        "20000,B,start,0",
        "20000,A,start,2",
        "30000,B,complete,0",
        "30000,A,complete,1",
        "40000,B,start,1",
        "40000,A,complete,2",
    ]
    assert_matches_oracle(dfg, plan, SimConfig(50, 0), tmp_path)


def test_memory_independent_of_iterations():
    dfg = load_dfg(datasets.path("conv2d.json"))
    plan = make_plan(dfg, 165, "m-pump")
    peaks = []
    for iterations in (200, 2000):
        tracemalloc.start()
        simulate(dfg, plan, SimConfig(iterations, 150))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


def test_trace_is_written_in_bounded_chunks(tmp_path):
    # a traced run keeps its events, but not their lines as well
    dfg = load_dfg(datasets.path("conv2d.json"))
    trace = tmp_path / "trace.csv"
    tracemalloc.start()
    simulate(dfg, make_plan(dfg, 165, "base"), SimConfig(20000, 100), trace_path=trace)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 7 * trace.stat().st_size


# --- periodic regime -----------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """``simulate`` with ``counted.computed``, the iterations each call computed."""
    advance = sim._advance

    def counting(steps, n, *args):
        run.computed[-1] += n
        advance(steps, n, *args)

    def run(dfg, plan, cfg, trace=None):
        run.computed.append(0)
        return simulate(dfg, plan, cfg, trace_path=trace)

    run.computed = []
    monkeypatch.setattr(sim, "_advance", counting)
    return run


def assert_matches_full_loop(counted, dfg, plan, cfg, tmp_path, monkeypatch):
    # with no search budget no repeat is found, so every iteration is
    # computed: the reference for the repeat, traced and untraced
    full_trace, repeat_trace = tmp_path / "full.csv", tmp_path / "repeat.csv"
    with monkeypatch.context() as m:
        m.setattr(sim, "REPEAT_SEARCH_ITERATIONS", 0)
        full = counted(dfg, plan, cfg, full_trace)
    assert counted.computed[-1] == cfg.iterations
    assert counted(dfg, plan, cfg) == full, (plan.strategy, cfg)
    assert counted(dfg, plan, cfg, repeat_trace) == full, (plan.strategy, cfg)
    assert repeat_trace.read_bytes() == full_trace.read_bytes(), (plan.strategy, cfg)


@pytest.mark.parametrize(
    "iterations,warmup",
    [
        (1000, 0),  # iterations below the search budget
        (BUDGET, BUDGET - 1),  # iterations at the budget
        (3000, 0),
        (2000, 100),  # warmup before the budget
        (3000, BUDGET),  # warmup at the budget
        (3000, BUDGET + 1),  # warmup after the budget
        (2500, 2499),
    ],
)
def test_repeat_matches_full_loop(iterations, warmup, tmp_path, monkeypatch, counted):
    rng = random.Random(iterations * 10007 + warmup)
    for _ in range(3):
        dfg, f_base = random_shallow_dfg(rng)
        for strategy in ("base", "s-pump", "m-pump"):
            plan = make_plan(dfg, f_base, strategy)
            assert_matches_full_loop(counted, dfg, plan, SimConfig(iterations, warmup),
                                     tmp_path, monkeypatch)
    # the corpus has single-clock plans, which repeat within a few iterations
    assert min(counted.computed[1::3]) < iterations // 10
    assert min(counted.computed[2::3]) < iterations // 10


def find_repeat(counted, dfg, plan):
    """(d0, c) if ``simulate`` finds after iteration d0 a repeat of c < 8 iterations.

    With no warmup it then computes (iterations - d0) % c more iterations,
    so over 8 consecutive lengths past the search budget the counts run
    through d0 .. d0 + c - 1.
    """
    counts = set()
    for x in range(8):
        counted(dfg, plan, SimConfig(2 * BUDGET + x))
        counts.add(counted.computed[-1])
    if max(counts) < BUDGET and len(counts) < 8:
        return min(counts), len(counts)
    return None


def test_repeat_window_ends_anywhere_in_the_period(tmp_path, monkeypatch, counted):
    # plans that repeat every c >= 2 iterations, with the ends of the window
    # at other places in the period than the iteration where the repeat is found
    rng = random.Random(2020)
    periodic = 0
    for _ in range(40):
        dfg, f_base = random_shallow_dfg(rng)
        for strategy in ("base", "s-pump", "m-pump"):
            plan = make_plan(dfg, f_base, strategy)
            d0, c = find_repeat(counted, dfg, plan) or (0, 1)
            if c < 2:
                continue
            periodic += 1
            for iterations, warmup in [
                (d0 + 10 * c, d0 + 3 * c + 1),  # warmup - d0 not a multiple of c
                (d0 + 3 * c + 1, d0 - 1),  # the repeat found after warmup
                (d0 + c - 1, 0),  # iterations fewer than c past the repeat
                (d0, d0 - 1),  # iterations at the repeat
            ]:
                cfg = SimConfig(iterations, warmup)
                assert_matches_full_loop(counted, dfg, plan, cfg, tmp_path, monkeypatch)
                # past the repeat, fewer than c more iterations are computed
                assert counted.computed[-1] < d0 + c
    assert periodic >= 5


def test_multi_clock_runs_without_repeat_match_oracle(counted):
    # multi-clock m-pump plans whose rounded periods have so large an lcm
    # that no repeat is found and all 2 000 iterations are computed, so
    # every peak comes from the occupancy count after each push
    rng = random.Random(0xB0B)
    seen = set()  # (depth, capped at 2; peak)
    # some consumer has inputs of two depths, so one producer reads its window
    # of starts at [-d] with d below the window's length, and some has two
    # equal-depth inputs from different producers, which read the same entry
    mixed_depths = shared_depth = False
    for _ in range(20):
        dfg, f_base = random_shallow_dfg(rng)
        plan = make_plan(dfg, f_base, "m-pump")
        if len({e.f_mhz for e in plan.tasks.values()}) < 2:
            continue
        cfg = SimConfig(2000, rng.randrange(2000))
        ours = counted(dfg, plan, cfg)
        if counted.computed[-1] < cfg.iterations:
            continue
        ref = oracle_simulate(dfg, plan, cfg)
        assert ours.throughput_msps == ref.throughput_msps
        assert ours.peaks == tuple(c.peak_occupancy for c in ref.channels)
        seen.update((min(ch.depth, 2), peak) for ch, peak in zip(dfg.channels, ours.peaks))
        producers = {}  # (consumer, depth) -> producers of its FIFOs of that depth
        for ch in dfg.channels:
            producers.setdefault((ch.dst, ch.depth), set()).add(ch.src)
        consumers = [dst for dst, _ in producers]
        mixed_depths |= len(consumers) > len(set(consumers))
        shared_depth |= any(len(ps) > 1 for ps in producers.values())
    # depth-1 FIFOs, and deeper ones that stay at one token or reach two
    assert {(1, 1), (2, 1), (2, 2)} <= seen
    assert mixed_depths and shared_depth


def test_repeat_reaches_a_billion_iterations():
    dfg = load_dfg(datasets.path("conv2d.json"))
    plan = make_plan(dfg, 165, "base")
    rate = min(e.f_mhz / e.ii for e in plan.tasks.values())
    rep = simulate(dfg, plan, SimConfig(10**9, 100))
    assert rep.firings == {t.name: 10**9 for t in dfg.tasks}
    assert rate * Fraction(999, 1000) <= rep.throughput_msps <= rate * Fraction(1001, 1000)


def test_cyclic_or_zero_depth_channels_rejected():
    tasks = [Task(name=n, f_max_mhz=100, ii_min_base=1, pipeline_depth=1) for n in "AB"]
    plan = PumpPlan("base", {n: TaskPlan(1, Fraction(100), 1) for n in "AB"}, Fraction(100))
    with pytest.raises(ValidationError, match="acyclic"):
        cyclic = Dfg(tasks, [Channel("A", "B"), Channel("B", "A")], 8)
        simulate(cyclic, plan, SimConfig(10, 0))
    with pytest.raises(ValidationError, match="depth"):
        empty = Dfg(tasks, [Channel("A", "B", depth=0)], 8)
        simulate(empty, plan, SimConfig(10, 0))


@pytest.mark.parametrize("f", [0, -100, Fraction(-1, 3)])
def test_input_checks(f):
    with pytest.raises(ValidationError) as e:
        clock_period_ps(f)
    assert type(e.value) is ValidationError
    assert str(e.value) == "clock frequency must be positive"
