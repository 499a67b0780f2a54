"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] ...: PASS/FAIL` line and then
asserts.  Run `pytest -s tests/test_acceptance.py` to see the verdict
lines as they happen (pytest captures them otherwise).
"""

import random
import time
from fractions import Fraction

from oracles import oracle_min_ii
from pumpwise import (
    Ddg,
    Dep,
    Op,
    SimConfig,
    bind,
    compute_throughput,
    datasets,
    default_warmup,
    fu_count,
    graph_throughput,
    load_dfg,
    make_plan,
    max_pump_factor,
    max_single_pump_factor,
    min_ii,
    op_latency_cycles,
    simulate,
    sweep,
)
from pumpwise.cli import main as cli_main
from conftest import FREQ_CHOICES, feasible_f_base, random_ddg, random_pipeline_dfg

import pytest


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, detail


# --- shared randomized corpus for criteria 4 and 5 --------------------------


@pytest.fixture(scope="module")
def sim_corpus():
    """50 random DFGs x 3 strategies, 10 000 iterations, default warmup."""
    rng = random.Random(0xDF6)
    results = []
    t0 = time.perf_counter()
    for _ in range(50):
        dfg = random_pipeline_dfg(rng)
        f_base = feasible_f_base(rng, dfg)
        per_strategy = {}
        for strategy in ("base", "s-pump", "m-pump"):
            plan = make_plan(dfg, f_base, strategy)
            cfg = SimConfig(10000, default_warmup(dfg, plan))
            rep = simulate(dfg, plan, cfg)
            assert all(n == cfg.iterations for n in rep.firings.values())
            per_strategy[strategy] = (rep.throughput_msps, compute_throughput(dfg, plan))
        results.append((dfg, f_base, per_strategy))
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_1_conv2d_exact_reproduction():
    t0 = time.perf_counter()
    dfg = load_dfg(datasets.path("conv2d.json"))
    assert dfg.task("Filter2D").n_op_dsp == 225
    assert dfg.task("Filter2D").f_max_mhz == 500
    assert dfg.device_dsp_total == 360
    rows = {int(r.f_base_mhz): r for r in sweep(dfg, 100, 260, 5)}
    r165, r250 = rows[165], rows[250]
    elapsed = time.perf_counter() - t0
    checks = [
        float(r165.dsp_base_pct) == 62.5,
        abs(float(r165.dsp_s_pump_pct) - 31.39) <= 0.01,
        abs(float(r165.dsp_m_pump_pct) - 20.83) <= 0.01,
        float(r250.dsp_base_pct) == 62.5,
        abs(float(r250.dsp_m_pump_pct) - 31.39) <= 0.01,
        elapsed < 1.0,
    ]
    _verdict(
        1,
        "conv2d sweep reproduces 62.5 / 31.39 / 20.83 DSP% in under 1 s",
        all(checks),
        f"checks={checks} elapsed={elapsed:.3f}s",
    )


def test_criterion_2_table_band():
    dfg = load_dfg(datasets.path("conv2d.json"))
    pct = {
        (165, "base"): bind(dfg, make_plan(dfg, 165, "base")).dsp_pct,
        (165, "s-pump"): bind(dfg, make_plan(dfg, 165, "s-pump")).dsp_pct,
        (165, "m-pump"): bind(dfg, make_plan(dfg, 165, "m-pump")).dsp_pct,
        (250, "base"): bind(dfg, make_plan(dfg, 250, "base")).dsp_pct,
        (250, "m-pump"): bind(dfg, make_plan(dfg, 250, "m-pump")).dsp_pct,
    }
    published = {
        (165, "base"): 64,
        (165, "s-pump"): 33,
        (165, "m-pump"): 23,
        (250, "base"): 64,
        (250, "m-pump"): 33,
    }
    deltas = {k: abs(float(pct[k]) - published[k]) for k in published}
    ok = all(d <= 3.0 for d in deltas.values())
    _verdict(
        2,
        "analytic DSP% within 3 points of post-implementation 64/33/23 and 64/33",
        ok,
        f"deltas={deltas}",
    )


def test_criterion_3_factor_reproduction():
    dfg = load_dfg(datasets.path("conv2d.json"))
    ok = (
        max_pump_factor(500, 165, 225) == 3
        and dfg.min_f_max_mhz == 330
        and max_single_pump_factor(dfg, 165) == 2
    )
    _verdict(3, "pump factors reproduce: per-task 3 at 165 MHz, uniform 2 at 330 MHz", ok)


def test_criterion_4_throughput_preservation(sim_corpus):
    results, elapsed = sim_corpus
    worst = Fraction(0)
    for _, _, per_strategy in results:
        values = [thr for thr, _ in per_strategy.values()]
        for a in values:
            for b in values:
                if a != b:
                    worst = max(worst, abs(a - b) / max(a, b))
    ok = worst <= Fraction(2, 100) and elapsed < 30.0
    _verdict(
        4,
        "50 random DFGs: base/s-pump/m-pump simulated throughput pairwise within 2 % in < 30 s",
        ok,
        f"worst={float(worst):.5f} elapsed={elapsed:.1f}s",
    )


def test_criterion_5_bottleneck_fidelity(sim_corpus):
    results, _ = sim_corpus
    worst = Fraction(0)
    for _, _, per_strategy in results:
        for sim_thr, analytic in per_strategy.values():
            worst = max(worst, abs(sim_thr - analytic) / analytic)
    ok_deep = worst <= Fraction(2, 100)

    # depth-1 variant: single-clock chains with unit pipeline depth, the
    # envelope where the rendezvous handshake sustains the nominal rate
    rng = random.Random(0xD1)
    worst_d1 = Fraction(0)
    for _ in range(50):
        dfg = random_pipeline_dfg(rng, channel_depth=1, max_pipeline_depth=1, skip_prob=0)
        f_base = feasible_f_base(rng, dfg)
        plan = make_plan(dfg, f_base, "base")
        rep = simulate(dfg, plan, SimConfig(10000, 100))
        analytic = compute_throughput(dfg, plan)
        worst_d1 = max(worst_d1, abs(rep.throughput_msps - analytic) / analytic)
    ok_d1 = worst_d1 <= Fraction(5, 100)
    _verdict(
        5,
        "simulated throughput matches min(f/II) within 2 % (depth >= 2), 5 % (depth 1)",
        ok_deep and ok_d1,
        f"worst_deep={float(worst):.5f} worst_depth1={float(worst_d1):.5f}",
    )


def test_criterion_6_ii_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(0x11E)
    mismatches = 0
    for _ in range(200):
        ddg = random_ddg(rng, max_ops=12)
        f = rng.choice(FREQ_CHOICES)
        if min_ii(ddg, f) != oracle_min_ii(ddg, f):
            mismatches += 1
    adder = Ddg([Op("acc", "add", 11.0)], [Dep("acc", "acc", 1)])
    adder_ok = min_ii(adder, 250) == op_latency_cycles(11.0, 250) == 3
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and adder_ok and elapsed < 10.0
    _verdict(
        6,
        "min_ii equals brute-force cycle enumeration on 200 DDGs; "
        "self-dependence II equals adder latency; < 10 s",
        ok,
        f"mismatches={mismatches} adder_ok={adder_ok} elapsed={elapsed:.1f}s",
    )


def test_criterion_7_pareto_dominance():
    ok = True
    detail = []
    for name in datasets.names():
        dfg = load_dfg(datasets.path(name))
        hi = int(dfg.min_f_max_mhz)
        rows = sweep(dfg, 25, hi, 5)
        if not all(r.dsp_m_pump <= r.dsp_s_pump <= r.dsp_base for r in rows):
            ok = False
            detail.append(f"{name}: dominance violated")
        # degeneration frequencies from the factor functions on a 1 MHz grid
        s_deg = next(
            (f for f in range(25, hi + 1) if max_single_pump_factor(dfg, f) == 1), None
        )
        m_deg = next(
            (
                f
                for f in range(25, hi + 1)
                if all(
                    max_pump_factor(t.f_max_mhz, f, t.n_op_dsp) == 1 for t in dfg.tasks
                )
            ),
            None,
        )
        if s_deg is None or m_deg is None or m_deg < s_deg:
            ok = False
            detail.append(f"{name}: s_deg={s_deg} m_deg={m_deg}")
    _verdict(
        7,
        "every shipped sweep row: m-pump <= s-pump <= base DSPs; "
        "m-pump degenerates at a higher clock than s-pump",
        ok,
        "; ".join(detail),
    )


def test_criterion_8_monotonicity_suite():
    ok = True
    detail = []
    for n in [0, 1, 4, 113, 225, 512]:
        counts = [fu_count(n, ii) for ii in range(1, 65)]
        if counts != sorted(counts, reverse=True):
            ok = False
            detail.append(f"fu_count not non-increasing at n={n}")
    rng = random.Random(0x8A)
    for _ in range(40):
        ddg = random_ddg(rng)
        vals = [min_ii(ddg, f) for f in [100, 200, 400, 800]]
        if vals != sorted(vals):
            ok = False
            detail.append("min_ii not non-decreasing in f")
            break
    for name in datasets.names():
        dfg = load_dfg(datasets.path(name))
        rows = sweep(dfg, 25, dfg.min_f_max_mhz, 1)
        for col in ("dsp_base", "dsp_s_pump", "dsp_m_pump"):
            series = [getattr(r, col) for r in rows]
            if series != sorted(series):
                ok = False
                detail.append(f"{name}.{col} not a non-decreasing step function")
        for a, b in zip(rows, rows[1:]):
            if b.dsp_m_pump != a.dsp_m_pump or b.dsp_s_pump != a.dsp_s_pump:
                factors_a = [max_pump_factor(t.f_max_mhz, a.f_base_mhz, t.n_op_dsp)
                             for t in dfg.tasks] + [max_single_pump_factor(dfg, a.f_base_mhz)]
                factors_b = [max_pump_factor(t.f_max_mhz, b.f_base_mhz, t.n_op_dsp)
                             for t in dfg.tasks] + [max_single_pump_factor(dfg, b.f_base_mhz)]
                if factors_a == factors_b:
                    ok = False
                    detail.append(f"{name}: step without a factor change at {b.f_base_mhz}")
    _verdict(
        8,
        "fu_count non-increasing in II; min_ii non-decreasing in f; "
        "sweep columns are non-decreasing step functions stepping only with factors",
        ok,
        "; ".join(detail),
    )


def test_criterion_9_determinism(tmp_path, capsys):
    conv = str(datasets.path("conv2d.json"))

    def run_twice(argv, files=()):
        outs = []
        for k in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            snapshot = [captured.out, captured.err, code]
            snapshot += [f.read_bytes() for f in files]
            outs.append(snapshot)
        return outs[0] == outs[1]

    plan = tmp_path / "plan.json"
    csv = tmp_path / "sweep.csv"
    rep = tmp_path / "rep"
    ok = True
    ok &= run_twice(["analyze", conv, "--f-base", "165"])
    ok &= run_twice(
        ["optimize", conv, "--f-base", "250", "--strategy", "m-pump", "--out", str(plan)],
        files=[plan],
    )
    ok &= run_twice(
        ["sweep", conv, "--f-lo", "100", "--f-hi", "260", "--step", "5", "--out", str(csv)],
        files=[csv],
    )
    ok &= run_twice(
        ["simulate", conv, str(plan), "--iterations", "2000", "--warmup", "100"]
    )
    ok &= run_twice(
        ["report", conv, "--f-base", "165", "--out", str(rep), "--iterations", "1000"],
        files=[rep / "summary.txt", rep / "sweep.csv", rep / "simcheck.csv"],
    )

    dfg = load_dfg(datasets.path("vms.json"))
    mplan = make_plan(dfg, 110, "m-pump")
    a = simulate(dfg, mplan, SimConfig(3000, 150))
    b = simulate(dfg, mplan, SimConfig(3000, 150))
    ok &= a == b
    _verdict(
        9,
        "CLI commands byte-identical across runs; SimReports identical",
        bool(ok),
    )


def test_criterion_10_headline_1_fewer_dsps_at_equal_throughput():
    # optical at its slowest f_max, 310 MHz, is memory bound at 175 msps;
    # m-pump reaches the same 175 msps from a lower base clock, with its
    # four DSP tasks at m = 2 (illustrative op counts: a model finding)
    dfg = load_dfg(datasets.path("optical.json"))
    base = make_plan(dfg, dfg.min_f_max_mhz, "base")
    points = {(310, "base"): (bind(dfg, base).total_dsp, graph_throughput(dfg, base))}
    for f in (175, 200, 225):
        plan = make_plan(dfg, f, "m-pump")
        points[(f, "m-pump")] = (bind(dfg, plan).total_dsp, graph_throughput(dfg, plan))
    want = {(310, "base"): (188, 175)}
    want.update({(f, "m-pump"): (96, 175) for f in (175, 200, 225)})
    saving = 1 - Fraction(96, 188)
    _verdict(
        10,
        "optical m-pump at 175-225 MHz binds 96 DSPs at 175 msps, base at 310 MHz 188 "
        f"({float(saving) * 100:.1f} % fewer)",
        points == want and dfg.min_f_max_mhz == 310,
        f"points={points}",
    )
