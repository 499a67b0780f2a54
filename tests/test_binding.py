"""Binding model: sharing arithmetic and whole-graph DSP totals."""

import random
from fractions import Fraction

import pytest

from pumpwise import (
    TaskPlan,
    ValidationError,
    bind,
    datasets,
    fu_count,
    load_dfg,
    make_plan,
    scaled_partition,
)


@pytest.mark.parametrize(
    "n_op,ii,want",
    [
        (225, 1, 225),
        (225, 2, 113),
        (225, 3, 75),
        (4, 2, 2),
        (0, 5, 0),
        (1, 7, 1),
        (1, 4, 1),
    ],
)
def test_fu_count_examples(n_op, ii, want):
    assert fu_count(n_op, ii) == want


@pytest.mark.parametrize("n,m,want", [(225, 3, 75), (225, 1, 225)])
def test_dsp_constraint_examples(n, m, want):
    # the synthesis-time DSP constraint of an M-times pumped task is the same
    # ceiling as binding its N DSP ops at the base II of 1 and sharing M-fold
    assert fu_count(fu_count(n, 1), m) == fu_count(n, m) == want


@pytest.mark.parametrize("base,m,want", [(8, 2, 4), (8, 3, 3), (1, 5, 1), (15, 2, 8)])
def test_scaled_partition_examples(base, m, want):
    assert scaled_partition(base, m) == want


def test_domain_errors():
    with pytest.raises(ValidationError):
        fu_count(3, 0)
    with pytest.raises(ValidationError):
        fu_count(-1, 1)
    with pytest.raises(ValidationError):
        scaled_partition(0, 1)
    # counts are integers, never fractions or booleans
    for n_op, ii in [(3.5, 2), (True, 1), (3, 1.5), (3, True)]:
        with pytest.raises(ValidationError):
            fu_count(n_op, ii)
    for base, m in [(1.5, 1), (True, 2), (8, 2.5), (8, True)]:
        with pytest.raises(ValidationError):
            scaled_partition(base, m)


def test_sharing_invariants_random_scan():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(0, 600)
        ii = rng.randint(1, 64)
        fu = fu_count(n, ii)
        assert fu * ii >= n
        if ii >= 2:
            assert fu <= fu_count(n, ii - 1)
        if n >= 1:
            assert fu_count(n, n) == 1
        m = rng.randint(1, 16)
        # sharing a shared count again composes multiplicatively
        assert fu_count(fu_count(n, ii), m) == fu_count(n, ii * m)


def test_bind_conv2d_base_plan():
    dfg = load_dfg(datasets.path("conv2d.json"))
    res = bind(dfg, make_plan(dfg, 165, "base"))
    assert res.per_task["Filter2D"].n_fu_dsp == 225
    assert res.total_dsp == 225
    assert res.dsp_pct == Fraction(125, 2)  # 62.5 % of 360
    assert float(res.dsp_pct) == 62.5
    # 360 DSP device is consistent with the published base utilization
    assert Fraction(225 * 100, dfg.device_dsp_total) == Fraction(125, 2)


def test_bind_conv2d_mpump_165():
    dfg = load_dfg(datasets.path("conv2d.json"))
    res = bind(dfg, make_plan(dfg, 165, "m-pump"))
    assert res.per_task["Filter2D"].n_fu_dsp == 75
    assert res.total_dsp == 75
    assert abs(float(res.dsp_pct) - 20.83) < 0.01


def test_bind_conv2d_mpump_250():
    dfg = load_dfg(datasets.path("conv2d.json"))
    res = bind(dfg, make_plan(dfg, 250, "m-pump"))
    assert res.total_dsp == 113
    assert abs(float(res.dsp_pct) - 31.39) < 0.01


def test_bind_memory_ports_and_partitions_scale():
    dfg = load_dfg(datasets.path("conv2d.json"))
    res = bind(dfg, make_plan(dfg, 165, "m-pump"))
    f2d = res.per_task["Filter2D"]
    assert f2d.n_mem_ports == fu_count(dfg.task("Filter2D").n_op_mem, 3)
    assert f2d.partition_factor == scaled_partition(15, 3)  # 5
    # unpumped tasks keep their base partitioning
    assert res.per_task["Window2D"].partition_factor == 15


def test_bind_total_equals_op_sum_at_unit_ii():
    dfg = load_dfg(datasets.path("conv2d.json"))
    res = bind(dfg, make_plan(dfg, 165, "base"))
    assert res.total_dsp == sum(t.n_op_dsp for t in dfg.tasks)


def test_bind_plan_mismatch():
    dfg = load_dfg(datasets.path("conv2d.json"))
    plan = make_plan(dfg, 165, "base")
    partial = type(plan)(plan.strategy, {k: v for k, v in plan.tasks.items() if k != "Filter2D"},
                         plan.kernel_base_clock_mhz)
    with pytest.raises(ValidationError, match="does not cover task: Filter2D"):
        bind(dfg, partial)
    extra = type(plan)(
        plan.strategy,
        dict(plan.tasks, Ghost=plan.tasks["Filter2D"]),
        plan.kernel_base_clock_mhz,
    )
    with pytest.raises(ValidationError, match="unknown task: Ghost"):
        bind(dfg, extra)
    both = type(plan)(plan.strategy, dict(partial.tasks, Ghost=plan.tasks["Filter2D"]),
                      plan.kernel_base_clock_mhz)
    with pytest.raises(ValidationError, match="does not cover task: Filter2D"):
        bind(dfg, both)
    # a plan clock exactly at a rational f_max is feasible; the least bit above is not
    f_max = Fraction(500, 3)
    capped = dfg.replace(tasks=[t.replace(f_max_mhz=f_max) if t.name == "Filter2D" else t
                                for t in dfg.tasks])
    for f, ok in [(f_max, True), (f_max + Fraction(1, 10**6), False)]:
        clocked = type(plan)(
            plan.strategy,
            dict(plan.tasks, Filter2D=TaskPlan(1, f, plan.tasks["Filter2D"].ii)),
            plan.kernel_base_clock_mhz,
        )
        if ok:
            bind(capped, clocked)
        else:
            with pytest.raises(ValidationError) as e:
                bind(capped, clocked)
            assert str(e.value) == (
                "task Filter2D: plan clock 166.667 MHz exceeds f_max 166.667 MHz"
            )
