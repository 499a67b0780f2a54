"""Planner: throughput model, factor selection, plans, and sweeps."""

import json
import random
from fractions import Fraction

import pytest

from pumpwise import (
    Channel,
    Ddg,
    Dep,
    Dfg,
    InfeasibleError,
    Op,
    ParseError,
    PumpPlan,
    SimConfig,
    Task,
    TaskPlan,
    ValidationError,
    bind,
    check_plan,
    compute_throughput,
    datasets,
    graph_throughput,
    load_dfg,
    load_plan,
    make_plan,
    max_pump_factor,
    max_single_pump_factor,
    save_plan,
    simulate,
    sweep,
    task_throughput,
)
from pumpwise.planner import STRATEGIES, _make_plans, plan_from_dict
from oracles import oracle_plan_ok
from conftest import feasible_f_base, random_ddg, random_pipeline_dfg


@pytest.mark.parametrize("f,ii,want", [(500, 2, 250), (250, 1, 250), (100, 1, 100), (330, 4, Fraction(165, 2))])
def test_task_throughput_examples(f, ii, want):
    assert task_throughput(f, ii) == want


def test_graph_throughput_conv_mpump_250():
    dfg = load_dfg(datasets.path("conv2d.json"))
    plan = make_plan(dfg, 250, "m-pump")
    assert plan.tasks["Filter2D"] == type(plan.tasks["Filter2D"])(2, 500, 2)
    assert graph_throughput(dfg, plan) == 250


def test_graph_throughput_memory_clamp():
    dfg = Dfg(
        [Task(name="A", f_max_mhz=400, ii_min_base=1, pipeline_depth=1),
         Task(name="B", f_max_mhz=400, ii_min_base=2, pipeline_depth=1)],
        [Channel("A", "B")],
        device_dsp_total=8,
        memory_bound_msps=175,
    )
    plan = make_plan(dfg, 400, "base")
    assert compute_throughput(dfg, plan) == 200  # bottleneck B at 400/2
    assert graph_throughput(dfg, plan) == 175  # clipped by the memory bound


def test_graph_throughput_singleton():
    dfg = Dfg([Task(name="A", f_max_mhz=320, ii_min_base=3, pipeline_depth=1)], [], 8)
    plan = make_plan(dfg, 320, "base")
    assert graph_throughput(dfg, plan) == Fraction(320, 3)


@pytest.mark.parametrize(
    "f_max,f_base,n_op,want",
    [(500, 165, 225, 3), (500, 250, 225, 2), (800, 100, 3, 3), (500, 165, 0, 1), (330, 330, 64, 1)],
)
def test_max_pump_factor_examples(f_max, f_base, n_op, want):
    assert max_pump_factor(f_max, f_base, n_op) == want


def test_degeneration_boundaries_are_exact():
    # pumping dies exactly when the base clock passes half of f_max
    assert max_pump_factor(500, 250, 225) == 2
    assert max_pump_factor(500, 251, 225) == 1
    dfg = load_dfg(datasets.path("conv2d.json"))
    assert max_single_pump_factor(dfg, 165) == 2
    assert max_single_pump_factor(dfg, 166) == 1


def test_max_pump_factor_infeasible():
    with pytest.raises(InfeasibleError, match="base clock infeasible"):
        max_pump_factor(500, 600, 225)


def test_max_single_pump_factor():
    dfg = load_dfg(datasets.path("conv2d.json"))
    assert dfg.min_f_max_mhz == 330
    assert max_single_pump_factor(dfg, 165) == 2
    assert max_single_pump_factor(dfg, 330) == 1  # degenerate at f_base = min f_max
    assert max_single_pump_factor(dfg, 166) == 1  # just above half of the slowest f_max
    with pytest.raises(InfeasibleError):
        max_single_pump_factor(dfg, 331)


def test_make_plan_conv_mpump_165():
    dfg = load_dfg(datasets.path("conv2d.json"))
    plan = make_plan(dfg, 165, "m-pump")
    e = plan.tasks["Filter2D"]
    assert (e.m, e.f_mhz, e.ii) == (3, 495, 3)
    for name in ("ReadFromMem", "Window2D", "WriteToMem"):
        assert plan.tasks[name] == type(e)(1, Fraction(165), 1)


def test_make_plan_conv_spump_165():
    dfg = load_dfg(datasets.path("conv2d.json"))
    plan = make_plan(dfg, 165, "s-pump")
    assert all(e.f_mhz == 330 for e in plan.tasks.values())  # one kernel clock
    assert plan.tasks["Filter2D"].ii == 2
    assert plan.tasks["Filter2D"].m == 2
    assert plan.tasks["ReadFromMem"].ii == 1
    assert bind(dfg, plan).total_dsp == 113


def test_make_plan_degenerates_at_min_fmax():
    dfg = load_dfg(datasets.path("conv2d.json"))
    base = make_plan(dfg, 330, "base")
    for strategy in ("s-pump", "m-pump"):
        plan = make_plan(dfg, 330, strategy)
        assert dict(plan.tasks) == dict(base.tasks)


def test_make_plan_infeasible_and_bad_strategy():
    dfg = load_dfg(datasets.path("conv2d.json"))
    with pytest.raises(InfeasibleError, match="base clock infeasible"):
        make_plan(dfg, 600, "m-pump")
    with pytest.raises(ValidationError, match="unknown strategy"):
        make_plan(dfg, 165, "turbo")


def test_make_plan_says_custom_plans_are_built_by_hand():
    # ``custom`` is a known strategy that plan files and check_plan accept,
    # so the planner names what it builds instead of calling it unknown
    dfg = load_dfg(datasets.path("conv2d.json"))
    for strategies in (("custom",), ("base", "custom")):
        with pytest.raises(ValidationError) as e:
            _make_plans(dfg, 165, strategies)
        assert type(e.value) is ValidationError
        assert str(e.value) == (
            "the planner builds only base, s-pump, m-pump; custom plans are built by hand"
        )
    with pytest.raises(ValidationError) as e:
        make_plan(dfg, 165, "custom")
    assert "built by hand" in str(e.value)
    # names outside the rule table stay unknown, ahead of any other check
    with pytest.raises(ValidationError) as e:
        make_plan(dfg, 0, "turbo")
    assert str(e.value) == "unknown strategy: turbo"


def test_throughput_preserved_across_strategies():
    rng = random.Random(404)
    for _ in range(25):
        dfg = random_pipeline_dfg(rng)
        f_base = feasible_f_base(rng, dfg)
        values = {
            s: graph_throughput(dfg, make_plan(dfg, f_base, s))
            for s in ("base", "s-pump", "m-pump")
        }
        assert values["base"] == values["s-pump"] == values["m-pump"] == f_base


def test_uniform_factor_bounded_by_per_task_max():
    rng = random.Random(405)
    for _ in range(25):
        dfg = random_pipeline_dfg(rng)  # DSP counts >= 8 exceed any factor here
        f_base = feasible_f_base(rng, dfg)
        s = max_single_pump_factor(dfg, f_base)
        for t in dfg.tasks:
            if t.n_op_dsp > 0:
                assert s <= max_pump_factor(t.f_max_mhz, f_base, t.n_op_dsp)


def test_vms_dataset_plans():
    dfg = load_dfg(datasets.path("vms.json"), f_base_mhz=110)
    base = bind(dfg, make_plan(dfg, 110, "base"))
    assert base.total_dsp == 320
    assert abs(float(base.dsp_pct) - 88.89) < 0.01
    sp = bind(dfg, make_plan(dfg, 110, "s-pump"))
    assert sp.total_dsp == 160
    mp_plan = make_plan(dfg, 110, "m-pump")
    assert mp_plan.tasks["ScoreVdW"].m == 2
    assert mp_plan.tasks["ScoreElectro"].m == 3
    mp = bind(dfg, mp_plan)
    assert mp.total_dsp == 150
    assert abs(float(mp.dsp_pct) - 41.67) < 0.01
    assert graph_throughput(dfg, mp_plan) == Fraction(110, 4)


def test_sweep_conv_hand_rows():
    dfg = load_dfg(datasets.path("conv2d.json"))
    rows = sweep(dfg, 160, 250, 30)
    got = [(int(r.f_base_mhz), r.dsp_base, r.dsp_s_pump, r.dsp_m_pump) for r in rows]
    assert got == [
        (160, 225, 113, 75),
        (190, 225, 225, 113),
        (220, 225, 225, 113),
        (250, 225, 225, 113),
    ]
    assert [r.throughput_msps for r in rows] == [160, 190, 220, 250]


def test_sweep_conv_covers_published_points():
    dfg = load_dfg(datasets.path("conv2d.json"))
    rows = {int(r.f_base_mhz): r for r in sweep(dfg, 100, 260, 5)}
    r165 = rows[165]
    assert float(r165.dsp_base_pct) == 62.5
    assert abs(float(r165.dsp_s_pump_pct) - 31.39) < 0.01
    assert abs(float(r165.dsp_m_pump_pct) - 20.83) < 0.01
    r250 = rows[250]
    assert abs(float(r250.dsp_m_pump_pct) - 31.39) < 0.01
    assert r250.dsp_s_pump == r250.dsp_base  # s-pump degenerated above ~165


def test_sweep_omits_infeasible_rows():
    dfg = load_dfg(datasets.path("conv2d.json"))
    rows = sweep(dfg, 320, 400, 10)
    assert [int(r.f_base_mhz) for r in rows] == [320, 330]
    assert sweep(dfg, 340, 400, 10) == []


def test_sweep_single_frequency_and_errors():
    dfg = load_dfg(datasets.path("conv2d.json"))
    assert len(sweep(dfg, 165, 165, 5)) == 1
    with pytest.raises(ValidationError, match="empty range"):
        sweep(dfg, 200, 100, 5)
    with pytest.raises(ValidationError, match="step"):
        sweep(dfg, 100, 200, 0)


def test_sweep_zero_dsp_graph():
    dfg = Dfg(
        [Task(name="A", f_max_mhz=400, ii_min_base=1, pipeline_depth=1),
         Task(name="B", f_max_mhz=420, ii_min_base=1, pipeline_depth=1)],
        [Channel("A", "B")],
        device_dsp_total=8,
    )
    rows = sweep(dfg, 100, 400, 50)
    assert all(r.dsp_base == r.dsp_s_pump == r.dsp_m_pump == 0 for r in rows)


def test_sweep_dominance_and_monotonicity():
    rng = random.Random(406)
    corpora = [load_dfg(datasets.path(n)) for n in datasets.names()]
    corpora += [random_pipeline_dfg(rng) for _ in range(8)]
    for dfg in corpora:
        hi = dfg.min_f_max_mhz
        rows = sweep(dfg, Fraction(25), hi, Fraction(25, 4))
        assert rows
        prev = None
        for r in rows:
            assert r.dsp_m_pump <= r.dsp_s_pump <= r.dsp_base
            if prev is not None:
                assert r.dsp_base >= prev.dsp_base
                assert r.dsp_s_pump >= prev.dsp_s_pump
                assert r.dsp_m_pump >= prev.dsp_m_pump
            prev = r


def test_sweep_steps_only_where_factors_change():
    dfg = load_dfg(datasets.path("conv2d.json"))
    rows = sweep(dfg, 100, 330, 1)
    for a, b in zip(rows, rows[1:]):
        if b.dsp_m_pump != a.dsp_m_pump:
            ms_a = {t.name: max_pump_factor(t.f_max_mhz, a.f_base_mhz, t.n_op_dsp)
                    for t in dfg.tasks}
            ms_b = {t.name: max_pump_factor(t.f_max_mhz, b.f_base_mhz, t.n_op_dsp)
                    for t in dfg.tasks}
            assert ms_a != ms_b


def test_memory_bound_does_not_alter_factors():
    dfg = load_dfg(datasets.path("optical.json"))
    plan = make_plan(dfg, 150, "m-pump")
    assert plan.tasks["GradientWeight"].m == 3
    assert plan.tasks["TensorWeightX"].m == 3
    assert compute_throughput(dfg, plan) == 150
    assert graph_throughput(dfg, plan) == 150  # below the 175 msps bound
    rows = sweep(dfg, 150, 310, 10)
    clipped = [r for r in rows if r.f_base_mhz > 175]
    assert clipped and all(r.throughput_msps == 175 for r in clipped)


def test_plan_file_round_trip(tmp_path):
    dfg = load_dfg(datasets.path("conv2d.json"))
    for strategy in ("base", "s-pump", "m-pump"):
        plan = make_plan(dfg, Fraction(331, 2), strategy)
        p = tmp_path / f"{strategy}.plan"
        save_plan(plan, p)
        loaded = load_plan(p)
        assert loaded.strategy == plan.strategy
        assert loaded.kernel_base_clock_mhz == plan.kernel_base_clock_mhz
        assert dict(loaded.tasks) == dict(plan.tasks)


def test_plan_file_round_trip_non_decimal_clock(tmp_path):
    # 1000/7 has no exact float, so the file carries it as "p/q"
    dfg = load_dfg(datasets.path("conv2d.json"))
    plan = make_plan(dfg, Fraction(1000, 7), "m-pump")
    p = tmp_path / "m.plan"
    save_plan(plan, p)
    data = json.loads(p.read_text())
    assert data["kernel_base_clock_mhz"] == "1000/7"
    assert data["tasks"]["Filter2D"]["f_mhz"] == "3000/7"
    loaded = load_plan(p)
    assert loaded.kernel_base_clock_mhz == Fraction(1000, 7)
    assert dict(loaded.tasks) == dict(plan.tasks)
    assert loaded.tasks["Filter2D"].f_mhz == 3 * loaded.kernel_base_clock_mhz
    p.write_text(p.read_text().replace('"1000/7"', '"1000/0"'))
    from pumpwise import ParseError

    with pytest.raises(ParseError, match="kernel_base_clock_mhz"):
        load_plan(p)


def test_check_plan_accepts_every_plan_the_planner_writes(tmp_path):
    clocks = [Fraction(25), Fraction(100), Fraction(1000, 7), Fraction(331, 2), Fraction(250)]
    for name in datasets.names():
        dfg = load_dfg(datasets.path(name))
        for f in clocks + [dfg.min_f_max_mhz]:
            if f > dfg.min_f_max_mhz:
                continue
            for strategy in ("base", "s-pump", "m-pump"):
                p = tmp_path / "plan.json"
                save_plan(make_plan(dfg, f, strategy), p)
                check_plan(dfg, load_plan(p))


def _edit(plan, task, **changes):
    return plan.replace(tasks=dict(plan.tasks, **{task: plan.tasks[task].replace(**changes)}))


def test_check_plan_rejects_broken_pumping_identities():
    dfg = load_dfg(datasets.path("conv2d.json"))
    mpump = make_plan(dfg, 250, "m-pump")
    spump = make_plan(dfg, 165, "s-pump")
    cases = [
        (_edit(mpump, "Filter2D", f_mhz=450, ii=1),
         "task Filter2D: f_mhz 450 MHz is not a whole multiple of f_base 250 MHz"),
        (_edit(make_plan(dfg, 165, "m-pump"), "Filter2D", f_mhz=330),
         "task Filter2D: m 3 at 330 MHz breaks the m-pump rule, which gives m 3 at 495 MHz"),
        (_edit(mpump, "Filter2D", ii=1), "task Filter2D: ii 1 is not m * ii_min = 2"),
        (_edit(make_plan(dfg, 250, "base"), "Window2D", m=2),
         "task Window2D: m 2 at 250 MHz breaks the base rule, which gives m 1 at 250 MHz"),
        # a base plan with a pumped task that keeps f = m * f_base and ii = m * ii_min
        (_edit(make_plan(dfg, 165, "base"), "Filter2D", m=3, f_mhz=495, ii=3),
         "task Filter2D: m 3 at 495 MHz breaks the base rule, which gives m 1 at 165 MHz"),
        (mpump.replace(strategy="base"),
         "task Filter2D: m 2 at 500 MHz breaks the base rule, which gives m 1 at 250 MHz"),
        (_edit(spump, "WriteToMem", f_mhz=165),
         "task WriteToMem: m 1 at 165 MHz breaks the s-pump rule, which gives m 1 at 330 MHz"),
        (_edit(spump, "ReadFromMem", m=2, ii=2),
         "task ReadFromMem: m 2 at 330 MHz breaks the s-pump rule, which gives m 1 at 330 MHz"),
        (spump.replace(kernel_base_clock_mhz=200),
         "task ReadFromMem: f_mhz 330 MHz is not a whole multiple of f_base 200 MHz"),
    ]
    for plan, message in cases:
        with pytest.raises(ValidationError) as e:
            check_plan(dfg, plan)
        assert str(e.value) == message
    # the f_max and coverage checks come first, with their own messages
    with pytest.raises(ValidationError, match="plan clock 5000 MHz exceeds f_max 500 MHz"):
        check_plan(dfg, _edit(mpump, "Filter2D", m=1, f_mhz=5000, ii=1))


def test_check_plan_allows_a_factor_below_the_largest():
    dfg = load_dfg(datasets.path("conv2d.json"))
    plan = make_plan(dfg, 165, "m-pump")
    assert plan.tasks["Filter2D"].m == 3
    check_plan(dfg, _edit(plan, "Filter2D", m=2, f_mhz=330, ii=2))
    # an s-pump plan with a smaller shared factor than the largest
    plan = make_plan(dfg, 110, "s-pump")
    assert plan.tasks["Filter2D"].m == 3
    check_plan(dfg, plan.replace(tasks={
        name: e.replace(m=2 if e.m == 3 else 1, f_mhz=220, ii=2 if e.m == 3 else 1)
        for name, e in plan.tasks.items()
    }))


def test_custom_plans_keep_ii_min_at_their_own_clocks(tmp_path):
    # an 11 ns accumulator loop needs II 3 at 250 MHz, 5 at 375 MHz and 6 at 500 MHz
    acc = Ddg([Op("acc", "add", 11.0)], [Dep("acc", "acc", 1)])
    dfg = Dfg([Task(name="A", f_max_mhz=500, n_op_dsp=2, ddg=acc)], [], device_dsp_total=8)

    def custom(f, ii, m=1):
        return PumpPlan("custom", {"A": TaskPlan(m, f, ii)}, 250)

    # any clock up to f_max and any factor, not only m * f_base
    for plan in (custom(250, 3), custom(375, 5), custom(500, 6, m=2), custom(100, 9, m=5)):
        check_plan(dfg, plan)
        simulate(dfg, plan, SimConfig(2, 1))
    cases = [
        (custom(500, 3), "task A: ii 3 is below ii_min 6 at 500 MHz"),
        (custom(375, 4, m=2), "task A: ii 4 is below ii_min 5 at 375 MHz"),
        (custom(750, 9), "task A: plan clock 750 MHz exceeds f_max 500 MHz"),
    ]
    for plan, message in cases:
        with pytest.raises(ValidationError) as e:
            check_plan(dfg, plan)
        assert str(e.value) == message
    # a plan file keeps the label, and the planner never builds it
    save_plan(custom(375, 5), tmp_path / "custom.plan")
    assert load_plan(tmp_path / "custom.plan") == custom(375, 5)
    assert STRATEGIES == ("base", "s-pump", "m-pump")
    with pytest.raises(ValidationError):
        make_plan(dfg, 250, "custom")


def _perturbed_plans(plan, dfg):
    """The plan, relabelled, re-clocked, and with one task's m, f or II changed.

    Each edited plan comes once under its own strategy and once as ``custom``.
    """
    f_base = plan.kernel_base_clock_mhz
    yield plan
    for strategy in STRATEGIES + ("custom",):
        yield plan.replace(strategy=strategy)
    for k in (f_base / 2, 2 * f_base, f_base + 1):
        yield plan.replace(kernel_base_clock_mhz=k)
    # every task at one shared factor c, s-pump style
    for c in (1, 2):
        tasks = {}
        for t in dfg.tasks:
            e = plan.tasks[t.name]
            m = c if t.n_op_dsp else 1
            tasks[t.name] = TaskPlan(m, c * f_base, m * (e.ii // e.m))
        yield plan.replace(tasks=tasks)
    for name, e in plan.tasks.items():
        ii0 = e.ii // e.m
        changes = [{"m": e.m - 1}, {"m": e.m + 1}, {"m": 2 * e.m},
                   {"f_mhz": e.f_mhz + f_base}, {"f_mhz": e.f_mhz - f_base},
                   {"f_mhz": e.f_mhz / 2}, {"f_mhz": f_base},
                   {"ii": e.ii - 1}, {"ii": e.ii + 1}, {"ii": 2 * e.ii}]
        # another factor, with clock and II kept in step
        changes += [{"m": m, "f_mhz": m * f_base, "ii": m * ii0} for m in (1, 2, e.m + 1)]
        for change in changes:
            try:
                edited = _edit(plan, name, **change)
            except ValidationError:  # not a TaskPlan at all: m, ii or f out of range
                continue
            yield edited
            yield edited.replace(strategy="custom")  # the same task plans, hand-built


def _rejection(check, *args):
    """The message of the ``ValidationError`` that ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except ValidationError as e:
        return str(e)
    return None


def test_check_plan_agrees_with_the_oracle_on_perturbed_plans():
    rng = random.Random(0x5EED)
    cases = []
    for _ in range(30):
        dfg = random_pipeline_dfg(rng)
        cases.append((dfg, [feasible_f_base(rng, dfg)]))
    for name in datasets.names():
        dfg = load_dfg(datasets.path(name))
        cases.append((dfg, [Fraction(100), Fraction(1000, 7), dfg.min_f_max_mhz]))
    verdicts = {(custom, legal): 0 for custom in (True, False) for legal in (True, False)}
    for dfg, clocks in cases:
        for f in clocks:
            for strategy in STRATEGIES:
                for plan in _perturbed_plans(make_plan(dfg, f, strategy), dfg):
                    legal = oracle_plan_ok(dfg, plan)
                    message = _rejection(check_plan, dfg, plan)
                    assert (message is None) == legal, (plan, legal)
                    # the library simulator rejects the same plans, with the same message
                    assert _rejection(simulate, dfg, plan, SimConfig(2, 1)) == message, plan
                    verdicts[plan.strategy == "custom", legal] += 1
    # every verdict is common, so no side passes by always agreeing
    assert min(verdicts[False, True], verdicts[False, False]) > 1000, verdicts
    assert min(verdicts[True, True], verdicts[True, False]) > 500, verdicts


def test_plan_file_validation(tmp_path):
    p = tmp_path / "bad.plan"
    p.write_text('{"strategy": "m-pump", "kernel_base_clock_mhz": 100, "tasks": {"A": {"m": 0, "f_mhz": 100, "ii": 1}}}')
    from pumpwise import ParseError

    with pytest.raises(ParseError, match=r"tasks.A.m"):
        load_plan(p)
    p.write_text('{"strategy": "warp", "kernel_base_clock_mhz": 100, "tasks": {}}')
    with pytest.raises(ParseError) as e:
        load_plan(p)
    assert str(e.value) == "plan.strategy: expected one of base, s-pump, m-pump, custom"


@pytest.mark.parametrize("bad", [1.5, True, 0])
def test_task_plan_factors_must_be_positive_integers(bad):
    with pytest.raises(ValidationError, match="m: expected a positive integer"):
        TaskPlan(bad, 330, 2)
    with pytest.raises(ValidationError, match="ii: expected a positive integer"):
        TaskPlan(2, 330, bad)


def test_task_plan_rejects_non_positive_clock():
    with pytest.raises(ValidationError, match="f_mhz"):
        TaskPlan(1, 0, 1)


def test_invalid_plan_entry_never_reaches_bind():
    # a fractional factor used to be accepted here and crash bind
    dfg = load_dfg(datasets.path("conv2d.json"))
    tasks = dict(make_plan(dfg, 165, "m-pump").tasks)
    with pytest.raises(ValidationError, match="m: expected a positive integer"):
        tasks["Filter2D"] = TaskPlan(1.5, 330, 2.5)
        PumpPlan("m-pump", tasks, 165)


@pytest.mark.parametrize("bad", [1.5, True, 0])
def test_plan_file_entry_errors_name_the_field(tmp_path, bad):
    from pumpwise import ParseError

    p = tmp_path / "bad.plan"
    for key in ("m", "ii"):
        entry = {"m": 1, "f_mhz": 100, "ii": 1, key: bad}
        p.write_text(json.dumps({"strategy": "base", "kernel_base_clock_mhz": 100,
                                 "tasks": {"A": entry}}))
        with pytest.raises(ParseError) as e:
            load_plan(p)
        assert str(e.value) == f"plan.tasks.A.{key}: expected a positive integer"


def test_make_plan_computes_each_base_ii_once(monkeypatch):
    import pumpwise.dfg

    rng = random.Random(4242)
    tasks = [Task(name=f"T{i}", f_max_mhz=900, n_op_dsp=8 * i, ddg=random_ddg(rng))
             for i in range(3)]
    tasks.append(Task(name="plain", f_max_mhz=900, ii_min_base=1, pipeline_depth=1))
    dfg = Dfg(tasks, [Channel("T0", "T1"), Channel("T1", "T2"), Channel("T2", "plain")], 4096)
    calls = []
    real = pumpwise.dfg.min_ii

    def counting_min_ii(ddg, f_mhz):
        calls.append(ddg)
        return real(ddg, f_mhz)

    monkeypatch.setattr(pumpwise.dfg, "min_ii", counting_min_ii)
    for strategy in ("base", "s-pump", "m-pump"):
        calls.clear()
        make_plan(dfg, 150, strategy)
        assert calls == [t.ddg for t in tasks[:3]]
    # a sweep row builds its three plans from one map of base IIs
    calls.clear()
    assert len(sweep(dfg, 100, 150, 10)) == 6
    assert calls == [t.ddg for t in tasks[:3]] * 6
    optical = load_dfg(datasets.path("optical.json"))
    calls.clear()
    assert len(sweep(optical, 25, 310, 1)) == 286
    assert len(calls) == 286


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_clocks_rejected(bad):
    dfg = load_dfg(datasets.path("conv2d.json"))
    with pytest.raises(ValidationError, match="expected a finite number"):
        TaskPlan(1, bad, 1)
    with pytest.raises(ValidationError, match="expected a finite number"):
        PumpPlan("base", make_plan(dfg, 165, "base").tasks, bad)
    with pytest.raises(ValidationError, match="expected a finite number"):
        make_plan(dfg, bad, "m-pump")
    with pytest.raises(ValidationError, match="expected a finite number"):
        sweep(dfg, 100, bad, 5)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_plan_file_names_the_field(tmp_path, literal):
    from pumpwise import ParseError

    p = tmp_path / "bad.plan"
    p.write_text('{"strategy": "base", "kernel_base_clock_mhz": %s, '
                 '"tasks": {"A": {"m": 1, "f_mhz": 100, "ii": 1}}}' % literal)
    with pytest.raises(ParseError) as e:
        load_plan(p)
    assert str(e.value) == "plan.kernel_base_clock_mhz: expected a finite number"
    p.write_text('{"strategy": "base", "kernel_base_clock_mhz": 100, '
                 '"tasks": {"A": {"m": 1, "f_mhz": %s, "ii": 1}}}' % literal)
    with pytest.raises(ParseError) as e:
        load_plan(p)
    assert str(e.value) == "plan.tasks.A.f_mhz: expected a finite number"


def _conv():
    return load_dfg(datasets.path("conv2d.json"))


def _plan_file(**kw):
    return {"strategy": "base", "kernel_base_clock_mhz": 100,
            "tasks": {"A": {"m": 1, "f_mhz": 100, "ii": 1}}, **kw}


THROUGHPUT_ARGS = "task_throughput requires f > 0 and an integer ii >= 1"
N_OP = "n_op must be an integer >= 0"
BASE_CLOCK = "plan.kernel_base_clock_mhz: expected a positive number"

# (call, exception type, exact message)
INPUT_CHECKS = {
    "unknown strategy": (
        lambda: PumpPlan("warp", {"A": TaskPlan(1, 100, 1)}, 100),
        ValidationError,
        "unknown strategy: warp",
    ),
    "task_throughput zero clock": (lambda: task_throughput(0, 1), ValidationError, THROUGHPUT_ARGS),
    "task_throughput fractional ii": (
        lambda: task_throughput(100, 1.5), ValidationError, THROUGHPUT_ARGS
    ),
    "task_throughput bool ii": (
        lambda: task_throughput(100, True), ValidationError, THROUGHPUT_ARGS
    ),
    "max_pump_factor zero f_max": (
        lambda: max_pump_factor(0, 100, 1), ValidationError, "frequencies must be positive"
    ),
    "max_pump_factor zero f_base": (
        lambda: max_pump_factor(500, 0, 1), ValidationError, "frequencies must be positive"
    ),
    "max_pump_factor fractional n_op": (
        lambda: max_pump_factor(500, 100, 2.5), ValidationError, N_OP
    ),
    "max_pump_factor bool n_op": (lambda: max_pump_factor(500, 100, True), ValidationError, N_OP),
    "max_pump_factor negative n_op": (lambda: max_pump_factor(500, 100, -1), ValidationError, N_OP),
    "max_single_pump_factor zero clock": (
        lambda: max_single_pump_factor(_conv(), 0), ValidationError, "f_base_mhz must be positive"
    ),
    "make_plan zero clock": (
        lambda: make_plan(_conv(), 0, "base"), ValidationError, "f_base_mhz must be positive"
    ),
    "plan top level": (lambda: plan_from_dict([]), ParseError, "plan: top level must be an object"),
    "plan task entry": (
        lambda: plan_from_dict(_plan_file(tasks={"A": 1})),
        ParseError,
        "plan.tasks.A: expected an object",
    ),
    "plan no tasks": (
        lambda: plan_from_dict(_plan_file(tasks={})),
        ParseError,
        "plan.tasks: expected a non-empty object",
    ),
    "plan negative base clock": (
        lambda: plan_from_dict(_plan_file(kernel_base_clock_mhz=-1)), ParseError, BASE_CLOCK
    ),
    "plan zero base clock": (
        lambda: plan_from_dict(_plan_file(kernel_base_clock_mhz=0)), ParseError, BASE_CLOCK
    ),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_checks(case):
    call, exc, message = INPUT_CHECKS[case]
    with pytest.raises(exc) as e:
        call()
    assert type(e.value) is exc
    assert str(e.value) == message
