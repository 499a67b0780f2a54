"""Pump-factor selection, the throughput model, and Pareto sweeps.

A task clocked at f with initiation interval ii sustains f/ii samples
per second; the graph sustains the minimum over its tasks, optionally
clipped by the external memory bandwidth.  Pumping a task scales clock
and II together by the same factor, which preserves its throughput while
letting binding share each functional unit among that many operations.

Three strategies are modeled:

* ``base``    - every task at the base clock, minimum II.
* ``s-pump``  - one shared clock raised by a uniform factor; DSP tasks
  scale their II by the same factor.  The factor is capped by the
  slowest task's f_max because the clock is global.
* ``m-pump``  - per-task clocks: each DSP task takes the largest factor
  its own f_max (and operation count) allows.

Planning arithmetic is exact over rationals so sweeps and reports are
reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence, Union

from .binding import bind, check_plan_coverage
from .codec import Rational, _fmt_g, _Record, _set, as_fraction, is_int, load_json
from .codec import num_from_json, num_to_json, save_json
from .dfg import Dfg
from .errors import InfeasibleError, ParseError, ValidationError

STRATEGIES = ("base", "s-pump", "m-pump")


class TaskPlan(_Record):
    """Per-task pump factor, clock and initiation interval, validated when built."""

    __slots__ = _fields = ("m", "f_mhz", "ii")

    def __init__(self, m: int, f_mhz: Rational, ii: int):
        if not is_int(m, 1):
            raise ValidationError("m: expected a positive integer")
        if not is_int(ii, 1):
            raise ValidationError("ii: expected a positive integer")
        f_mhz = as_fraction(f_mhz)
        if f_mhz <= 0:
            raise ValidationError("f_mhz: expected a positive number")
        _set(self, "m", m)
        _set(self, "f_mhz", f_mhz)
        _set(self, "ii", ii)


class PumpPlan(_Record):
    """Operating point of every task under one strategy, validated when built."""

    __slots__ = _fields = ("strategy", "tasks", "kernel_base_clock_mhz")

    def __init__(
        self, strategy: str, tasks: Mapping[str, TaskPlan], kernel_base_clock_mhz: Rational
    ):
        kernel_base_clock_mhz = as_fraction(kernel_base_clock_mhz)
        if strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy: {strategy}")
        if kernel_base_clock_mhz <= 0:
            raise ValidationError("kernel_base_clock_mhz must be positive")
        _set(self, "strategy", strategy)
        _set(self, "tasks", tasks)
        _set(self, "kernel_base_clock_mhz", kernel_base_clock_mhz)


def task_throughput(f_mhz: Rational, ii: int) -> Fraction:
    """Samples per microsecond a task sustains: clock over initiation interval."""
    f = as_fraction(f_mhz)
    if f <= 0 or not is_int(ii, 1):
        raise ValidationError("task_throughput requires f > 0 and an integer ii >= 1")
    return f / ii


def compute_throughput(dfg: Dfg, plan: PumpPlan) -> Fraction:
    """Bottleneck compute throughput in msps, ignoring the memory bound."""
    check_plan_coverage(dfg, plan)
    return min(e.f_mhz / e.ii for e in plan.tasks.values())


def graph_throughput(dfg: Dfg, plan: PumpPlan) -> Fraction:
    """Effective graph throughput in msps, clipped by the memory bound."""
    thr = compute_throughput(dfg, plan)
    if dfg.memory_bound_msps is not None:
        thr = min(thr, dfg.memory_bound_msps)
    return thr


def max_pump_factor(f_max_mhz: Rational, f_base_mhz: Rational, n_op: int) -> int:
    """Largest pump factor for one task: clock headroom capped by its op count.

    A task with no DSP operations is left alone (factor 1).
    """
    f_max = as_fraction(f_max_mhz)
    f_base = as_fraction(f_base_mhz)
    if f_max <= 0 or f_base <= 0:
        raise ValidationError("frequencies must be positive")
    if not is_int(n_op, 0):
        raise ValidationError("n_op must be an integer >= 0")
    headroom = int(f_max // f_base)
    if headroom < 1:
        raise InfeasibleError(
            f"base clock infeasible: {_fmt_g(f_base)} MHz exceeds f_max {_fmt_g(f_max)} MHz"
        )
    if n_op == 0:
        return 1
    return min(headroom, n_op)


def max_single_pump_factor(dfg: Dfg, f_base_mhz: Rational) -> int:
    """Largest uniform factor a single shared clock allows: bounded by the slowest task."""
    f_base = as_fraction(f_base_mhz)
    if f_base <= 0:
        raise ValidationError("f_base_mhz must be positive")
    fmin = dfg.min_f_max_mhz
    s = int(fmin // f_base)
    if s < 1:
        raise InfeasibleError(
            f"base clock infeasible: {_fmt_g(f_base)} MHz exceeds "
            f"the slowest task's f_max {_fmt_g(fmin)} MHz"
        )
    return s


def make_plan(dfg: Dfg, f_base_mhz: Rational, strategy: str) -> PumpPlan:
    """Select per-task factors, clocks, and IIs for one strategy."""
    return _make_plans(dfg, f_base_mhz, (strategy,))[strategy]


def _make_plans(
    dfg: Dfg, f_base_mhz: Rational, strategies: Sequence[str]
) -> dict[str, PumpPlan]:
    """``make_plan`` for several strategies at one base clock.

    Every strategy starts from the same minimum IIs at the base clock, so
    each task's is computed once, however many plans are built.
    """
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy: {strategy}")
    f_base = as_fraction(f_base_mhz)
    if f_base <= 0:
        raise ValidationError("f_base_mhz must be positive")
    for t in dfg.tasks:
        if f_base > t.f_max_mhz:
            raise InfeasibleError(
                f"base clock infeasible: task {t.name} meets timing only up to "
                f"{_fmt_g(t.f_max_mhz)} MHz"
            )
    ii0 = {t.name: t.ii_min_at(f_base) for t in dfg.tasks}
    return {s: _build_plan(dfg, f_base, s, ii0) for s in strategies}


def _build_plan(dfg: Dfg, f_base: Fraction, strategy: str, ii0: Mapping[str, int]) -> PumpPlan:
    """The plan of one strategy from each task's minimum II at ``f_base``."""
    entries: dict[str, TaskPlan] = {}
    if strategy == "base":
        for t in dfg.tasks:
            entries[t.name] = TaskPlan(1, f_base, ii0[t.name])
    elif strategy == "m-pump":
        for t in dfg.tasks:
            m = max_pump_factor(t.f_max_mhz, f_base, t.n_op_dsp)
            entries[t.name] = TaskPlan(m, m * f_base, m * ii0[t.name])
    else:
        s = max_single_pump_factor(dfg, f_base)
        for t in dfg.tasks:
            if t.n_op_dsp > 0:
                entries[t.name] = TaskPlan(s, s * f_base, s * ii0[t.name])
            else:
                entries[t.name] = TaskPlan(1, s * f_base, ii0[t.name])
    return PumpPlan(strategy, entries, f_base)


def check_plan(dfg: Dfg, plan: PumpPlan) -> None:
    """Reject a plan that breaks the pumping identities of its strategy.

    Beyond ``check_plan_coverage``: every task has II = m·II_min(f_base);
    under ``base`` and ``m-pump`` its clock is m·f_base; under ``s-pump``
    every task runs at one shared clock s·f_base, with m = s on DSP tasks
    and m = 1 elsewhere.  A factor below the largest one is legal.
    """
    check_plan_coverage(dfg, plan)
    f_base = plan.kernel_base_clock_mhz
    shared = plan.tasks[dfg.tasks[0].name].f_mhz
    s = shared / f_base
    for t in dfg.tasks:
        e = plan.tasks[t.name]
        if plan.strategy != "s-pump":
            if e.f_mhz != e.m * f_base:
                raise ValidationError(
                    f"task {t.name}: f_mhz {num_to_json(e.f_mhz)} MHz is not "
                    f"m * f_base = {num_to_json(e.m * f_base)} MHz"
                )
        elif s.denominator != 1:
            raise ValidationError(
                f"task {t.name}: f_mhz {num_to_json(shared)} MHz is not a whole multiple "
                f"of f_base {num_to_json(f_base)} MHz"
            )
        elif e.f_mhz != shared:
            raise ValidationError(
                f"task {t.name}: f_mhz {num_to_json(e.f_mhz)} MHz is not the shared "
                f"s-pump clock {num_to_json(shared)} MHz"
            )
        elif e.m != (s if t.n_op_dsp > 0 else 1):
            raise ValidationError(
                f"task {t.name}: m {e.m} is not {s if t.n_op_dsp > 0 else 1} under s-pump"
            )
        ii0 = t.ii_min_at(f_base)
        if e.ii != e.m * ii0:
            raise ValidationError(f"task {t.name}: ii {e.ii} is not m * ii_min = {e.m * ii0}")


class SweepRow(_Record):
    """One base-frequency sample of the throughput-vs-DSP tradeoff."""

    __slots__ = _fields = (
        "f_base_mhz",
        "throughput_msps",
        "dsp_base",
        "dsp_s_pump",
        "dsp_m_pump",
        "dsp_base_pct",
        "dsp_s_pump_pct",
        "dsp_m_pump_pct",
    )

    def __init__(
        self,
        f_base_mhz: Fraction,
        throughput_msps: Fraction,
        dsp_base: int,
        dsp_s_pump: int,
        dsp_m_pump: int,
        dsp_base_pct: Fraction,
        dsp_s_pump_pct: Fraction,
        dsp_m_pump_pct: Fraction,
    ):
        _set(self, "f_base_mhz", f_base_mhz)
        _set(self, "throughput_msps", throughput_msps)
        _set(self, "dsp_base", dsp_base)
        _set(self, "dsp_s_pump", dsp_s_pump)
        _set(self, "dsp_m_pump", dsp_m_pump)
        _set(self, "dsp_base_pct", dsp_base_pct)
        _set(self, "dsp_s_pump_pct", dsp_s_pump_pct)
        _set(self, "dsp_m_pump_pct", dsp_m_pump_pct)


def sweep(dfg: Dfg, f_lo: Rational, f_hi: Rational, step: Rational) -> list[SweepRow]:
    """Sample base clocks from f_lo to f_hi and bind all three strategies.

    The three plans of a row are built from one map of minimum IIs at its
    base clock, so each DDG task's II is solved once per row.  Base clocks
    above the slowest task's f_max are infeasible for every strategy and
    are omitted rather than clamped.
    """
    lo = as_fraction(f_lo)
    hi = as_fraction(f_hi)
    st = as_fraction(step)
    if not (0 < lo <= hi):
        raise ValidationError("empty range: need 0 < f_lo <= f_hi")
    if st <= 0:
        raise ValidationError("step must be positive")
    hi = min(hi, dfg.min_f_max_mhz)
    rows = []
    f = lo
    while f <= hi:
        plans = _make_plans(dfg, f, STRATEGIES)
        bound = {s: bind(dfg, p) for s, p in plans.items()}
        rows.append(
            SweepRow(
                f_base_mhz=f,
                throughput_msps=graph_throughput(dfg, plans["base"]),
                dsp_base=bound["base"].total_dsp,
                dsp_s_pump=bound["s-pump"].total_dsp,
                dsp_m_pump=bound["m-pump"].total_dsp,
                dsp_base_pct=bound["base"].dsp_pct,
                dsp_s_pump_pct=bound["s-pump"].dsp_pct,
                dsp_m_pump_pct=bound["m-pump"].dsp_pct,
            )
        )
        f += st
    return rows


# --- plan files -----------------------------------------------------------


def plan_to_dict(plan: PumpPlan) -> dict:
    return {
        "strategy": plan.strategy,
        "kernel_base_clock_mhz": num_to_json(plan.kernel_base_clock_mhz),
        "tasks": {
            name: {"m": e.m, "f_mhz": num_to_json(e.f_mhz), "ii": e.ii}
            for name, e in plan.tasks.items()
        },
    }


def plan_from_dict(data) -> PumpPlan:
    if not isinstance(data, dict):
        raise ParseError("plan: top level must be an object")
    strategy = data.get("strategy")
    if strategy not in STRATEGIES:
        raise ParseError(f"plan.strategy: expected one of {', '.join(STRATEGIES)}")
    base = num_from_json(data.get("kernel_base_clock_mhz"), "plan.kernel_base_clock_mhz")
    raw = data.get("tasks")
    if not isinstance(raw, dict) or not raw:
        raise ParseError("plan.tasks: expected a non-empty object")
    entries = {}
    for name, rec in raw.items():
        if not isinstance(rec, dict):
            raise ParseError(f"plan.tasks.{name}: expected an object")
        f = num_from_json(rec.get("f_mhz"), f"plan.tasks.{name}.f_mhz")
        try:
            entries[name] = TaskPlan(rec.get("m"), f, rec.get("ii"))
        except ValidationError as e:
            raise ParseError(f"plan.tasks.{name}.{e}") from None
    try:
        return PumpPlan(strategy, entries, base)
    except ValidationError:
        raise ParseError("plan.kernel_base_clock_mhz: expected a positive number") from None


def save_plan(plan: PumpPlan, path: Union[str, Path]) -> None:
    save_json(plan_to_dict(plan), path)


def load_plan(path: Union[str, Path]) -> PumpPlan:
    return plan_from_dict(load_json(path))
