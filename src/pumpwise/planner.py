"""Pump-factor selection, the throughput model, and Pareto sweeps.

A task clocked at f with initiation interval ii sustains f/ii samples
per second; the graph sustains the minimum over its tasks, optionally
clipped by the external memory bandwidth.  Pumping a task scales clock
and II together by the same factor, which preserves its throughput while
letting binding share each functional unit among that many operations.

A strategy is one rule per task, ``_RULES``: from whether the task has
DSP operations, its own largest factor m and the largest shared factor
s, the rule gives the task's II factor and clock factor over the base
clock f_base.  The plan runs the task at II = II factor · II_min(f_base)
and f = clock factor · f_base.

* ``base``    - (1, 1): every task at the base clock, minimum II.
* ``s-pump``  - (s, s) on DSP tasks and (1, s) elsewhere: one shared
  clock, capped by the slowest task's f_max because it is global.
* ``m-pump``  - (m, m): per-task clocks, each task at the largest factor
  its own f_max and DSP operation count allow (1 without DSP operations).
* ``custom``  - no rule: a hand-built plan runs each task at any clock up
  to its f_max, with II >= II_min at that clock.  The planner never builds it.

``make_plan`` builds a plan by reading the rules, and ``check_plan``
checks one against them.  Planning arithmetic is exact over rationals so
sweeps and reports are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence, Union

from .binding import _check_coverage, bind
from .codec import Rational, _fmt_g, _Record, as_fraction, is_int, load_json
from .codec import num_from_json, num_to_json, save_json
from .dfg import Dfg
from .errors import InfeasibleError, ParseError, ValidationError

# (has DSP operations, own largest factor m, largest shared factor s)
# -> (II factor, clock factor); make_plan and check_plan both read it
_RULES = {
    "base": lambda dsp, m, s: (1, 1),
    "s-pump": lambda dsp, m, s: (s if dsp else 1, s),
    "m-pump": lambda dsp, m, s: (m, m),
    "custom": None,  # hand-built plans; the planner builds the others
}
STRATEGIES = tuple(s for s, rule in _RULES.items() if rule)


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
        self._store(m, f_mhz, ii)


class PumpPlan(_Record):
    """Operating point of every task under one strategy, validated when built."""

    __slots__ = _fields = ("strategy", "tasks", "kernel_base_clock_mhz")

    def __init__(
        self, strategy: str, tasks: Mapping[str, TaskPlan], kernel_base_clock_mhz: Rational
    ):
        kernel_base_clock_mhz = as_fraction(kernel_base_clock_mhz)
        if strategy not in _RULES:
            raise ValidationError(f"unknown strategy: {strategy}")
        if kernel_base_clock_mhz <= 0:
            raise ValidationError("kernel_base_clock_mhz must be positive")
        self._store(strategy, tasks, kernel_base_clock_mhz)


def task_throughput(f_mhz: Rational, ii: int) -> Fraction:
    """Samples per microsecond a task sustains: clock over initiation interval."""
    f = as_fraction(f_mhz)
    if f <= 0 or not is_int(ii, 1):
        raise ValidationError("task_throughput requires f > 0 and an integer ii >= 1")
    return f / ii


def compute_throughput(dfg: Dfg, plan: PumpPlan) -> Fraction:
    """Bottleneck compute throughput in msps, ignoring the memory bound."""
    _check_coverage(dfg, plan)
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

    Every rule reads the same facts at the base clock: each task's
    minimum II and largest factor, and the shared factor.  They are
    computed once, however many plans are built.
    """
    for strategy in strategies:
        if strategy not in _RULES:
            raise ValidationError(f"unknown strategy: {strategy}")
        if strategy not in STRATEGIES:
            raise ValidationError(
                f"the planner builds only {', '.join(STRATEGIES)}; "
                f"{strategy} plans are built by hand"
            )
    f_base = as_fraction(f_base_mhz)
    if f_base <= 0:
        raise ValidationError("f_base_mhz must be positive")
    for t in dfg.tasks:
        if f_base > t.f_max_mhz:
            raise InfeasibleError(
                f"base clock infeasible: task {t.name} meets timing only up to "
                f"{_fmt_g(t.f_max_mhz)} MHz"
            )
    s = max_single_pump_factor(dfg, f_base)
    facts = [(t.name, t.n_op_dsp > 0, max_pump_factor(t.f_max_mhz, f_base, t.n_op_dsp),
              t.ii_min_at(f_base)) for t in dfg.tasks]
    plans = {}
    for strategy in strategies:
        rule = _RULES[strategy]
        entries = {}
        for name, dsp, m, ii0 in facts:
            k, c = rule(dsp, m, s)
            entries[name] = TaskPlan(k, c * f_base, k * ii0)
        plans[strategy] = PumpPlan(strategy, entries, f_base)
    return plans


def check_plan(dfg: Dfg, plan: PumpPlan) -> None:
    """Reject a plan that breaks the rule of its strategy.

    Every task is planned, no other is, and each runs within its f_max.
    A ``custom`` task's II is at least II_min at its own clock.  Under a
    rule every clock is a whole multiple of f_base, each task's (m, clock
    factor) is what the rule gives from its m and the first task's clock
    factor s, and II = m·II_min(f_base); a smaller factor is legal.
    """
    _check_coverage(dfg, plan)
    rule = _RULES[plan.strategy]
    f_base = plan.kernel_base_clock_mhz
    bn, bd = f_base.as_integer_ratio()
    f0n, f0d = plan.tasks[dfg.tasks[0].name].f_mhz.as_integer_ratio()
    s = f0n * bd // (f0d * bn)  # the first task's clock factor is shared
    for t in dfg.tasks:
        e = plan.tasks[t.name]
        if rule is None:
            ii0 = t.ii_min_at(e.f_mhz)
            if e.ii < ii0:
                raise ValidationError(f"task {t.name}: ii {e.ii} is below ii_min {ii0} "
                                      f"at {num_to_json(e.f_mhz)} MHz")
            continue
        fn, fd = e.f_mhz.as_integer_ratio()
        c, r = divmod(fn * bd, fd * bn)  # f / f_base, without building Fractions
        if r:
            raise ValidationError(
                f"task {t.name}: f_mhz {num_to_json(e.f_mhz)} MHz is not a whole multiple "
                f"of f_base {num_to_json(f_base)} MHz"
            )
        want_m, want_c = rule(t.n_op_dsp > 0, e.m, s)
        if e.m != want_m or c != want_c:
            raise ValidationError(
                f"task {t.name}: m {e.m} at {num_to_json(e.f_mhz)} MHz breaks the {plan.strategy} "
                f"rule, which gives m {want_m} at {num_to_json(want_c * f_base)} MHz"
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
        # the DSP columns follow STRATEGIES: base, s-pump, m-pump
        bound = [bind(dfg, plans[s]) for s in STRATEGIES]
        rows.append(SweepRow(f, graph_throughput(dfg, plans["base"]),
                             *[b.total_dsp for b in bound], *[b.dsp_pct for b in bound]))
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
    if strategy not in _RULES:
        raise ParseError(f"plan.strategy: expected one of {', '.join(_RULES)}")
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
