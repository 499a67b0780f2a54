"""Resource-sharing model of the HLS binding step.

Sharing is per operation class: a pipeline issuing n_op same-class
operations once every ii cycles needs ceil(n_op / ii) functional units.
DSP operations bind to DSP blocks, memory operations to ports whose
partitioning scales down with the pump factor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .codec import _fmt_g, _Record, is_int
from .dfg import Dfg
from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .planner import PumpPlan


def fu_count(n_op: int, ii: int) -> int:
    """Functional units for n_op same-class operations at initiation interval ii."""
    if not is_int(ii, 1):
        raise ValidationError("ii must be an integer >= 1")
    if not is_int(n_op, 0):
        raise ValidationError("n_op must be an integer >= 0")
    return -(-n_op // ii)


def scaled_partition(base_factor: int, m: int) -> int:
    """Memory partitioning factor after scaling down by the pump factor."""
    if not (is_int(base_factor, 1) and is_int(m, 1)):
        raise ValidationError("base_factor and m must be integers >= 1")
    return max(1, -(-base_factor // m))


class TaskBinding(_Record):
    __slots__ = _fields = ("n_fu_dsp", "n_mem_ports", "partition_factor")


class BindingResult(_Record):
    __slots__ = _fields = ("per_task", "total_dsp", "dsp_pct")


def bind(dfg: Dfg, plan: "PumpPlan") -> BindingResult:
    """Functional-unit counts and DSP totals for every task under a plan."""
    _check_coverage(dfg, plan)
    per_task = {}
    total = 0
    for t in dfg.tasks:
        entry = plan.tasks[t.name]
        b = TaskBinding(
            fu_count(t.n_op_dsp, entry.ii),
            fu_count(t.n_op_mem, entry.ii),
            scaled_partition(t.base_partition_factor, entry.m),
        )
        per_task[t.name] = b
        total += b.n_fu_dsp
    pct = Fraction(100 * total, dfg.device_dsp_total)
    return BindingResult(per_task, total, pct)


# check_plan's first step, and the whole check of bind and the others that take any plan
def _check_coverage(dfg: Dfg, plan: "PumpPlan") -> None:
    """Reject a plan that misses a task, names an unknown one or clocks one above f_max."""
    planned = plan.tasks
    # task names are unique, so equal sizes and every task planned mean equal sets
    if len(planned) != len(dfg.tasks) or not all(t.name in planned for t in dfg.tasks):
        names = set(dfg.task_names)
        missing = sorted(names - set(planned))
        if missing:
            raise ValidationError(f"plan does not cover task: {missing[0]}")
        extra = sorted(set(planned) - names)
        raise ValidationError(f"plan names unknown task: {extra[0]}")
    for t in dfg.tasks:
        fn, fd = planned[t.name].f_mhz.as_integer_ratio()
        gn, gd = t.f_max_mhz.as_integer_ratio()
        if fn * gd > gn * fd:  # f > f_max over positive denominators, without Fractions
            raise ValidationError(
                f"task {t.name}: plan clock {_fmt_g(planned[t.name].f_mhz)} MHz exceeds "
                f"f_max {_fmt_g(t.f_max_mhz)} MHz"
            )
