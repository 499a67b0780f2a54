"""pumpwise: modeling and verification of task-level multi-pumping.

Pumping a dataflow task runs it at a multiple of the kernel's base clock
while scaling its pipeline initiation interval by the same factor: the
task's throughput is unchanged, but resource sharing now serves several
operations with one functional unit.  This package models that tradeoff
(II lower bounds, binding, factor selection, Pareto sweeps) and checks
every prediction with a multi-clock simulator.
"""

from .binding import BindingResult, TaskBinding, bind, fu_count, scaled_partition
from .dfg import (
    Channel,
    Characterization,
    Dfg,
    Task,
    dfg_from_dict,
    dfg_to_dict,
    load_characterization,
    load_dfg,
    merge_characterization,
    save_dfg,
)
from .errors import (
    InfeasibleError,
    ParseError,
    PumpwiseError,
    SimulationError,
    ValidationError,
)
from .ii import Ddg, Dep, Op, critical_cycle, min_ii, op_latency_cycles, pipeline_depth
from .planner import (
    PumpPlan,
    SweepRow,
    TaskPlan,
    check_plan,
    compute_throughput,
    graph_throughput,
    load_plan,
    make_plan,
    max_pump_factor,
    max_single_pump_factor,
    save_plan,
    sweep,
    task_throughput,
)
from .sim import (
    ChannelReport,
    SimConfig,
    SimReport,
    clock_period_ps,
    default_warmup,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "BindingResult",
    "Channel",
    "ChannelReport",
    "Characterization",
    "Ddg",
    "Dep",
    "Dfg",
    "InfeasibleError",
    "Op",
    "ParseError",
    "PumpPlan",
    "PumpwiseError",
    "SimConfig",
    "SimReport",
    "SimulationError",
    "SweepRow",
    "Task",
    "TaskBinding",
    "TaskPlan",
    "ValidationError",
    "bind",
    "check_plan",
    "clock_period_ps",
    "compute_throughput",
    "critical_cycle",
    "default_warmup",
    "dfg_from_dict",
    "dfg_to_dict",
    "fu_count",
    "graph_throughput",
    "load_characterization",
    "load_dfg",
    "load_plan",
    "make_plan",
    "max_pump_factor",
    "max_single_pump_factor",
    "merge_characterization",
    "min_ii",
    "op_latency_cycles",
    "pipeline_depth",
    "save_dfg",
    "save_plan",
    "scaled_partition",
    "simulate",
    "sweep",
    "task_throughput",
]
