"""Dataflow-graph model: tasks, FIFO channels, and the on-disk description.

A graph is an acyclic set of tasks communicating through point-to-point
FIFO channels, together with the per-task characterization the rest of
the toolkit consumes: DSP/memory operation counts per pipeline iteration,
the maximum implementable clock, the minimum initiation interval at the
base clock (declared, or derived from an attached data-dependence graph),
and the pipeline depth in task-local cycles.

f_max is always an input measured downstream of synthesis; nothing here
estimates timing.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

from .codec import Rational, _fmt_g, _Record, _set, as_fraction, get_field, get_int, get_num
from .codec import is_int, load_json, num_to_json, save_json
from .errors import ParseError, ValidationError
from .ii import Ddg, Dep, Op, _toposort, min_ii
from .ii import pipeline_depth as ddg_pipeline_depth

DEFAULT_CHANNEL_DEPTH = 2


class Task(_Record):
    """One dataflow task and its characterization.

    ``ii_min_base`` may be omitted when ``ddg`` is given (it is then
    derived), and ``pipeline_depth`` may be omitted likewise.  When both
    ``ddg`` and ``ii_min_base`` are present the loader cross-checks them
    at the base clock.  A task is validated when built.
    """

    __slots__ = _fields = (
        "name",
        "f_max_mhz",
        "n_op_dsp",
        "n_op_mem",
        "base_partition_factor",
        "ii_min_base",
        "pipeline_depth",
        "ddg",
    )

    def __init__(
        self,
        name: str,
        f_max_mhz: Rational,
        n_op_dsp: int = 0,
        n_op_mem: int = 0,
        base_partition_factor: int = 1,
        ii_min_base: int | None = None,
        pipeline_depth: int | None = None,
        ddg: Ddg | None = None,
    ):
        f_max_mhz = as_fraction(f_max_mhz)
        if not name:
            raise ValidationError("task name must be non-empty")
        if f_max_mhz <= 0:
            raise ValidationError(f"task {name}: f_max_mhz must be positive")
        if not is_int(n_op_dsp, 0):
            raise ValidationError(f"task {name}: n_op_dsp must be a nonnegative integer")
        if not is_int(n_op_mem, 0):
            raise ValidationError(f"task {name}: n_op_mem must be a nonnegative integer")
        if not is_int(base_partition_factor, 1):
            raise ValidationError(
                f"task {name}: base_partition_factor must be a positive integer"
            )
        if ii_min_base is not None and not is_int(ii_min_base, 1):
            raise ValidationError(f"task {name}: ii_min_base must be >= 1")
        if pipeline_depth is not None and not is_int(pipeline_depth, 1):
            raise ValidationError(f"task {name}: pipeline_depth must be >= 1")
        if ddg is None:
            if ii_min_base is None:
                raise ValidationError(
                    f"task {name}: ii_min_base is required when no ddg is given"
                )
            if pipeline_depth is None:
                raise ValidationError(
                    f"task {name}: pipeline_depth is required when no ddg is given"
                )
        self._store(name, f_max_mhz, n_op_dsp, n_op_mem, base_partition_factor,
                         ii_min_base, pipeline_depth, ddg)

    def ii_min_at(self, f_mhz: Rational) -> int:
        """Minimum II at the given clock: DDG-derived when one is attached."""
        if self.ddg is not None:
            return min_ii(self.ddg, f_mhz)
        assert self.ii_min_base is not None
        return self.ii_min_base

    def pipeline_depth_at(self, f_mhz: Rational) -> int:
        """Cycles from iteration start to output token at the given clock."""
        if self.pipeline_depth is not None:
            return self.pipeline_depth
        assert self.ddg is not None
        return ddg_pipeline_depth(self.ddg, f_mhz)


class Channel(_Record):
    """FIFO channel from task ``src`` to task ``dst`` with a token capacity."""

    __slots__ = _fields = ("src", "dst", "depth")

    def __init__(self, src: str, dst: str, depth: int = DEFAULT_CHANNEL_DEPTH):
        self._store(src, dst, depth)


class Dfg(_Record):
    """Dataflow graph plus device DSP budget and memory cap, validated when built.

    ``task_order`` holds the task indices with every producer before its
    consumers.
    """

    __slots__ = ("tasks", "channels", "device_dsp_total", "memory_bound_msps", "task_order")
    _fields = ("tasks", "channels", "device_dsp_total", "memory_bound_msps")

    def __init__(
        self,
        tasks: Sequence[Task],
        channels: Sequence[Channel],
        device_dsp_total: int,
        memory_bound_msps: Rational | None = None,
    ):
        if memory_bound_msps is not None:
            memory_bound_msps = as_fraction(memory_bound_msps)
        self._store(tuple(tasks), tuple(channels), device_dsp_total, memory_bound_msps)
        self.validate()

    def task(self, name: str) -> Task:
        for t in self.tasks:
            if t.name == name:
                return t
        raise ValidationError(f"unknown task: {name}")

    @property
    def task_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tasks)

    @property
    def min_f_max_mhz(self) -> Fraction:
        return min(t.f_max_mhz for t in self.tasks)

    def validate(self) -> None:
        if not self.tasks:
            raise ValidationError("empty graph: at least one task is required")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate task name: {dup[0]}")
        if not is_int(self.device_dsp_total, 1):
            raise ValidationError("device_dsp_total must be a positive integer")
        if self.memory_bound_msps is not None and self.memory_bound_msps <= 0:
            raise ValidationError("memory_bound_msps must be positive")
        known = set(names)
        for c in self.channels:
            if c.src not in known:
                raise ValidationError(f"channel names unknown task: {c.src}")
            if c.dst not in known:
                raise ValidationError(f"channel names unknown task: {c.dst}")
            if c.src == c.dst:
                raise ValidationError(f"channel endpoints must differ: {c.src}")
            if not is_int(c.depth, 1):
                raise ValidationError(f"channel {c.src}->{c.dst}: depth must be >= 1")
        order, cyc = _toposort(names, [(c.src, c.dst) for c in self.channels])
        if cyc is not None:
            raise ValidationError("channel graph must be acyclic: " + "->".join(cyc + cyc[:1]))
        index = {n: i for i, n in enumerate(names)}
        _set(self, "task_order", tuple(index[n] for n in order))

    def _cross_check_ii(self, f_base: Fraction) -> None:
        if f_base <= 0:
            raise ValidationError("f_base_mhz must be positive")
        # the declared ii_min_base only makes a claim for clocks the task
        # can implement, so skip tasks whose f_max lies below f_base
        for t in self.tasks:
            if t.ddg is None or t.ii_min_base is None:
                continue
            if f_base > t.f_max_mhz:
                continue
            derived = min_ii(t.ddg, f_base)
            if derived != t.ii_min_base:
                raise ValidationError(
                    f"task {t.name}: declared ii_min_base {t.ii_min_base} disagrees "
                    f"with the DDG-derived value {derived} at {_fmt_g(f_base)} MHz"
                )


class Characterization(_Record):
    """Per-task (f_max_mhz, n_op_dsp) overrides measured from implementation."""

    __slots__ = _fields = ("entries",)


def merge_characterization(dfg: Dfg, ch: Characterization) -> Dfg:
    """Overwrite f_max_mhz and n_op_dsp of the named tasks; all else untouched."""
    known = set(dfg.task_names)
    for name in ch.entries:
        if name not in known:
            raise ValidationError(f"unknown task: {name}")
    tasks = []
    for t in dfg.tasks:
        if t.name in ch.entries:
            f_max, n_op = ch.entries[t.name]
            t = t.replace(f_max_mhz=f_max, n_op_dsp=n_op)
        tasks.append(t)
    return Dfg(tasks, dfg.channels, dfg.device_dsp_total, dfg.memory_bound_msps)


# --- file ingestion -------------------------------------------------------


def load_dfg(path: Union[str, Path], f_base_mhz: Rational | None = None) -> Dfg:
    """Load and validate a graph description file.

    When ``f_base_mhz`` is given, tasks carrying both a ddg and a declared
    ii_min_base are cross-checked at that clock.
    """
    dfg = dfg_from_dict(load_json(path))
    if f_base_mhz is not None:
        dfg._cross_check_ii(as_fraction(f_base_mhz))
    return dfg


def save_dfg(dfg: Dfg, path: Union[str, Path]) -> None:
    save_json(dfg_to_dict(dfg), path)


def load_characterization(path: Union[str, Path]) -> Characterization:
    data = load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: characterization must be an object")
    entries = {}
    for name, rec in data.items():
        if not isinstance(rec, dict):
            raise ParseError(f"{name}: expected an object with f_max_mhz and n_op_dsp")
        entries[name] = (
            get_num(rec, "f_max_mhz", name),
            get_int(rec, "n_op_dsp", name),
        )
    return Characterization(entries)


def dfg_from_dict(data) -> Dfg:
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    raw_tasks = get_field(data, "tasks", list, "$")
    raw_channels = data.get("channels", [])
    if not isinstance(raw_channels, list):
        raise ParseError("channels: expected an array")
    tasks = [_task_from_dict(rec, f"tasks[{i}]") for i, rec in enumerate(raw_tasks)]
    channels = [_channel_from_dict(rec, f"channels[{i}]") for i, rec in enumerate(raw_channels)]
    device = get_int(data, "device_dsp_total", "$")
    bound = get_num(data, "memory_bound_msps", "$", default=None)
    return Dfg(tasks, channels, device, bound)


def dfg_to_dict(dfg: Dfg) -> dict:
    out: dict = {"tasks": [_task_to_dict(t) for t in dfg.tasks]}
    out["channels"] = [
        {"from": c.src, "to": c.dst, "depth": c.depth} for c in dfg.channels
    ]
    out["device_dsp_total"] = dfg.device_dsp_total
    if dfg.memory_bound_msps is not None:
        out["memory_bound_msps"] = num_to_json(dfg.memory_bound_msps)
    return out


def _task_from_dict(rec, where: str) -> Task:
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: expected an object")
    name = get_field(rec, "name", str, where)
    ddg = None
    if "ddg" in rec and rec["ddg"] is not None:
        try:
            ddg = _ddg_from_dict(rec["ddg"], f"{where}.ddg")
        except ValidationError as e:
            raise ValidationError(f"task {name}: {e}") from None
    return Task(
        name=name,
        f_max_mhz=get_num(rec, "f_max_mhz", where),
        n_op_dsp=get_int(rec, "n_op_dsp", where, default=0),
        n_op_mem=get_int(rec, "n_op_mem", where, default=0),
        base_partition_factor=get_int(rec, "base_partition_factor", where, default=1),
        ii_min_base=get_int(rec, "ii_min_base", where, default=None),
        pipeline_depth=get_int(rec, "pipeline_depth", where, default=None),
        ddg=ddg,
    )


def _task_to_dict(t: Task) -> dict:
    out: dict = {
        "name": t.name,
        "n_op_dsp": t.n_op_dsp,
        "n_op_mem": t.n_op_mem,
        "base_partition_factor": t.base_partition_factor,
        "f_max_mhz": num_to_json(t.f_max_mhz),
    }
    if t.ii_min_base is not None:
        out["ii_min_base"] = t.ii_min_base
    if t.pipeline_depth is not None:
        out["pipeline_depth"] = t.pipeline_depth
    if t.ddg is not None:
        out["ddg"] = {
            "ops": [
                {"id": op.id, "class": op.cls, "delay_ns": num_to_json(op.delay_ns)}
                for op in t.ddg.ops
            ],
            "deps": [
                {"from": d.src, "to": d.dst, "dist": d.dist} for d in t.ddg.deps
            ],
        }
    return out


def _channel_from_dict(rec, where: str) -> Channel:
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: expected an object")
    return Channel(
        src=get_field(rec, "from", str, where),
        dst=get_field(rec, "to", str, where),
        depth=get_int(rec, "depth", where, default=DEFAULT_CHANNEL_DEPTH),
    )


def _ddg_from_dict(rec, where: str) -> Ddg:
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: expected an object")
    raw_ops = get_field(rec, "ops", list, where)
    raw_deps = rec.get("deps", [])
    if not isinstance(raw_deps, list):
        raise ParseError(f"{where}.deps: expected an array")
    # the readers name ``where`` only in their errors, so the location
    # of an op or a dependence is spelled out only when one fails
    ops = []
    for i, o in enumerate(raw_ops):
        if not isinstance(o, dict):
            raise ParseError(f"{where}.ops[{i}]: expected an object")
        try:
            ops.append(Op(get_field(o, "id", str, ""), get_field(o, "class", str, ""),
                          get_num(o, "delay_ns", "")))
        except ParseError as e:
            raise ParseError(f"{where}.ops[{i}]{e}") from None
    deps = []
    for i, d in enumerate(raw_deps):
        if not isinstance(d, dict):
            raise ParseError(f"{where}.deps[{i}]: expected an object")
        try:
            deps.append(Dep(get_field(d, "from", str, ""), get_field(d, "to", str, ""),
                            get_int(d, "dist", "")))
        except ParseError as e:
            raise ParseError(f"{where}.deps[{i}]{e}") from None
    return Ddg(ops, deps)

