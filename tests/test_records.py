"""Model records: value semantics of a frozen dataclass, without ``dataclasses``.

The expected ``repr()`` strings are the ones the earlier frozen-dataclass
records printed, so that logs and doctests read the same.
"""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import pumpwise
from pumpwise import (
    BindingResult,
    Channel,
    ChannelReport,
    Characterization,
    Ddg,
    Dep,
    Dfg,
    Op,
    PumpPlan,
    SimConfig,
    SimReport,
    SweepRow,
    Task,
    TaskBinding,
    TaskPlan,
    ValidationError,
)

OP = Op("a", "mul", 2.5)
DDG = Ddg([OP, Op("b", "add", 1)], [Dep("a", "b", 0), Dep("b", "a", 1)])
TASK = Task("A", 250, n_op_dsp=3, ii_min_base=1, pipeline_depth=4)
DDG_TASK = Task("B", Fraction(1000, 3), ddg=DDG)
DFG = Dfg([TASK, DDG_TASK], [Channel("A", "B")], 360, 100)

DDG_REPR = (
    "Ddg(ops=(Op(id='a', cls='mul', delay_ns=Fraction(5, 2)), "
    "Op(id='b', cls='add', delay_ns=Fraction(1, 1))), "
    "deps=(Dep(src='a', dst='b', dist=0), Dep(src='b', dst='a', dist=1)))"
)
TASK_REPR = (
    "Task(name='A', f_max_mhz=Fraction(250, 1), n_op_dsp=3, n_op_mem=0, "
    "base_partition_factor=1, ii_min_base=1, pipeline_depth=4, ddg=None)"
)
DDG_TASK_REPR = (
    "Task(name='B', f_max_mhz=Fraction(1000, 3), n_op_dsp=0, n_op_mem=0, "
    "base_partition_factor=1, ii_min_base=None, pipeline_depth=None, ddg=" + DDG_REPR + ")"
)

# (record, its repr, the fields that ==, hash() and replace() cover)
RECORDS = {
    "Op": (OP, "Op(id='a', cls='mul', delay_ns=Fraction(5, 2))", ("id", "cls", "delay_ns")),
    "Dep": (Dep("a", "b", 0), "Dep(src='a', dst='b', dist=0)", ("src", "dst", "dist")),
    "Ddg": (DDG, DDG_REPR, ("ops", "deps")),
    "Task": (
        TASK,
        TASK_REPR,
        ("name", "f_max_mhz", "n_op_dsp", "n_op_mem", "base_partition_factor",
         "ii_min_base", "pipeline_depth", "ddg"),
    ),
    "Task with ddg": (
        DDG_TASK,
        DDG_TASK_REPR,
        ("name", "f_max_mhz", "n_op_dsp", "n_op_mem", "base_partition_factor",
         "ii_min_base", "pipeline_depth", "ddg"),
    ),
    "Channel": (Channel("A", "B"), "Channel(src='A', dst='B', depth=2)", ("src", "dst", "depth")),
    "Dfg": (
        DFG,
        "Dfg(tasks=(" + TASK_REPR + ", " + DDG_TASK_REPR + "), "
        "channels=(Channel(src='A', dst='B', depth=2),), device_dsp_total=360, "
        "memory_bound_msps=Fraction(100, 1))",
        ("tasks", "channels", "device_dsp_total", "memory_bound_msps"),
    ),
    "Characterization": (
        Characterization({"A": (300, 2)}),
        "Characterization(entries={'A': (300, 2)})",
        ("entries",),
    ),
    "TaskPlan": (TaskPlan(2, 500, 2), "TaskPlan(m=2, f_mhz=Fraction(500, 1), ii=2)",
                 ("m", "f_mhz", "ii")),
    "PumpPlan": (
        PumpPlan("m-pump", {"A": TaskPlan(1, 250, 1)}, 250),
        "PumpPlan(strategy='m-pump', tasks={'A': TaskPlan(m=1, f_mhz=Fraction(250, 1), ii=1)}, "
        "kernel_base_clock_mhz=Fraction(250, 1))",
        ("strategy", "tasks", "kernel_base_clock_mhz"),
    ),
    "SweepRow": (
        SweepRow(Fraction(165), Fraction(165), 225, 113, 75,
                 Fraction(125, 2), Fraction(565, 18), Fraction(125, 6)),
        "SweepRow(f_base_mhz=Fraction(165, 1), throughput_msps=Fraction(165, 1), "
        "dsp_base=225, dsp_s_pump=113, dsp_m_pump=75, dsp_base_pct=Fraction(125, 2), "
        "dsp_s_pump_pct=Fraction(565, 18), dsp_m_pump_pct=Fraction(125, 6))",
        ("f_base_mhz", "throughput_msps", "dsp_base", "dsp_s_pump", "dsp_m_pump",
         "dsp_base_pct", "dsp_s_pump_pct", "dsp_m_pump_pct"),
    ),
    "TaskBinding": (
        TaskBinding(1, 2, 3),
        "TaskBinding(n_fu_dsp=1, n_mem_ports=2, partition_factor=3)",
        ("n_fu_dsp", "n_mem_ports", "partition_factor"),
    ),
    "BindingResult": (
        BindingResult({"A": TaskBinding(1, 2, 3)}, 1, Fraction(5, 18)),
        "BindingResult(per_task={'A': TaskBinding(n_fu_dsp=1, n_mem_ports=2, "
        "partition_factor=3)}, total_dsp=1, dsp_pct=Fraction(5, 18))",
        ("per_task", "total_dsp", "dsp_pct"),
    ),
    "SimConfig": (SimConfig(100, 10), "SimConfig(iterations=100, warmup=10)",
                  ("iterations", "warmup")),
    "ChannelReport": (
        ChannelReport("A", "B", 2, 0),
        "ChannelReport(src='A', dst='B', peak_occupancy=2, residual_tokens=0)",
        ("src", "dst", "peak_occupancy", "residual_tokens"),
    ),
    # the graph is compared and hashed, but not shown
    "SimReport": (
        SimReport(Fraction(250), (2,), 100, DFG),
        "SimReport(throughput_msps=Fraction(250, 1), peaks=(2,), iterations=100)",
        ("throughput_msps", "peaks", "iterations", "dfg"),
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_repr_is_the_dataclass_repr(record):
    obj, text, _ = record
    assert repr(obj) == text


def test_equality_and_hash_cover_the_fields(record):
    obj, _, fields = record
    values = tuple(getattr(obj, f) for f in fields)
    twin = type(obj)(*values)
    assert twin == obj and not (twin != obj) and twin is not obj
    assert obj != values and obj != object()
    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == expected


def test_a_changed_field_breaks_equality():
    assert Op("a", "mul", 2) != Op("a", "mul", 3)
    assert Dep("a", "b", 1) != Channel("a", "b", 1)
    assert TASK.replace(n_op_dsp=4) != TASK
    assert SimReport(1, (), 1, DFG) != SimReport(1, (), 1, DFG.replace(device_dsp_total=1))


def test_derived_orders_are_not_compared_or_shown():
    assert DDG.order == ("a", "b") and "order" not in repr(DDG)
    assert DFG.task_order == (0, 1) and "task_order" not in repr(DFG)
    assert hash(DDG) == hash((DDG.ops, DDG.deps))
    assert hash(DFG) == hash((DFG.tasks, DFG.channels, 360, Fraction(100)))


def test_records_are_immutable_and_have_no_dict(record):
    obj, _, fields = record
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    with pytest.raises(AttributeError):
        delattr(obj, fields[0])
    assert not hasattr(obj, "__dict__")


def test_replace_rebuilds_through_the_constructor(record):
    obj, _, fields = record
    assert obj.replace() == obj
    assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_replace_validates_again():
    with pytest.raises(ValidationError, match="task A: f_max_mhz must be positive"):
        TASK.replace(f_max_mhz=0)
    with pytest.raises(ValidationError, match="m: expected a positive integer"):
        TaskPlan(2, 500, 2).replace(m=0)
    with pytest.raises(ValidationError, match="combinational cycle: a->b->a"):
        DDG.replace(deps=[Dep("a", "b", 0), Dep("b", "a", 0)])
    with pytest.raises(ValidationError, match="channel graph must be acyclic: A->B->A"):
        DFG.replace(channels=[Channel("A", "B"), Channel("B", "A")])
    with pytest.raises(ValidationError, match="warmup must satisfy"):
        SimConfig(100, 10).replace(iterations=10)
    # the derived order follows the new fields
    assert DDG.replace(deps=[Dep("b", "a", 0)]).order == ("b", "a")
    assert TASK.replace(f_max_mhz=0.5).f_max_mhz == Fraction(1, 2)


def test_plain_records_bind_keywords_like_a_signature():
    assert TaskBinding(n_fu_dsp=1, n_mem_ports=2, partition_factor=3) == TaskBinding(1, 2, 3)
    assert TaskBinding(1, partition_factor=3, n_mem_ports=2) == TaskBinding(1, 2, 3)
    assert Dep(dist=0, dst="b", src="a").dst == "b"
    assert Op(id="a", cls="mul", delay_ns=0.5).delay_ns == Fraction(1, 2)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: TaskBinding(1, 2, 3, 4),
         "TaskBinding.__init__() takes 4 positional arguments but 5 were given"),
        (lambda: TaskBinding(1, 2),
         "TaskBinding.__init__() missing 1 required positional argument: 'partition_factor'"),
        (lambda: Dep("a", "b", dist=0, weight=1),
         "Dep.__init__() got an unexpected keyword argument 'weight'"),
        (lambda: Dep("a", "b", 0, src="c"), "Dep.__init__() got multiple values for argument 'src'"),
        (lambda: Characterization({}, entries={}),
         "Characterization.__init__() got multiple values for argument 'entries'"),
    ],
)
def test_plain_records_reject_a_wrong_argument_list(call, message):
    with pytest.raises(TypeError) as e:
        call()
    assert str(e.value) == message


STORING_ONLY = {"Dep", "Characterization", "TaskBinding", "BindingResult", "ChannelReport",
                "SimReport", "SweepRow"}


def test_fields_are_stored_by_the_one_record_constructor():
    # records that only store their fields use the constructor compiled from
    # their _fields, and outside codec the raw store sets only the two derived
    # orders
    inits, uses, stores, importers = [], [], [], set()
    for path in sorted(Path(pumpwise.__file__).parent.glob("*.py")):
        if path.name == "codec.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name in STORING_ONLY:
                inits += [node.name for f in node.body
                          if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            elif isinstance(node, ast.ImportFrom) and any(a.name == "_set" for a in node.names):
                importers.add(path.name)
            elif isinstance(node, ast.Name) and node.id == "_set":
                uses.append(path.name)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_set":
                stores.append((path.name, ast.literal_eval(node.args[1])))
    assert inits == []
    assert sorted(stores) == [("dfg.py", "task_order"), ("ii.py", "order")]
    # each use of _set is one of those calls, and no module imports it unused
    assert sorted(uses) == ["dfg.py", "ii.py"] and importers == {"dfg.py", "ii.py"}
