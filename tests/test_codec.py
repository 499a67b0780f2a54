"""Codec: the count rule, checked on every count field of the model."""

from fractions import Fraction

import pytest

from pumpwise import (
    Channel,
    Ddg,
    Dep,
    Dfg,
    Op,
    SimConfig,
    Task,
    TaskPlan,
    ValidationError,
)
from pumpwise.codec import is_int


def _task(**kw):
    return Task(**{"name": "A", "f_max_mhz": 100, "ii_min_base": 1, "pipeline_depth": 1, **kw})


# every count field of the model: (build with value v, least valid value, error text)
COUNT_FIELDS = {
    "Task.n_op_dsp": (lambda v: _task(n_op_dsp=v), 0, "n_op_dsp must be a nonnegative integer"),
    "Task.n_op_mem": (lambda v: _task(n_op_mem=v), 0, "n_op_mem must be a nonnegative integer"),
    "Task.base_partition_factor": (
        lambda v: _task(base_partition_factor=v), 1, "base_partition_factor must be a positive"
    ),
    "Task.ii_min_base": (lambda v: _task(ii_min_base=v), 1, "ii_min_base must be >= 1"),
    "Task.pipeline_depth": (lambda v: _task(pipeline_depth=v), 1, "pipeline_depth must be >= 1"),
    "Dfg.device_dsp_total": (
        lambda v: Dfg([_task()], [], v), 1, "device_dsp_total must be a positive integer"
    ),
    "Channel.depth": (
        lambda v: Dfg([_task(), _task(name="B")], [Channel("A", "B", v)], 10),
        1,
        "channel A->B: depth must be >= 1",
    ),
    "Dep.dist": (
        lambda v: Ddg([Op("a", "add", 1), Op("b", "add", 1)], [Dep("a", "b", v)]),
        0,
        "dependence a->b: dist must be a nonnegative integer",
    ),
    "TaskPlan.m": (lambda v: TaskPlan(v, 100, 2), 1, "m: expected a positive integer"),
    "TaskPlan.ii": (lambda v: TaskPlan(2, 100, v), 1, "ii: expected a positive integer"),
    "SimConfig.iterations": (lambda v: SimConfig(v), 1, "iterations must be a positive integer"),
    "SimConfig.warmup": (
        lambda v: SimConfig(10, v), 0, r"warmup must satisfy 0 <= warmup < iterations"
    ),
}


@pytest.mark.parametrize("field", COUNT_FIELDS)
@pytest.mark.parametrize("bad", ["true", "fraction", "below"])
def test_count_fields_reject_bools_fractions_and_small_values(field, bad):
    build, least, message = COUNT_FIELDS[field]
    build(least)  # the smallest valid count is accepted
    value = {"true": True, "fraction": 1.5, "below": least - 1}[bad]
    with pytest.raises(ValidationError, match=message):
        build(value)


def test_is_int():
    assert is_int(0) and is_int(-3) and is_int(5, 5)
    assert not is_int(4, 5)
    for v in (True, False, 1.0, Fraction(1), "1", None):
        assert not is_int(v)
        assert not is_int(v, 0)

