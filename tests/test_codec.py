"""Codec: the count rule on every count field of the model, and the field readers."""

import sys
from fractions import Fraction

import pytest

from pumpwise import (
    Channel,
    Ddg,
    Dep,
    Dfg,
    Op,
    ParseError,
    SimConfig,
    Task,
    TaskPlan,
    ValidationError,
)
from pumpwise.codec import _fmt_g, as_fraction, get_field, get_int, is_int, load_json
from pumpwise.codec import num_from_json, num_to_json


# one digit more than int() may convert from a string
LONG = "1" + "0" * sys.get_int_max_str_digits()
TOO_LONG = f"number has more than {sys.get_int_max_str_digits()} digits"


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



# (call, exception type, exact message) of each reader's rejection
INPUT_CHECKS = {
    "as_fraction string": (lambda: as_fraction("1"), ValidationError, "expected a number, got '1'"),
    "as_fraction None": (lambda: as_fraction(None), ValidationError, "expected a number, got None"),
    "num_from_json None": (lambda: num_from_json(None, "w"), ParseError, "w: expected a number"),
    "num_from_json list": (lambda: num_from_json([1], "w"), ParseError, "w: expected a number"),
    "get_field missing": (
        lambda: get_field({}, "k", str, "w"), ParseError, "w.k: missing required field"
    ),
    "get_field wrong type": (
        lambda: get_field({"k": 1}, "k", str, "w"), ParseError, "w.k: expected str"
    ),
    "get_field bool": (
        lambda: get_field({"k": True}, "k", int, "w"), ParseError, "w.k: expected int"
    ),
    "get_int missing": (lambda: get_int({}, "k", "w"), ParseError, "w.k: missing required field"),
    "num_from_json long p/q": (
        lambda: num_from_json(LONG + "/3", "w"), ParseError, "w: " + TOO_LONG
    ),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_checks(case):
    call, exc, message = INPUT_CHECKS[case]
    with pytest.raises(exc) as e:
        call()
    assert type(e.value) is exc
    assert str(e.value) == message


def test_numbers_beyond_float_range_round_trip_and_format():
    for x in (Fraction(10**400, 3), Fraction(-(10**500) - 1, 7)):
        assert num_from_json(num_to_json(x), "x") == x
    assert num_to_json(Fraction(10**400, 3)) == f"{10**400}/3"
    assert num_to_json(Fraction(10**400)) == 10**400
    assert _fmt_g(Fraction(10**400)) == "1e+400"
    assert _fmt_g(Fraction(-7 * 10**500, 9)) == "-7.77778e+499"
    assert _fmt_g(Fraction(2**1024)) == "1.79769e+308"
    # within float range it is exactly the :g format of the float
    for x in (Fraction(1000, 3), Fraction(10**300), Fraction(1, 10**400), 165, 0.1):
        assert _fmt_g(x) == f"{float(x):g}"


@pytest.mark.parametrize("literal", [LONG, LONG + ".5", "0." + LONG],
                         ids=["integer", "whole part", "fraction part"])
def test_load_json_names_the_file_of_a_number_too_long_to_read(tmp_path, literal):
    path = tmp_path / "long.json"
    path.write_text('{"device_dsp_total": ' + literal + "}")
    with pytest.raises(ParseError) as e:
        load_json(path)
    assert str(e.value) == f"{path}: {TOO_LONG}"
