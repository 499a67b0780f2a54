"""DFG model: loading, validation, serialization, characterization merge."""

import json
import random
from fractions import Fraction

import pytest

from pumpwise import (
    Channel,
    Characterization,
    Ddg,
    Dep,
    Dfg,
    Op,
    ParseError,
    Task,
    ValidationError,
    datasets,
    load_dfg,
    merge_characterization,
    save_dfg,
)
from pumpwise.dfg import dfg_from_dict, dfg_to_dict, load_characterization


def test_load_conv2d_dataset():
    dfg = load_dfg(datasets.path("conv2d.json"))
    assert dfg.task_names == ("ReadFromMem", "Window2D", "Filter2D", "WriteToMem")
    assert len(dfg.channels) == 3
    assert dfg.task("Filter2D").n_op_dsp == 225
    assert dfg.task("Filter2D").f_max_mhz == 500
    assert dfg.device_dsp_total == 360
    assert dfg.memory_bound_msps is None


def test_load_optical_and_vms_datasets():
    opt = load_dfg(datasets.path("optical.json"), f_base_mhz=150)
    assert opt.memory_bound_msps == 175
    assert opt.task("FlowCalc").ddg is not None
    vms = load_dfg(datasets.path("vms.json"), f_base_mhz=110)
    assert vms.task("ScoreVdW").ii_min_base == 4


def test_empty_graph_rejected(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"tasks": [], "channels": [], "device_dsp_total": 1}))
    with pytest.raises(ValidationError, match="empty graph"):
        load_dfg(p)


def _two_task_dict(channels):
    return {
        "tasks": [
            {"name": "A", "f_max_mhz": 300, "ii_min_base": 1, "pipeline_depth": 1},
            {"name": "B", "f_max_mhz": 300, "ii_min_base": 1, "pipeline_depth": 1},
        ],
        "channels": channels,
        "device_dsp_total": 10,
    }


def test_channel_cycle_rejected(tmp_path):
    p = tmp_path / "cyc.json"
    p.write_text(json.dumps(_two_task_dict(
        [{"from": "A", "to": "B"}, {"from": "B", "to": "A"}])))
    with pytest.raises(ValidationError, match="channel graph must be acyclic: A->B->A"):
        load_dfg(p)


def test_default_channel_depth_is_two(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(json.dumps(_two_task_dict([{"from": "A", "to": "B"}])))
    dfg = load_dfg(p)
    assert dfg.channels[0].depth == 2


def test_self_channel_and_unknown_endpoint_rejected():
    with pytest.raises(ValidationError, match="endpoints must differ"):
        dfg = dfg_from_dict(_two_task_dict([{"from": "A", "to": "A"}]))
        dfg.validate()
    with pytest.raises(ValidationError, match="unknown task: C"):
        dfg = dfg_from_dict(_two_task_dict([{"from": "A", "to": "C"}]))
        dfg.validate()


def test_ddg_errors_name_the_task(tmp_path):
    d = _two_task_dict([])
    d["tasks"][1]["ddg"] = {
        "ops": [{"id": "b", "class": "add", "delay_ns": 1}, {"id": "a", "class": "add", "delay_ns": 1}],
        "deps": [{"from": "a", "to": "b", "dist": 0}, {"from": "b", "to": "a", "dist": 0}],
    }
    p = tmp_path / "comb.json"
    p.write_text(json.dumps(d))
    with pytest.raises(ValidationError, match="^task B: combinational cycle: a->b->a$"):
        load_dfg(p)


def test_duplicate_task_name_rejected():
    d = _two_task_dict([])
    d["tasks"][1]["name"] = "A"
    with pytest.raises(ValidationError, match="duplicate task name: A"):
        dfg_from_dict(d).validate()


def test_parse_errors_name_the_field(tmp_path):
    d = _two_task_dict([])
    del d["tasks"][0]["f_max_mhz"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    with pytest.raises(ParseError, match=r"tasks\[0\].f_max_mhz"):
        load_dfg(p)

    d = _two_task_dict([])
    d["tasks"][1]["n_op_dsp"] = "many"
    p.write_text(json.dumps(d))
    with pytest.raises(ParseError, match=r"tasks\[1\].n_op_dsp"):
        load_dfg(p)


def test_json_syntax_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"tasks": [,]}')
    with pytest.raises(ParseError, match=r"broken\.json:1:"):
        load_dfg(p)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_dfg(tmp_path / "nope.json")


def test_task_requires_ii_or_ddg():
    with pytest.raises(ValidationError, match="ii_min_base is required"):
        Task(name="A", f_max_mhz=100, pipeline_depth=1)
    with pytest.raises(ValidationError, match="pipeline_depth is required"):
        Task(name="A", f_max_mhz=100, ii_min_base=1)


def test_decimal_frequencies_load_exactly(tmp_path):
    d = _two_task_dict([])
    d["tasks"][0]["f_max_mhz"] = 165.7
    p = tmp_path / "f.json"
    p.write_text(json.dumps(d))
    dfg = load_dfg(p)
    assert dfg.task("A").f_max_mhz == Fraction(1657, 10)


def test_ii_cross_check_against_ddg(tmp_path):
    ddg = {
        "ops": [{"id": "acc", "class": "add", "delay_ns": 11.0}],
        "deps": [{"from": "acc", "to": "acc", "dist": 1}],
    }
    d = _two_task_dict([{"from": "A", "to": "B"}])
    d["tasks"][0]["ddg"] = ddg
    d["tasks"][0]["ii_min_base"] = 3
    p = tmp_path / "x.json"
    p.write_text(json.dumps(d))
    load_dfg(p, f_base_mhz=250)  # latency 3 at 250 MHz: consistent

    d["tasks"][0]["ii_min_base"] = 2
    p.write_text(json.dumps(d))
    with pytest.raises(ValidationError, match="disagrees"):
        load_dfg(p, f_base_mhz=250)
    load_dfg(p)  # without a base clock the declared value is trusted
    # above A's f_max of 300 MHz the declared value makes no claim
    load_dfg(p, f_base_mhz=301)
    with pytest.raises(ValidationError, match="disagrees"):
        load_dfg(p, f_base_mhz=300)


def test_ddg_task_derives_ii_and_depth():
    ddg = Ddg([Op("acc", "add", 11.0)], [Dep("acc", "acc", 1)])
    t = Task(name="A", f_max_mhz=500, ddg=ddg)
    assert t.ii_min_at(250) == 3
    assert t.ii_min_at(500) == 6
    assert t.pipeline_depth_at(250) == 3


def test_round_trip_datasets(tmp_path):
    for name in datasets.names():
        dfg = load_dfg(datasets.path(name))
        out = tmp_path / name
        save_dfg(dfg, out)
        assert load_dfg(out) == dfg


def test_round_trip_fractional_and_ddg(tmp_path):
    ddg = Ddg([Op("a", "mul", 2.5), Op("b", "add", 1.7)], [Dep("a", "b", 0), Dep("b", "b", 2)])
    dfg = Dfg(
        [
            Task(name="A", f_max_mhz=Fraction(331, 2), ii_min_base=2, pipeline_depth=3,
                 n_op_dsp=7, n_op_mem=1, base_partition_factor=4),
            Task(name="B", f_max_mhz=400, ddg=ddg, pipeline_depth=5),
        ],
        [Channel("A", "B", depth=9)],
        device_dsp_total=100,
        memory_bound_msps=Fraction(175),
    )
    dfg.validate()
    out = tmp_path / "rt.json"
    save_dfg(dfg, out)
    assert load_dfg(out) == dfg


def test_round_trip_non_decimal_rationals(tmp_path):
    dfg = Dfg(
        [Task(name="A", f_max_mhz=Fraction(1000, 3), ii_min_base=1, pipeline_depth=1),
         Task(name="B", f_max_mhz=Fraction(331, 2), ii_min_base=1, pipeline_depth=1)],
        [Channel("A", "B")],
        device_dsp_total=8,
        memory_bound_msps=Fraction(1000, 7),
    )
    out = tmp_path / "rt.json"
    save_dfg(dfg, out)
    data = json.loads(out.read_text())
    assert [t["f_max_mhz"] for t in data["tasks"]] == ["1000/3", 165.5]
    assert data["memory_bound_msps"] == "1000/7"
    assert load_dfg(out) == dfg
    for bad in ('"1000/0"', '"1e3"', '"fast"'):
        out.write_text(out.read_text().replace('"1000/3"', bad, 1))
        with pytest.raises(ParseError, match=r"tasks\[0\].f_max_mhz"):
            load_dfg(out)
        save_dfg(dfg, out)


def test_random_dags_accepted_backedge_rejected():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(2, 9)
        tasks = [Task(name=f"T{i}", f_max_mhz=300, ii_min_base=1, pipeline_depth=1)
                 for i in range(n)]
        channels = []
        for i in range(n - 1):
            for j in range(i + 1, n):
                if j == i + 1 or rng.random() < 0.3:
                    channels.append(Channel(f"T{i}", f"T{j}"))
        Dfg(tasks, channels, 16).validate()
        # one injected back edge always creates a cycle
        i = rng.randrange(1, n)
        j = rng.randrange(0, i)
        with pytest.raises(ValidationError, match="acyclic"):
            bad = Dfg(tasks, channels + [Channel(f"T{i}", f"T{j}")], 16)
            bad.validate()


def test_merge_characterization_overrides():
    dfg = load_dfg(datasets.path("conv2d.json"))
    ch = Characterization({"Filter2D": (500, 225)})
    merged = merge_characterization(dfg, ch)
    assert merged.task("Filter2D").f_max_mhz == 500
    assert merged.task("Filter2D").n_op_dsp == 225
    # consistency with the published pump factors at both base clocks
    assert Fraction(500) // 165 == 3
    assert Fraction(500) // 250 == 2
    # untouched fields survive
    assert merged.task("Filter2D").pipeline_depth == dfg.task("Filter2D").pipeline_depth
    assert merged.task("ReadFromMem") == dfg.task("ReadFromMem")


def test_merge_characterization_identity_and_idempotence():
    dfg = load_dfg(datasets.path("conv2d.json"))
    assert merge_characterization(dfg, Characterization({})) == dfg
    ch = Characterization({"Filter2D": (480, 200), "Window2D": (350, 0)})
    once = merge_characterization(dfg, ch)
    assert merge_characterization(once, ch) == once


def test_merge_characterization_unknown_task():
    dfg = load_dfg(datasets.path("conv2d.json"))
    with pytest.raises(ValidationError, match="unknown task"):
        merge_characterization(dfg, Characterization({"NoSuchTask": (100, 0)}))


def test_load_characterization_file(tmp_path):
    p = tmp_path / "ch.json"
    p.write_text(json.dumps({"Filter2D": {"f_max_mhz": 510.5, "n_op_dsp": 225}}))
    ch = load_characterization(p)
    assert ch.entries["Filter2D"] == (Fraction(1021, 2), 225)
    dfg = merge_characterization(load_dfg(datasets.path("conv2d.json")), ch)
    assert dfg.task("Filter2D").f_max_mhz == Fraction(1021, 2)


def test_dfg_to_dict_omits_absent_optionals():
    dfg = load_dfg(datasets.path("conv2d.json"))
    d = dfg_to_dict(dfg)
    assert "memory_bound_msps" not in d
    assert "ddg" not in d["tasks"][0]


def test_identifiers_are_shared_across_loads():
    # the json module makes a fresh str per value; the loader interns them
    text = datasets.path("optical.json").read_text()
    a, b = (dfg_from_dict(json.loads(text, parse_float=Fraction)) for _ in range(2))
    for ta, tb in zip(a.tasks, b.tasks):
        assert ta.name is tb.name
    names = {t.name: t.name for t in a.tasks}
    for c in a.channels:
        assert c.src is names[c.src] and c.dst is names[c.dst]
    ddgs = [t.ddg for t in a.tasks if t.ddg is not None]
    assert ddgs and any(d.deps for d in ddgs)
    for ddg in ddgs:
        ids = {op.id: op.id for op in ddg.ops}
        for d in ddg.deps:
            assert d.src is ids[d.src] and d.dst is ids[d.dst]


def test_str_subclass_names_load():
    class Name(str):
        pass

    data = {"tasks": [{"name": Name("Src"), "f_max_mhz": 100, "ii_min_base": 1,
                       "pipeline_depth": 1},
                      {"name": "Dst", "f_max_mhz": 100, "ii_min_base": 1,
                       "pipeline_depth": 1}],
            "channels": [{"from": Name("Src"), "to": Name("Dst")}],
            "device_dsp_total": 10}
    dfg = dfg_from_dict(data)
    assert dfg.task_names == ("Src", "Dst")
    assert dfg.channels[0].src == "Src" and dfg.channels[0].dst == "Dst"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_rejected_in_model(bad):
    with pytest.raises(ValidationError, match="expected a finite number"):
        Task(name="A", f_max_mhz=bad, ii_min_base=1, pipeline_depth=1)
    with pytest.raises(ValidationError, match="expected a finite number"):
        Op("a", "mul", delay_ns=bad)
    with pytest.raises(ValidationError, match="expected a finite number"):
        Dfg([Task(name="A", f_max_mhz=100, ii_min_base=1, pipeline_depth=1)], [], 10, bad)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_in_files_name_the_field(tmp_path, literal):
    # the json module reads these literals as floats; no file may carry them
    p = tmp_path / "bad.json"
    d = _two_task_dict([])
    d["tasks"][0]["f_max_mhz"] = "@"
    p.write_text(json.dumps(d).replace('"@"', literal))
    with pytest.raises(ParseError) as e:
        load_dfg(p)
    assert str(e.value) == "tasks[0].f_max_mhz: expected a finite number"

    d = _two_task_dict([])
    d["memory_bound_msps"] = "@"
    d["tasks"][1] = {"name": "B", "f_max_mhz": 300,
                     "ddg": {"ops": [{"id": "a", "class": "mul", "delay_ns": 1}]}}
    p.write_text(json.dumps(d).replace('"@"', literal))
    with pytest.raises(ParseError, match=r"^\$\.memory_bound_msps: expected a finite number$"):
        load_dfg(p)
    d["memory_bound_msps"] = 100
    d["tasks"][1]["ddg"]["ops"][0]["delay_ns"] = "@"
    p.write_text(json.dumps(d).replace('"@"', literal))
    with pytest.raises(ParseError, match=r"^tasks\[1\]\.ddg\.ops\[0\]\.delay_ns: expected a fin"):
        load_dfg(p)

    p.write_text('{"Filter2D": {"f_max_mhz": %s, "n_op_dsp": 225}}' % literal)
    with pytest.raises(ParseError, match=r"^Filter2D\.f_max_mhz: expected a finite number$"):
        load_characterization(p)


def _graph(task=(), **top):
    """A one-task graph description, with task fields and top-level fields overridden."""
    rec = {"name": "A", "f_max_mhz": 100, "ii_min_base": 1, "pipeline_depth": 1, **dict(task)}
    return {"tasks": [rec], "device_dsp_total": 8, **top}


def _task(**kw):
    return Task(**{"name": "A", "f_max_mhz": 100, "ii_min_base": 1, "pipeline_depth": 1, **kw})


def _characterization(tmp_path, data):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(data))
    return load_characterization(path)


OP = {"id": "a", "class": "add", "delay_ns": 1}

# (call with tmp_path, exception type, exact message; {path} is the file written)
INPUT_CHECKS = {
    "empty task name": (lambda tmp: _task(name=""), ValidationError, "task name must be non-empty"),
    "zero f_max": (
        lambda tmp: _task(f_max_mhz=0), ValidationError, "task A: f_max_mhz must be positive"
    ),
    "zero memory bound": (
        lambda tmp: Dfg([_task()], [], 8, memory_bound_msps=0),
        ValidationError,
        "memory_bound_msps must be positive",
    ),
    "unknown task lookup": (
        lambda tmp: Dfg([_task()], [], 8).task("Z"), ValidationError, "unknown task: Z"
    ),
    "non-positive base clock": (
        lambda tmp: load_dfg(datasets.path("conv2d.json"), f_base_mhz=0),
        ValidationError,
        "f_base_mhz must be positive",
    ),
    "channel from unknown task": (
        lambda tmp: Dfg([_task()], [Channel("Z", "A")], 8),
        ValidationError,
        "channel names unknown task: Z",
    ),
    "top level": (lambda tmp: dfg_from_dict([]), ParseError, "top level must be an object"),
    "task record": (
        lambda tmp: dfg_from_dict({**_graph(), "tasks": [1]}),
        ParseError,
        "tasks[0]: expected an object",
    ),
    "channels array": (
        lambda tmp: dfg_from_dict(_graph(channels=1)), ParseError, "channels: expected an array"
    ),
    "channel record": (
        lambda tmp: dfg_from_dict(_graph(channels=[1])),
        ParseError,
        "channels[0]: expected an object",
    ),
    "ddg record": (
        lambda tmp: dfg_from_dict(_graph({"ddg": 1})),
        ParseError,
        "tasks[0].ddg: expected an object",
    ),
    "op record": (
        lambda tmp: dfg_from_dict(_graph({"ddg": {"ops": [1]}})),
        ParseError,
        "tasks[0].ddg.ops[0]: expected an object",
    ),
    "deps array": (
        lambda tmp: dfg_from_dict(_graph({"ddg": {"ops": [OP], "deps": 1}})),
        ParseError,
        "tasks[0].ddg.deps: expected an array",
    ),
    "dep record": (
        lambda tmp: dfg_from_dict(_graph({"ddg": {"ops": [OP], "deps": [1]}})),
        ParseError,
        "tasks[0].ddg.deps[0]: expected an object",
    ),
    "dep field": (
        lambda tmp: dfg_from_dict(
            _graph({"ddg": {"ops": [OP], "deps": [{"from": "a", "to": "a"}]}})
        ),
        ParseError,
        "tasks[0].ddg.deps[0].dist: missing required field",
    ),
    "characterization file": (
        lambda tmp: _characterization(tmp, []),
        ParseError,
        "{path}: characterization must be an object",
    ),
    "characterization entry": (
        lambda tmp: _characterization(tmp, {"A": 1}),
        ParseError,
        "A: expected an object with f_max_mhz and n_op_dsp",
    ),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_checks(case, tmp_path):
    call, exc, message = INPUT_CHECKS[case]
    with pytest.raises(exc) as e:
        call(tmp_path)
    assert type(e.value) is exc
    assert str(e.value) == message.format(path=tmp_path / "ch.json")
