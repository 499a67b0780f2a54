"""The benchmark's workloads: inputs, one op, and the check of its output.

Every workload has the same shape.  ``generate`` draws the inputs from a
seeded ``random.Random``; ``setup_spec`` names what a fresh interpreter
must load before the inputs are ready; ``prepare`` loads them in this
process; ``run(i)`` is op ``i``, the only code inside the timed region;
``check`` decides afterwards which ops produced a correct output.  The
references the checks use do not come from the code under test: the
brute-force oracles of ``tests/oracles.py``, the plan arithmetic written
out here, and the published conv2d numbers.

Each layer call is wrapped in ``tr.span(<layer>.<function>)`` so that a
traced run can attribute op time to layers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen
from pumpwise import (
    SimConfig,
    bind,
    compute_throughput,
    critical_cycle,
    default_warmup,
    dfg_from_dict,
    load_dfg,
    make_plan,
    min_ii,
    op_latency_cycles,
    pipeline_depth,
    save_plan,
    simulate,
    sweep,
)
from pumpwise import datasets as bundled

STRATEGIES = ("base", "s-pump", "m-pump")


def load_graph(text: str, tr):
    # the package's own file reader parses decimals as exact rationals too
    data = json.loads(text, parse_float=Fraction)
    with tr.span("dfg.load"):
        dfg = dfg_from_dict(data)
        dfg.validate()
    return dfg


def plan_rate(plan) -> Fraction:
    """Bottleneck rate f/II of a plan, computed here rather than by the package."""
    return min(e.f_mhz / e.ii for e in plan.tasks.values())


class Workload:
    kind = ""
    # ops 0 .. exact_ops-1 always run; exact counts and digests cover them
    exact_ops = 1

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why
        self.ops: list = []

    def setup_spec(self) -> dict:
        return {"graphs": self.texts}

    def prepare(self, tr) -> None:
        pass

    def before(self, i: int) -> None:
        """Untimed preparation of op ``i``."""

    def check(self, results: list) -> list[bool]:
        """Whether each result (op ``i % len(ops)``) is a correct output."""
        return [not isinstance(r, BaseException) and self._check_one(i % len(self.ops), r)
                for i, r in enumerate(results)]

    def work(self, i: int, result) -> int:
        """Units of work op ``i`` did, for work_per_s."""
        return 1

    def exact(self, results: list) -> dict:
        """Counts and digests over the first ``exact_ops`` results."""
        return {}

    def trim_to_probe(self) -> None:
        """Shrink to the short slice a traced run of another workload probes."""
        raise NotImplementedError


# --- simulator --------------------------------------------------------------


class Sim(Workload):
    kind = "sim"

    def __init__(self, name, why, make_input, iterations, n_graphs):
        super().__init__(name, why)
        self.make_input = make_input
        self.iterations = iterations
        self.n_graphs = n_graphs
        self.exact_ops = min(n_graphs, 20) * len(STRATEGIES)

    def trim_to_probe(self) -> None:
        self.n_graphs = 2
        self.exact_ops = 2 * len(STRATEGIES)

    def generate(self, rng: random.Random) -> None:
        inputs = [self.make_input(rng, k) for k in range(self.n_graphs)]
        self.texts = [json.dumps(g) for g, _ in inputs]
        self.f_base = [f for _, f in inputs]

    def prepare(self, tr) -> None:
        self.dfgs = [load_graph(text, tr) for text in self.texts]
        for k, dfg in enumerate(self.dfgs):
            for s in STRATEGIES:
                with tr.span("planner.make_plan"):
                    plan = make_plan(dfg, self.f_base[k], s)
                cfg = SimConfig(self.iterations, default_warmup(dfg, plan))
                self.ops.append((k, plan, cfg))

    def run(self, i: int, tr):
        k, plan, cfg = self.ops[i]
        with tr.span("sim.simulate"):
            return simulate(self.dfgs[k], plan, cfg)

    def work(self, i, result) -> int:
        return self.ops[i][2].iterations

    def _check_one(self, i, r) -> bool:
        _, plan, cfg = self.ops[i]
        # back-pressure may only slow a graph down; picosecond rounding of
        # the periods accounts for at most 0.023 % above the nominal rate
        return (not getattr(r, "stalled", False)
                and all(n == cfg.iterations for n in r.firings.values())
                and r.throughput_msps <= plan_rate(plan) * Fraction(1001, 1000))

    def exact(self, results) -> dict:
        head = results[:self.exact_ops]
        digest = hashlib.sha256()
        err = Fraction(0)
        firings = 0
        events = 0
        has_events = True
        for i, r in enumerate(head):
            if isinstance(r, BaseException):
                continue
            k, plan, _ = self.ops[i]
            analytic = compute_throughput(self.dfgs[k], plan)
            err = max(err, abs(r.throughput_msps - analytic) / analytic)
            n = sum(r.firings.values())
            firings += n
            ev = getattr(r, "events_processed", None)
            if ev is None:
                has_events = False
            else:
                events += ev
            chans = [(c.src, c.dst, c.peak_occupancy, c.residual_tokens) for c in r.channels]
            digest.update(repr((str(r.throughput_msps), chans, sorted(r.firings.items()))).encode())
        out = {
            "model_err_max_pct": float(err * 100),
            "sim.digest": digest.hexdigest(),
            "sim.firings": firings,
        }
        if has_events and firings:
            # each firing is one completion plus one successful start attempt;
            # every further heap event is a start attempt that found no token,
            # no slot or an unexpired II
            out["sim.events_per_firing"] = events / firings
            out["sim.wasted_attempt_ratio"] = (events - 2 * firings) / events
        return out


# --- design-space exploration ------------------------------------------------


@dataclass
class DseResult:
    dfg: object
    analysis: dict
    rows: list
    plans: dict
    binds: dict


class Dse(Workload):
    kind = "dse"

    def __init__(self, name, why, n_graphs):
        super().__init__(name, why)
        self.n_graphs = n_graphs
        self.exact_ops = min(n_graphs, 10)
        self._oracle: dict = {}

    def trim_to_probe(self) -> None:
        self.n_graphs = self.exact_ops = 2

    def generate(self, rng: random.Random) -> None:
        inputs = [gen.dse_graph(rng, k) for k in range(self.n_graphs)]
        self.texts = [json.dumps(g) for g, _, _ in inputs]
        self.f_base = [f for _, f, _ in inputs]
        self.ranges = [r for _, _, r in inputs]
        self.ops = list(range(self.n_graphs))

    def run(self, i: int, tr) -> DseResult:
        f = self.f_base[i]
        dfg = load_graph(self.texts[i], tr)
        analysis = {}
        for t in dfg.tasks:
            if t.ddg is None:
                continue
            with tr.span("ii.min_ii"):
                ii = min_ii(t.ddg, f)
            with tr.span("ii.critical_cycle"):
                cyc = critical_cycle(t.ddg, f)
            with tr.span("ii.pipeline_depth"):
                depth = pipeline_depth(t.ddg, f)
            analysis[t.name] = (ii, cyc, depth)
        with tr.span("planner.sweep"):
            rows = sweep(dfg, *self.ranges[i])
        plans = {}
        binds = {}
        for s in STRATEGIES:
            with tr.span("planner.make_plan"):
                plans[s] = make_plan(dfg, f, s)
            with tr.span("binding.bind"):
                binds[s] = bind(dfg, plans[s])
        return DseResult(dfg, analysis, rows, plans, binds)

    def work(self, i, result) -> int:
        # design points: (base clock, strategy) pairs planned and bound
        return 3 * len(result.rows) + 3

    def oracle(self, i, dfg) -> dict:
        """Brute-force (min II, critical cycle) per DDG task at the analysis clock."""
        if i not in self._oracle:
            from oracles import oracle_critical_cycle, oracle_min_ii

            f = self.f_base[i]
            self._oracle[i] = {
                t.name: (oracle_min_ii(t.ddg, f), oracle_critical_cycle(t.ddg, f))
                for t in dfg.tasks if t.ddg is not None
            }
        return self._oracle[i]

    def _check_one(self, i, r: DseResult) -> bool:
        f = self.f_base[i]
        ref = self.oracle(i, r.dfg)
        if {name: a[:2] for name, a in r.analysis.items()} != ref:
            return False
        ii0 = {t.name: ref[t.name][0] if t.ddg is not None else t.ii_min_base
               for t in r.dfg.tasks}
        base = r.plans["base"]
        if any(e.m != 1 or e.f_mhz != f or e.ii != ii0[n] for n, e in base.tasks.items()):
            return False
        for s in ("s-pump", "m-pump"):
            p = r.plans[s]
            for t in r.dfg.tasks:
                e = p.tasks[t.name]
                if e.f_mhz > t.f_max_mhz:
                    return False
                # a pumped DSP task runs m times faster at an m times larger II
                if t.n_op_dsp > 0 and (e.f_mhz != e.m * f or e.ii != e.m * ii0[t.name]):
                    return False
            if plan_rate(p) < plan_rate(base):
                return False
        dsp = {s: sum(-(-t.n_op_dsp // r.plans[s].tasks[t.name].ii) for t in r.dfg.tasks)
               for s in STRATEGIES}
        if any(r.binds[s].total_dsp != dsp[s] for s in STRATEGIES):
            return False
        if not dsp["m-pump"] <= dsp["s-pump"] <= dsp["base"]:
            return False
        return bool(r.rows) and all(row.dsp_m_pump <= row.dsp_s_pump <= row.dsp_base
                                    for row in r.rows)

    def exact(self, results) -> dict:
        # share of sweep (task, clock) points whose quantized latency vector
        # the same task already had at an earlier clock of the sweep
        points = 0
        repeats = 0
        for i, r in enumerate(results[:self.exact_ops]):
            if isinstance(r, BaseException):
                continue
            lo, hi, step = self.ranges[i]
            clocks = [lo + j * step for j in range(int((hi - lo) / step) + 1)]
            for t in r.dfg.tasks:
                if t.ddg is None:
                    continue
                seen = set()
                for f in clocks:
                    vec = tuple(op_latency_cycles(op.delay_ns, f) for op in t.ddg.ops)
                    points += 1
                    repeats += vec in seen
                    seen.add(vec)
        return {"ii.repeat_vector_ratio": repeats / max(points, 1), "ii.sweep_points": points}


# --- command line -------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    wrote: bool  # every file the command should write exists afterwards


class Cli(Workload):
    kind = "cli"

    def __init__(self, name, why, root: Path, workdir: Path):
        super().__init__(name, why)
        self.probe_only = False
        self.root = root
        self.workdir = workdir

    def trim_to_probe(self) -> None:
        self.probe_only = True

    def generate(self, rng: random.Random) -> None:
        self.ops, self.f_base = gen.cli_commands(rng, str(self.workdir))
        if self.probe_only:
            # each command kind once, on conv2d
            kinds = {kind: (kind, ds, argv) for kind, ds, argv in self.ops if ds == "conv2d.json"}
            self.ops = list(kinds.values())
        self.exact_ops = len(self.ops)

    def setup_spec(self) -> dict:
        return {"datasets": list(gen.DATASETS)}

    def prepare(self, tr) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.task_names = {}
        for ds in gen.DATASETS:
            with tr.span("dfg.load"):
                dfg = load_dfg(bundled.path(ds))
            self.task_names[ds] = [t.name for t in dfg.tasks]
            # the plan each simulate command reads
            with tr.span("planner.make_plan"):
                plan = make_plan(dfg, self.f_base[ds], "m-pump")
            save_plan(plan, self.workdir / f"{ds.removesuffix('.json')}.sim.plan")

    def outputs(self, i: int) -> list[Path]:
        """Files command ``i`` must write."""
        kind, _, argv = self.ops[i]
        if kind == "optimize":
            return [Path(argv[argv.index("--out") + 1])]
        if kind == "report":
            out = Path(argv[argv.index("--out") + 1])
            return [out / name for name in REPORT_FILES]
        return []

    def before(self, i: int) -> None:
        # remove what the command is about to write, so the check sees new files
        for p in self.outputs(i):
            p.unlink(missing_ok=True)

    def run(self, i: int, tr) -> CliResult:
        kind, _, argv = self.ops[i]
        with tr.span(f"cli.{kind}"):
            proc = subprocess.run(
                [sys.executable, "-m", "pumpwise.cli", *argv],
                cwd=self.root, env=child_env(self.root),
                capture_output=True, text=True, timeout=30,
            )
        return CliResult(proc.returncode, proc.stdout, all(p.is_file() for p in self.outputs(i)))

    def _check_one(self, i, r: CliResult) -> bool:
        kind, ds, _ = self.ops[i]
        if r.code != 0 or not r.wrote:
            return False
        if kind == "analyze":
            return all(name in r.stdout for name in self.task_names[ds])
        if kind == "sweep" and ds == "conv2d.json":
            return CONV2D_165_ROW in r.stdout.splitlines()
        return True


REPORT_FILES = ("summary.txt", "sweep.csv", "simcheck.csv",
                "plan-base.json", "plan-s-pump.json", "plan-m-pump.json")
# the published conv2d result at 165 MHz: 62.5 / 31.39 / 20.83 % of 360 DSPs
CONV2D_165_ROW = "165,225,113,75,62.50,31.39,20.83"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# --- registry -----------------------------------------------------------------

SIM_ITERATIONS = 2000


def workloads(root: Path, work: Path) -> dict:
    """Every workload by name, each with the reason it is in the benchmark."""
    all_ = [
        Sim("sim-shallow",
            "simulator under back-pressure: 1-3 deep FIFOs, reconvergent skips, coprime p/q clocks; a third of heap events are failed start attempts",
            gen.sim_shallow, SIM_ITERATIONS, 400),
        Dse("dse",
            "II engine and planner: DDG tasks without declared II, analyze + sweep + plan/bind per graph; memo, solver and validate-once show here, no simulation",
            300),
        Cli("cli",
            "terminal user: each command a fresh subprocess on the bundled datasets; interpreter start and import dominate; only workload for cli and import cost",
            root, work),
    ]
    return {w.name: w for w in all_}
