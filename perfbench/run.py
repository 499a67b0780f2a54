"""Seeded benchmark for pumpwise: simulator, design-space exploration and CLI.

    python3 perfbench/run.py --workload sim-shallow --seed 1 --seconds 35 --trace 0

Run it from the repository root; the package is imported from ``src/`` and
need not be installed.  One client runs ops back to back (a closed loop) in
this process; the ``cli`` workload runs each op as a fresh subprocess.

Every metric is printed by name with its unit; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` its metrics are the end-to-end ones, measured untraced.  With
``--trace 1`` the ops of one untraced half-run are repeated with a span
recorded around every call into a layer; the spans are written to
``perfbench/out/`` and the metrics are the per-layer ones.  See README.md
for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
LAYERS = ("dfg", "ii", "planner", "binding", "sim", "cli")
CLI_KINDS = ("analyze", "optimize", "sweep", "simulate", "report")


# --- tracing -------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent index, op id) kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


class NullTracer:
    op = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null


# --- measurement ---------------------------------------------------------------


def setup_times(w, spec_path: Path) -> list[dict]:
    """Fresh interpreters until the inputs are loaded and validated.

    Each probe reports its own import and load times; the wall time from
    spawning it to its "ready" line is the set-up time.
    """
    from workloads import child_env

    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(spec_path)],
                              cwd=ROOT, env=child_env(ROOT), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            rest = proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not line:
                raise RuntimeError(f"set-up probe failed: {line}{rest}")
        rec = json.loads(line)
        rec["setup_s"] = wall
        out.append(rec)
    return out


def run_ops(w, tr, seconds: float, min_ops: int, count: int | None = None):
    """Closed loop over w's ops, cycling; returns (durations, results).

    Runs ``count`` ops when given, else at least ``min_ops`` and until
    ``seconds`` have passed.
    """
    durs = []
    results = []
    n = len(w.ops)
    deadline = time.perf_counter() + seconds
    i = 0
    while (i < count) if count is not None else (i < min_ops or time.perf_counter() < deadline):
        w.before(i % n)
        tr.op = i
        t0 = time.perf_counter()
        try:
            with tr.span(f"op.{w.kind}"):
                r = w.run(i % n, tr)
        except Exception as e:  # a failed op counts against fail_ratio
            if not any(isinstance(x, Exception) for x in results):
                traceback.print_exc()
            r = e
        durs.append(time.perf_counter() - t0)
        results.append(r)
        i += 1
    return durs, results


def tail(durs: list[float]) -> tuple[float, float]:
    """Highest percentile of TAIL_PERCENTILES with at least 10 samples beyond it."""
    xs = sorted(durs)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        if n - ceil(p / 100 * n) >= 10:
            return p, xs[ceil(p / 100 * n) - 1]
    return 100.0, xs[-1]


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


# --- per-layer metrics from spans ------------------------------------------------


def span_durations(spans, name: str, primary: bool) -> list[float]:
    return [end - start for n, start, end, _, op in spans
            if n == name and (op != "probe") == primary]


def layer_durations(spans, name: str) -> list[float]:
    """Durations of ``name`` spans from the workload itself, else from the probes."""
    return span_durations(spans, name, True) or span_durations(spans, name, False)


def self_pct(spans) -> dict:
    """Self time of each layer as a share of the traced ops' time, in %."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    total = 0.0
    per = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for idx, (name, start, end, parent, op) in enumerate(spans):
        if not isinstance(op, int):
            continue
        own = end - start - child[idx]
        if name.startswith("op."):
            total += end - start
            per["bench"] += own
        else:
            per[name.split(".")[0]] += own
    return {f"{k}.self_pct": 100 * v / total for k, v in per.items()}


def layer_metrics(spans, exact: dict, setups: list[dict], overhead_pct: float) -> dict:
    def med(name, scale):
        return statistics.median(layer_durations(spans, name)) * scale

    sweep_s = sum(layer_durations(spans, "planner.sweep"))
    m = {
        "dfg.load_ms": med("dfg.load", 1e3),
        "ii.min_ii_us": med("ii.min_ii", 1e6),
        "ii.critical_cycle_ms": med("ii.critical_cycle", 1e3),
        "ii.pipeline_depth_us": med("ii.pipeline_depth", 1e6),
        "ii.repeat_vector_ratio": exact["ii.repeat_vector_ratio"],
        "planner.make_plan_us": med("planner.make_plan", 1e6),
        "planner.sweep_ms_per_row": 1e3 * sweep_s / exact["dse.sweep_rows"],
        "binding.bind_us": med("binding.bind", 1e6),
        "sim.us_per_firing": 1e6 * sum(layer_durations(spans, "sim.simulate"))
        / exact["sim.traced_firings"],
        "sim.events_per_firing": exact.get("sim.events_per_firing", 0.0),
        "sim.wasted_attempt_ratio": exact.get("sim.wasted_attempt_ratio", 0.0),
        "cli.import_ms": statistics.median(s["import_ms"] for s in setups),
    }
    for kind in CLI_KINDS:
        m[f"cli.{kind}_ms"] = med(f"cli.{kind}", 1e3)
    m["trace.overhead_pct"] = overhead_pct
    m.update(self_pct(spans))
    return m


# --- entry point -----------------------------------------------------------------


def probe(w, tr, all_workloads, seed: int) -> dict:
    """Traced calls into the layers that ``w``'s own ops never reach.

    A short slice of each other kind of workload runs after the timed part,
    so that every traced run reports every layer metric; its spans carry
    the op id "probe" and count neither as ops nor toward the overhead.
    """
    exact = {}
    tr.op = "probe"
    for other in ("sim-shallow", "dse", "cli"):
        p = all_workloads[other]
        if p.kind == w.kind:
            continue
        p.trim_to_probe()
        p.generate(random.Random(f"probe-{seed}"))
        p.prepare(tr)
        results = []
        for i in range(len(p.ops)):
            p.before(i)
            results.append(p.run(i, tr))
        if not all(p.check(results)):
            raise RuntimeError(f"probe slice of {other} produced a wrong output")
        exact.update(traced_exact(p, results))
    return exact


def traced_exact(w, results) -> dict:
    """Exact counts of a traced run that the per-layer metrics divide by."""
    out = w.exact(results)
    results = [r for r in results if not isinstance(r, Exception)]
    if w.kind == "sim":
        out["sim.traced_firings"] = sum(sum(r.firings.values()) for r in results)
    if w.kind == "dse":
        out["dse.sweep_rows"] = sum(len(r.rows) for r in results)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pumpwise" / "__init__.py").is_file():
        print("error: run from the repository root; src/pumpwise not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    all_workloads = workloads.workloads(ROOT, OUT / f"cli-{tag}")
    if args.workload not in all_workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(all_workloads)}", file=sys.stderr)
        return 1
    w = all_workloads[args.workload]

    w.generate(random.Random(args.seed))
    spec_path = OUT / f"inputs-{tag}.json"
    spec_path.write_text(json.dumps(w.setup_spec()))
    setups = setup_times(w, spec_path)

    tr = Tracer() if args.trace else NullTracer()
    w.prepare(tr)
    # one untimed op first, so that lazy imports and file caches are warm
    w.before(0)
    w.run(0, NullTracer())

    if args.trace:
        # the same ops twice: untraced for the overhead baseline, then traced
        plain_durs, _ = run_ops(w, NullTracer(), args.seconds / 2, w.exact_ops)
        durs, results = run_ops(w, tr, 0, 0, count=len(plain_durs))
    else:
        durs, results = run_ops(w, tr, args.seconds, w.exact_ops)
    ok = w.check(results)
    exact = w.exact(results)
    n = len(results)
    failed = n - sum(ok)

    print(f"workload {w.name}: {w.why}")
    print(f"seed {args.seed}, {n} ops, {failed} failed")
    if args.trace:
        counts = {**probe(w, tr, all_workloads, args.seed), **traced_exact(w, results)}
        tr.write(OUT / f"spans-{tag}.jsonl")
        overhead = 100 * (sum(durs) - sum(plain_durs)) / sum(plain_durs)
        metrics = layer_metrics(tr.spans, counts, setups, overhead)
        for k, v in metrics.items():
            print(f"{k:28s} {v:.6g} {units[k]}")
    else:
        p, tail_s = tail(durs)
        # work per second of op time
        rate = sum(w.work(i % len(w.ops), r) for i, r in enumerate(results) if ok[i]) / sum(durs)
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "op_p50_ms": statistics.median(durs) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "work_per_s": rate,
        }
        for k, v in metrics.items():
            note = f"  (p{p:g} of {n} ops)" if k == "op_tail_ms" else ""
            print(f"{k:28s} {v:.6g} {units[k]}{note}")
        # the same figures under the workload's own names, and the ones that
        # cannot carry a relative bound because they can be 0 or are exact
        throughput = {"sim": "sim_iters_per_s", "dse": "dse_points_per_s", "cli": "cli_cmds_per_s"}
        print(f"{throughput[w.kind]:28s} {rate:.6g} 1/s")
        print(f"{'fail_ratio':28s} {failed / n:.6g} ratio")
        if "model_err_max_pct" in exact:
            print(f"{'model_err_max_pct':28s} {exact['model_err_max_pct']:.6g} %")
    print(f"exact counts over the first {w.exact_ops} ops:")
    for k, v in exact.items():
        print(f"  {k:26s} {v}")
    if w.kind == "sim" and "sim.events_per_firing" not in exact:
        print("  sim.events_processed       absent")
    report = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
