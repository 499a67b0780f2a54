"""Independent references the main algorithms are checked against.

The II references are deliberately naive: cycle enumeration by DFS and
direct ratio maximization over all simple cycles.  The simulator
reference is a discrete-event heap engine: it retries start attempts at
clock edges and wakes blocked tasks on FIFO events, so it reaches the
start times by another route than the package's start-time recurrence.
None of it shares code with the package's search or simulation
implementations.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from math import ceil
from pathlib import Path
from typing import Union

from pumpwise import ChannelReport, Dfg, PumpPlan, SimConfig, ValidationError


def quantized_latency(delay_ns, f_mhz) -> int:
    # duplicated on purpose: max(1, ceil(delay / period)) with period = 1000/f
    return max(1, ceil(Fraction(str(delay_ns)) * Fraction(str(f_mhz)) / 1000))


def min_dist_edges(ddg) -> dict:
    edges = {}
    for d in ddg.deps:
        k = (d.src, d.dst)
        if k not in edges or d.dist < edges[k]:
            edges[k] = d.dist
    return edges


def enumerate_simple_cycles(nodes, edges) -> list[list[str]]:
    """All simple cycles, each rotated to start at its smallest node."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    for vs in adj.values():
        vs.sort()
    cycles = []

    def dfs(start, u, path, onpath):
        for v in adj.get(u, ()):
            if v == start:
                cycles.append(path[:])
            elif v > start and v not in onpath:
                onpath.add(v)
                path.append(v)
                dfs(start, v, path, onpath)
                path.pop()
                onpath.discard(v)

    for s in sorted(nodes):
        dfs(s, s, [s], {s})
    return cycles


def max_ratio(ddg, f_mhz):
    """(best ratio, cycles attaining it) or (None, []) for an acyclic DDG."""
    lat = {op.id: quantized_latency(op.delay_ns, f_mhz) for op in ddg.ops}
    edges = min_dist_edges(ddg)
    best = None
    winners = []
    for cyc in enumerate_simple_cycles(list(lat), edges):
        total_lat = sum(lat[v] for v in cyc)
        total_dist = sum(edges[(cyc[i], cyc[(i + 1) % len(cyc)])] for i in range(len(cyc)))
        r = Fraction(total_lat, total_dist)
        if best is None or r > best:
            best = r
            winners = [cyc]
        elif r == best:
            winners.append(cyc)
    return best, winners


def oracle_min_ii(ddg, f_mhz) -> int:
    best, _ = max_ratio(ddg, f_mhz)
    if best is None:
        return 1
    return max(1, ceil(best))


def oracle_critical_cycle(ddg, f_mhz) -> list[str]:
    best, winners = max_ratio(ddg, f_mhz)
    assert best is not None
    return min(winners)


def oracle_toposort(nodes, edges) -> tuple[list | None, list | None]:
    """(topological order, None), or (None, a cycle from its smallest node), by ``graphlib``.

    ``TopologicalSorter.static_order`` fixes the order among ready nodes
    and the cycle it reports; the package's own sort must give both.
    """
    ts = TopologicalSorter({v: () for v in nodes})
    for u, v in edges:
        ts.add(v, u)
    try:
        return list(ts.static_order()), None
    except CycleError as e:
        cycle = e.args[1][:-1]
        k = cycle.index(min(cycle))
        return None, cycle[k:] + cycle[:k]


# --- plans -----------------------------------------------------------------


def oracle_plan_covers(dfg: Dfg, plan: PumpPlan) -> bool:
    """Every task is planned, no other is, and each runs at or below its f_max."""
    return set(plan.tasks) == {t.name for t in dfg.tasks} and all(
        plan.tasks[t.name].f_mhz <= t.f_max_mhz for t in dfg.tasks
    )


def _ii_min(t, f_mhz) -> int:
    return t.ii_min_base if t.ddg is None else oracle_min_ii(t.ddg, f_mhz)


def oracle_plan_ok(dfg: Dfg, plan: PumpPlan) -> bool:
    """Whether a plan keeps the pumping identities README states for its strategy.

    The plan covers the graph within every f_max.  ``custom`` runs each
    task at any such clock f with II >= II_min(f) and any m.  Every other
    strategy has II = m·II_min(f_base): ``base`` runs every task at m = 1
    and f_base; ``m-pump`` runs each at m·f_base; ``s-pump`` runs all at
    one clock s·f_base for a whole s >= 1, with m = s on DSP tasks and
    m = 1 elsewhere.
    """
    f_base = plan.kernel_base_clock_mhz
    if not oracle_plan_covers(dfg, plan):
        return False
    clocks = {e.f_mhz for e in plan.tasks.values()}
    shared = clocks.pop() / f_base if len(clocks) == 1 else None
    for t in dfg.tasks:
        e = plan.tasks[t.name]
        if plan.strategy == "custom":
            ok = e.ii >= _ii_min(t, e.f_mhz)
        elif e.ii != e.m * _ii_min(t, f_base):
            ok = False
        elif plan.strategy == "base":
            ok = e.m == 1 and e.f_mhz == f_base
        elif plan.strategy == "m-pump":
            ok = e.f_mhz == e.m * f_base
        else:
            ok = (shared is not None and shared.denominator == 1 and shared >= 1
                  and e.m == (shared if t.n_op_dsp > 0 else 1))
        if not ok:
            return False
    return True


# --- simulator -------------------------------------------------------------

PS_PER_MICROSECOND = 10**6


@dataclass(frozen=True)
class OracleReport:
    throughput_msps: Fraction
    channels: tuple
    firings: dict
    stalled: bool
    stall_task: str | None
    stall_time_ps: int | None
    events_processed: int


def oracle_simulate(
    dfg: Dfg,
    plan: PumpPlan,
    cfg: SimConfig,
    trace_path: Union[str, Path, None] = None,
) -> OracleReport:
    """``pumpwise.simulate`` by discrete events; reports stalls and event counts too.

    Events are processed in the order (time, task index, completion
    before start attempt) from one heap.  A start attempt that finds no
    token, no slot or an unexpired II is dropped, and the blocked task is
    woken by the event that unblocks it.
    """
    if not oracle_plan_covers(dfg, plan):
        raise ValidationError("plan does not cover the graph within every f_max")
    iterations = cfg.iterations
    warmup = cfg.warmup
    if not isinstance(iterations, int) or iterations < 1:
        raise ValidationError("iterations must be a positive integer")
    if not isinstance(warmup, int) or warmup < 0 or warmup >= iterations:
        raise ValidationError("warmup must satisfy 0 <= warmup < iterations")

    ntasks = len(dfg.tasks)
    names = [t.name for t in dfg.tasks]
    index = {n: i for i, n in enumerate(names)}
    period = []
    ii_ps = []
    pd_ps = []
    for t in dfg.tasks:
        entry = plan.tasks[t.name]
        p = round(Fraction(PS_PER_MICROSECOND) / entry.f_mhz)
        period.append(p)
        ii_ps.append(p * entry.ii)
        pd_ps.append(p * t.pipeline_depth_at(entry.f_mhz))

    nchan = len(dfg.channels)
    prod = [index[c.src] for c in dfg.channels]
    cons = [index[c.dst] for c in dfg.channels]
    depth = [c.depth for c in dfg.channels]
    in_ch = [[] for _ in range(ntasks)]
    out_ch = [[] for _ in range(ntasks)]
    for c in range(nchan):
        out_ch[prod[c]].append(c)
        in_ch[cons[c]].append(c)
    in_ch = [tuple(v) for v in in_ch]
    out_ch = [tuple(v) for v in out_ch]
    is_source = [not in_ch[i] for i in range(ntasks)]
    is_sink = [not out_ch[i] for i in range(ntasks)]

    occ = [0] * nchan
    res = [0] * nchan
    peak = [0] * nchan
    wait_tok = [False] * nchan
    wait_slot = [False] * nchan
    started = [0] * ntasks
    completed = [0] * ntasks
    earliest = [0] * ntasks
    next_attempt = [0] * ntasks
    t_warm = [0] * ntasks
    t_last = [0] * ntasks
    last_i = -1
    last_t = 0
    nevents = 0

    tf = open(trace_path, "w") if trace_path is not None else None
    try:
        if tf:
            tf.write("time_ps,task,kind,iteration\n")
        K = ntasks
        events = [i * 2 + 1 for i in range(ntasks)]  # every task attempts at t = 0
        heapq.heapify(events)
        heappush = heapq.heappush
        heappop = heapq.heappop

        while events:
            ev = heappop(events)
            nevents += 1
            kind = ev & 1
            q = ev >> 1
            t = q // K
            i = q - t * K

            if kind == 0:
                # completion: fill the reserved slot in every output FIFO
                completed[i] += 1
                for c in out_ch[i]:
                    res[c] -= 1
                    o = occ[c] + 1
                    occ[c] = o
                    assert o <= depth[c], "FIFO overflow"
                    if o > peak[c]:
                        peak[c] = o
                    if wait_tok[c]:
                        wait_tok[c] = False
                        j = cons[c]
                        pj = period[j]
                        target = -(-t // pj) * pj
                        ej = earliest[j]
                        if target < ej:
                            target = ej
                        na = next_attempt[j]
                        if na < 0 or target < na:
                            next_attempt[j] = target
                            heappush(events, (target * K + j) * 2 + 1)
                if tf:
                    tf.write(f"{t},{names[i]},complete,{completed[i] - 1}\n")
                continue

            # start attempt
            next_attempt[i] = -1
            if is_source[i] and started[i] >= iterations:
                continue
            est = earliest[i]
            if est > t:
                # woken before the ii spacing expired; re-arm at the edge
                na = next_attempt[i]
                if na < 0 or est < na:
                    next_attempt[i] = est
                    heappush(events, (est * K + i) * 2 + 1)
                continue
            blocked = False
            for c in in_ch[i]:
                if occ[c] == 0:
                    wait_tok[c] = True
                    blocked = True
                    break
            if not blocked:
                for c in out_ch[i]:
                    if occ[c] + res[c] >= depth[c]:
                        wait_slot[c] = True
                        blocked = True
                        break
            if blocked:
                continue

            # fire: pop inputs, reserve output slots, schedule the completion
            for c in in_ch[i]:
                o = occ[c] - 1
                occ[c] = o
                assert o >= 0, "FIFO underflow"
                if wait_slot[c]:
                    wait_slot[c] = False
                    j = prod[c]
                    pj = period[j]
                    target = -(-t // pj) * pj
                    ej = earliest[j]
                    if target < ej:
                        target = ej
                    na = next_attempt[j]
                    if na < 0 or target < na:
                        next_attempt[j] = target
                        heappush(events, (target * K + j) * 2 + 1)
            for c in out_ch[i]:
                res[c] += 1
            k = started[i]
            started[i] = k + 1
            earliest[i] = t + ii_ps[i]
            heappush(events, ((t + pd_ps[i]) * K + i) * 2)
            last_i = i
            last_t = t
            if is_sink[i]:
                sc = started[i]
                if sc == warmup:
                    t_warm[i] = t
                if sc == iterations:
                    t_last[i] = t
            if not (is_source[i] and started[i] >= iterations):
                nt = earliest[i]
                na = next_attempt[i]
                if na < 0 or nt < na:
                    next_attempt[i] = nt
                    heappush(events, (nt * K + i) * 2 + 1)
            if tf:
                tf.write(f"{t},{names[i]},start,{k}\n")
    finally:
        if tf:
            tf.close()

    sinks = [i for i in range(ntasks) if is_sink[i]]
    finished = all(started[i] >= iterations for i in sinks)
    if finished:
        # the graph's k-th iteration is done when its last sink consumes it
        window_end = max(t_last[i] for i in sinks)
        window_start = max(t_warm[i] for i in sinks) if warmup > 0 else 0
        throughput = Fraction(
            (iterations - warmup) * PS_PER_MICROSECOND, window_end - window_start
        )
        stalled = False
        stall_task = None
        stall_time = None
    else:
        throughput = Fraction(0)
        stalled = True
        stall_task = names[last_i] if last_i >= 0 else None
        stall_time = last_t if last_i >= 0 else None

    assert all(r == 0 for r in res), "reserved slots left unfilled"
    channels = tuple(
        ChannelReport(dfg.channels[c].src, dfg.channels[c].dst, peak[c], occ[c])
        for c in range(nchan)
    )
    return OracleReport(
        throughput_msps=throughput,
        channels=channels,
        firings={names[i]: started[i] for i in range(ntasks)},
        stalled=stalled,
        stall_task=stall_task,
        stall_time_ps=stall_time,
        events_processed=nevents,
    )
