"""Multi-clock dataflow simulation by an exact start-time recurrence.

Each task is a pipelined actor on its own clock; channels are
depth-bounded FIFOs with independent read and write clocks.  A task
starts an iteration at a local clock edge when at least ii local cycles
have passed since its previous start, every input channel holds a token,
and every output channel has a free slot net of reservations.  Inputs
are popped at start, a slot is reserved per output at start, and outputs
are pushed pipeline_depth local cycles later.  Every task fires exactly
``iterations`` times; sink starts are the consumption times the
throughput measurement is taken from.

These rules make the graph a timed marked graph, whose start times obey
a max-plus recurrence (Baccelli et al., *Synchronization and Linearity*,
1992).  The k-th start of task i is the first edge of i's clock at or
after the latest of

* its own start k-1 plus ii periods (the II spacing),
* the start k of each producer plus the producer's pipeline depth (the
  input token), and
* the start k-d of each consumer behind a FIFO of depth d (the free slot).

Every term refers to an earlier iteration or an upstream task, so tasks
are computed once each, in topological order inside each iteration: no
start is retried and no acyclic graph can stall.  The state is each
task's previous start, its latest completion (one token for all its
consumers) and, if it has inputs, a window of its last D starts, D its
deepest input FIFO, so without a trace memory does not grow with
``iterations``.

A depth-d FIFO's occupancy right after a completion pushes its token is
that token plus one per start among its consumer's d - 1 newest that
comes at or after the completion.  Every peak is at least 1, since each
producer's first completion leaves a token, and the starts are in
ascending order, so the occupancy is counted only when the consumer's
newest start is at or after the completion.

The timeline is integer picoseconds with clock periods rounded to the
nearest picosecond, ties to even.  An event has a key, 2*i for a
completion of task i and 2*i + 1 for a start, and the events of one
picosecond run smallest key first among those not waiting: a start of
iteration k waits for the same-time events that give it a token or a
slot, (2*p, k) for each producer p and (2*j + 1, k - d) for each
consumer j behind a FIFO of depth d.  A picosecond's order thus follows
from its (key, iteration offset) pairs alone.  FIFO peaks and the trace
follow this order, so a simulation is deterministic down to the bit.

A timed marked graph becomes periodic after a transient: the state after
iteration k + c is the state after iteration k shifted by a time T.
Every clock edge is a multiple of its period, so a shift by a multiple
of L, the lcm of all periods, changes no edge rounding and no tie key.
The search shifts the state after each iteration down by such a
multiple and compares it with one saved checkpoint (Brent's cycle
finding), so it needs O(state) memory.  A repeat between iterations k
and k + c gives T as the difference of the two shifts, and the
simulation stops there: the sinks' latest start after any later
iteration is the one at the same place in the period, plus one T per
whole period, so both ends of the measurement window follow from (c, T)
after fewer than c more iterations.  FIFO peaks cannot rise once the
state repeats.  No repeat can occur before task 0 starts at or after L,
and the search gives up after ``REPEAT_SEARCH_ITERATIONS`` iterations,
so runs without a repeat (mostly multi-clock plans whose rounded periods
have a huge lcm) cost what the plain loop costs.  A trace's later starts
are the last period's starts, shifted by T per period.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from fractions import Fraction
from itertools import chain
from math import lcm
from pathlib import Path
from typing import Union

from .binding import _check_coverage
from .codec import _fmt_g, _Record, as_fraction, is_int
from .dfg import Dfg
from .errors import SimulationError, ValidationError
from .planner import PumpPlan, check_plan

PS_PER_MICROSECOND = 10**6
MAX_CLOCK_MHZ = 10**6  # 1 THz: faster clocks round to a zero-ps period
# iterations after which the search for a periodic regime gives up
REPEAT_SEARCH_ITERATIONS = 1024
TRACE_CHUNK = 1 << 14  # trace lines formatted per write


class SimConfig(_Record):
    """Measurement window: total tokens to emit and tokens excluded up front.

    The timeline unit is fixed at integer picoseconds.  Validated when built.
    """

    __slots__ = _fields = ("iterations", "warmup")

    def __init__(self, iterations: int, warmup: int = 0):
        if not is_int(iterations, 1):
            raise ValidationError("iterations must be a positive integer")
        if not is_int(warmup, 0) or warmup >= iterations:
            raise ValidationError("warmup must satisfy 0 <= warmup < iterations")
        self._store(iterations, warmup)


# ChannelReport and SimReport's ``channels`` and ``firings`` restate ``peaks``
# and ``iterations`` per channel and task; nothing in the package reads them,
# and they stay only because the benchmark harness in ``perfbench/`` does.
class ChannelReport(_Record):
    __slots__ = _fields = ("src", "dst", "peak_occupancy", "residual_tokens")


class SimReport(_Record):
    """What a run measured: the rate and one FIFO peak per channel of ``dfg``."""

    __slots__ = _fields = ("throughput_msps", "peaks", "iterations", "dfg")
    _hidden = ("dfg",)

    @property
    def channels(self) -> tuple[ChannelReport, ...]:
        # every task fires ``iterations`` times, so no token is left over
        return tuple(
            ChannelReport(c.src, c.dst, peak, 0) for c, peak in zip(self.dfg.channels, self.peaks)
        )

    @property
    def firings(self) -> dict[str, int]:
        return {t.name: self.iterations for t in self.dfg.tasks}


def clock_period_ps(f_mhz) -> int:
    """Task-local clock period, rounded to the nearest picosecond, ties to even."""
    f = as_fraction(f_mhz)
    if f <= 0:
        raise ValidationError("clock frequency must be positive")
    return _period_ps(f)


def _period_ps(f: Fraction) -> int:
    """``round(10**6 / f)`` for a positive exact clock, in integer arithmetic."""
    n, d = f.numerator, f.denominator
    if n > MAX_CLOCK_MHZ * d:
        raise SimulationError(
            f"zero-period clock: {_fmt_g(f)} MHz exceeds the "
            f"{MAX_CLOCK_MHZ} MHz picosecond resolution limit"
        )
    q, r = divmod(PS_PER_MICROSECOND * d, n)
    # an exact half rounds to the even neighbour, as round() does
    if 2 * r > n or (2 * r == n and q & 1):
        q += 1
    return q


def default_warmup(dfg: Dfg, plan: PumpPlan) -> int:
    """Tokens to discard before measuring: covers the pipeline fill transient."""
    _check_coverage(dfg, plan)
    deepest = max(t.pipeline_depth_at(plan.tasks[t.name].f_mhz) for t in dfg.tasks)
    return max(100, 10 * deepest)


def simulate(
    dfg: Dfg,
    plan: PumpPlan,
    cfg: SimConfig,
    trace_path: Union[str, Path, None] = None,
) -> SimReport:
    """Check a plan as ``check_plan`` does, run it and measure steady-state throughput."""
    check_plan(dfg, plan)
    iterations, warmup = cfg.iterations, cfg.warmup

    ntasks = len(dfg.tasks)
    index = {t.name: i for i, t in enumerate(dfg.tasks)}
    period, ii_ps, pd_ps = [], [], []
    for t in dfg.tasks:
        entry = plan.tasks[t.name]
        p = _period_ps(entry.f_mhz)
        period.append(p)
        ii_ps.append(p * entry.ii)
        pd_ps.append(p * t.pipeline_depth_at(entry.f_mhz))

    # Times are scaled by K and carry a tie key below K, so that comparing
    # t*K + key also orders the events of one picosecond: a start's tie key
    # is the largest of its own and those of the same-time events it waits for.
    K = 2 * ntasks
    # each task q with inputs keeps a window of its last D starts, oldest
    # first, D its deepest input FIFO.  At a producer's start k, q has not
    # yet started k, so recent[q][-d] is q's start k-d; zeros are free slots
    depth = [0] * ntasks
    for ch in dfg.channels:
        q = index[ch.dst]
        depth[q] = max(depth[q], ch.depth)
    recent = [deque([0] * d, d) if d else None for d in depth]
    # per task its producers, each output's slot term (recent[q], -d) and the
    # outputs deeper than 1, the only FIFOs whose peak can exceed 1
    prods, slots, outs = ([[] for _ in range(ntasks)] for _ in range(3))
    for c, ch in enumerate(dfg.channels):
        p, q, d = index[ch.src], index[ch.dst], ch.depth
        prods[q].append(p)
        slots[p].append((recent[q], -d))
        if d > 1:
            outs[p].append((c, recent[q], d))
    sinks = [i for i in range(ntasks) if not slots[i]]
    # latest completion per task, read by its consumers later in the iteration
    token = [0] * ntasks
    # iterations >= 1 and every completion comes after time 0, so each
    # producer's first completion leaves one token in each of its FIFOs
    peak = [1] * len(dfg.channels)
    # the II term of start 0 is 0
    last = [-ii_ps[i] * K for i in range(ntasks)]
    history = [[] for _ in range(ntasks)] if trace_path is not None else None
    steps = [
        (
            i,
            period[i] * K,
            ii_ps[i] * K,
            pd_ps[i] * K + 2 * i,  # from a start to its completion, key 2*i
            2 * i + 1,
            tuple(prods[i]),
            tuple(slots[i]),
            tuple(outs[i]),
            None if recent[i] is None else recent[i].append,
            None if history is None else history[i].append,
        )
        for i in dfg.task_order
    ]
    done = 0
    window_start = 0

    def run(n):
        """Run n more iterations; the window opens after iteration ``warmup``."""
        nonlocal done, window_start
        if done < warmup <= done + n:
            _advance(steps, warmup - done, K, last, token, peak)
            n -= warmup - done
            done = warmup
            window_start = max(last[i] for i in sinks)
        _advance(steps, n, K, last, token, peak)
        done += n

    c = 0  # iterations per period of the repeat, 0 while none is known
    limit = min(iterations, REPEAT_SEARCH_ITERATIONS)
    L = lcm(*period) * K
    # no repeat before last[0] >= L, and last[0] grows by at least
    # ii_ps[0]*K per iteration
    run(min(limit, (L - last[0]) // (ii_ps[0] * K) + 1))

    # ``token`` is rewritten by each producer before its consumers read
    # it, so the state is ``last`` and the windows, none of them empty
    def shifted(base):
        return [v - base for v in chain(last, *filter(None, recent))]

    power = 1
    ck_done = done
    ck_base = last[0] - last[0] % L
    ck_state = shifted(ck_base)
    while done < limit:
        run(1)
        res = last[0] % L
        base = last[0] - res
        if res == ck_state[0] and shifted(base) == ck_state:
            c, T = done - ck_done, base - ck_base
            break
        if done - ck_done == power:
            ck_done, ck_base, ck_state = done, base, shifted(base)
            power *= 2

    # the graph's k-th iteration is done when its last sink consumes it
    if c:
        # from d0 on, the state after k + c is the state after k shifted by
        # T, so the sinks' latest start after an iteration k >= d0 is the one
        # after d0 + (k - d0) % c, plus (k - d0) // c times T
        d0 = done
        ends = [max(last[i] for i in sinks)]
        for _ in range(max((k - d0) % c for k in (warmup, iterations) if k >= d0)):
            run(1)
            ends.append(max(last[i] for i in sinks))
        if warmup > d0:
            window_start = ends[(warmup - d0) % c] + (warmup - d0) // c * T
        window_end = ends[(iterations - d0) % c] + (iterations - d0) // c * T
        if history is not None:  # later periods repeat the last one's starts
            for h in history:
                tail = h[-c:]
                h.extend([tail[k % c] + (k // c + 1) * T for k in range(iterations - len(h))])
    else:
        run(iterations - done)
        window_end = max(last[i] for i in sinks)
    if window_end == window_start:
        raise SimulationError("measurement window has zero length")
    throughput = Fraction(
        (iterations - warmup) * PS_PER_MICROSECOND * K, window_end - window_start
    )
    if history is not None:
        _write_trace(trace_path, dfg, index, history, K, pd_ps)
    return SimReport(throughput, tuple(peak), iterations, dfg)


def _advance(steps, n, K, last, token, peak) -> None:
    """Run n iterations of the start-time recurrence."""
    for _ in range(n):
        for i, per, ii, pd, key, prods, slots, outs, push, record in steps:
            # the latest of the II spacing, each input token and each free slot w[nd]
            x = last[i] + ii
            for p in prods:
                if token[p] > x:
                    x = token[p]
            for w, nd in slots:
                y = w[nd]
                if y > x:
                    x = y
            # the first clock edge at or after it; the tie key survives only
            # when no rounding was needed
            r = x % per
            if r >= K:
                t = x - r + per
                x = t + key
            else:
                t = x - r
                if r < key:
                    x = t + key
            last[i] = t
            if push is not None:
                push(x)
            if record is not None:
                record(x)
            # FIFO occupancy right after this start's completion pushes its
            # token: that token plus one per consumer start k-d+1 .. k-1 that
            # comes later.  Every peak is at least 1, only FIFOs with d > 1 are
            # here, and w ascends, so it can exceed 1 only if w[-1] >= done
            done = token[i] = t + pd
            for c, w, d in outs:
                if peak[c] < d and w[-1] >= done:
                    occ = 2
                    for j in range(2, d):
                        if w[-j] < done:
                            break
                        occ += 1
                    if occ > peak[c]:
                        peak[c] = occ


def _write_trace(path, dfg, index, history, K, pd_ps) -> None:
    """One ``time_ps,task,kind,iteration`` line per start and completion.

    ``history`` holds each task's starts on the simulation's scaled
    timeline, tie key included.  Events sort by time, then key, which is
    the run order unless a start waits for a larger key; its tie key then
    exceeds its own, and its picosecond is reordered, once per shape.
    """
    # per start key, the (key, iteration lag) of each event it can wait for
    givers = [[] for _ in range(K)]
    for ch in dfg.channels:
        p, c = index[ch.src], index[ch.dst]
        givers[2 * c + 1].append((2 * p, 0))
        givers[2 * p + 1].append((2 * c + 1, ch.depth))
    events = []
    late = set()
    for i, xs in enumerate(history):
        key = 2 * i + 1
        pd = pd_ps[i]
        for k, x in enumerate(xs):
            t, root = divmod(x, K)
            if root > key:
                late.add(t)
            events.append((t, key, k))
            events.append((t + pd, key - 1, k))
    events.sort()
    orders = {}
    n = len(events)
    hi = 0
    for t in sorted(late):
        # late picoseconds often come one per period: gallop forward, then bisect
        step = 1
        while hi + step < n and events[hi + step][0] < t:
            step *= 2
        lo = hi = bisect_left(events, (t,), hi + step // 2, min(n, hi + step))
        while hi < n and events[hi][0] == t:
            hi += 1
        group = events[lo:hi]
        k0 = group[0][2]
        shape = tuple([(key, k - k0) for _, key, k in group])
        if shape not in orders:
            orders[shape] = _min_key_topological(shape, givers)
        events[lo:hi] = [group[e] for e in orders[shape]]
    # key 2*i is task i's completion and 2*i + 1 its start
    label = [f",{t.name},{kind}," for t in dfg.tasks for kind in ("complete", "start")]
    with open(path, "w") as f:
        f.write("time_ps,task,kind,iteration\n")
        for lo in range(0, n, TRACE_CHUNK):
            chunk = events[lo : lo + TRACE_CHUNK]
            f.write("".join([f"{t}{label[key]}{k}\n" for t, key, k in chunk]))


def _min_key_topological(shape, givers):
    """Positions of a picosecond's (key, iteration offset) events in run order."""
    pending = list(shape)
    order = []
    while pending:
        e = next(
            e for e in pending if all((g, e[1] - lag) not in pending for g, lag in givers[e[0]])
        )
        pending.remove(e)
        order.append(shape.index(e))
    return order
