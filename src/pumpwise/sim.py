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
task's previous start and, per FIFO of depth d, the last d consumer
starts, so without a trace memory does not grow with ``iterations``.

The timeline is integer picoseconds with clock periods rounded to the
nearest picosecond, ties to even.  Events at one picosecond are ordered
by task index, a completion before a start, except that a start whose
token or slot comes from a same-time event with a larger key runs right
after that event: the smallest-key topological order of each timestamp.
FIFO peaks and the trace follow this order, so a simulation is
deterministic down to the bit.

A timed marked graph becomes periodic after a transient: the state after
iteration k + c is the state after iteration k shifted by a time T.
Every clock edge is a multiple of its period, so a shift by a multiple
of L, the lcm of all periods, changes no edge rounding and no tie key.
The search shifts the state after each iteration down by such a
multiple and compares it with one saved checkpoint (Brent's cycle
finding), so it needs O(state) memory.  A repeat between iterations k
and k + c gives T as the difference of the two shifts, and adding j*T to
every state value then jumps j*c iterations exactly: first up to the
warmup boundary, where the measurement window opens, then up to
``iterations``.  The iterations left over run normally; FIFO peaks
cannot rise once the state repeats.  No repeat can occur before task 0
starts at or after L, and the search gives up after
``REPEAT_SEARCH_ITERATIONS`` iterations, so runs without a repeat (mostly
multi-clock plans whose rounded periods have a huge lcm) cost what the
plain loop costs.  A skipped period's trace is the last one's, shifted.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from fractions import Fraction
from itertools import chain
from math import lcm
from pathlib import Path
from typing import Union

from .binding import check_plan_coverage
from .codec import _fmt_g, _Record, as_fraction, is_int
from .dfg import Dfg
from .errors import SimulationError, ValidationError
from .planner import PumpPlan

PS_PER_MICROSECOND = 10**6
MAX_CLOCK_MHZ = 10**6  # 1 THz: faster clocks round to a zero-ps period
# iterations after which the search for a periodic regime gives up
REPEAT_SEARCH_ITERATIONS = 1024


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
    check_plan_coverage(dfg, plan)
    deepest = max(t.pipeline_depth_at(plan.tasks[t.name].f_mhz) for t in dfg.tasks)
    return max(100, 10 * deepest)


def simulate(
    dfg: Dfg,
    plan: PumpPlan,
    cfg: SimConfig,
    trace_path: Union[str, Path, None] = None,
) -> SimReport:
    """Run the dataflow graph under a plan and measure steady-state throughput."""
    check_plan_coverage(dfg, plan)
    iterations = cfg.iterations
    warmup = cfg.warmup

    ntasks = len(dfg.tasks)
    index = {t.name: i for i, t in enumerate(dfg.tasks)}
    period = []
    ii_ps = []
    pd_ps = []
    for t in dfg.tasks:
        entry = plan.tasks[t.name]
        p = _period_ps(entry.f_mhz)
        period.append(p)
        ii_ps.append(p * entry.ii)
        pd_ps.append(p * t.pipeline_depth_at(entry.f_mhz))

    # Times are scaled by K and carry a tie key below K, so that comparing
    # t*K + key also orders the events of one picosecond.  A completion of
    # task i has key 2*i; a start of task i has the largest key among
    # itself (2*i + 1) and the same-time events that gave it its tokens
    # and slots, since it runs right after the last of them.
    K = 2 * ntasks
    nchan = len(dfg.channels)
    # per channel, the consumer starts k-d .. k-1 that free the producer's
    # next slots, oldest first; the d slots of an empty FIFO are free at 0
    free = []
    ins = [[] for _ in range(ntasks)]
    outs = [[] for _ in range(ntasks)]
    is_sink = [True] * ntasks
    for c, ch in enumerate(dfg.channels):
        p, q, d = index[ch.src], index[ch.dst], ch.depth
        slots = deque([0] * d)
        free.append(slots)
        ins[q].append((c, slots))
        outs[p].append((c, slots, d))
        is_sink[p] = False
    sinks = [i for i in range(ntasks) if is_sink[i]]
    # latest token time per channel, written by the producer's start k and
    # read by the consumer's start k later in the same iteration
    token = [0] * nchan
    peak = [0] * nchan
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
            tuple(ins[i]),
            tuple(outs[i]),
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
    # it, so the state is ``last`` and the ``free`` deques
    def shifted(base):
        return [v - base for v in chain(last, *free)]

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

    def jump(target):
        """Skip whole periods of the repeat, up to iteration ``target``."""
        nonlocal done
        j = (target - done) // c
        shift = j * T
        for i in range(ntasks):
            last[i] += shift
        for q in free:
            for n in range(len(q)):
                q[n] += shift
        if history is not None:  # each skipped period repeats the last one's starts
            for h in history:
                h.extend([x + s * T for s in range(1, j + 1) for x in h[-c:]])
        done += j * c

    if c:
        if done < warmup:
            # stop short of the boundary, so that ``run`` opens the window
            jump(warmup - 1)
            run(warmup - done)
        jump(iterations)
    run(iterations - done)

    # the graph's k-th iteration is done when its last sink consumes it
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
        for i, per, ii, pd, key, ins, outs, record in steps:
            # the latest of the II spacing, every input token and every free slot
            x = last[i] + ii
            for c, _ in ins:
                if token[c] > x:
                    x = token[c]
            for _, q, _ in outs:
                y = q.popleft()
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
            for _, q in ins:
                q.append(x)
            if record is not None:
                record(x)
            # FIFO occupancy right after this start's completion pushes its
            # token: that token plus one per consumer start that comes later
            done = t + pd
            for c, q, d in outs:
                token[c] = done
                if peak[c] < d:
                    occ = 1
                    for y in reversed(q):
                        if y < done:
                            break
                        occ += 1
                    if occ > peak[c]:
                        peak[c] = occ


def _write_trace(path, dfg, index, history, K, pd_ps) -> None:
    """One ``time_ps,task,kind,iteration`` line per start and completion.

    ``history`` holds each task's starts on the simulation's scaled
    timeline, tie key included.  Events sort by time, then key: 2*i for a
    completion of task i and 2*i + 1 for a start.  A start whose tie key
    is larger than its own key waits for a same-time event with a larger
    key; in a picosecond with such a start, the smallest-key event whose
    waits are over goes next.
    """
    start = [[x // K for x in xs] for xs in history]
    producers = [[] for _ in history]
    consumers = [[] for _ in history]
    for ch in dfg.channels:
        p, c = index[ch.src], index[ch.dst]
        producers[c].append(p)
        consumers[p].append((c, ch.depth))

    def waits(t, key, k):
        """Keys of the same-time events start ``key`` of iteration k waits for."""
        i = key >> 1
        return [2 * p for p in producers[i] if start[p][k] + pd_ps[p] == t] + [
            2 * j + 1 for j, d in consumers[i] if k >= d and start[j][k - d] == t
        ]

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
    for t in late:
        lo = bisect_left(events, (t,))
        hi = bisect_left(events, (t + 1,))
        events[lo:hi] = _min_key_topological(events[lo:hi], waits)
    # key 2*i is task i's completion and 2*i + 1 its start
    label = [f",{t.name},{kind}," for t in dfg.tasks for kind in ("complete", "start")]
    with open(path, "w") as f:
        f.write("time_ps,task,kind,iteration\n")
        f.write("".join([f"{t}{label[key]}{k}\n" for t, key, k in events]))


def _min_key_topological(group, waits):
    """Order one picosecond's events: the smallest key among those not waiting."""
    by_key = {e[1]: e for e in group}
    blocked = {}
    dependents = {}
    for t, key, k in group:
        if key & 1:
            ws = waits(t, key, k)
            blocked[key] = len(ws)
            for w in ws:
                dependents.setdefault(w, []).append(key)
    ready = [key for key in by_key if not blocked.get(key)]
    heapq.heapify(ready)
    out = []
    while ready:
        key = heapq.heappop(ready)
        out.append(by_key[key])
        for d in dependents.get(key, ()):
            blocked[d] -= 1
            if not blocked[d]:
                heapq.heappush(ready, d)
    return out
