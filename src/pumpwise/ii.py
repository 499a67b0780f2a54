"""Initiation-interval analysis of data-dependence graphs.

A pipelined loop cannot start iterations faster than its loop-carried
dependence cycles allow: a cycle whose operations take L cycles in total
and whose dependence distances sum to D forces II >= L/D.  ``min_ii``
maximizes that ratio over all cycles of the DDG and ``critical_cycle``
returns one cycle attaining the maximum.

Operator latencies are quantized per clock with no chaining: an operation
occupies max(1, ceil(delay / clock_period)) full cycles.  Latencies grow
with the clock frequency, so the II lower bound is non-decreasing in the
clock, while the II itself never bends to the clock (the II constraint
wins; timing feasibility is expressed through per-task f_max instead).

One exact solver serves both: Newton's method on the cycle ratio
(Dinkelbach).  From lambda = 0, a Bellman-Ford longest-path pass with
weights latency(src) - lambda * dist either finds a positive cycle, whose
larger ratio becomes the next lambda, or converges: lambda is then the
exact maximum ratio, and the potentials mark the cycles attaining it.

Delays and clocks are exact rationals throughout; ``codec.as_fraction``
converts what callers pass in.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Hashable, Iterable, Sequence

from .codec import Rational, _Record, _set, as_fraction, is_int
from .errors import ValidationError


class Op(_Record):
    """One operation: identifier, class tag (mul, add, load, ...), delay in ns."""

    __slots__ = _fields = ("id", "cls", "delay_ns")

    def __init__(self, id: str, cls: str, delay_ns: Rational):
        _set(self, "id", id)
        _set(self, "cls", cls)
        _set(self, "delay_ns", as_fraction(delay_ns))


class Dep(_Record):
    """Dependence edge src -> dst carried across ``dist`` loop iterations."""

    __slots__ = _fields = ("src", "dst", "dist")

    def __init__(self, src: str, dst: str, dist: int):
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "dist", dist)


class Ddg(_Record):
    """Data-dependence graph of one task's pipelined loop body, validated when built.

    ``order`` holds the op ids with every dist-0 source before its destination.
    """

    __slots__ = ("ops", "deps", "order")
    _fields = ("ops", "deps")

    def __init__(self, ops: Sequence[Op], deps: Sequence[Dep] = ()):
        ops = tuple(ops)
        deps = tuple(deps)
        if not ops:
            raise ValidationError("ddg has no operations")
        ids = [op.id for op in ops]
        known = set(ids)
        if len(known) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate op id: {dup[0]}")
        for op in ops:
            if op.delay_ns.numerator <= 0:
                raise ValidationError(f"op {op.id}: delay_ns must be positive")
        for dep in deps:
            if dep.src not in known or dep.dst not in known:
                missing = dep.src if dep.src not in known else dep.dst
                raise ValidationError(f"dependence names unknown op: {missing}")
            if not is_int(dep.dist, 0):
                raise ValidationError(
                    f"dependence {dep.src}->{dep.dst}: dist must be a nonnegative integer"
                )
        order, cyc = _toposort(ids, [(d.src, d.dst) for d in deps if d.dist == 0])
        if cyc is not None:
            raise ValidationError("combinational cycle: " + "->".join(cyc + cyc[:1]))
        _set(self, "ops", ops)
        _set(self, "deps", deps)
        _set(self, "order", tuple(order))


def op_latency_cycles(delay_ns: Rational, f_mhz: Rational) -> int:
    """Cycles one operation occupies at the given clock; at least one."""
    delay = as_fraction(delay_ns)
    f = as_fraction(f_mhz)
    if delay <= 0 or f <= 0:
        raise ValidationError("op_latency_cycles requires positive delay and frequency")
    return _cycles(delay, f)


def min_ii(ddg: Ddg, f_mhz: Rational) -> int:
    """Smallest feasible initiation interval of the DDG at clock ``f_mhz``."""
    lam, _ = _max_cycle_ratio(_latencies(ddg, f_mhz), _collapsed_edges(ddg))
    return max(1, ceil(lam))


def critical_cycle(ddg: Ddg, f_mhz: Rational) -> list[str]:
    """One cycle attaining the maximum latency/distance ratio.

    Ties are broken by the lexicographically smallest op-id sequence,
    after rotating each cycle to start at its smallest op id.

    Under the potentials of the maximum ratio, the tight edges are exactly
    those on cycles attaining it, so the answer is the lexicographically
    smallest cycle of the tight subgraph.  It is built greedily: the
    smallest op that closes a cycle through larger ops, then at each step
    the smallest op from which that start is still reachable.
    """
    lat = _latencies(ddg, f_mhz)
    edges = _collapsed_edges(ddg)
    lam, pot = _max_cycle_ratio(lat, edges)
    if lam == 0:
        raise ValidationError("acyclic: ddg has no dependence cycle")
    succ: dict[str, list[str]] = {v: [] for v in lat}
    for (u, v), dist in edges.items():
        if pot[u] + lat[u] - lam * dist == pot[v]:
            succ[u].append(v)
    for vs in succ.values():
        vs.sort()

    def returns(v: str, s: str, used) -> bool:
        # whether some path from v through unused ops above s reaches s
        seen = {v}
        stack = [v]
        while stack:
            for w in succ[stack.pop()]:
                if w == s:
                    return True
                if w > s and w not in seen and w not in used:
                    seen.add(w)
                    stack.append(w)
        return False

    s = next(s for s in sorted(succ) if returns(s, s, ()))
    cycle = [s]
    while s not in succ[cycle[-1]]:
        used = set(cycle)
        cycle.append(
            next(v for v in succ[cycle[-1]] if v > s and v not in used and returns(v, s, used))
        )
    return cycle


def pipeline_depth(ddg: Ddg, f_mhz: Rational) -> int:
    """Longest latency-weighted path over intra-iteration (dist 0) edges."""
    lat = _latencies(ddg, f_mhz)
    preds: dict[str, list[str]] = {v: [] for v in lat}
    for d in ddg.deps:
        if d.dist == 0:
            preds[d.dst].append(d.src)
    depth: dict[str, int] = {}
    for v in ddg.order:
        depth[v] = lat[v] + max((depth[u] for u in preds[v]), default=0)
    return max(depth.values())


def _latencies(ddg: Ddg, f_mhz: Rational) -> dict[str, int]:
    """``op_latency_cycles`` of every op; the Ddg's delays are exact and positive already."""
    f = as_fraction(f_mhz)
    if f <= 0:
        raise ValidationError("clock frequency must be positive")
    return {op.id: _cycles(op.delay_ns, f) for op in ddg.ops}


def _cycles(delay: Fraction, f: Fraction) -> int:
    """max(1, ceil(delay * f / 1000)) for an exact positive delay (ns) and clock (MHz)."""
    return max(1, -(-delay.numerator * f.numerator // (delay.denominator * 1000 * f.denominator)))


def _collapsed_edges(ddg: Ddg) -> dict[tuple[str, str], int]:
    # parallel dependences collapse to the smallest distance, which
    # dominates both the ratio maximization and positive-cycle detection
    edges: dict[tuple[str, str], int] = {}
    for d in ddg.deps:
        key = (d.src, d.dst)
        if key not in edges or d.dist < edges[key]:
            edges[key] = d.dist
    return edges


def _toposort(
    nodes: Iterable[Hashable], edges: Sequence[tuple[Hashable, Hashable]]
) -> tuple[list | None, list | None]:
    """(topological order, None), or (None, a cycle from its smallest node).

    A first-in first-out Kahn sort gives the order that
    ``graphlib.TopologicalSorter.static_order`` gives for the same nodes
    and edges.  When nodes are left over, ``graphlib`` names the cycle,
    so that the cycle reported is the one it finds.
    """
    indegree = dict.fromkeys(nodes, 0)
    succ: dict = {v: [] for v in indegree}
    for u, v in edges:
        succ[u].append(v)
        indegree[v] += 1
    order = [v for v, n in indegree.items() if not n]
    for u in order:  # the list grows while it is read: the queue
        for v in succ[u]:
            indegree[v] -= 1
            if not indegree[v]:
                order.append(v)
    if len(order) == len(indegree):
        return order, None
    from graphlib import CycleError, TopologicalSorter

    ts = TopologicalSorter({v: () for v in indegree})
    for u, v in edges:
        ts.add(v, u)
    try:
        ts.prepare()  # raises: nodes left over lie on or behind a cycle
    except CycleError as e:
        cycle = e.args[1][:-1]
    return None, _canonical(cycle)


def _positive_cycle(
    lat: dict[str, int],
    edges: dict[tuple[str, str], int],
    lam: Fraction,
) -> tuple[list[str] | None, dict[str, Fraction]]:
    """Bellman-Ford longest-path pass with weights latency(src) - lam * dist.

    Returns (cycle, _) with a cycle of positive total weight, i.e. one
    whose ratio exceeds ``lam``, when such a cycle exists.  Otherwise it
    returns (None, pot) with converged potentials, pot[v] >= pot[u] + w(u, v)
    on every edge, so every maximum-ratio cycle is tight under them.
    """
    pot = {v: Fraction(0) for v in lat}
    pred: dict[str, str] = {}
    edge_list = [(u, v, lat[u] - lam * dist) for (u, v), dist in edges.items()]
    for _ in range(len(pot)):
        last = None
        for u, v, w in edge_list:
            cand = pot[u] + w
            if cand > pot[v]:
                pot[v] = cand
                pred[v] = u
                last = v
        if last is None:
            return None, pot
    # a vertex still improving on pass n has a predecessor chain that ends
    # in a cycle, and every cycle of predecessors has positive weight;
    # n steps back from it lie on that cycle
    for _ in range(len(pot)):
        last = pred[last]
    cycle = [last]
    while pred[cycle[-1]] != last:
        cycle.append(pred[cycle[-1]])
    cycle.reverse()
    return cycle, pot


def _max_cycle_ratio(
    lat: dict[str, int], edges: dict[tuple[str, str], int]
) -> tuple[Fraction, dict[str, Fraction]]:
    """Exact maximum of sum(latency)/sum(dist) over all cycles, 0 when acyclic.

    Newton's method on the ratio: each positive cycle found at ``lam``
    has a strictly larger ratio, which becomes the next ``lam``.  Returns
    the maximum with the potentials converged at it.
    """
    lam = Fraction(0)
    while True:
        cycle, pot = _positive_cycle(lat, edges, lam)
        if cycle is None:
            return lam, pot
        lam = Fraction(
            sum(lat[v] for v in cycle),
            sum(edges[u, v] for u, v in zip(cycle, cycle[1:] + cycle[:1])),
        )


def _canonical(cycle: Iterable[str]) -> list[str]:
    nodes = list(cycle)
    k = nodes.index(min(nodes))
    return nodes[k:] + nodes[:k]
