"""Cut capacities and exhaustive / flow-bounded / randomized cut enumeration.

A cut is identified by its canonical side: the block of the partition that
excludes node 1.  Enumeration returns every cut whose capacity is strictly
below the graph threshold, by one of three strategies:

* ``enumerate_bruteforce`` scans all 2^(n-1) - 1 canonical sides (vectorized,
  guarded by a node budget);
* ``enumerate_flow`` runs an exact branch-and-bound on node assignments with
  a min-cut (max-flow) lower bound per branch, usable far beyond the
  brute-force budget;
* ``karger_probe`` repeats seeded capacity-weighted edge contraction, which
  can only ever find genuine cuts and serves as a randomized stress test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .construction import CapGraph


class BruteForceSizeError(ValueError):
    """Raised when a graph exceeds the exhaustive-scan node budget."""


@dataclass(frozen=True)
class Cut:
    side: frozenset[int]
    capacity: int


@dataclass(frozen=True)
class CutFamily:
    cuts: tuple[Cut, ...]
    lam: int

    @classmethod
    def collect(cls, cuts: Iterable[Cut], lam: int) -> "CutFamily":
        by_side: dict[frozenset[int], Cut] = {}
        for c in cuts:
            if c.capacity >= lam:
                raise ValueError(f"cut {sorted(c.side)} has capacity {c.capacity} >= {lam}")
            by_side[c.side] = c
        ordered = sorted(by_side.values(), key=lambda c: (len(c.side), sorted(c.side)))
        return cls(tuple(ordered), lam)

    def sides(self) -> frozenset[frozenset[int]]:
        return frozenset(c.side for c in self.cuts)

    def __len__(self) -> int:
        return len(self.cuts)

    def __iter__(self):
        return iter(self.cuts)

    def __contains__(self, side: frozenset[int]) -> bool:
        return side in self.sides()


def _as_side(g: CapGraph, side: Iterable[int]) -> frozenset[int]:
    s = frozenset(side)
    if not s or not s < frozenset(g.node_range()):
        raise ValueError("side must be a proper non-empty subset of the nodes")
    return s


def cut_capacity(g: CapGraph, side: Iterable[int]) -> int:
    """Sum of capacities of the edges with exactly one endpoint in ``side``."""
    s = _as_side(g, side)
    return sum(c for lo, hi, c in g.edges if (lo in s) != (hi in s))


def canonical_cut(g: CapGraph, side: Iterable[int]) -> Cut:
    """The cut of the given partition, stored on the side that excludes node 1."""
    s = _as_side(g, side)
    if 1 in s:
        s = frozenset(g.node_range()) - s
    return Cut(side=s, capacity=cut_capacity(g, s))


def _check_connected(g: CapGraph) -> None:
    adj: dict[int, list[int]] = {v: [] for v in g.node_range()}
    for lo, hi, _ in g.edges:
        adj[lo].append(hi)
        adj[hi].append(lo)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != g.n:
        raise ValueError("graph is not connected")


# ---------------------------------------------------------------------------
# exhaustive scan


def _scan_masks(g: CapGraph, lo: int, hi: int) -> list[tuple[int, int]]:
    """Capacities for canonical-side bitmasks in [lo, hi); bit i is node i+2."""
    masks = np.arange(lo, hi, dtype=np.uint64)
    acc = np.zeros(masks.shape, dtype=np.int64)
    one = np.uint64(1)
    for a, b, c in g.edges:
        if a == 1:
            bits = (masks >> np.uint64(b - 2)) & one
        else:
            bits = ((masks >> np.uint64(a - 2)) ^ (masks >> np.uint64(b - 2))) & one
        acc += bits.astype(np.int64) * c
    keep = np.nonzero(acc < g.lam)[0]
    return [(int(masks[i]), int(acc[i])) for i in keep]


def _mask_to_side(mask: int) -> frozenset[int]:
    side = set()
    v = 2
    while mask:
        if mask & 1:
            side.add(v)
        mask >>= 1
        v += 1
    return frozenset(side)


def enumerate_bruteforce(g: CapGraph, max_nodes: int = 24) -> CutFamily:
    """Every small cut, by scanning all canonical sides.

    Refuses graphs above ``max_nodes`` (raise the budget explicitly to go
    further).
    """
    if g.n > max_nodes:
        raise BruteForceSizeError(
            f"{g.n} nodes exceeds the exhaustive-scan budget of {max_nodes}; "
            "use enumerate_flow or raise max_nodes explicitly"
        )
    if g.n - 1 > 63:
        raise BruteForceSizeError("bitmask scan supports at most 64 nodes")
    total = 1 << (g.n - 1)  # masks 1 .. total-1
    chunk = 1 << 20
    cuts = [
        Cut(side=_mask_to_side(mask), capacity=cap)
        for lo in range(1, total, chunk)
        for mask, cap in _scan_masks(g, lo, min(lo + chunk, total))
    ]
    return CutFamily.collect(cuts, g.lam)


# ---------------------------------------------------------------------------
# max-flow and branch-and-bound enumeration


def _arcs(
    n: int, edges: Iterable[tuple[int, int, int]]
) -> tuple[list[list[tuple[int, int]]], list[int], list[int]]:
    """Array adjacency of a graph on nodes 1..n: ``(adj, head, cap)``.

    Each edge becomes an even arc ``a`` (lo to hi) and arc ``a + 1`` (hi to
    lo), each with the edge's capacity.  ``head[a]`` is the node arc ``a``
    enters, so its tail is ``head[a ^ 1]``, and ``adj[v]`` lists ``(w, a)``
    for every arc ``a`` from v to w.  Self-loops cross no cut and get no arc.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    head: list[int] = []
    cap: list[int] = []
    for lo, hi, c in edges:
        if lo == hi:
            continue
        a = len(head)
        head += (hi, lo)
        cap += (c, c)
        adj[lo].append((hi, a))
        adj[hi].append((lo, a + 1))
    return adj, head, cap


def _flow_through_free(
    adj: list[list[tuple[int, int]]],
    head: list[int],
    cap: list[int],
    side: list[int],
    frontier: int,
    starts: Iterable[tuple[int, int]],
    need: int,
) -> int:
    """Max flow from the committed source nodes to the committed sink nodes
    through the free nodes only, by augmenting paths, stopped at ``need``.

    Nodes up to ``frontier`` are committed, to the source where ``side`` is 0
    and to the sink where it is 1; nodes above it are free.  ``starts`` lists
    the arcs ``(w, a)`` from a source node into a free node w.  An edge
    between two committed nodes carries nothing here: its capacity is part of
    the boundary the caller has already decided.  The flow is a map from arc
    id to net flow, touched only along augmenting paths, so parallel edges
    stay apart.  A return value >= ``need`` means only "at least ``need``".
    """
    flow: dict[int, int] = {}
    total = 0
    while total < need:
        via: dict[int, int] = {}  # free node reached -> arc it was reached by
        queue: list[int] = []
        for w, a in starts:
            if w not in via and cap[a] > flow.get(a, 0):
                via[w] = a
                queue.append(w)
        last = -1
        for x in queue:  # the queue grows while it is walked
            for w, a in adj[x]:
                if cap[a] <= flow.get(a, 0):
                    continue
                if w > frontier:
                    if w not in via:
                        via[w] = a
                        queue.append(w)
                elif side[w]:
                    last = a
                    break
            if last >= 0:
                break
        if last < 0:
            break
        path = [last]
        x = head[last ^ 1]
        while x in via:  # walk back until the tail is a source node
            path.append(via[x])
            x = head[via[x] ^ 1]
        push = min(cap[a] - flow.get(a, 0) for a in path)
        for a in path:
            flow[a] = flow.get(a, 0) + push
            flow[a ^ 1] = flow.get(a ^ 1, 0) - push
        total += push
    return total


def max_flow(
    g: CapGraph, source_set: Iterable[int], sink_set: Iterable[int]
) -> int:
    """Exact min-cut value between two disjoint contracted node sets."""
    s = frozenset(source_set)
    t = frozenset(sink_set)
    nodes = frozenset(g.node_range())
    if not s or not t:
        raise ValueError("source and sink sets must be non-empty")
    if s & t:
        raise ValueError("source and sink sets overlap")
    if not (s <= nodes and t <= nodes):
        raise ValueError("node index out of range")
    # Relabel so that the sources come first, then the sinks, then the free
    # nodes: the committed nodes are exactly those up to the frontier.
    order = sorted(s) + sorted(t) + sorted(nodes - s - t)
    label = {v: i for i, v in enumerate(order, 1)}
    frontier = len(s) + len(t)
    side = [0] * (len(s) + 1) + [1] * (g.n - len(s))
    adj, head, cap = _arcs(g.n, ((label[lo], label[hi], c) for lo, hi, c in g.edges))
    direct = sum(c for lo, hi, c in g.edges if (lo in s and hi in t) or (lo in t and hi in s))
    starts = [(w, a) for u in range(1, len(s) + 1) for w, a in adj[u] if w > frontier]
    total = sum(c for _, _, c in g.edges)
    return direct + _flow_through_free(adj, head, cap, side, frontier, starts, total)


def enumerate_flow(g: CapGraph) -> CutFamily:
    """Every small cut, by branch-and-bound over node assignments.

    Nodes are committed in index order to the side of node 1 or to the other
    side.  A branch dies when the decided boundary ``b`` alone reaches the
    threshold, or when ``b`` plus the max flow from the committed source set
    to the committed sink set through the undecided nodes only does: that sum
    is the min cut between the two committed sets, a lower bound for every
    completion.  The flow stops once it reaches ``lam - b``, so each bound
    makes at most ``lam - b`` augmentations, on an adjacency built once per
    call.
    Surviving branches are kept on an explicit stack of ``(node, side,
    boundary, count)`` frames, so the depth is not limited by recursion.
    Leaves are exact cuts, so the result equals the exhaustive scan wherever
    both run.
    """
    _check_connected(g)
    lam = g.lam
    n = g.n
    adj, head, cap = _arcs(n, g.edges)
    # lower[v]: (u, capacity) of the arcs from v to nodes decided before it;
    # crossing[v]: arcs (u, w, a) from a node u <= v to a node w > v.
    lower = [[(w, cap[a]) for w, a in adj[v] if w < v] for v in range(n + 1)]
    crossing: list[tuple[tuple[int, int, int], ...]] = [()] * (n + 1)
    open_arcs: dict[int, tuple[int, int, int]] = {}
    for v in range(1, n + 1):
        for w, a in adj[v]:
            if w > v:
                open_arcs[a] = (v, w, a)
            else:
                del open_arcs[a ^ 1]
        crossing[v] = tuple(open_arcs.values())

    side = [0] * (n + 1)  # valid for v and its ancestors; node 1 fixed at 0
    found: list[Cut] = []
    stack = [(2, 1, 0, 0), (2, 0, 0, 0)] if n >= 2 else []
    while stack:
        v, s, boundary, count = stack.pop()
        side[v] = s
        b = boundary + sum(c for u, c in lower[v] if side[u] != s)
        count += s
        if count:
            if b >= lam:
                continue
            if v < n:
                starts = [(w, a) for u, w, a in crossing[v] if not side[u]]
                if b + _flow_through_free(adj, head, cap, side, v, starts, lam - b) >= lam:
                    continue
        if v < n:
            stack.append((v + 1, 1, b, count))
            stack.append((v + 1, 0, b, count))
        elif count:
            found.append(
                Cut(side=frozenset(u for u in range(2, n + 1) if side[u]), capacity=b)
            )
    return CutFamily.collect(found, lam)


# ---------------------------------------------------------------------------
# randomized contraction probe


def karger_probe(g: CapGraph, trials: int, seed: int) -> CutFamily:
    """Distinct small cuts seen across seeded random contractions.

    Each trial orders the edges by independent exponential arrival times with
    rate equal to capacity (so the next contracted edge is capacity-weighted)
    and contracts until two super-nodes remain.  The same seed always yields
    the same cut set.  Any returned cut is real, so the result must be a
    subset of the true family; a cut outside it would disprove the claimed
    enumeration.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    n = g.n
    edges = [(lo, hi, c) for lo, hi, c in g.edges]
    expovariate = rng.expovariate
    by_side: dict[frozenset[int], int] = {}
    for _ in range(trials):
        order = sorted(range(len(edges)), key=lambda i: expovariate(edges[i][2]))
        parent = list(range(n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = n
        for i in order:
            if comps == 2:
                break
            a = find(edges[i][0])
            b = find(edges[i][1])
            if a != b:
                parent[b] = a
                comps -= 1
        root1 = find(1)
        capacity = sum(
            c for lo, hi, c in edges if (find(lo) == root1) != (find(hi) == root1)
        )
        if capacity < g.lam:
            side = frozenset(v for v in range(2, n + 1) if find(v) != root1)
            if side and side not in by_side:
                by_side[side] = capacity
    return CutFamily.collect(
        (Cut(side=s, capacity=c) for s, c in by_side.items()), g.lam
    )
