"""Cut capacities and exhaustive / frontier-DP / randomized cut enumeration.

A cut is identified by its canonical side: the block of the partition that
excludes node 1.  Enumeration returns every cut whose capacity is strictly
below the graph threshold, by one of three strategies:

* ``enumerate_bruteforce`` scans all 2^(n-1) - 1 canonical sides by subset
  doubling in the narrowest of int8, int16, int32 and int64 that holds the
  total capacity, guarded by the node budget ``MAX_BRUTE_NODES`` = 24 and a
  total capacity below ``MAX_BRUTE_TOTAL`` = 2^63.  A table of the sides of
  the low r = min(n - 1, ``SCAN_CHUNK_BITS`` = 19) canonical nodes is built
  in place one node at a time, each side one add from a smaller one; when
  r = n - 1 it is the answer, and otherwise each chunk of 2^r sides, one
  set of the high nodes, is the table plus that set's capacity minus twice
  its cross term.  On a shared 2-core x86 host with CPython 3.11 and
  numpy 2.4 (medians of 21-301 calls, in three rounds) the scan takes
  0.25-0.45 ms at k = 6 (n = 17, int8) and 4-14 ms on 24-node paths with
  chords, with a tracemalloc peak of 0.13 and 1.5 MiB;
* ``enumerate_flow`` (a historical name) runs an exact dynamic programme
  over the nodes in index order, whose states are the sides of the open
  nodes, the boundary so far and a flag; no flow is computed.  It returns
  a ``FrontierFamily`` that holds the programme's DAG and the graph it was
  built from: one cut per path from the start to an accepting state.  The
  forward pass counts those paths, so the family's size costs no side.
  The cuts themselves are walked back from the accepting states only when
  they are read (iteration, ``cuts``, ``sides``, membership): by
  ``--strategy both``, and when the certifier's count proves nothing.  Nodes
  with the same transition share one table of it, built once: the built
  instances have 11 distinct tables at every k, and the walk reads them.
  Each table's path counts are read in C, one ``itemgetter`` per
  predecessor rank.  Its work grows as 2^width in the frontier width,
  which is capped at ``MAX_FRONTIER_WIDTH`` = 16; the built instances have
  width 2.  On a shared 2-core x86 host with CPython 3.11 (medians of 9-21
  calls, in five rounds) the forward pass takes 1.1-2.5 ms at k = 24
  (n = 278), 4.1-8.8 ms at k = 48 (n = 1130) and 16-34 ms at k = 94
  (n = 4373); the walk about 0.01 s, 0.2-0.3 s and 3.4-4.6 s;
* ``karger_probe`` repeats seeded capacity-weighted edge contraction, which
  can only ever find genuine cuts and serves as a randomized stress test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import add, itemgetter
from typing import Iterable

import numpy as np

from .construction import CapGraph


class BruteForceSizeError(ValueError):
    """Raised when a graph exceeds an enumeration budget: the exhaustive-scan
    node budget or the frontier width budget."""


# Largest graph ``enumerate_bruteforce`` scans; its work grows as 2**n,
# so the built instances with k <= 6 fit.
MAX_BRUTE_NODES = 24

# The exhaustive scan sums capacities in the narrowest integer type that
# holds the total, int64 at the widest; with capacities >= 0 neither a cut
# nor any of the scan's intermediate sums exceeds the total, so a total
# below this bound cannot wrap.
MAX_BRUTE_TOTAL = 2**63

# The exhaustive scan's chunk: the sides of the low SCAN_CHUNK_BITS canonical
# nodes, with one fixed set of the nodes above them; the table of the low
# sides and each chunk hold 2**19 integers, 512 KiB each in int8 and 4 MiB
# in int64.
SCAN_CHUNK_BITS = 19

# Largest frontier width ``enumerate_flow`` accepts; its work grows as
# 2**width, and the built instances have width 2.
MAX_FRONTIER_WIDTH = 16


@dataclass(frozen=True)
class Cut:
    """A cut: its canonical ``side`` and its ``capacity``.

    ``extent`` is ``(min(side), max(side))``, or None for an empty side.  It
    is derived from the frozen side and kept on the object, not a field, so
    equality, hashing, ``repr`` and ``dataclasses.replace`` ignore it.  A
    cut computes it on first read, unless ``CutFamily.collect`` already
    recorded it from the sorted side its order builds."""

    side: frozenset[int]
    capacity: int

    @cached_property
    def extent(self) -> tuple[int, int] | None:
        return (min(self.side), max(self.side)) if self.side else None


@dataclass(frozen=True)
class CutFamily:
    cuts: tuple[Cut, ...]
    lam: int

    @classmethod
    def collect(cls, cuts: Iterable[Cut], lam: int) -> "CutFamily":
        """The cuts, one per side (the last given wins), in (size, sorted
        side) order, or a ValueError naming a cut of capacity ``lam`` or
        more.  Each kept cut's ``extent`` is recorded from the sorted side
        its sort key builds, so no side is sorted twice."""
        by_side: dict[frozenset[int], Cut] = {}
        for c in cuts:
            if c.capacity >= lam:
                raise ValueError(f"cut {sorted(c.side)} has capacity {c.capacity} >= {lam}")
            by_side[c.side] = c

        def key(c: Cut) -> tuple[int, list[int]]:
            ordered = sorted(c.side)
            # the value Cut.extent computes, written where it caches it
            c.__dict__["extent"] = (ordered[0], ordered[-1]) if ordered else None
            return len(ordered), ordered

        return cls(tuple(sorted(by_side.values(), key=key)), lam)

    @cached_property
    def _side_set(self) -> frozenset[frozenset[int]]:
        return frozenset(c.side for c in self.cuts)

    def sides(self) -> frozenset[frozenset[int]]:
        return self._side_set

    def __len__(self) -> int:
        return len(self.cuts)

    def __iter__(self):
        return iter(self.cuts)

    def __contains__(self, side: frozenset[int]) -> bool:
        return side in self._side_set


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


def _check_graph(g: CapGraph) -> None:
    """The input check every enumerator makes first: at least one node, and
    each edge with both endpoints in 1..n and a capacity >= 0, or a
    ValueError naming the first edge that breaks it."""
    if g.n < 1:
        raise ValueError(f"a graph needs at least one node, got n = {g.n}")
    for i, (x, y, c) in enumerate(g.edges):
        if not (1 <= x <= g.n and 1 <= y <= g.n):
            raise ValueError(f"edges[{i}] = {[x, y, c]} has an endpoint outside 1..{g.n}")
        if c < 0:
            raise ValueError(f"edges[{i}] = {[x, y, c]} has a negative capacity")


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


def _scan_masks(g: CapGraph, total: int) -> list[tuple[int, int]]:
    """Every canonical-side bitmask of capacity below ``lam``, the empty
    side 0 included, with its capacity; bit i is node i + 2.  ``total`` is
    the total capacity, which no cut passes.

    For a side S and a set P of nodes above all of S,
    cap(S | P) = cap(S) + cap(P) - 2 c(S, P), where c(S, P) is the capacity
    between them.  The table of the sides of the low r nodes is built once,
    in place, one node v at a time (P = {v}: the sides with v are the sides
    without it plus one add).  Each chunk, one fixed set P of the high
    nodes, is then the table plus cap(P), minus twice the cross term
    c(S, P): each low node u joined to P subtracts its capacity to P from
    the masks with u, a strided view.  The chunk with no high node is the
    table itself, so a graph whose sides all fit the table copies nothing.
    Every capacity is evaluated as ((cap(P) - c) + cap(S)) - c: the first
    two terms count disjoint edges, so every intermediate lies in
    [0, total], and the arrays hold the narrowest integer type that holds
    ``total``.
    """
    n = g.n
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= total)

    def extend(table: np.ndarray, part: set[int], out: np.ndarray) -> None:
        # out[m] = cap(S | part) for the side S of each mask m of the table,
        # whose nodes 2..last are all below part
        last = len(table).bit_length()
        cap, cross = 0, [0] * (last + 1)  # cross[u]: the capacity between u and part
        for x, y, c in g.edges:
            if (x in part) != (y in part):
                cap += c
                u = y if x in part else x
                if 2 <= u <= last:
                    cross[u] += c
        views = [(out.reshape(-1, 2, 1 << (u - 2))[:, 1, :], w) for u, w in enumerate(cross) if w]
        out.fill(cap)
        for masks, w in views:
            masks -= w
        out += table
        for masks, w in views:
            masks -= w

    r = min(n - 1, SCAN_CHUNK_BITS)
    table = np.zeros(1 << r, dtype=dtype)
    for j in range(r):
        extend(table[: 1 << j], {j + 2}, table[1 << j : 2 << j])
    top = max(-1, min(g.lam - 1, total))  # in range of dtype, as is every capacity
    caps = np.empty_like(table) if r < n - 1 else None
    found: list[tuple[int, int]] = []
    for high in range(1 << (n - 1 - r)):
        chunk = table  # no high node: the table is the chunk
        if high:
            chunk = caps
            extend(table, {v for v in range(r + 2, n + 1) if high >> (v - r - 2) & 1}, chunk)
        masks = np.flatnonzero(chunk <= top)
        found += zip((masks + (high << r)).tolist(), chunk[masks].tolist())
    return found


def check_brute_nodes(n: int) -> None:
    """Refuse a graph of ``n`` nodes above the exhaustive-scan budget
    ``MAX_BRUTE_NODES`` with a ``BruteForceSizeError``; the scan's one
    statement of that budget, which a caller can apply before it builds a
    graph."""
    if n > MAX_BRUTE_NODES:
        raise BruteForceSizeError(
            f"{n} nodes exceeds the exhaustive-scan budget of {MAX_BRUTE_NODES}; "
            "use enumerate_flow"
        )


def _mask_to_side(mask: int) -> frozenset[int]:
    return frozenset(i + 2 for i in range(mask.bit_length()) if mask >> i & 1)


def enumerate_bruteforce(g: CapGraph) -> CutFamily:
    """Every small cut, by scanning all canonical sides.

    The capacities come from ``_scan_masks``'s doubling table, in the
    narrowest integer type that holds the total capacity: the sides of the
    low ``SCAN_CHUNK_BITS`` canonical nodes are built one node at a time,
    and each chunk of 2**19 sides adds one set of the higher nodes to all of
    them, so a graph at the node budget runs 15 chunks past the table, in
    one reused array.  Refuses, after the input check all enumerators
    share, graphs above ``MAX_BRUTE_NODES`` nodes and graphs whose total
    capacity reaches ``MAX_BRUTE_TOTAL``, where even int64 sums could wrap.
    """
    _check_graph(g)
    check_brute_nodes(g.n)
    capacity = sum(c for _, _, c in g.edges)
    if capacity >= MAX_BRUTE_TOTAL:
        raise BruteForceSizeError(
            f"total capacity {capacity} is 2**63 or more, past the exhaustive "
            "scan's int64 sums; use enumerate_flow"
        )
    cuts = [
        Cut(side=_mask_to_side(mask), capacity=cap)
        for mask, cap in _scan_masks(g, capacity)
        if mask  # the empty side is no cut
    ]
    return CutFamily.collect(cuts, g.lam)


# ---------------------------------------------------------------------------
# frontier dynamic programme


# A DP state: the sides of the open nodes, the boundary so far and whether
# any node is on side 1.
State = tuple[tuple[int, ...], int, int]

# A node's transition table: for each state after the node, in order, its
# (j, s) predecessors, state j after the node before with the node on side s.
Table = tuple[tuple[tuple[int, int], ...], ...]


def _transition(
    states: tuple[State, ...],
    weights: tuple[tuple[int, int], ...],
    keep: tuple[int, ...],
    lam: int,
) -> tuple[tuple[State, ...], Table]:
    """The states after a node, in order of first reach, and their table.

    ``states`` are the (sides, b, flag) keys before the node, ``weights``
    the (position, capacity) of its edges down to open nodes, and ``keep``
    the positions, in the sides extended by the node's own, of the open
    nodes after it.  A state whose boundary reaches ``lam`` is dropped."""
    total = sum([c for _, c in weights])
    index: dict[State, int] = {}
    back: list[list[tuple[int, int]]] = []
    for j, (sides, b, flag) in enumerate(states):
        # the capacity from the node to open nodes on side 1, then on side 0
        ones = sum([c for i, c in weights if sides[i]])
        for s, cross in ((0, ones), (1, total - ones)):
            nb = b + cross
            if nb >= lam:
                continue
            full = (*sides, s)
            key = (tuple([full[i] for i in keep]), nb, flag | s)
            at = index.setdefault(key, len(back))
            if at == len(back):
                back.append([(j, s)])
            else:
                back[at].append((j, s))
    return tuple(index), tuple(map(tuple, back))


def _getters(table: Table) -> tuple[itemgetter, ...]:
    """Getters that read the path counts after a node from those before it,
    in C.  Getter r takes, from counts with a 0 after the last state, the
    count of each state's r-th predecessor, or that 0 (index -1) for a state
    with fewer, and then the 0 again.  Their tuples summed entry by entry
    are the counts after the node, with a 0 after the last state.  The
    trailing index makes every getter return a tuple; a table of no states
    has one getter, which reads the 0 twice."""
    ranks = max(map(len, table), default=1)
    return tuple(
        itemgetter(*[back[r][0] if r < len(back) else -1 for back in table] or [-1], -1)
        for r in range(ranks)
    )


def enumerate_flow(g: CapGraph) -> FrontierFamily:
    """Every small cut, by dynamic programming over a node-order frontier.

    The name is historical: this once was a max-flow branch-and-bound, and
    no flow is computed now.  Nodes are decided in index order, to the side
    of node 1 (0) or to the other side (1).  After node v the open nodes are
    those <= v with an edge to a node > v; a state is the sides of the open
    nodes, the boundary ``b`` decided so far and whether any node is on side
    1.  States with ``b >= lam`` are dropped, since ``b`` never falls.  Every
    path from the start to a final state with the flag set is one cut of
    capacity ``b``, and distinct paths are distinct cuts.

    This is the forward pass only: it keeps each node's transition table
    (the predecessors of each state after it) and counts the paths into
    each state, so the returned family knows its size without building a
    side.  Its cuts are walked back from the final states on first use.  A
    transition reads only the states before the node, the weights of the
    node's edges down to open nodes and the open positions it keeps, so it
    is built once per distinct key of those three and its table is shared
    by every node with that key.  A node with a known key costs one dict
    lookup and, per predecessor rank of its table, one C-level read of the
    path counts (``_getters``) and one C-level add.  This holds for any
    graph: one whose nodes all differ only builds every table.  The built
    instances have 11 distinct tables at every k.  Each node's weights and
    kept positions come from one pass over the nodes, which also finds the
    width, and each distinct pair of them is held once.

    The work grows as ``2**width``, where the width is the largest number of
    open nodes; a graph wider than ``MAX_FRONTIER_WIDTH`` raises
    ``BruteForceSizeError`` before any state is built.  The built instances
    have width 2.  The pruning needs capacities >= 0: a negative one, like
    an endpoint outside 1..n, is a ValueError naming the edge, raised before
    any state is built.
    """
    _check_graph(g)
    _check_connected(g)
    lam, n = g.lam, g.n
    # lower[v]: node u < v -> total capacity of the edges between u and v.
    lower: list[dict[int, int]] = [{} for _ in range(n + 1)]
    reach = list(range(n + 1))  # reach[u]: the highest node joined to u
    for x, y, c in g.edges:
        if x != y:
            lo, hi = (x, y) if x < y else (y, x)
            down = lower[hi]
            down[lo] = down.get(lo, 0) + c
            if reach[lo] < hi:
                reach[lo] = hi
    # pairs[v - 2]: node v's (weights, keep), the one object of each
    # distinct pair.  front is the open nodes after the latest node, in
    # index order: those before it, then the node itself, that have an edge
    # above it.  start is the number open after node 1.
    interned: dict[tuple, tuple] = {}
    pairs: list[tuple] = []
    front: tuple[int, ...] = (1,) if reach[1] > 1 else ()
    start = width = len(front)
    for v in range(2, n + 1):
        pos = front.index  # every node below v joined to v is open before v
        weights = tuple([(pos(u), c) for u, c in lower[v].items()])
        after = [u for u in front if reach[u] > v]
        keep = [pos(u) for u in after]
        if reach[v] > v:
            after.append(v)
            keep.append(len(front))
        pair = (weights, tuple(keep))
        pairs.append(interned.setdefault(pair, pair))
        front = tuple(after)
        width = max(width, len(front))
    if width > MAX_FRONTIER_WIDTH:
        raise BruteForceSizeError(
            f"frontier width {width} exceeds the budget of {MAX_FRONTIER_WIDTH} "
            "open nodes"
        )

    # State lists are interned: lists[i] is state list i and known[lists[i]]
    # is i.  built maps a (state list id, pair) key to the id of the next
    # state list, the shared table and its count getters.  sid is the id of
    # the states after the latest node, and paths[i] the number of paths
    # from the start into its state i, with a 0 after the last state.  Node
    # 1 is always on side 0; tables[v] is node v's table, with placeholders
    # for v = 0 and 1.
    lists = [(((0,) * start, 0, 0),)]
    known = {lists[0]: 0}
    built: dict[tuple, tuple[int, Table, tuple[itemgetter, ...]]] = {}
    sid, paths = 0, (1, 0)
    tables: list[Table] = [(), ((),)]
    for pair in pairs:
        entry = built.get((sid, pair))
        if entry is None:
            after, table = _transition(lists[sid], *pair, lam)
            nid = known.setdefault(after, len(lists))
            entry = built[sid, pair] = (nid, table, _getters(table))
            if nid == len(lists):
                lists.append(after)
        sid, table, getters = entry
        counts = getters[0](paths)
        for get in getters[1:]:
            counts = map(add, counts, get(paths))
        paths = tuple(counts)
        tables.append(table)
    final = lists[sid]
    size = sum(p for (_, _, flag), p in zip(final, paths) if flag)
    return FrontierFamily(g, tables, final, size)


class FrontierFamily(CutFamily):
    """The small cuts of ``graph`` held as the frontier DP's DAG.

    ``graph`` is the graph ``enumerate_flow`` was given, so the family is
    exactly its small cuts.  ``tables[v]``, for v >= 2, is node v's
    transition table: for each state after v, the ``(j, s)`` pairs of its
    predecessors, state j after v - 1 with node v on side s.  Nodes with the
    same transition hold the same table object.  ``len`` is the forward
    pass's count of accepting paths and builds no side.  ``cuts``, and with
    it iteration, ``sides`` and membership, walks the DAG back once on first
    use and keeps the result.
    """

    def __init__(
        self,
        graph: CapGraph,
        tables: list[Table],
        final: tuple[State, ...],
        size: int,
    ) -> None:
        # tables and final are enumerate_flow's tables and last states; size
        # is the number of its accepting paths
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "lam", graph.lam)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "_final", final)
        object.__setattr__(self, "_size", size)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        # the dataclass repr would walk every cut
        return f"{type(self).__name__}(lam={self.lam}, size={self._size})"

    @cached_property
    def cuts(self) -> tuple[Cut, ...]:
        """The cuts of the accepting paths, in ``CutFamily.collect`` order.

        The walk follows the tables on an explicit stack over one shared
        side array, so it meets no dead end and no recursion limit; it
        builds one side per cut, about n^2/2 node ids on a built instance."""
        tables, n = self.tables, len(self.tables) - 1
        # side[u - 2]: the side of node u, for the nodes above the popped
        # state; the last slot stands for the node n + 1 that does not exist.
        side = [0] * n
        others = range(2, n + 1)
        found: list[Cut] = []
        for last, (_, b, flag) in enumerate(self._final):
            if not flag:
                continue
            stack = [(n, last, 0)]  # (v, state after v, side of node v + 1)
            while stack:
                v, i, s = stack.pop()
                side[v - 1] = s
                if v == 1:
                    found.append(Cut(side=frozenset(compress(others, side)), capacity=b))
                else:
                    for j, t in tables[v][i]:
                        stack.append((v - 1, j, t))
        return CutFamily.collect(found, self.lam).cuts


# ---------------------------------------------------------------------------
# randomized contraction probe


def karger_probe(g: CapGraph, trials: int, seed: int) -> CutFamily:
    """Distinct small cuts seen across seeded random contractions.

    Each trial orders the edges by independent exponential arrival times with
    rate equal to capacity (so the next contracted edge is capacity-weighted;
    a zero-capacity edge comes last) and contracts until two super-nodes
    remain.  The same seed always yields the same cut set.  Any returned cut
    is real, so the result must be a subset of the true family; a cut outside
    it would disprove the claimed enumeration.  A graph the shared input
    check refuses (no node, an endpoint outside 1..n, a negative capacity)
    is refused here too.
    """
    _check_graph(g)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = g.n
    edges = [(lo, hi, c) for lo, hi, c in g.edges]
    expovariate = random.Random(seed).expovariate
    weighted = [i for i, e in enumerate(edges) if e[2]]
    unweighted = [i for i, e in enumerate(edges) if not e[2]]
    by_side: dict[frozenset[int], int] = {}
    for _ in range(trials):
        order = sorted(weighted, key=lambda i: expovariate(edges[i][2])) + unweighted
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
