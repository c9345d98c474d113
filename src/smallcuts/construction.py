"""Deterministic construction of the counterexample family.

For an even ``k >= 4`` this module builds the capacitated chain graph whose
only small cuts (capacity below the threshold 5) are the n-1 prefix cuts and
the k-1 interval cuts, together with the link system: k internally
node-disjoint source-sink paths, the candidate point assigning 1/k to every
link, and the 0/1 incidence matrices used by the certification code.

Node indices are 1-based throughout; node 1 is the source s, node n the sink
t. Built instances store edges and links with lo < hi; an instance document
may list an edge's ends in either order.  ``listed_sums``, the one
statement of which pairs cross the listed cuts, and all three cut
enumerators accept both orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, repeat
from operator import index
from typing import Iterable, NamedTuple

from .exactmath import IntMatrix

LAMBDA = 5  # small-cut threshold; the capacity pattern below is tuned to it


class Edge(NamedTuple):
    lo: int
    hi: int
    cap: int


class QSet(NamedTuple):
    """j-th interval of k/2 consecutive internal nodes."""

    index: int
    first: int
    last: int


class Link(NamedTuple):
    id: int
    lo: int
    hi: int
    path: int


@dataclass(frozen=True)
class CapGraph:
    """Undirected capacitated graph with a small-cut threshold."""

    n: int
    edges: tuple[Edge, ...]
    lam: int

    def node_range(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class Instance:
    """What an instance document holds; the paths are read from the links
    by ``link_paths``."""

    k: int
    graph: CapGraph
    qsets: tuple[QSet, ...]
    links: tuple[Link, ...]
    xstar: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return len(self.links)

    def link(self, link_id: int) -> Link:
        """Link by its 1-based id."""
        if not 1 <= link_id <= self.m:
            raise ValueError(f"link {link_id} out of range 1..{self.m}")
        return self.links[link_id - 1]

    @cached_property
    def cut_links(self) -> tuple[int, ...]:
        """The links crossing each listed cut, in incidence-row order, each
        row a bitset with bit ``l`` set for link ``l`` (``bit_ids`` decodes
        one); computed once per object (``dataclasses.replace`` makes a new
        one)."""
        return tuple(listed_sums(self, ((l.lo, l.hi, 1 << l.id) for l in self.links)))

    def qcut_links(self, j: int) -> frozenset[int]:
        """Ids of links with exactly one endpoint in interval j."""
        if not 1 <= j <= self.k - 1:
            raise ValueError(f"interval index {j} out of range 1..{self.k - 1}")
        return frozenset(bit_ids(self.cut_links[j - 1]))

    def nested_side(self, i: int) -> frozenset[int]:
        """Canonical side (excluding node 1) of the i-th prefix cut."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"nested index {i} out of range 1..{self.n - 1}")
        return frozenset(range(i + 1, self.n + 1))

    def qset_side(self, j: int) -> frozenset[int]:
        """Node set of interval j."""
        if not 1 <= j <= self.k - 1:
            raise ValueError(f"interval index {j} out of range 1..{self.k - 1}")
        q = self.qsets[j - 1]
        return frozenset(range(q.first, q.last + 1))


def _check_k(k: int) -> None:
    """Refuse a k that is not an even integer >= 4.  An integer is whatever
    ``operator.index`` accepts, numpy's included; a float, a Fraction or a
    string is refused even when its value is an even integer."""
    try:
        i = index(k)
    except TypeError:
        i = 0  # refused below, with the same message
    if i < 4 or i % 2 != 0:
        raise ValueError(f"k must be an even integer >= 4, got {k}")


def node_count(k: int) -> int:
    return 2 + k * (k - 1) // 2


def link_count(k: int) -> int:
    return node_count(k) + k - 2


def edge_capacity(k: int, i: int) -> int:
    """Capacity of the chain edge (v_i, v_{i+1}).

    The first and last chain edges get 2; an edge interior to an interval
    gets 3; an edge joining two consecutive intervals gets 1.
    """
    _check_k(k)
    n = node_count(k)
    if not 1 <= i <= n - 1:
        raise ValueError(f"chain edge position {i} out of range 1..{n - 1}")
    return _chain_capacity(k // 2, n, i)


def _chain_capacity(half: int, n: int, i: int) -> int:
    """``edge_capacity`` for a k already checked, ``half = k/2`` and
    ``n = node_count(k)``: 2 at both ends; otherwise 1 where node i is the
    last of its interval, (i - 2) % half == half - 1, and 3 elsewhere."""
    if i == 1 or i == n - 1:
        return 2
    return 1 if (i - 2) % half == half - 1 else 3


def e2_endpoints(k: int, j: int) -> tuple[int, int]:
    """Endpoints of the j-th chord: last node of interval j-1, first of j+1.

    Interval 0 is {s} and interval k is {t}, so chord 1 leaves the source and
    chord k-1 enters the sink.
    """
    _check_k(k)
    if not 1 <= j <= k - 1:
        raise ValueError(f"chord index {j} out of range 1..{k - 1}")
    half = k // 2
    return (1 + (j - 1) * half, 2 + j * half)


def path_q_incidence(k: int, i: int, j: int) -> bool:
    """Whether path i has an internal node in interval j.

    Path i meets interval i and the next k/2 - 1 consecutively indexed
    intervals, wrapping around modulo k-1.
    """
    _check_k(k)
    return _meets(k, i, j)


def _meets(k: int, i: int, j: int) -> bool:
    """``path_q_incidence`` for a k already checked."""
    return (j - i) % (k - 1) < k // 2


def meeting_paths(k: int, j: int) -> list[int]:
    """The k/2 paths that meet interval j, ascending: those i with
    ``path_q_incidence(k, i, j)``, which are j, j-1, ..., j-k/2+1 modulo k-1."""
    _check_k(k)
    return sorted((j - 1 - t) % (k - 1) + 1 for t in range(k // 2))


def build_qsets(k: int) -> tuple[QSet, ...]:
    _check_k(k)
    half = k // 2
    return tuple(
        QSet(j, 2 + (j - 1) * half, 1 + j * half) for j in range(1, k)
    )


def build_graph(k: int) -> CapGraph:
    """The chain edges (i, i + 1, ``edge_capacity(k, i)``) for i = 1..n-1,
    then the chords ``e2_endpoints(k, j)`` of capacity 1 for j = 1..k-1;
    k is checked once, not once per edge."""
    _check_k(k)
    n = node_count(k)
    caps = map(partial(_chain_capacity, k // 2, n), range(1, n))
    steps = map(Edge._make, zip(range(1, n), range(2, n + 1), caps))
    chords = (Edge(*e2_endpoints(k, j), 1) for j in range(1, k))
    return CapGraph(n=n, edges=(*steps, *chords), lam=LAMBDA)


def build_circulant(k: int) -> IntMatrix:
    """(k-1) x (k-1) path/interval incidence matrix; circulant with k/2 ones
    per row.  Entry (i, j) is ``path_q_incidence(k, i, j)``: row 1 holds
    ones in columns 1..k/2, and row i is row 1 rotated right by i - 1."""
    _check_k(k)
    half = k // 2
    twice = ([1] * half + [0] * (half - 1)) * 2  # row 1, twice over
    return IntMatrix(
        k - 1,
        k - 1,
        tuple(chain.from_iterable(twice[k - i : 2 * k - 1 - i] for i in range(1, k))),
    )


def build_links(k: int) -> tuple[Link, ...]:
    """Lay the links out from the interval assignment: the paths meeting
    interval j, ascending, take its nodes in ascending order.

    Source link i starts path i, and node v's forward link, id k + v - 1,
    continues v's path: it ends at the next node of that path, or at the
    sink after its last node.  So every path runs from 1 to n through
    increasing nodes; path k, which meets no interval, is the single link
    (1, n).  One sweep down the nodes finds each node's successor.
    """
    _check_k(k)
    n = node_count(k)
    owner = [0] * n  # owner[v]: the path through internal node v
    for q in build_qsets(k):
        owner[q.first : q.last + 1] = meeting_paths(k, q.index)
    upper = [n] * (k + 1)  # upper[i]: the lowest node of path i swept so far
    ends = [n] * n  # ends[v]: the hi of node v's forward link
    for v in range(n - 1, 1, -1):
        i = owner[v]
        ends[v] = upper[i]
        upper[i] = v
    paths = range(1, k + 1)
    source = zip(paths, repeat(1), upper[1:], paths)
    forward = zip(range(k + 1, k + n - 1), range(2, n), ends[2:], owner[2:])
    return tuple(map(Link._make, chain(source, forward)))


def build_instance(k: int) -> Instance:
    _check_k(k)
    links = build_links(k)
    inst = Instance(
        k=k,
        graph=build_graph(k),
        qsets=build_qsets(k),
        links=links,
        xstar=(Fraction(1, k),) * len(links),
    )
    validate_instance(inst)
    return inst


def link_paths(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """The node sequence of each path i = 1..k, read by following its links
    from node 1: source link i, then the forward link leaving each node
    reached, up to node n.  A chain that stops, falls back or runs into a
    link of another path is a ValueError that names the path."""
    k, n = inst.k, inst.n
    by_id = {l.id: l for l in inst.links}
    forward = {l.lo: l for l in inst.links if l.lo != 1}
    paths = []
    for i in range(1, k + 1):
        seq, nxt = [1], by_id.get(i)
        while seq[-1] != n:
            if nxt is None or nxt.hi <= seq[-1]:
                raise ValueError(f"path {i} stops at node {seq[-1]}: no link to a higher node")
            if nxt.path != i:
                raise ValueError(f"link chain of path {i} crosses into path {nxt.path}")
            seq.append(nxt.hi)
            nxt = forward.get(nxt.hi)
        paths.append(tuple(seq))
    return tuple(paths)


def validate_instance(inst: Instance) -> None:
    """Structural checks in O(n + m), the same for built and loaded
    instances; raises ValueError on any violation.

    The paths are read from the links by ``link_paths``.  They run from 1
    to n through increasing nodes, and are internally disjoint, since each
    node has one forward link and that link names one path.
    """
    k, n = inst.k, inst.n
    _check_k(k)
    half = k // 2
    if n != node_count(k) or inst.m != link_count(k):
        raise ValueError("node or link count mismatch")
    if len(inst.graph.edges) != (n - 1) + (k - 1):
        raise ValueError("edge count mismatch")
    for i, e in enumerate(inst.graph.edges):
        if e.cap < 0:
            raise ValueError(f"edges[{i}] = {list(e)} has a negative capacity")
    owner = [0] * (n + 1)  # node -> the path through it, 0 for none
    for i, seq in enumerate(link_paths(inst), start=1):
        for v in seq[1:-1]:
            owner[v] = i
    if not all(owner[2:n]):
        raise ValueError("some internal node lies on no path")
    for kind, items in (("edge", inst.graph.edges), ("link", inst.links)):
        for item in items:
            if not (1 <= item.lo <= n and 1 <= item.hi <= n):
                raise ValueError(f"{kind} {list(item)} has an endpoint outside 1..{n}")
    for q in inst.qsets:
        if not (2 <= q.first <= q.last <= n - 1 and q.last - q.first + 1 == half):
            raise ValueError(
                f"qsets[{q.index - 1}] = [{q.first}, {q.last}] is not {half} "
                f"consecutive nodes within 2..{n - 1}"
            )
    # intervals of k/2 nodes within 2..n-1 partition them iff they start at
    # 2, 2 + k/2, 2 + k, ...
    if sorted(q.first for q in inst.qsets) != list(range(2, n, half)):
        raise ValueError("intervals do not partition the internal nodes")
    for q in inst.qsets:
        met = {owner[v] for v in range(q.first, q.last + 1)}
        if met != set(meeting_paths(k, q.index)):
            raise ValueError(f"interval {q.index} meets wrong path set {met}")
    for ell in inst.links[:k]:
        if ell.lo != 1 or ell.path != ell.id:
            raise ValueError("source link indexing broken")
    for ell in inst.links[k:]:
        if ell.id != k + ell.lo - 1:
            raise ValueError("forward link indexing broken")
    if inst.links[k - 1][:3] != (k, 1, n):
        raise ValueError("link k must join source and sink")
    if any(ell.id != f for f, ell in enumerate(inst.links, start=1)):
        raise ValueError("links are not listed in id order")


def build_incidence_matrix(inst: Instance) -> IntMatrix:
    """m x m cut/link incidence matrix: interval-cut rows, then prefix-cut
    rows, each the indicator of a row of ``inst.cut_links``; column order is
    link id."""
    m, rows = inst.m, inst.cut_links
    entries = [0] * (len(rows) * m)
    for r, bits in enumerate(rows):
        for f in bit_ids(bits):
            entries[r * m + f - 1] = 1
    mat = IntMatrix(len(rows), m, tuple(entries))
    assert mat.rows == mat.cols == m
    return mat


def bit_ids(bits: int) -> list[int]:
    """The positions of the set bits of ``bits >= 0``, ascending: the link
    ids of a row held as a bitset."""
    digits = bin(bits)[:1:-1]  # least significant first
    ids, i = [], digits.find("1")
    while i >= 0:
        ids.append(i)
        i = digits.find("1", i + 1)
    return ids


def _check_partition(inst: Instance) -> None:
    """Refuse intervals that are not k - 1 intervals partitioning 2..n-1,
    in O(k).  Walking up from node 2, each interval must start at the node
    after the one before it ends, until one ends at n - 1, and the walk must
    meet every interval.  The ValueError names the interval after which the
    walk fails, or else the first interval, in row order, that it never
    meets."""
    k, n, qsets = inst.k, inst.n, inst.qsets
    head = f"intervals do not partition 2..{n - 1}"
    if len(qsets) != k - 1:
        raise ValueError(f"{head}: expected {k - 1} intervals, got {len(qsets)}")
    starting: dict[int, int] = {}
    for j, q in enumerate(qsets, start=1):
        starting.setdefault(q.first, j)
    v, met, where = 2, set(), "no interval starts at node 2"
    while v < n:
        j = starting.get(v)
        if j is None:
            raise ValueError(f"{head}: {where}")
        q = qsets[j - 1]
        name = f"interval {j} = [{q.first}, {q.last}]"
        if not v <= q.last < n:
            raise ValueError(f"{head}: {name} is not a run of nodes within 2..{n - 1}")
        met.add(j)
        v, where = q.last + 1, f"{name} is followed by no interval at node {q.last + 1}"
    if len(met) != k - 1:
        j = next(j for j in range(1, k) if j not in met)
        q = qsets[j - 1]
        raise ValueError(
            f"{head}: interval {j} = [{q.first}, {q.last}] meets nodes of another "
            f"or lies outside 2..{n - 1}"
        )


def listed_sums(inst: Instance, pairs: Iterable[tuple[int, int, int]]) -> list[int]:
    """For each listed cut, in incidence-row order Q_1..Q_{k-1}, N_1..N_{n-1},
    the sum of ``value`` over the pairs (a, b, value) that cross it: the one
    crossing rule for the listed cuts.  A pair with ends in 1..n, in either
    order, crosses the prefix cuts min..max-1 and the intervals holding
    exactly one end; a pair with an end outside 1..n is refused.  One pass
    over the pairs and one over the nodes: the prefix sums run over a
    difference array.

    Summing ``1 << id`` over the links gives each row as a bitset, ``cap``
    over the edges each listed cut's capacity, and a point's numerators over
    the links each row's total.  The rule holds only when the k - 1
    intervals partition 2..n-1, so other intervals are refused first
    (``_check_partition``)."""
    _check_partition(inst)
    k, n = inst.k, inst.n
    interval = [0] * (n + 1)  # node -> index of its interval, 0 for s and t
    for j, q in enumerate(inst.qsets, start=1):
        interval[q.first : q.last + 1] = [j] * (q.last - q.first + 1)
    qsums = [0] * k  # qsums[j]: interval j; qsums[0] takes the ends at s and t
    steps = [0] * (n + 1)  # prefix cut i is crossed by the pairs with lo <= i < hi
    for a, b, value in pairs:
        lo, hi = (a, b) if a <= b else (b, a)
        if lo < 1 or hi > n:
            raise ValueError(f"pair ({a}, {b}) has an end outside 1..{n}")
        steps[lo] += value
        steps[hi] -= value
        if interval[lo] != interval[hi]:
            qsums[interval[lo]] += value
            qsums[interval[hi]] += value
    sums, run = qsums[1:], 0
    for i in range(1, n):
        run += steps[i]
        steps[i] = 0  # a bitset step is as wide as its top bit: free it once read
        sums.append(run)
    return sums


def listed_labels(inst: Instance) -> list[str]:
    """Labels of the listed cuts in incidence-row order."""
    return [f"Q_{j}" for j in range(1, inst.k)] + [f"N_{i}" for i in range(1, inst.n)]


def listed_small_cuts(inst: Instance) -> list[tuple[str, frozenset[int]]]:
    """The labelled family of record: canonical sides of every prefix and
    interval cut, in row order Q_1..Q_{k-1}, N_1..N_{n-1}."""
    sides = [inst.qset_side(j) for j in range(1, inst.k)]
    sides += [inst.nested_side(i) for i in range(1, inst.n)]
    return list(zip(listed_labels(inst), sides))
