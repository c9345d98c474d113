"""Deterministic construction of the counterexample family.

For an even ``k >= 4`` this module builds the capacitated chain graph whose
only small cuts (capacity below the threshold 5) are the n-1 prefix cuts and
the k-1 interval cuts, together with the link system: k internally
node-disjoint source-sink paths, the candidate point assigning 1/k to every
link, and the 0/1 incidence matrices used by the certification code.

Node indices are 1-based throughout; node 1 is the source s, node n the sink
t. Built instances store edges and links with lo < hi; an instance document
may list an edge's ends in either order.  ``listed_crossings``, the one
statement of which pairs cross the listed cuts, and all three cut
enumerators accept both orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
class PathSystem:
    """The k source-sink paths and the per-interval node assignment.

    ``paths[i-1]`` is the full node sequence of path i (starting at 1, ending
    at n, strictly increasing).  ``assignment[j]`` maps path index -> node for
    the k/2 nodes of interval j.
    """

    paths: tuple[tuple[int, ...], ...]
    assignment: dict[int, dict[int, int]]


@dataclass(frozen=True)
class Instance:
    k: int
    graph: CapGraph
    qsets: tuple[QSet, ...]
    path_system: PathSystem
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
    def cut_links(self) -> tuple[frozenset[int], ...]:
        """Ids of the links crossing each listed cut, in incidence-row order;
        computed once per object (``dataclasses.replace`` makes a new one)."""
        rows = listed_crossings(self, ((l.lo, l.hi) for l in self.links))
        return tuple(frozenset(self.links[p].id for p in row) for row in rows)

    def nested_cut_links(self, i: int) -> frozenset[int]:
        """Ids of links crossing the prefix cut {1..i} | {i+1..n}."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"nested index {i} out of range 1..{self.n - 1}")
        return self.cut_links[self.k - 2 + i]

    def qcut_links(self, j: int) -> frozenset[int]:
        """Ids of links with exactly one endpoint in interval j."""
        if not 1 <= j <= self.k - 1:
            raise ValueError(f"interval index {j} out of range 1..{self.k - 1}")
        return self.cut_links[j - 1]

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
    if k < 4 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 4, got {k}")


def node_count(k: int) -> int:
    return 2 + k * (k - 1) // 2


def link_count(k: int) -> int:
    return node_count(k) + k - 2


def qset_of_node(k: int, v: int) -> int:
    """Index of the interval containing internal node v."""
    half = k // 2
    return (v - 2) // half + 1


def edge_capacity(k: int, i: int) -> int:
    """Capacity of the chain edge (v_i, v_{i+1}).

    The first and last chain edges get 2; an edge interior to an interval
    gets 3; an edge joining two consecutive intervals gets 1.
    """
    _check_k(k)
    n = node_count(k)
    if not 1 <= i <= n - 1:
        raise ValueError(f"chain edge position {i} out of range 1..{n - 1}")
    if i == 1 or i == n - 1:
        return 2
    if qset_of_node(k, i) == qset_of_node(k, i + 1):
        return 3
    return 1


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
    half = k // 2
    if j >= i:
        return j <= min(i + half - 1, k - 1)
    return j <= i - half


def build_qsets(k: int) -> tuple[QSet, ...]:
    _check_k(k)
    half = k // 2
    return tuple(
        QSet(j, 2 + (j - 1) * half, 1 + j * half) for j in range(1, k)
    )


def build_graph(k: int) -> CapGraph:
    _check_k(k)
    n = node_count(k)
    edges = [Edge(i, i + 1, edge_capacity(k, i)) for i in range(1, n)]
    for j in range(1, k):
        lo, hi = e2_endpoints(k, j)
        edges.append(Edge(lo, hi, 1))
    return CapGraph(n=n, edges=tuple(edges), lam=LAMBDA)


def build_circulant(k: int) -> IntMatrix:
    """(k-1) x (k-1) path/interval incidence matrix; circulant with k/2 ones per row."""
    _check_k(k)
    return IntMatrix.from_rows(
        [
            [1 if path_q_incidence(k, i, j) else 0 for j in range(1, k)]
            for i in range(1, k)
        ]
    )


def build_path_system(k: int) -> PathSystem:
    """Assign interval nodes to the paths meeting them and lay out the paths.

    Within each interval the assignment is the canonical bijection: meeting
    path indices sorted ascending receive the interval's nodes in ascending
    order.  Every sorted per-path node list is then strictly increasing, so
    the paths are well formed and internally disjoint.
    """
    _check_k(k)
    n = node_count(k)
    qsets = build_qsets(k)
    internal: dict[int, list[int]] = {i: [] for i in range(1, k)}
    assignment: dict[int, dict[int, int]] = {}
    for q in qsets:
        meeting = [i for i in range(1, k) if path_q_incidence(k, i, q.index)]
        nodes = list(range(q.first, q.last + 1))
        assignment[q.index] = dict(zip(sorted(meeting), nodes))
        for path_idx, node in assignment[q.index].items():
            internal[path_idx].append(node)
    paths = [
        (1, *sorted(internal[i]), n) for i in range(1, k)
    ]
    paths.append((1, n))
    return PathSystem(paths=tuple(paths), assignment=assignment)


def build_links(k: int, path_system: PathSystem) -> tuple[Link, ...]:
    """Index the links: source links 1..k by path, then the forward link of
    node v gets id k + v - 1."""
    n = node_count(k)
    links: list[Link] = []
    for i in range(1, k + 1):
        seq = path_system.paths[i - 1]
        links.append(Link(i, 1, seq[1], i))
    successor: dict[int, tuple[int, int]] = {}
    for i, seq in enumerate(path_system.paths, start=1):
        for a, b in zip(seq, seq[1:]):
            if a != 1:
                successor[a] = (b, i)
    for v in range(2, n):
        nxt, path_idx = successor[v]
        links.append(Link(k + v - 1, v, nxt, path_idx))
    return tuple(links)


def build_instance(k: int) -> Instance:
    _check_k(k)
    graph = build_graph(k)
    qsets = build_qsets(k)
    path_system = build_path_system(k)
    links = build_links(k, path_system)
    m = link_count(k)
    assert len(links) == m
    xstar = tuple(Fraction(1, k) for _ in range(m))
    inst = Instance(
        k=k,
        graph=graph,
        qsets=qsets,
        path_system=path_system,
        links=links,
        xstar=xstar,
    )
    validate_instance(inst)
    return inst


def validate_instance(inst: Instance) -> None:
    """Structural sanity checks; raises ValueError on any violation."""
    k, n = inst.k, inst.n
    half = k // 2
    if n != node_count(k) or inst.m != link_count(k):
        raise ValueError("node or link count mismatch")
    if len(inst.graph.edges) != (n - 1) + (k - 1):
        raise ValueError("edge count mismatch")
    for kind, items in (("edge", inst.graph.edges), ("link", inst.links)):
        for item in items:
            if not (1 <= item.lo <= n and 1 <= item.hi <= n):
                raise ValueError(f"{kind} {list(item)} has an endpoint outside 1..{n}")
    covered = sorted(v for q in inst.qsets for v in range(q.first, q.last + 1))
    if covered != list(range(2, n)):
        raise ValueError("intervals do not partition the internal nodes")
    if any(q.last - q.first + 1 != half for q in inst.qsets):
        raise ValueError("interval of wrong size")
    seen: set[int] = set()
    for i, seq in enumerate(inst.path_system.paths, start=1):
        if seq[0] != 1 or seq[-1] != n:
            raise ValueError(f"path {i} does not run source to sink")
        if list(seq) != sorted(seq):
            raise ValueError(f"path {i} is not increasing")
        inner = set(seq[1:-1])
        if inner & seen:
            raise ValueError("paths share an internal node")
        seen |= inner
    if seen != set(range(2, n)):
        raise ValueError("some internal node lies on no path")
    for q in inst.qsets:
        met = {i for i in range(1, k) if set(inst.path_system.paths[i - 1][1:-1])
               & set(range(q.first, q.last + 1))}
        expect = {i for i in range(1, k) if path_q_incidence(k, i, q.index)}
        if met != expect:
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
    rows, each the indicator of ``inst.cut_links``; column order is link id."""
    m, rows = inst.m, inst.cut_links
    entries = [0] * (len(rows) * m)
    for r, links in enumerate(rows):
        for f in links:
            entries[r * m + f - 1] = 1
    mat = IntMatrix(len(rows), m, tuple(entries))
    assert mat.rows == mat.cols == m
    return mat


def listed_crossings(inst: Instance, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """For each listed cut, in incidence-row order Q_1..Q_{k-1}, N_1..N_{n-1},
    the positions of the pairs that cross it: the one crossing rule for the
    listed cuts.  A pair (a, b) with ends in 1..n, in either order, crosses
    the prefix cuts min..max-1 and the intervals holding exactly one end."""
    k, n = inst.k, inst.n
    interval = [0] * (n + 1)  # node -> index of its interval, 0 for s and t
    for j, q in enumerate(inst.qsets, start=1):
        interval[q.first : q.last + 1] = [j] * (q.last - q.first + 1)
    rows: list[list[int]] = [[] for _ in range(k + n - 2)]
    for pos, (a, b) in enumerate(pairs):
        lo, hi = min(a, b), max(a, b)
        for i in range(lo, hi):
            rows[k - 2 + i].append(pos)
        if interval[lo] != interval[hi]:
            for j in (interval[lo], interval[hi]):
                if j:
                    rows[j - 1].append(pos)
    return rows


def listed_labels(inst: Instance) -> list[str]:
    """Labels of the listed cuts in incidence-row order."""
    return [f"Q_{j}" for j in range(1, inst.k)] + [f"N_{i}" for i in range(1, inst.n)]


def listed_small_cuts(inst: Instance) -> list[tuple[str, frozenset[int]]]:
    """The labelled family of record: canonical sides of every prefix and
    interval cut, in row order Q_1..Q_{k-1}, N_1..N_{n-1}."""
    sides = [inst.qset_side(j) for j in range(1, inst.k)]
    sides += [inst.nested_side(i) for i in range(1, inst.n)]
    return list(zip(listed_labels(inst), sides))
