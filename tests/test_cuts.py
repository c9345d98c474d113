import dataclasses
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcuts.construction import CapGraph, Edge, build_instance, listed_small_cuts
from smallcuts.cuts import (
    MAX_BRUTE_NODES,
    SCAN_CHUNK_BITS,
    BruteForceSizeError,
    Cut,
    CutFamily,
    FrontierFamily,
    canonical_cut,
    cut_capacity,
    enumerate_bruteforce,
    enumerate_flow,
    karger_probe,
)

from oracles import boundary_capacity, scan_small_cuts


@pytest.fixture(scope="module")
def inst4():
    return build_instance(4)


@pytest.fixture(scope="module")
def inst6():
    return build_instance(6)


def triangle(lam: int) -> CapGraph:
    return CapGraph(n=3, edges=(Edge(1, 2, 1), Edge(2, 3, 1), Edge(1, 3, 1)), lam=lam)


def small_graphs():
    """Random small connected capacitated graphs (chain backbone + extras)."""

    def build(data):
        n, extra, lam = data
        edges = {(i, i + 1): 1 + (i * 7) % 3 for i in range(1, n)}
        for a, b, c in extra:
            lo, hi = sorted((a % n + 1, b % n + 1))
            if lo != hi:
                edges[(lo, hi)] = c
        return CapGraph(
            n=n,
            edges=tuple(Edge(lo, hi, c) for (lo, hi), c in sorted(edges.items())),
            lam=lam,
        )

    return st.tuples(
        st.integers(3, 7),
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(1, 3)),
            max_size=6,
        ),
        st.integers(1, 6),
    ).map(build)


@st.composite
def multigraphs(draw, max_n=12):
    """Connected capacitated multigraphs on at most ``max_n`` nodes: a chain
    backbone, chords anywhere (self-loops included), chords spanning most of
    the chain, and repeated edges, listed in random order with either end
    first."""
    n = draw(st.integers(2, max_n))
    cap = st.integers(1, 3)
    edges = [(i, i + 1, draw(cap)) for i in range(1, n)]
    edges += draw(
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n), cap), max_size=8)
    )
    for a, b, c in draw(
        st.lists(st.tuples(st.integers(1, 2), st.integers(0, 1), cap), max_size=3)
    ):
        if a < n - b:
            edges.append((a, n - b, c))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(b, a, c) if flip else (a, b, c) for (a, b, c), flip in zip(edges, flips)]
    edges = draw(st.permutations(edges))
    return CapGraph(
        n=n, edges=tuple(Edge(*e) for e in edges), lam=draw(st.integers(1, 8))
    )


@st.composite
def chained_gadgets(draw):
    """Connected graphs on at most 14 nodes made of copies of one random
    gadget laid along the node order: every block of ``width`` nodes
    carries the same backbone and chords, some reaching into the next
    block (a ladder is width 2 with rungs and rails), so that most nodes
    repeat a transition the DP has already built."""
    width = draw(st.integers(1, 3))
    n = width * draw(st.integers(14 // width - 2, 14 // width))
    cap = st.integers(1, 3)
    # offsets (a, b) from the start of a block, a < b <= a + width
    gadget = [(a, a + 1, draw(cap)) for a in range(width)]
    for a in draw(st.lists(st.integers(0, width - 1), max_size=3)):
        gadget.append((a, draw(st.integers(a + 1, a + width)), draw(cap)))
    edges = tuple(
        Edge(start + a, start + b, c)
        for start in range(1, n + 1, width)
        for a, b, c in gadget
        if start + b <= n
    )
    # lam just above the cheapest prefix cut {i + 1, ..., n}, so no family is empty
    cheapest = min(sum(c for a, b, c in edges if a <= i < b) for i in range(1, n))
    return CapGraph(n=n, edges=edges, lam=cheapest + draw(st.integers(1, 3)))


class TestCutCapacity:
    def test_first_prefix_cut(self, inst4):
        assert cut_capacity(inst4.graph, set(range(2, 9))) == 3

    def test_first_interval(self, inst4):
        assert cut_capacity(inst4.graph, {2, 3}) == 4

    def test_singleton_node3(self, inst4):
        # frozen from the boundary-sum oracle: edges (2,3)=3, (3,4)=1, chord (3,6)=1
        assert boundary_capacity(inst4.graph.edges, {3}) == 5
        assert cut_capacity(inst4.graph, {3}) == 5

    def test_source_with_node3_split(self, inst4):
        # the partition {v1, v3} vs rest, given by its canonical side
        side = {2, 4, 5, 6, 7, 8}
        assert boundary_capacity(inst4.graph.edges, side) == 8
        assert cut_capacity(inst4.graph, side) == 8

    def test_rejects_empty_and_full(self, inst4):
        with pytest.raises(ValueError):
            cut_capacity(inst4.graph, set())
        with pytest.raises(ValueError):
            cut_capacity(inst4.graph, set(range(1, 9)))

    @given(st.sets(st.integers(1, 8), min_size=1, max_size=7))
    def test_complement_symmetry(self, side):
        g = build_instance(4).graph
        if len(side) == 8:
            return
        complement = set(range(1, 9)) - side
        if not complement:
            return
        assert cut_capacity(g, side) == cut_capacity(g, complement)

    def test_canonical_cut_flips_source_side(self, inst4):
        c = canonical_cut(inst4.graph, {1, 2})
        assert c.side == frozenset(range(3, 9))
        assert c.capacity == cut_capacity(inst4.graph, {1, 2})


class TestCutExtent:
    # Cut.extent is (min(side), max(side)), or None for an empty side: kept
    # on the object, recorded by CutFamily.collect, never a field

    @staticmethod
    def ends(side):
        return (min(side), max(side)) if side else None

    def test_collected_cuts_carry_their_extent(self, inst4, inst6):
        record = CutFamily.collect(
            (canonical_cut(inst6.graph, side) for _, side in listed_small_cuts(inst6)),
            inst6.graph.lam,
        )
        given_order = (Cut(frozenset({9, 3}), 0), Cut(frozenset(), 0), Cut(frozenset({5}), 0))
        families = (
            enumerate_bruteforce(inst4.graph),
            enumerate_flow(inst6.graph),
            karger_probe(inst6.graph, 200, 3),
            record,
            CutFamily.collect(given_order, 1),
        )
        for family in families:
            assert len(family.cuts) > 0
            for c in family:
                assert "extent" in vars(c)  # recorded, not computed on read
                assert c.extent == self.ends(c.side)

    def test_direct_and_replaced_cuts_compute_their_own(self):
        c = Cut(frozenset({7, 2, 5}), 3)
        assert "extent" not in vars(c)
        assert c.extent == (2, 7)
        assert Cut(frozenset(), 0).extent is None
        (kept,) = CutFamily.collect([c], 4).cuts
        assert kept is c and kept.extent == (2, 7)
        for side in ({4, 11}, {-2, 0, 3}, set()):
            moved = dataclasses.replace(c, side=frozenset(side))
            assert "extent" not in vars(moved)
            assert moved.extent == self.ends(side)
        assert c.extent == (2, 7)

    def test_equality_hash_and_repr_ignore_it(self):
        read, unread = Cut(frozenset({3, 6}), 2), Cut(frozenset({3, 6}), 2)
        assert read.extent == (3, 6) and "extent" not in vars(unread)
        assert read == unread and hash(read) == hash(unread)
        assert repr(read) == repr(unread) == "Cut(side=frozenset({3, 6}), capacity=2)"
        assert [f.name for f in dataclasses.fields(Cut)] == ["side", "capacity"]
        assert dataclasses.astuple(read) == (frozenset({3, 6}), 2)
        assert read != Cut(frozenset({3, 4, 5, 6}), 2)  # same extent, other side


@pytest.mark.parametrize(
    "enumerate_cuts",
    (enumerate_bruteforce, enumerate_flow, lambda g: karger_probe(g, 10, 0)),
    ids=("brute", "flow", "probe"),
)
@pytest.mark.parametrize(
    "g, message",
    (
        (CapGraph(0, (), 5), "at least one node, got n = 0"),
        (
            CapGraph(3, (Edge(1, 2, 1), Edge(1, 5, 1)), 5),
            r"edges\[1\] = \[1, 5, 1\] has an endpoint outside 1\.\.3",
        ),
        (CapGraph(3, (Edge(0, 2, 1),), 5), r"edges\[0\] = \[0, 2, 1\] has an endpoint outside"),
        (
            CapGraph(3, (Edge(1, 2, 1), Edge(2, 3, -1)), 5),
            r"edges\[1\] = \[2, 3, -1\] has a negative capacity",
        ),
    ),
    ids=("no-node", "endpoint-above-n", "endpoint-zero", "negative-capacity"),
)
def test_enumerators_share_one_input_check(enumerate_cuts, g, message):
    # the scan once dropped an edge to node 5 of 3, and failed with a
    # negative shift count on no node, where the DP and the probe raised
    # KeyError or IndexError; all three now refuse the graph by name
    with pytest.raises(ValueError, match=message):
        enumerate_cuts(g)


class TestBruteForce:
    def test_k4_family_is_the_listed_one(self, inst4):
        fam = enumerate_bruteforce(inst4.graph)
        assert len(fam) == 10
        assert fam.sides() == {side for _, side in listed_small_cuts(inst4)}

    def test_k4_matches_subset_scan_oracle(self, inst4):
        oracle = scan_small_cuts(inst4.n, inst4.graph.edges, inst4.graph.lam)
        fam = enumerate_bruteforce(inst4.graph)
        assert fam.sides() == set(oracle)
        for c in fam:
            assert c.capacity == oracle[c.side]

    def test_k6_count(self, inst6):
        fam = enumerate_bruteforce(inst6.graph)
        assert len(fam) == 21
        assert fam.sides() == {side for _, side in listed_small_cuts(inst6)}

    def test_first_prefix_cut_present_with_capacity_3(self, inst6):
        fam = enumerate_bruteforce(inst6.graph)
        side = frozenset(range(2, inst6.n + 1))
        assert side in fam
        (cut,) = [c for c in fam if c.side == side]
        assert cut.capacity == 3

    def test_budget_guard(self):
        g = build_instance(8).graph  # 30 nodes
        with pytest.raises(BruteForceSizeError, match="enumerate_flow"):
            enumerate_bruteforce(g)

    def test_total_capacity_past_int64_refused(self):
        # the int64 scan wrapped three 2**62 capacities to -2**63 and
        # reported the cuts {2}, {3} and {2, 3}, which no other method finds
        g = CapGraph(3, tuple(Edge(a, b, 2**62) for a, b in ((1, 2), (2, 3), (1, 3))), 5)
        assert scan_small_cuts(g.n, g.edges, g.lam) == {} and len(enumerate_flow(g)) == 0
        with pytest.raises(BruteForceSizeError, match=r"2\*\*63 or more.*use enumerate_flow"):
            enumerate_bruteforce(g)

    def test_large_capacities_below_the_bound_agree(self):
        g = CapGraph(3, tuple(Edge(a, b, 2**61) for a, b in ((1, 2), (2, 3), (1, 3))), 2**62 + 1)
        expected = scan_small_cuts(g.n, g.edges, g.lam)
        assert set(expected.values()) == {2**62} and len(expected) == 3
        for fam in (enumerate_bruteforce(g), enumerate_flow(g), karger_probe(g, 20, 0)):
            assert {c.side: c.capacity for c in fam} == expected

    def test_sums_stay_below_the_total(self):
        # total 2**63 - 1 is accepted, but 2 * c({2}, 3) = 2**63 alone would wrap
        edges = (Edge(1, 2, 2**62 - 1), Edge(2, 3, 2**62))
        g = CapGraph(3, edges, 2**62 + 1)
        expected = scan_small_cuts(g.n, g.edges, g.lam)
        assert expected == {frozenset({3}): 2**62, frozenset({2, 3}): 2**62 - 1}
        assert {c.side: c.capacity for c in enumerate_bruteforce(g)} == expected

    @pytest.mark.parametrize(
        "extra",
        (
            (),
            (Edge(2, 24, 1), Edge(12, 23, 2)),  # chords across the low/high split
            (Edge(20, 21, 2),),  # a parallel edge on the split
            (Edge(3, 22, 0), Edge(5, 5, 3)),  # a zero-capacity chord and a self-loop
            (Edge(24, 2, 1), Edge(21, 9, 1)),  # chords listed high end first
        ),
        ids=("path", "chords", "parallel", "zero-and-loop", "high-first"),
    )
    def test_past_one_chunk_matches_flow(self, extra):
        n = MAX_BRUTE_NODES
        assert n - 1 > SCAN_CHUNK_BITS  # the scan runs 2**(n - 1 - 19) chunks
        path = tuple(Edge(i, i + 1, 1 + i % 2) for i in range(1, n))
        g = CapGraph(n, path + extra, 5)
        brute, flow = enumerate_bruteforce(g), enumerate_flow(g)
        assert any(max(c.side) > SCAN_CHUNK_BITS + 1 for c in brute)
        assert len(brute) == len(flow) and tuple(brute) == tuple(flow)

    def test_memory_at_the_node_budget(self):
        # the per-edge scan that the doubling table replaced peaked at about
        # 40 MB on this graph
        n = MAX_BRUTE_NODES
        g = CapGraph(n, tuple(Edge(i, i + 1, 1) for i in range(1, n)), 3)
        tracemalloc.start()
        try:
            fam = enumerate_bruteforce(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fam) == (n - 1) * n // 2  # the intervals {i..j} and {i..n}
        assert peak <= 40 * 2**20

    def test_memory_in_the_narrowest_type(self):
        # the unit path's total is 23, so the table and the chunk are int8,
        # 512 KiB each; the int64 scan peaked at 8.5 MiB on this graph
        n = MAX_BRUTE_NODES
        g = CapGraph(n, tuple(Edge(i, i + 1, 1) for i in range(1, n)), 3)
        tracemalloc.start()
        try:
            enumerate_bruteforce(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize(
        "total", (127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1)
    )
    @pytest.mark.parametrize("shape", ("star", "chorded"))
    def test_type_boundaries_match_subset_scan_oracle(self, total, shape):
        # the scan sums in the narrowest integer type that holds the total;
        # the star's side {2} has the total as its capacity, and the chorded
        # graph subtracts cross terms of three low nodes
        a, b = total // 2, total // 4
        if shape == "star":
            edges = (Edge(1, 2, a), Edge(2, 3, b), Edge(4, 2, total - a - b))
        else:
            c = total // 8
            rest = total - a - b - c - 1
            edges = (Edge(1, 2, a), Edge(3, 2, b), Edge(3, 4, c), Edge(2, 4, rest), Edge(4, 4, 1))
        assert sum(e.cap for e in edges) == total
        for lam in (-5, 0, 1, total, total + 1, 2**70):
            g = CapGraph(4, edges, lam)
            expected = scan_small_cuts(g.n, g.edges, lam)
            assert {c.side: c.capacity for c in enumerate_bruteforce(g)} == expected
        assert len(expected) == 7  # lam = 2**70 takes every side

    def test_past_one_chunk_at_a_type_boundary(self):
        # total 128 takes int16; the side of the even nodes crosses every
        # edge, 128 in all, which int8 would wrap to -128, below any lam
        n = MAX_BRUTE_NODES
        g = CapGraph(n, tuple(Edge(i, i + 1, 106 if i == 22 else 1) for i in range(1, n)), 5)
        assert sum(e.cap for e in g.edges) == 128
        assert boundary_capacity(g.edges, range(2, n + 1, 2)) == 128
        assert tuple(enumerate_bruteforce(g)) == tuple(enumerate_flow(g))

    def test_triangle_below_threshold_is_empty(self):
        assert len(enumerate_bruteforce(triangle(lam=1))) == 0

    def test_raising_threshold_grows_family(self, inst4):
        g5 = inst4.graph
        g6 = dataclasses.replace(g5, lam=6)
        assert enumerate_bruteforce(g5).sides() <= enumerate_bruteforce(g6).sides()


class TestFlowEnumeration:
    @pytest.mark.parametrize("k", (4, 6))
    def test_matches_bruteforce(self, k):
        g = build_instance(k).graph
        assert enumerate_flow(g).sides() == enumerate_bruteforce(g).sides()

    def test_k8_exact_family(self):
        inst = build_instance(8)
        fam = enumerate_flow(inst.graph)
        assert len(fam) == 36  # 29 prefix cuts + 7 interval cuts
        assert fam.sides() == {side for _, side in listed_small_cuts(inst)}

    def test_triangle_empty(self):
        assert len(enumerate_flow(triangle(lam=1))) == 0

    def test_triangle_lam3_collects_singletons(self):
        fam = enumerate_flow(triangle(lam=3))
        assert fam.sides() == {frozenset({2}), frozenset({3}), frozenset({2, 3})}

    def test_disconnected_rejected(self):
        g = CapGraph(n=4, edges=(Edge(1, 2, 1), Edge(3, 4, 1)), lam=2)
        with pytest.raises(ValueError, match="connected"):
            enumerate_flow(g)

    def test_negative_capacity_refused(self):
        # the pruning assumes the boundary never falls: with edge (2, 3, -4)
        # it dropped the cuts {2} and {2, 4} that a subset scan finds
        edges = (Edge(1, 2, 6), Edge(2, 3, -4), Edge(3, 4, 1), Edge(1, 4, 1))
        assert {frozenset({2}), frozenset({2, 4})} <= set(scan_small_cuts(4, edges, 5))
        with pytest.raises(ValueError, match=r"edges\[1\] = \[2, 3, -4\] has a negative capacity"):
            enumerate_flow(CapGraph(4, edges, 5))

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_agree_with_bruteforce(self, g):
        assert enumerate_flow(g).sides() == enumerate_bruteforce(g).sides()

    @given(multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_multigraphs_match_subset_scan_oracle(self, g):
        oracle = scan_small_cuts(g.n, g.edges, g.lam)
        for fam in (enumerate_flow(g), enumerate_bruteforce(g)):
            assert {c.side: c.capacity for c in fam} == oracle

    def test_deeper_than_the_recursion_limit(self):
        n = 1100
        limit = sys.getrecursionlimit()
        assert limit < n
        g = CapGraph(n=n, edges=tuple(Edge(i, i + 1, 3) for i in range(1, n)), lam=5)
        fam = enumerate_flow(g)
        assert sys.getrecursionlimit() == limit
        assert len(fam) == n - 1
        assert {c.side: c.capacity for c in fam} == {
            frozenset(range(j, n + 1)): 3 for j in range(2, n + 1)
        }

    def test_single_node_has_no_cut(self):
        assert len(enumerate_flow(CapGraph(n=1, edges=(), lam=5))) == 0

    # lam <= 0 drops every state at the first node: the count reads no state
    @pytest.mark.parametrize(
        "lam, expected", ((5, {frozenset({2}): 4}), (4, {}), (0, {}), (-2, {}))
    )
    def test_two_nodes_sum_parallel_edges(self, lam, expected):
        g = CapGraph(n=2, edges=(Edge(1, 2, 1), Edge(1, 2, 3)), lam=lam)
        fam = enumerate_flow(g)
        assert len(fam) == len(expected)
        assert {c.side: c.capacity for c in fam} == expected

    @pytest.mark.parametrize("lam", (1, 4, 6, 11, 0, -2))
    def test_star_centred_on_the_last_node(self, lam):
        # every leaf stays open until node 11: frontier width 10, and a
        # state after it has up to 114 predecessors (lam = 11)
        edges = tuple(Edge(i, 11, 1 + i % 3) for i in range(1, 11))
        g = CapGraph(n=11, edges=edges, lam=lam)
        fam = enumerate_flow(g)
        oracle = scan_small_cuts(11, edges, lam)
        assert len(fam) == len(oracle)  # read before the walk
        assert {c.side: c.capacity for c in fam} == oracle

    @given(
        st.lists(st.integers(1, 4), min_size=28, max_size=28),
        st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_complete_graph_k8_matches_subset_scan_oracle(self, caps, lam):
        pairs = [(a, b) for a in range(1, 9) for b in range(a + 1, 9)]
        edges = tuple(Edge(a, b, c) for (a, b), c in zip(pairs, caps))
        g = CapGraph(n=8, edges=edges, lam=lam)
        fam = enumerate_flow(g)
        oracle = scan_small_cuts(8, edges, lam)
        assert len(fam) == len(oracle)  # read before the walk
        assert {c.side: c.capacity for c in fam} == oracle

    def test_wide_star_exceeds_the_width_budget(self):
        g = CapGraph(n=40, edges=tuple(Edge(i, 40, 1) for i in range(1, 40)), lam=5)
        with pytest.raises(BruteForceSizeError, match="width 39"):
            enumerate_flow(g)

    @pytest.mark.parametrize("k", range(4, 26, 2))
    def test_count_is_the_walked_size(self, k):
        fam = enumerate_flow(build_instance(k).graph)
        count = len(fam)  # read before the walk
        assert count == len(fam.cuts) == len(fam.sides()) == len(list(fam))

    @given(multigraphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_subset_scan_oracle(self, g):
        fam = enumerate_flow(g)
        assert len(fam) == len(scan_small_cuts(g.n, g.edges, g.lam))

    def test_keeps_its_graph(self, inst4):
        # the certifier's count proves exactness only for the family of the
        # instance's own graph, so the family carries the graph it was built from
        fam = enumerate_flow(inst4.graph)
        assert fam.graph is inst4.graph and fam.lam == inst4.graph.lam

    def test_sides_built_once(self, inst4):
        fam = enumerate_flow(inst4.graph)
        assert fam.sides() is fam.sides()
        assert inst4.qset_side(1) in fam and frozenset({3}) not in fam
        listed = CutFamily.collect(fam, fam.lam)
        assert listed.sides() is listed.sides() and listed.sides() == fam.sides()

    def test_k48_family_is_the_listed_one(self):
        inst = build_instance(48)
        listed = {side for _, side in listed_small_cuts(inst)}
        assert enumerate_flow(inst.graph).sides() == listed

    @pytest.mark.parametrize("k", (6, 24, 48, 94))
    def test_built_instances_share_eleven_tables(self, k):
        # the n - 1 node transitions take 11 distinct values at every k:
        # a key finer than the transition (one holding v, say) breaks this
        inst = build_instance(k)
        tables = enumerate_flow(inst.graph).tables[2:]
        assert len(tables) == inst.n - 1
        assert len({id(t) for t in tables}) == 11

    @given(chained_gadgets())
    @settings(max_examples=60, deadline=None)
    def test_shared_tables_match_subset_scan_oracle(self, g):
        oracle = scan_small_cuts(g.n, g.edges, g.lam)
        fam = enumerate_flow(g)
        assert len(fam) == len(oracle)
        assert {c.side: c.capacity for c in fam} == oracle

    def test_repr_walks_no_cut(self, monkeypatch):
        # the dataclass repr read ``cuts``: 9 MB and 0.86 s at k = 60
        def refused(*args, **kwargs):
            raise AssertionError("the cuts were walked")

        monkeypatch.setattr(FrontierFamily, "cuts", property(refused))
        fam = enumerate_flow(build_instance(94).graph)
        assert repr(fam) == "FrontierFamily(lam=5, size=4465)"


class TestKargerProbe:
    def test_k6_contained_in_family(self, inst6):
        fam = karger_probe(inst6.graph, trials=20000, seed=11)
        listed = {side for _, side in listed_small_cuts(inst6)}
        assert fam.sides() <= listed

    def test_deterministic_for_fixed_seed(self, inst4):
        a = karger_probe(inst4.graph, trials=500, seed=42)
        b = karger_probe(inst4.graph, trials=500, seed=42)
        assert a == b

    def test_different_seeds_still_contained(self, inst4):
        listed = {side for _, side in listed_small_cuts(inst4)}
        for seed in (0, 1, 2, 3):
            fam = karger_probe(inst4.graph, trials=300, seed=seed)
            assert fam.sides() <= listed

    def test_small_capacities_only(self, inst6):
        fam = karger_probe(inst6.graph, trials=5000, seed=3)
        assert {c.capacity for c in fam} <= {3, 4}

    def test_trials_validated(self, inst4):
        with pytest.raises(ValueError):
            karger_probe(inst4.graph, trials=0, seed=1)

    def test_zero_capacity_edge_contracted_last(self):
        # a zero capacity draws no arrival time; enumerate_flow accepts it
        edges = tuple(Edge(*e) for e in ((1, 2, 1), (2, 3, 0), (3, 4, 2), (1, 4, 1)))
        g = CapGraph(4, edges, 5)
        small = set(scan_small_cuts(g.n, g.edges, g.lam))
        fam = karger_probe(g, 10, 0)
        assert fam.sides() and fam.sides() <= small
        assert karger_probe(g, 10, 0) == fam
        assert enumerate_flow(g).sides() == small

    def test_negative_capacity_refused(self):
        g = CapGraph(3, (Edge(1, 2, 1), Edge(2, 3, -1)), 5)
        with pytest.raises(ValueError, match=r"edges\[1\] = \[2, 3, -1\] has a negative capacity"):
            karger_probe(g, 10, 0)

    def test_finds_full_family_eventually(self, inst4):
        fam = karger_probe(inst4.graph, trials=5000, seed=9)
        listed = {side for _, side in listed_small_cuts(inst4)}
        assert fam.sides() == listed
