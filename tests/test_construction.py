import ast
import dataclasses
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from smallcuts.construction import (
    Edge,
    Link,
    build_circulant,
    build_graph,
    build_incidence_matrix,
    build_instance,
    build_links,
    bit_ids,
    build_qsets,
    e2_endpoints,
    edge_capacity,
    link_count,
    link_paths,
    listed_small_cuts,
    listed_sums,
    meeting_paths,
    node_count,
    path_q_incidence,
    validate_instance,
)
from smallcuts import certify
from smallcuts.certify import coverage, listed_capacity_table
from smallcuts.cuts import cut_capacity
from smallcuts.exactmath import IntMatrix, det_bareiss, rank

import oracles
from oracles import rational_rank

SUPPORTED_K = (4, 6, 8, 10, 12)

# The full 10x10 cut/link incidence for k=4: interval-cut rows Q_1..Q_3,
# then prefix-cut rows N_1..N_7; columns are links 1..10.
GOLDEN_A_K4 = [
    [1, 0, 1, 0, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 1, 1],
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 1, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 1, 1, 1, 0, 0],
    [0, 0, 0, 1, 0, 1, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 1, 0, 1, 1],
]


class TestEdgeCapacity:
    def test_k4_spot_values(self):
        assert edge_capacity(4, 1) == 2
        assert edge_capacity(4, 2) == 3
        assert edge_capacity(4, 3) == 1

    def test_k4_full_profile(self):
        assert [edge_capacity(4, i) for i in range(1, 8)] == [2, 3, 1, 3, 1, 3, 2]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            edge_capacity(4, 0)
        with pytest.raises(ValueError):
            edge_capacity(4, 8)


class TestChordEndpoints:
    def test_k4_values(self):
        assert e2_endpoints(4, 1) == (1, 4)
        assert e2_endpoints(4, 2) == (3, 6)
        assert e2_endpoints(4, 3) == (5, 8)

    def test_last_chord_reaches_sink(self):
        for k in SUPPORTED_K:
            assert e2_endpoints(k, k - 1)[1] == node_count(k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            e2_endpoints(4, 0)
        with pytest.raises(ValueError):
            e2_endpoints(4, 4)


class TestPathIntervalIncidence:
    def test_k4_examples(self):
        assert path_q_incidence(4, 1, 2) is True
        assert path_q_incidence(4, 2, 1) is False
        assert path_q_incidence(4, 3, 3) is True

    def test_row_counts(self):
        for k in SUPPORTED_K:
            for i in range(1, k):
                assert sum(path_q_incidence(k, i, j) for j in range(1, k)) == k // 2

    @pytest.mark.parametrize("k", SUPPORTED_K + (94,))
    def test_meeting_paths_invert_the_incidence(self, k):
        for j in range(1, k):
            assert meeting_paths(k, j) == [i for i in range(1, k) if path_q_incidence(k, i, j)]


def _links_by_walk(k: int) -> tuple[Link, ...]:
    """The links laid out one node at a time: each link is made ending at
    the sink and redirected when its path's next node comes up."""
    n = node_count(k)
    links = [Link(i, 1, n, i) for i in range(1, k + 1)]
    tail = list(range(-1, k))  # tail[i]: position of path i's latest link
    for q in build_qsets(k):
        for i, v in zip(meeting_paths(k, q.index), range(q.first, q.last + 1)):
            links[tail[i]] = links[tail[i]]._replace(hi=v)
            tail[i] = len(links)
            links.append(Link(k + v - 1, v, n, i))
    return tuple(links)


@pytest.mark.parametrize("k", [*range(4, 61, 2), 94])
def test_closed_forms_match_the_rule_by_rule_construction(k):
    # each edge, link and circulant entry as the rules state it, one by one
    n = node_count(k)
    q = [0] + [j for j in range(1, k) for _ in range(k // 2)] + [0]  # q[v - 1]
    caps = [2 if i in (1, n - 1) else 3 if q[i - 1] == q[i] else 1 for i in range(1, n)]
    assert [edge_capacity(k, i) for i in range(1, n)] == caps
    chain_edges = [(i, i + 1, c) for i, c in zip(range(1, n), caps)]
    chords = [(*e2_endpoints(k, j), 1) for j in range(1, k)]
    g = build_graph(k)
    assert (g.n, g.lam) == (n, 5)
    assert g.edges == tuple(chain_edges + chords)
    assert all(type(e) is Edge for e in g.edges)
    links = build_links(k)
    assert links == _links_by_walk(k)
    assert all(type(l) is Link for l in links)
    entries = [int(path_q_incidence(k, i, j)) for i in range(1, k) for j in range(1, k)]
    assert build_circulant(k) == IntMatrix(k - 1, k - 1, tuple(entries))


class TestCirculant:
    def test_k4_matrix(self):
        assert build_circulant(4) == IntMatrix.from_rows(
            [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        )

    def test_k6_first_row(self):
        assert build_circulant(6).row(0) == [1, 1, 1, 0, 0]

    def test_k6_det(self):
        assert det_bareiss(build_circulant(6)) == 3

    # 48, 94 and 104 are the sizes a certificate reaches; the circulant is
    # the one matrix a built instance's certificate eliminates.
    @pytest.mark.parametrize("k", SUPPORTED_K + (48, 94, 104))
    def test_det_and_rank(self, k):
        apq = build_circulant(k)
        assert det_bareiss(apq) == k // 2
        assert rank(apq) == k - 1
        if k == 48:
            assert rank(apq) == rational_rank(apq.to_rows())

    @pytest.mark.parametrize("k", SUPPORTED_K)
    def test_circulant_rotation_and_sums(self, k):
        apq = build_circulant(k)
        size = k - 1
        for i in range(size):
            assert sum(apq.row(i)) == k // 2
        for j in range(size):
            assert sum(apq.at(i, j) for i in range(size)) == k // 2
        for i in range(size - 1):
            rotated = [apq.at(i, (j - 1) % size) for j in range(size)]
            assert apq.row(i + 1) == rotated

    @pytest.mark.parametrize("k", SUPPORTED_K)
    def test_ones_per_row_coprime_with_size(self, k):
        assert gcd(k // 2, k - 1) == 1


class TestPathSystem:
    # the paths are read from the links, by the one function that derives them
    def test_k4_internal_nodes(self):
        paths = link_paths(build_instance(4))
        assert paths[0] == (1, 2, 4, 8)
        assert paths[1] == (1, 5, 6, 8)
        assert paths[2] == (1, 3, 7, 8)
        assert paths[3] == (1, 8)

    def test_k6_first_interval_assignment(self):
        paths = link_paths(build_instance(6))
        owner = {v: i for i, seq in enumerate(paths, start=1) for v in seq[1:-1]}
        assert {owner[v]: v for v in (2, 3, 4)} == {1: 2, 4: 3, 5: 4}

    @pytest.mark.parametrize("k", SUPPORTED_K)
    def test_paths_disjoint_and_cover(self, k):
        paths = link_paths(build_instance(k))
        n = node_count(k)
        internal = [v for seq in paths for v in seq[1:-1]]
        assert sorted(internal) == list(range(2, n))
        assert paths[k - 1] == (1, n)
        for seq in paths[: k - 1]:
            assert len(seq) == 2 + k // 2
            assert list(seq) == sorted(seq)


class TestInstance:
    def test_counts_k4(self):
        inst = build_instance(4)
        assert (inst.n, inst.m) == (8, 10)

    def test_counts_k6(self):
        inst = build_instance(6)
        assert (inst.n, inst.m) == (17, 21)

    @pytest.mark.parametrize("bad", [3, 5, 7, 2, 0, -4])
    def test_rejects_bad_k(self, bad):
        with pytest.raises(ValueError):
            build_instance(bad)

    @pytest.mark.parametrize("bad", [4.0, Fraction(6), "4", 6.5, None, True])
    def test_rejects_k_that_is_no_integer(self, bad):
        # refused by the check itself, not by a TypeError from deep inside
        for build in (build_instance, build_links, build_graph, build_circulant):
            with pytest.raises(ValueError, match="k must be an even integer >= 4, got "):
                build(bad)

    def test_numpy_integer_k_builds(self):
        k = np.int64(6)
        inst = build_instance(k)
        assert (inst.n, inst.m) == (17, 21)
        assert inst.links == build_instance(6).links

    def test_k4_forward_link_of_node2(self):
        inst = build_instance(4)
        assert inst.link(5) == (5, 2, 4, 1)

    def test_source_links_biject_with_paths(self):
        inst = build_instance(6)
        for i in range(1, 7):
            assert inst.link(i).lo == 1
            assert inst.link(i).path == i

    @pytest.mark.parametrize("k", SUPPORTED_K)
    def test_each_path_link_count(self, k):
        inst = build_instance(k)
        by_path = {i: 0 for i in range(1, k + 1)}
        for l in inst.links:
            by_path[l.path] += 1
        for i in range(1, k):
            assert by_path[i] == 1 + k // 2
        assert by_path[k] == 1

    @pytest.mark.parametrize("k", SUPPORTED_K)
    def test_qsets_partition_internal_nodes(self, k):
        qsets = build_qsets(k)
        nodes = [v for q in qsets for v in range(q.first, q.last + 1)]
        assert nodes == list(range(2, node_count(k)))
        assert all(q.last - q.first + 1 == k // 2 for q in qsets)

    @pytest.mark.parametrize("edit", ({"path": 2}, {"hi": 6}))
    def test_validate_reads_the_paths_from_the_links(self, edit):
        # forward link 7 of k = 6 is (7, 2, 5, 1): the second link of path 1
        inst = build_instance(6)
        assert inst.link(7) == (7, 2, 5, 1)
        links = list(inst.links)
        links[6] = links[6]._replace(**edit)
        with pytest.raises(ValueError, match="path 1 crosses into path 2"):
            validate_instance(dataclasses.replace(inst, links=tuple(links)))

    def test_interval_path_sets_checked(self):
        # k = 4 rewired to paths (1, 2, 3, 8) and (1, 4, 7, 8): disjoint,
        # covering and well indexed, but path 1 meets interval 1 twice and
        # path 3 not at all
        inst = build_instance(4)
        links = list(inst.links)
        rewired = ((1, 1, 2, 1), (3, 1, 4, 3), (5, 2, 3, 1), (6, 3, 8, 1), (7, 4, 7, 3), (10, 7, 8, 3))
        for link in rewired:
            links[link[0] - 1] = Link(*link)
        with pytest.raises(ValueError, match="interval 1 meets wrong path set"):
            validate_instance(dataclasses.replace(inst, links=tuple(links)))

    def test_xstar_uniform(self):
        inst = build_instance(6)
        assert set(inst.xstar) == {Fraction(1, 6)}
        assert len(inst.xstar) == inst.m

    def test_accessors_reject_out_of_range(self):
        # k = 4: links 1..10, intervals 1..3, prefix cuts 1..7
        inst = build_instance(4)
        assert inst.link(10).id == 10
        assert inst.qset_side(3) == frozenset({6, 7})
        assert inst.nested_side(7) == frozenset({8})
        cases = [
            (inst.link, (0, 11), "link {} out of range 1..10"),
            (inst.qset_side, (0, 4), "interval index {} out of range 1..3"),
            (inst.nested_side, (0, 8), "nested index {} out of range 1..7"),
            (inst.qcut_links, (0, 4), "interval index {} out of range 1..3"),
        ]
        for accessor, bad, message in cases:
            for i in bad:
                with pytest.raises(ValueError) as err:
                    accessor(i)
                assert str(err.value) == message.format(i)


class TestIncidenceMatrix:
    def test_golden_k4(self):
        inst = build_instance(4)
        assert build_incidence_matrix(inst) == IntMatrix.from_rows(GOLDEN_A_K4)

    def test_k4_first_prefix_row(self):
        inst = build_instance(4)
        a = build_incidence_matrix(inst)
        assert a.row(3) == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("k", (4, 6, 8))
    def test_prefix_block_lower_triangular(self, k):
        inst = build_instance(k)
        a = build_incidence_matrix(inst)
        block = a.block(k - 1, inst.m, k - 1, inst.m)
        for i in range(block.rows):
            assert block.at(i, i) == 1
            assert all(block.at(i, j) == 0 for j in range(i + 1, block.cols))

    @pytest.mark.parametrize("k", (4, 6, 8))
    def test_source_sink_link_crosses_every_prefix_cut(self, k):
        inst = build_instance(k)
        a = build_incidence_matrix(inst)
        col = k - 1  # link k, 0-based column
        for r in range(k - 1, inst.m):
            assert a.at(r, col) == 1

    def test_k6_rank_matches_rational_oracle(self):
        a = build_incidence_matrix(build_instance(6))
        assert rank(a) == rational_rank(a.to_rows()) == 21

    def test_generic_crossing_agrees_with_row_rules(self):
        # The listed-cut sweep behind the matrix rows and the capacity table
        # must coincide with the membership-xor rule; also on a replaced
        # instance with reversed and moved links and edges, built after the
        # original's table was read, so a stale table or a slip in
        # orientation fails.
        for k in (4, 6, 8, 10):
            inst = build_instance(k)
            a = build_incidence_matrix(inst)
            moved = dataclasses.replace(
                inst,
                links=tuple(
                    l._replace(lo=l.hi, hi=l.lo) if l.id % 2 else l._replace(hi=l.hi - 1)
                    for l in inst.links
                ),
                graph=dataclasses.replace(
                    inst.graph,
                    edges=tuple(
                        e._replace(lo=e.hi, hi=e.lo) if i % 2 else e._replace(lo=e.lo + 1)
                        for i, e in enumerate(inst.graph.edges)
                    ),
                ),
            )
            assert build_incidence_matrix(moved) != a
            for case in (inst, moved):
                rows = build_incidence_matrix(case).to_rows()
                caps = listed_capacity_table(case)
                for row, (label, side) in zip(rows, listed_small_cuts(case)):
                    expect = [
                        1 if (l.lo in side) != (l.hi in side) else 0 for l in case.links
                    ]
                    assert row == expect, (k, label)
                    assert caps[label] == cut_capacity(case.graph, side), (k, label)

    def test_sweep_sums_agree_with_membership_rule(self):
        # The one sweep gives the row bitsets and the row totals of a point:
        # each must equal its sum over the links that cross the listed side,
        # also on a replaced instance with reversed and moved links and a
        # point with distinct coordinates.
        for k in (4, 6, 8, 10):
            inst = build_instance(k)
            moved = dataclasses.replace(
                inst,
                links=tuple(
                    l._replace(lo=l.hi, hi=l.lo) if l.id % 2 else l._replace(hi=l.hi - 1)
                    for l in inst.links
                ),
                xstar=tuple(Fraction(f, 3 * f + 1) for f in range(1, inst.m + 1)),
            )
            for case in (inst, moved):
                nums, den = certify._scaled_point(case)
                totals = listed_sums(case, ((l.lo, l.hi, nums[l.id - 1]) for l in case.links))
                rows = zip(case.cut_links, totals, listed_small_cuts(case))
                for bits, total, (label, side) in rows:
                    crossing = [l for l in case.links if (l.lo in side) != (l.hi in side)]
                    assert bit_ids(bits) == [l.id for l in crossing], (k, label)
                    assert total == coverage(case, side) * den, (k, label)

    # k = 4: n = 8, intervals [2, 3], [4, 5], [6, 7]
    @pytest.mark.parametrize(
        "qsets, message",
        (
            (((2, 4), (4, 5), (6, 7)), r"interval 1 = \[2, 4\] is followed by no interval at node 5"),
            (((2, 3), (5, 5), (6, 7)), r"interval 1 = \[2, 3\] is followed by no interval at node 4"),
            (((3, 3), (4, 5), (6, 7)), "no interval starts at node 2"),
            (((2, 3), (4, 5), (6, 8)), r"interval 3 = \[6, 8\] is not a run of nodes within 2\.\.7"),
            (((2, 3), (4, 3), (6, 7)), r"interval 2 = \[4, 3\] is not a run of nodes within 2\.\.7"),
            (((2, 7), (4, 5), (6, 7)), r"interval 2 = \[4, 5\] meets nodes of another"),
            (((2, 3), (4, 7), (8, 8)), r"interval 3 = \[8, 8\] meets nodes of another or lies outside"),
            (((2, 3), (4, 7)), "expected 3 intervals, got 2"),
        ),
    )
    def test_sums_refuse_intervals_that_do_not_partition(self, qsets, message):
        # the crossing rule holds only for a partition of 2..n-1
        inst = build_instance(4)
        edited = dataclasses.replace(
            inst, qsets=tuple(q._replace(first=a, last=b) for q, (a, b) in zip(inst.qsets * 2, qsets))
        )
        with pytest.raises(ValueError, match=r"intervals do not partition 2\.\.7: " + message):
            listed_sums(edited, inst.graph.edges)

    def test_sums_accept_a_partition_in_any_order(self):
        # the rows follow the intervals' order; the check reads no order
        inst = build_instance(4)
        reordered = dataclasses.replace(inst, qsets=inst.qsets[::-1])
        sums = listed_sums(reordered, inst.graph.edges)
        assert sums == listed_sums(inst, inst.graph.edges)[2::-1] + sums[3:]


def test_listed_small_cuts_labels():
    inst = build_instance(4)
    labels = [label for label, _ in listed_small_cuts(inst)]
    assert labels == ["Q_1", "Q_2", "Q_3"] + [f"N_{i}" for i in range(1, 8)]
    assert len(labels) == inst.m


def test_oracles_import_nothing_from_the_package():
    # agreement with the oracles means something only while they share no code
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "smallcuts"]
    assert not [
        name
        for name, value in vars(oracles).items()
        if (getattr(value, "__module__", None) or "").startswith("smallcuts")
    ]


def test_counts_formulas():
    for k in SUPPORTED_K:
        assert node_count(k) == 2 + k * (k - 1) // 2
        assert link_count(k) == node_count(k) + k - 2
