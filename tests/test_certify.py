import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smallcuts
from smallcuts import certify, cli, construction, cuts, exactmath, formats
from smallcuts.certify import (
    CertificationError,
    FamilySizeError,
    bracketing_prefixes,
    certify_instance,
    coverage,
    family_walk_budget,
    full_reduction,
    listed_capacity_table,
    push_to_source,
)
from smallcuts.construction import (
    build_circulant,
    build_incidence_matrix,
    build_instance,
    listed_small_cuts,
)
from smallcuts.cuts import Cut, CutFamily, enumerate_bruteforce, enumerate_flow
from smallcuts.exactmath import IntMatrix, det_bareiss

from oracles import (
    boundary_capacity,
    rational_det,
    rational_rank,
    rational_solve_unique,
    scan_small_cuts,
)
from test_acceptance import dense, flip, reduced_matrix, with_rows


@pytest.fixture(scope="module")
def inst4():
    return build_instance(4)


@pytest.fixture(scope="module")
def inst6():
    return build_instance(6)


@pytest.fixture(scope="module")
def family4(inst4):
    return enumerate_bruteforce(inst4.graph)


@pytest.fixture(scope="module")
def family6(inst6):
    return enumerate_flow(inst6.graph)


def _prefix_links(inst, i):
    """Ids of the links crossing prefix cut i."""
    return frozenset(construction.bit_ids(inst.cut_links[inst.k - 2 + i]))


class TestCoverage:
    def test_prefix_cut_three(self, inst4):
        assert coverage(inst4, inst4.nested_side(3)) == 1

    def test_interval_two(self, inst4):
        assert coverage(inst4, inst4.qset_side(2)) == 1

    def test_sink_singleton(self, inst4):
        assert coverage(inst4, {8}) == 1

    def test_accepts_cut_objects(self, inst4, family4):
        for c in family4:
            assert coverage(inst4, c) == 1

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=12),
            min_size=10,
            max_size=10,
        ),
        st.sets(st.integers(2, 8), min_size=1, max_size=6),
    )
    def test_mixed_denominators_match_fraction_sum(self, inst4, xs, side):
        inst = dataclasses.replace(inst4, xstar=tuple(xs))
        expected = sum(
            (x for l, x in zip(inst.links, xs) if (l.lo in side) != (l.hi in side)),
            Fraction(0),
        )
        assert coverage(inst, side) == expected

    def test_every_prefix_cut_meets_all_paths(self, inst6):
        # each prefix cut holds exactly one link of each of the k paths
        for i in range(1, inst6.n):
            links = _prefix_links(inst6, i)
            assert len(links) == inst6.k
            paths = [inst6.link(l).path for l in links]
            assert sorted(paths) == list(range(1, inst6.k + 1))


class TestCapacityTable:
    def test_k4_values(self, inst4):
        table = listed_capacity_table(inst4)
        assert table["N_1"] == 3 and table["N_7"] == 3
        assert table["N_2"] == 4
        assert table["Q_2"] == 4

    @pytest.mark.parametrize("k", (4, 6, 8, 10))
    def test_all_below_threshold(self, k):
        inst = build_instance(k)
        table = listed_capacity_table(inst)
        assert set(table.values()) <= {3, 4}
        assert table["N_1"] == table[f"N_{inst.n - 1}"] == 3
        for j in range(1, k):
            assert table[f"Q_{j}"] == 4

    def test_offending_cut_named(self, inst4, family4):
        bad_graph = dataclasses.replace(inst4.graph, lam=4)
        bad = dataclasses.replace(inst4, graph=bad_graph)
        cert = certify_instance(bad, family4)
        assert "capacity:Q_1" in cert.failures
        assert not cert.is_basic


class TestVerifyFamily:
    # the family verdict of certify_instance: family_exact, missing, surplus
    def test_exact_family_passes(self, inst4, family4):
        assert certify_instance(inst4, family4).family_exact

    def test_flow_family_k6(self, inst6, family6):
        assert certify_instance(inst6, family6).family_exact

    def test_missing_cut_reported(self, inst4, family4):
        removed = inst4.qset_side(3)
        pruned = CutFamily.collect(
            (c for c in family4 if c.side != removed), family4.lam
        )
        check = certify_instance(inst4, pruned)
        assert not check.family_exact
        assert check.missing == (removed,)
        assert check.surplus == ()

    def test_surplus_cut_reported(self, inst4, family4):
        extra = Cut(side=frozenset({5}), capacity=4)  # fake: not actually small
        padded = CutFamily.collect(list(family4) + [extra], family4.lam)
        check = certify_instance(inst4, padded)
        assert not check.family_exact
        assert check.surplus == (frozenset({5}),)

    @pytest.mark.parametrize("k", (4, 6))
    @given(data=st.data())
    def test_matches_plain_set_comparison(self, k, data):
        # listed cuts are found by side shape; runs near a listed shape and
        # sides holding node 1 must still compare as plain sets do
        inst = build_instance(k)
        n = inst.n
        listed = [side for _, side in listed_small_cuts(inst)]
        chosen = data.draw(st.lists(st.sampled_from(listed), unique=True))
        ends = st.tuples(st.integers(1, n), st.integers(1, n))
        runs = data.draw(st.lists(ends.map(lambda e: frozenset(range(min(e), max(e) + 1)))))
        scattered = data.draw(st.lists(st.frozensets(st.integers(1, n))))
        sides = data.draw(st.permutations(chosen + runs + scattered))
        family = CutFamily(tuple(Cut(side=s, capacity=0) for s in sides), inst.graph.lam)

        missing = tuple(sorted(set(listed) - set(sides), key=sorted))
        surplus = tuple(sorted(set(sides) - set(listed), key=sorted))
        failures = [f"family:missing={len(missing)}"] if missing else []
        for s in sides:
            crossing = [l for l in inst.links if (l.lo in s) != (l.hi in s)]
            if sum((inst.xstar[l.id - 1] for l in crossing), Fraction(0)) < 1:
                failures.append(f"coverage:{sorted(s)}")
        cert = certify_instance(inst, family)
        assert (cert.missing, cert.surplus, cert.failures) == (missing, surplus, tuple(failures))
        assert cert.family_exact == (not missing and not surplus)


class TestListedRows:
    @pytest.mark.parametrize("k", (4, 6, 8))
    @settings(deadline=None)
    @given(data=st.data())
    def test_shape_rule_is_a_side_lookup(self, k, data):
        # the row _listed_rows reads from a side's shape is the row of the
        # listed cut with that side, and None for every other side, whether
        # the cuts compute their extents on first read or CutFamily.collect
        # records them while it reorders the cuts
        inst = build_instance(k)
        n = inst.n
        row_of = {side: r for r, (_, side) in enumerate(listed_small_cuts(inst))}
        listed = st.sampled_from(list(row_of))

        def shifted(side, d_lo, d_hi):
            return frozenset(range(max(min(side) + d_lo, 1), min(max(side) + d_hi, n) + 1))

        def run(lo, hi):
            return frozenset(range(lo, hi + 1))

        step = st.sampled_from((-1, 0, 1))
        # ends outside 1..n: 0, negatives and n+1..n+3
        beyond = st.sampled_from((-3, -2, -1, 0, n + 1, n + 2, n + 3))
        node = st.integers(-3, n + 3)
        sides = data.draw(
            st.lists(
                st.one_of(
                    listed,
                    st.builds(shifted, listed, step, step),
                    listed.filter(lambda s: len(s) > 2).flatmap(
                        lambda s: st.sampled_from(sorted(s)[1:-1]).map(lambda v: s - {v})
                    ),
                    st.integers(1, n).map(lambda hi: frozenset(range(1, hi + 1))),
                    st.frozensets(st.integers(1, n)),
                    st.just(frozenset()),
                    st.builds(lambda s, v: s | {v}, listed, beyond),
                    st.builds(run, beyond, st.integers(1, n)),
                    st.builds(run, st.integers(1, n), beyond),
                    st.builds(run, node, node),
                    st.frozensets(node),
                )
            )
        )
        lam = inst.graph.lam
        family = CutFamily(tuple(Cut(side=s, capacity=0) for s in sides), lam)
        assert certify._listed_rows(inst, family) == [row_of.get(s) for s in sides]
        collected = CutFamily.collect((Cut(side=s, capacity=0) for s in sides), lam)
        assert [c.side for c in collected] == sorted(set(sides), key=lambda s: (len(s), sorted(s)))
        assert certify._listed_rows(inst, collected) == [row_of.get(c.side) for c in collected]

    @pytest.mark.parametrize("k", (4, 8))
    def test_certifying_a_collected_family_twice_is_identical(self, k):
        # extents recorded by collect, and read again by a second certificate,
        # give what fresh cuts computing their own give
        inst = build_instance(k)
        lam = inst.graph.lam
        cut_list = [Cut(side=s, capacity=3) for _, s in listed_small_cuts(inst)]
        cut_list += [Cut(side=frozenset({inst.n - 1}), capacity=3)]  # one surplus cut
        family = CutFamily.collect(cut_list, lam)
        first = certify_instance(inst, family)
        assert first == certify_instance(inst, family)
        fresh = CutFamily(tuple(Cut(side=c.side, capacity=c.capacity) for c in family), lam)
        assert first == certify_instance(inst, fresh)
        assert first.surplus == (frozenset({inst.n - 1}),) and not first.missing


@st.composite
def mutated_graphs(draw, g):
    """``g`` after one to three mutations: a capacity change, a moved edge
    end, or an extra edge."""
    Edge = construction.Edge
    edges = list(g.edges)
    node = st.integers(1, g.n)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("capacity", "move", "extra")))
        if kind == "extra":
            edges.append(Edge(draw(node), draw(node), draw(st.integers(1, 3))))
            continue
        i = draw(st.integers(0, len(edges) - 1))
        lo, hi, cap = edges[i]
        if kind == "capacity":
            edges[i] = Edge(lo, hi, draw(st.integers(0, 6)))
        elif draw(st.booleans()):
            edges[i] = Edge(draw(node), hi, cap)
        else:
            edges[i] = Edge(lo, draw(node), cap)
    return dataclasses.replace(g, edges=tuple(edges))


# the listed sides of the k = 4 instance, written out: n = 8, prefix sides
# v..8 and the intervals 2..3, 4..5 and 6..7
LISTED_K4 = {frozenset(range(v, 9)) for v in range(2, 9)} | {
    frozenset({2, 3}),
    frozenset({4, 5}),
    frozenset({6, 7}),
}


class TestCountingVerdict:
    """The family verdict on a frontier family compares counts, not sides."""

    @pytest.mark.parametrize("k", (4, 6))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_plain_set_comparison_on_mutated_graphs(self, k, data):
        inst = build_instance(k)
        g = data.draw(mutated_graphs(inst.graph))
        try:
            family = enumerate_flow(g)
        except ValueError as exc:  # a moved end may disconnect the graph
            assert "not connected" in str(exc)
            assume(False)
        mutated = dataclasses.replace(inst, graph=g)
        if len(family) > family_walk_budget(mutated):
            with pytest.raises(FamilySizeError, match=f"has {len(family)} cuts"):
                certify_instance(mutated, family)
            check = None
        else:
            check = certify_instance(mutated, family)
        listed = {side for _, side in listed_small_cuts(inst)}
        sides = family.sides()
        if check is not None:
            assert check.family_exact == (sides == listed)
            assert check.missing == tuple(sorted(listed - sides, key=sorted))
            assert check.surplus == tuple(sorted(sides - listed, key=sorted))
        else:
            assert sides != listed

    @pytest.mark.parametrize("j", (0, 2, 4))
    @pytest.mark.parametrize("first, last", ((0, 1), (0, -1), (1, 0), (-1, 0)))
    def test_shifted_interval_is_not_listed(self, inst6, family6, j, first, last):
        # interval j moves by one node at one end, so the intervals leave a
        # node uncovered or cover one twice; the listed sums would misread
        # every row, and the count would not prove the listed sides
        # distinct, so the instance is refused before any verdict
        q = inst6.qsets[j]
        qsets = list(inst6.qsets)
        qsets[j] = q._replace(first=q.first + first, last=q.last + last)
        moved = dataclasses.replace(inst6, qsets=tuple(qsets))
        for family in (family6, CutFamily.collect(family6, family6.lam)):
            with pytest.raises(ValueError, match=r"intervals do not partition 2\.\.16: "):
                certify_instance(moved, family)

    def test_widened_interval_is_refused(self, inst6, family6):
        # interval 1 widened to 2..5 overlaps interval 2: read as a
        # partition, its listed capacity was 4, where the side's is 7
        assert boundary_capacity(inst6.graph.edges, range(2, 6)) == 7
        widened = dataclasses.replace(inst6, qsets=(inst6.qsets[0]._replace(last=5), *inst6.qsets[1:]))
        message = r"interval 1 = \[2, 5\] is followed by no interval at node 6"
        with pytest.raises(ValueError, match=message):
            certify_instance(widened, family6)
        with pytest.raises(ValueError, match=message):
            listed_capacity_table(widened)

    @pytest.mark.parametrize("edge", ((1, 9, 1), (0, 3, 1), (-1, 3, 1)))
    def test_edge_end_outside_the_nodes_is_refused(self, inst4, edge):
        # past n the sums raised a bare IndexError; at 0 or below they read
        # N_3 as 2, one less than without the edge, and raised nothing
        edges = inst4.graph.edges + (construction.Edge(*edge),)
        outside = dataclasses.replace(inst4, graph=dataclasses.replace(inst4.graph, edges=edges))
        message = rf"pair \({edge[0]}, {edge[1]}\) has an end outside 1\.\.8"
        with pytest.raises(ValueError, match=message):
            certify_instance(outside, enumerate_flow(inst4.graph))
        with pytest.raises(ValueError, match=message):
            listed_capacity_table(outside)

    def test_foreign_family_of_the_listed_size_is_walked(self, inst4):
        # an 11-node path of capacity 3 under lam 5 has exactly the 10 small
        # cuts {v..11}, as many as the k = 4 instance lists, and none of
        # them listed: a count that did not ask whose graph the family
        # enumerates would call it exact
        path = construction.CapGraph(
            n=11, edges=tuple(construction.Edge(v, v + 1, 3) for v in range(1, 11)), lam=5
        )
        family = enumerate_flow(path)
        cert = certify_instance(inst4, family)
        listed = LISTED_K4
        foreign = {frozenset(range(v, 12)) for v in range(2, 12)}
        assert len(family) == len(listed) == len(foreign) == 10
        assert not cert.family_exact and not cert.is_basic
        assert cert.missing == tuple(sorted(listed, key=sorted))
        assert cert.surplus == tuple(sorted(foreign, key=sorted))
        assert "family:missing=10" in cert.failures

    def test_listed_cuts_past_lam_defeat_the_count(self, inst4):
        # edge 1-2 at capacity 0 and edge 3-4 at 4: three listed cuts reach
        # lam and three other cuts fall below it, so the family still has
        # 10 cuts; only the listed capacities show that it is not the
        # listed one
        edges = list(inst4.graph.edges)
        edges[0], edges[2] = edges[0]._replace(cap=0), edges[2]._replace(cap=4)
        g = dataclasses.replace(inst4.graph, edges=tuple(edges))
        found = set(scan_small_cuts(g.n, g.edges, g.lam))
        listed = LISTED_K4
        assert len(found) == len(listed) == 10 and found != listed
        cert = certify_instance(dataclasses.replace(inst4, graph=g), enumerate_flow(g))
        assert not cert.family_exact
        assert cert.missing == tuple(sorted(listed - found, key=sorted))
        assert cert.surplus == tuple(sorted(found - listed, key=sorted))
        assert {"capacity:Q_1", "capacity:Q_2", "capacity:N_3"} <= set(cert.failures)

    @pytest.mark.parametrize("k", (4, 6))
    @pytest.mark.parametrize("lowered", ("all", "two links"))
    def test_under_covered_cuts_named_like_an_explicit_family(self, k, lowered):
        # an exact family proved by counting names its under-covered cuts
        # in the same order as the same family given explicitly
        inst = build_instance(k)
        xs = list(inst.xstar)
        for f in range(inst.m) if lowered == "all" else (0, k + 2):
            xs[f] = xs[f] / 2
        point = dataclasses.replace(inst, xstar=tuple(xs))
        counted = certify_instance(point, enumerate_flow(inst.graph))
        explicit = certify_instance(point, CutFamily.collect(enumerate_flow(inst.graph), 5))
        assert counted == explicit
        assert not counted.feasible and counted.family_exact
        assert any(f.startswith("coverage:") for f in counted.failures)

    def test_disagreeing_family_within_the_budget_is_named(self, inst4):
        g = dataclasses.replace(inst4.graph, lam=6)
        family = enumerate_flow(g)
        listed = {side for _, side in listed_small_cuts(inst4)}
        found = set(scan_small_cuts(g.n, g.edges, g.lam))
        assert 10 < len(found) <= family_walk_budget(inst4) == 20
        check = certify_instance(dataclasses.replace(inst4, graph=g), family)
        assert not check.family_exact and check.missing == ()
        assert check.surplus == tuple(sorted(found - listed, key=sorted))

    def test_family_past_the_budget_names_both_counts(self, inst4, monkeypatch):
        g = dataclasses.replace(inst4.graph, lam=7)
        family = enumerate_flow(g)
        found = set(scan_small_cuts(g.n, g.edges, g.lam))
        assert len(found) > family_walk_budget(inst4)

        def walked(self):
            raise AssertionError("a side was built")

        monkeypatch.setattr(cuts.FrontierFamily, "cuts", property(walked))
        message = (
            f"the enumerated family has {len(found)} cuts against 10 listed cuts; naming its "
            "missing and surplus cuts is refused above 20 cuts"
        )
        with pytest.raises(FamilySizeError, match=message):
            certify_instance(dataclasses.replace(inst4, graph=g), family)


class TestVerifyBasic:
    # the basic-solution checks of certify_instance
    def test_k4(self, inst4, family4):
        cert = certify_instance(inst4, family4)
        assert cert.is_basic == (not cert.failures)
        assert cert.is_basic
        assert cert.rank_a == 10
        assert cert.max_coordinate == Fraction(1, 4)
        assert cert.family_exact
        assert cert.failures == ()

    def test_k6(self, inst6, family6):
        cert = certify_instance(inst6, family6)
        assert cert.is_basic == (not cert.failures)
        assert cert.is_basic
        assert cert.rank_a == 21
        assert cert.max_coordinate == Fraction(1, 6)

    @pytest.mark.parametrize(
        "links, xstar, counts",
        (
            (None, lambda xs: xs[:-1], "9 coordinates for 10 links"),
            (None, lambda xs: xs + xs[:1], "11 coordinates for 10 links"),
            ((), lambda xs: (), "0 coordinates for 0 links"),
        ),
        ids=("short", "long", "no-links"),
    )
    def test_point_not_one_per_link_refused(
        self, inst4, family4, monkeypatch, links, xstar, counts
    ):
        # A point one coordinate short gave an IndexError, one long gave a
        # basic verdict with a maximum no link carries, and no links gave
        # max() of nothing; each is refused, naming both counts, before
        # the replay or any sum over the listed cuts runs.
        bad = dataclasses.replace(
            inst4, links=inst4.links if links is None else links, xstar=xstar(inst4.xstar)
        )
        replays = _count_calls(monkeypatch, "full_reduction")
        sweeps, real = [], construction.listed_sums
        for module in (construction, certify):
            monkeypatch.setattr(
                module, "listed_sums", lambda inst, pairs: sweeps.append(inst) or real(inst, pairs)
            )
        with pytest.raises(ValueError, match=f"the point has {counts}"):
            certify_instance(bad, family4)
        assert replays == sweeps == []

    def test_perturbed_point_breaks_tightness(self, inst4, family4):
        xs = list(inst4.xstar)
        xs[0] = Fraction(1, 2)
        mutated = dataclasses.replace(inst4, xstar=tuple(xs))
        cert = certify_instance(mutated, family4)
        assert cert.is_basic == (not cert.failures)
        assert not cert.is_basic
        assert not cert.tight
        assert any(f.startswith("tightness:N_1") for f in cert.failures)

    def test_out_of_bounds_point_detected(self, inst4, family4):
        xs = list(inst4.xstar)
        xs[3] = Fraction(1)
        mutated = dataclasses.replace(inst4, xstar=tuple(xs))
        cert = certify_instance(mutated, family4)
        assert cert.is_basic == (not cert.failures)
        assert not cert.is_basic
        assert not cert.bounds_strict
        # The bounds and the largest coordinate are read from integer
        # numerators over a common denominator; they must agree with the
        # same checks made on the Fractions themselves.
        edits = [
            {3: Fraction(0)},
            {0: Fraction(-1, 3)},
            {1: Fraction(2, 3), 2: Fraction(1, 7)},
            {0: Fraction(5, 6), 4: Fraction(0), 9: Fraction(1)},
            {2: Fraction(-2, 5), 5: Fraction(3, 10)},
            {6: Fraction(1, 9), 7: Fraction(4, 15)},
        ]
        for edit in edits:
            xs = list(inst4.xstar)
            for i, x in edit.items():
                xs[i] = x
            cert = certify_instance(dataclasses.replace(inst4, xstar=tuple(xs)), family4)
            strict = all(0 < x < 1 for x in xs)
            assert cert.bounds_strict == strict, edit
            assert ("bounds" in cert.failures) == (not strict), edit
            assert cert.max_coordinate == max(xs), edit

    def test_uncovered_surplus_cut_is_infeasible(self, inst4, family4):
        # {2} is crossed by links 1 and 5 only, so it is covered 2 * 1/4 < 1
        extra = Cut(side=frozenset({2}), capacity=4)
        cert = certify_instance(inst4, CutFamily(family4.cuts + (extra,), 5))
        assert cert.is_basic == (not cert.failures)
        assert not cert.feasible and not cert.is_basic
        assert "coverage:[2]" in cert.failures

    def test_empty_family_is_not_a_vertex(self, inst4):
        # the listed rows are no LP constraints unless the family holds them
        cert = certify_instance(inst4, CutFamily((), 5))
        assert cert.is_basic == (not cert.failures)
        assert not cert.is_basic
        assert len(cert.missing) == inst4.m
        assert cert.failures == (f"family:missing={inst4.m}",)

    def test_listed_cut_at_threshold_is_not_a_vertex(self, inst4, family4):
        # raising the first chain edge lifts prefix cut N_1 to the threshold
        edges = list(inst4.graph.edges)
        edges[0] = edges[0]._replace(cap=edges[0].cap + inst4.graph.lam)
        heavy = dataclasses.replace(
            inst4, graph=dataclasses.replace(inst4.graph, edges=tuple(edges))
        )
        cert = certify_instance(heavy, family4)
        assert cert.is_basic == (not cert.failures)
        assert "capacity:N_1" in cert.failures
        assert not cert.is_basic

    def test_singular_matrix_reports_its_rank(self, inst4, family4):
        # links 5 and 6 given the same endpoints: two equal columns, so A is
        # singular; the replay refuses link 6's indexing, and no other path
        # computes a rank, so the rank is reported unproved
        links = list(inst4.links)
        links[5] = links[5]._replace(lo=links[4].lo, hi=links[4].hi)
        degenerate = dataclasses.replace(inst4, links=tuple(links))
        assert rational_rank(build_incidence_matrix(degenerate).to_rows()) < degenerate.m
        cert = certify_instance(degenerate, family4)
        assert cert.is_basic == (not cert.failures)
        assert not cert.is_basic and cert.reduction_ok is False
        assert "not indexed as the replay reads it" in cert.reduction_error
        assert (cert.rank_a, cert.det_a) == (None, None)
        assert cert.failures[-1] == "rank:unproved"

    @pytest.mark.parametrize("k", (4, 6, 8, 10, 12))
    def test_replay_determinant_matches_bareiss(self, k):
        inst = build_instance(k)
        family = enumerate_flow(inst.graph)
        cert = certify_instance(inst, family)
        assert cert.reduction_ok and cert.rank_a == inst.m
        assert cert.det_a == det_bareiss(build_incidence_matrix(inst)) == k * 2 ** (k - 2)

    def test_det_k4_matches_rational_oracle(self, inst4):
        a = build_incidence_matrix(inst4)
        assert rational_det(a.to_rows()) == 16
        cert = certify_instance(inst4, enumerate_bruteforce(inst4.graph))
        assert cert.det_a == 16

    @pytest.mark.parametrize("k", (4, 6))
    def test_tight_system_pins_the_point(self, k):
        # rank m makes the tight constraints A x = 1 uniquely solvable; the
        # unique solution must be the uniform point itself
        inst = build_instance(k)
        a = build_incidence_matrix(inst)
        sol = rational_solve_unique(a.to_rows(), [1] * inst.m)
        assert sol == list(inst.xstar)


class TestBracketingPrefixes:
    def test_k4_pairs(self, inst4):
        assert bracketing_prefixes(inst4, 1) == (1, 3)
        assert bracketing_prefixes(inst4, 2) == (3, 5)
        assert bracketing_prefixes(inst4, 3) == (5, 7)

    def test_out_of_range(self, inst4):
        with pytest.raises(ValueError):
            bracketing_prefixes(inst4, 0)
        with pytest.raises(ValueError):
            bracketing_prefixes(inst4, 4)

    @pytest.mark.parametrize("k", (4, 6, 8))
    def test_brackets_enclose_interval(self, k):
        inst = build_instance(k)
        for j in range(1, k):
            low, high = bracketing_prefixes(inst, j)
            q = inst.qsets[j - 1]
            assert low == q.first - 1
            assert high == q.last


class TestReduceQcutRow:
    # the split of each interval row, read from the replay's traces
    def test_k4_halved_sets(self, inst4):
        halved = [t.halved for t in full_reduction(inst4)]
        assert halved == [frozenset({1, 3}), frozenset({2, 5}), frozenset({6, 8})]

    @pytest.mark.parametrize("k", (4, 6, 8))
    def test_halved_set_shape(self, k):
        inst = build_instance(k)
        for j, t in enumerate(full_reduction(inst), start=1):
            assert t.qrow == j
            assert len(t.halved) == k // 2
            assert k not in t.halved
            low, _ = bracketing_prefixes(inst, j)
            assert t.halved <= _prefix_links(inst, low)

    def test_flipped_entry_detected(self, inst4):
        flipped = with_rows(inst4, flip(inst4.cut_links, [(0, 1)]))
        with pytest.raises(CertificationError, match="interval row 1: prefix row 3"):
            full_reduction(flipped)


class TestPushToSource:
    def test_one_move(self, inst4):
        final, moves = push_to_source(inst4, {2, 5})
        assert final == frozenset({1, 2})
        assert [(s.sub_nested, s.add_nested) for s in moves] == [(2, 1)]
        assert moves[0].links == frozenset({1, 2})

    def test_two_moves(self, inst4):
        final, moves = push_to_source(inst4, {6, 8})
        assert final == frozenset({2, 3})
        assert [(s.sub_nested, s.add_nested, s.links) for s in moves] == [
            (5, 4, frozenset({2, 6})),
            (3, 2, frozenset({2, 3})),
        ]

    def test_already_at_source(self, inst4):
        final, moves = push_to_source(inst4, {1, 3})
        assert final == frozenset({1, 3})
        assert moves == ()

    def test_rejects_wrong_size(self, inst4):
        with pytest.raises(ValueError):
            push_to_source(inst4, {1, 2, 3})

    def test_rejects_source_sink_link(self, inst4):
        with pytest.raises(ValueError):
            push_to_source(inst4, {4, 5})

    def test_rejects_unknown_link(self, inst4):
        with pytest.raises(ValueError, match="link 0 out of range"):
            push_to_source(inst4, {0, 1})

    def test_rejects_uncontained_set(self, inst4):
        # links 5=(2,4) and 10=(7,8) share no prefix cut
        with pytest.raises(ValueError):
            push_to_source(inst4, {5, 10})


class TestFullReduction:
    def test_k4_final_path_sets(self, inst4):
        traces = full_reduction(inst4)
        assert [sorted(t.paths) for t in traces] == [[1, 3], [1, 2], [2, 3]]

    def test_k4_block_shape(self, inst4):
        reduced = reduced_matrix(inst4, full_reduction(inst4))
        k, m = 4, 10
        assert reduced.block(0, k - 1, 0, k - 1) == build_circulant(4).transpose()
        assert all(x == 0 for x in reduced.block(0, k - 1, k - 1, m).entries)

    @pytest.mark.parametrize("k", (4, 6, 8))
    def test_structure_holds(self, k):
        inst = build_instance(k)
        traces = full_reduction(inst)
        assert len(traces) == k - 1
        for t in traces:
            assert len(t.final) == k // 2
            assert t.final == t.paths
            for step in t.moves:
                assert step.sub_nested > step.add_nested
            # push_to_source and the replay run one move loop
            assert push_to_source(inst, t.halved) == (t.final, t.moves)
        # a copy whose cut_links cache holds the same rows replays the same
        assert full_reduction(with_rows(inst, inst.cut_links)) == traces

    def test_moves_strictly_descend(self, inst6):
        traces = full_reduction(inst6)
        for t in traces:
            highs = [t.sub_nested] + [s.sub_nested for s in t.moves]
            assert highs == sorted(highs, reverse=True)
            assert len(set(highs)) == len(highs)

    def test_flipped_interval_entry_aborts(self, inst4):
        with pytest.raises(CertificationError):
            full_reduction(with_rows(inst4, flip(inst4.cut_links, [(1, 6)])))
        # the same flip in the interval row and its covering prefix row
        # keeps h == q ^ l, but halves one link too few
        low, high = bracketing_prefixes(inst4, 1)
        x = min(inst4.qcut_links(1) & _prefix_links(inst4, low))
        flipped = flip(inst4.cut_links, [(0, x - 1), (inst4.k - 2 + high, x - 1)])
        with pytest.raises(CertificationError, match="interval row 1: expected 2 links, got 1"):
            full_reduction(with_rows(inst4, flipped))

    def test_flipped_diagonal_aborts(self, inst4):
        # prefix row N_3, its unit diagonal inside the prefix block
        with pytest.raises(CertificationError):
            full_reduction(with_rows(inst4, flip(inst4.cut_links, [(5, 5)])))

    @pytest.mark.parametrize("k", (4, 6))
    def test_flipped_unread_prefix_row(self, k):
        # Rows no split or move reads are checked by the block shape alone:
        # a flip on or above the diagonal aborts the replay, while a flip
        # below it leaves a matrix whose determinant the replay still gives.
        inst = build_instance(k)
        traces = full_reduction(inst)
        read = {i for t in traces for i in (t.add_nested, t.sub_nested)}
        read |= {i for t in traces for s in t.moves for i in (s.add_nested, s.sub_nested)}
        unread = [i for i in range(1, inst.n) if i not in read]
        assert unread
        for i in unread:
            r = k - 2 + i
            flips = [(r, "diagonal")] + [(c, "above the diagonal") for c in range(r + 1, inst.m)]
            for c, message in flips:
                with pytest.raises(CertificationError, match=message):
                    full_reduction(with_rows(inst, flip(inst.cut_links, [(r, c)])))
            flipped = flip(inst.cut_links, [(r, r - 1)])
            full_reduction(with_rows(inst, flipped))
            det = det_bareiss(IntMatrix.from_rows(dense(inst, flipped)))
            assert det == 2 ** (k - 1) * det_bareiss(build_circulant(k))

    @pytest.mark.parametrize("k", (4, 6, 8, 10))
    def test_single_flip_is_sound(self, k):
        # The replay is a proof for whatever rows it is given: after any
        # single-entry flip of A it aborts, or the flipped matrix has the
        # determinant it claims.  An interval-row flip always aborts.
        inst = build_instance(k)
        det = rational_det if k < 8 else lambda rows: det_bareiss(IntMatrix.from_rows(rows))
        claimed = 2 ** (k - 1) * det(build_circulant(k).to_rows())
        accepted = 0
        for r in range(inst.m):
            for c in range(inst.m):
                flipped = flip(inst.cut_links, [(r, c)])
                try:
                    full_reduction(with_rows(inst, flipped))
                except CertificationError:
                    continue
                assert r >= k - 1, (r, c)
                assert det(dense(inst, flipped)) == claimed, (r, c)
                accepted += 1
        assert accepted == {4: 8, 6: 53, 8: 184, 10: 470}[k]

    @pytest.mark.parametrize("k", (4, 6))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_multi_flip_is_sound(self, k, data):
        # 2-4 flips at once; a pair in one column of two prefix rows can
        # cancel inside a split or a move, so such pairs are drawn too
        inst = build_instance(k)
        m = inst.m
        entry = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
        if data.draw(st.booleans(), label="cancelling pair"):
            r1, r2 = data.draw(
                st.lists(st.integers(k - 1, m - 1), min_size=2, max_size=2, unique=True)
            )
            c = data.draw(st.integers(0, m - 1))
            extra = data.draw(st.lists(entry, max_size=2, unique=True))
            flips = list(dict.fromkeys([(r1, c), (r2, c)] + extra))
        else:
            flips = data.draw(st.lists(entry, min_size=2, max_size=4, unique=True))
        flipped = flip(inst.cut_links, flips)
        try:
            full_reduction(with_rows(inst, flipped))
        except CertificationError:
            return
        claimed = 2 ** (k - 1) * rational_det(build_circulant(k).to_rows())
        assert rational_det(dense(inst, flipped)) == claimed, flips

    def test_move_loop_stopping_early_aborts(self, inst4, monkeypatch):
        # moves that stop short of the source links leave a row that is not
        # the circulant column
        real = certify._move_loop

        def early(inst, rows, cur):
            final, moves = real(inst, rows, cur)
            return (moves[0].bits, moves[:1]) if moves else (final, moves)

        monkeypatch.setattr(certify, "_move_loop", early)
        with pytest.raises(CertificationError, match="interval row 3: reduced row"):
            full_reduction(inst4)

    def test_singular_circulant_aborts(self, inst4, monkeypatch):
        # the block shape gives rank m only with a nonsingular circulant
        monkeypatch.setattr(certify, "rank", lambda mat: mat.rows - 1)
        with pytest.raises(CertificationError):
            full_reduction(inst4)

    @pytest.mark.parametrize("error", (ValueError, RuntimeError))
    def test_push_to_source_error_aborts(self, inst4, family4, monkeypatch, error):
        # a bad instance may make the move loop raise; the replay stays total
        def broken(inst, rows, links):
            raise error("no move from here")

        monkeypatch.setattr(certify, "_move_loop", broken)
        with pytest.raises(CertificationError, match="no move from here"):
            full_reduction(inst4)
        shapes = []
        eliminate = exactmath._eliminate

        def counted(m):
            shapes.append((m.rows, m.cols))
            return eliminate(m)

        monkeypatch.setattr(exactmath, "_eliminate", counted)
        builds = _count_calls(monkeypatch, "build_incidence_matrix")
        cert = certify_instance(inst4, family4)
        # the replay proved nothing, and no other path proves a rank: A is
        # neither built nor eliminated, and the rank is reported unproved
        assert builds == [] and (inst4.m, inst4.m) not in shapes
        assert cert.reduction_ok is False and not cert.is_basic
        assert cert.traces == ()
        assert "no move from here" in cert.reduction_error
        assert cert.false_verdicts == ("is_basic", "reduction_ok")
        assert (cert.rank_a, cert.det_a) == (None, None)
        assert cert.failures == ("rank:unproved",)

    @pytest.mark.parametrize(
        "edit", ((5, {"lo": 4, "hi": 6}), (5, {"path": 0}), (5, {"path": 5}), (1, {"path": 3}))
    )
    def test_link_indexing_checked(self, inst4, edit):
        # the replay reads a set's largest lo from its top bit, weighs a
        # link by its path and reads source link f as path f, so a link
        # whose lo does not follow its id, whose path is outside 1..k, or a
        # source link on another path, is refused before any split
        position, fields = edit
        links = list(inst4.links)
        links[position] = links[position]._replace(**fields)
        with pytest.raises(CertificationError, match="not indexed as the replay reads it"):
            full_reduction(dataclasses.replace(inst4, links=tuple(links)))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_link_indexing_matches_link_by_link_check(self, data):
        # The column check accepts exactly the links the link-by-link check
        # accepts, and names the same first bad link: single- and
        # multi-field edits of id, lo and path, and fewer links than k.
        inst = build_instance(data.draw(st.sampled_from((4, 6, 8, 10)), label="k"))
        links = list(inst.links)
        k, last = inst.k, len(links) - 1
        for _ in range(data.draw(st.integers(0, 3), label="edits")):
            # any link, or one at an edge of the source links or the list
            f = data.draw(st.integers(0, last) | st.sampled_from((0, k - 1, k, last)))
            fields = data.draw(st.sets(st.sampled_from(("id", "lo", "path")), min_size=1))
            # each value at, next to or just outside what the check accepts
            id_, lo, path = links[f].id, links[f].lo, links[f].path
            values = {
                "id": st.sampled_from((id_ - 1, id_, id_ + 1)),
                "lo": st.sampled_from((lo - 1, lo, lo + 1)),
                "path": st.sampled_from((0, 1, path, k, k + 1)),
            }
            links[f] = links[f]._replace(
                **{name: data.draw(values[name], label=name) for name in sorted(fields)}
            )
        length = data.draw(st.just(len(links)) | st.integers(0, k - 1), label="links kept")
        edited = dataclasses.replace(inst, links=tuple(links[:length]))
        expected = _link_by_link(edited)
        if expected is None:
            certify._check_link_indexing(edited)
        else:
            with pytest.raises(CertificationError) as refused:
                certify._check_link_indexing(edited)
            assert str(refused.value) == expected

    def test_unbracketed_interval_refused(self, inst6, family6):
        # an interval that reaches node n lies in no prefix cut, so the
        # replay has no covering prefix row to split it by
        # (the rows are read first, and their sums refuse intervals that do
        # not partition 2..n-1, so the split is given the instance's rows)
        q = inst6.qsets[-1]
        moved = dataclasses.replace(inst6, qsets=inst6.qsets[:-1] + (q._replace(last=q.last + 1),))
        low, high = bracketing_prefixes(moved, 5)
        with pytest.raises(CertificationError, match="interval row 5: no prefix cuts 13 and 17"):
            certify._split(moved, 5, inst6.cut_links, low, high)
        with pytest.raises(ValueError, match=r"interval 5 = \[14, 17\] is not a run of nodes"):
            certify_instance(moved, family6)

    @pytest.mark.parametrize("k", (4, 6, 8))
    def test_prefix_flip_or_path_swap_is_sound(self, k):
        # Every single flip of a prefix-block entry, and every swap of a
        # prefix row's link for another link of the same path, which keeps
        # the row's count on each path: the replay aborts, or the tampered
        # matrix has the determinant the replay claims.
        inst = build_instance(k)
        # the rational oracle takes about 30 s on the 320 matrices accepted at k = 8
        det = rational_det if k < 8 else lambda rows: det_bareiss(IntMatrix.from_rows(rows))
        claimed = 2 ** (k - 1) * det(build_circulant(k).to_rows())
        tampered = [[(r, c)] for r in range(k - 1, inst.m) for c in range(inst.m)]
        path = [l.path for l in inst.links]
        for r, row in enumerate(dense(inst, inst.cut_links[k - 1 :]), start=k - 1):
            tampered += [
                [(r, x), (r, y)]
                for x in range(inst.m)
                for y in range(inst.m)
                if row[x] > row[y] and path[x] == path[y]
            ]
        accepted = 0
        for entries in tampered:
            rows = flip(inst.cut_links, entries)
            try:
                full_reduction(with_rows(inst, rows))
            except CertificationError:
                continue
            assert det(dense(inst, rows)) == claimed, entries
            accepted += 1
        assert (len(tampered), accepted) == {4: (112, 12), 6: (576, 89), 8: (1856, 320)}[k]

    def test_moves_decode_nothing_until_read(self, monkeypatch):
        # The replay compares bitsets with the circulant column, so it
        # decodes one link set per interval row, the halved one, however
        # many moves it makes; no move's link set is decoded until a trace
        # is read.
        decoded, read = [], []
        ids, links = certify.bit_ids, certify.MoveStep.links.fget
        monkeypatch.setattr(certify, "bit_ids", lambda bits: decoded.append(1) or ids(bits))
        monkeypatch.setattr(
            certify.MoveStep, "links", property(lambda step: read.append(1) or links(step))
        )
        k = 24
        traces = full_reduction(build_instance(k))
        moves = [step for t in traces for step in t.moves]
        assert len(moves) > 200 and len(decoded) <= k - 1 and read == []
        assert traces[-1].final == moves[-1].links and read == [1]


def _link_by_link(inst):
    """The message of the first link not indexed as the replay reads it,
    or None: the check as it ran one link at a time."""
    k = inst.k
    for f, l in enumerate(inst.links, start=1):
        on_path = l.path == f if f <= k else 1 <= l.path <= k
        if (l.id, l.lo) != (f, max(f - k + 1, 1)) or not on_path:
            return f"link {list(l)} at position {f} is not indexed as the replay reads it"
    return None


class TestMoveRefusals:
    # Each check of the move loop, pinned by its message on one tampered
    # input: links 6 = (3, 7) and 8 = (5, 6) of the k = 4 instance take two
    # moves, -N_5 +N_4 to {2, 6}, then -N_3 +N_2 to {2, 3}.

    @pytest.mark.parametrize(
        "i, links, message",
        (
            (3, (2,), r"link set \[2, 6\] not inside prefix cut 3"),
            (2, (4,), r"complement set \[4, 5\] not inside prefix cut 2"),
            (2, (6,), "move 3->2 made no progress"),
            (2, (2, 3), "move 3->2 left no link"),
        ),
        ids=("set-outside-sub", "complement-outside-add", "no-progress", "empty-set"),
    )
    def test_refused_by_message(self, inst4, i, links, message):
        # the given links flipped in the bitset row of prefix cut N_i
        rows = list(inst4.cut_links)
        for l in links:
            rows[inst4.k - 2 + i] ^= 1 << l
        with pytest.raises(CertificationError, match=message):
            certify._move_loop(inst4, rows, 1 << 6 | 1 << 8)

    def test_changed_paths_refused(self, inst4):
        # link 8 relabelled to path 1 with its rows unchanged: every move
        # passes, and only the paths of the final set give it away
        links = list(inst4.links)
        links[7] = links[7]._replace(path=1)
        relabelled = dataclasses.replace(inst4, links=tuple(links))
        with pytest.raises(CertificationError, match=r"changed the touched paths from \[1, 3\]"):
            push_to_source(relabelled, {6, 8})


def test_certify_instance_sets_reduction_flag(inst4, family4):
    cert = certify_instance(inst4, family4)
    assert cert.reduction_ok is True
    assert cert.is_basic
    assert cert.traces == tuple(full_reduction(inst4))
    assert cert.reduction_error is None
    assert cert.false_verdicts == ()


def _count_calls(monkeypatch, name):
    """Record the first argument of every call of the package function
    ``name``, made through any module of the package that holds it."""
    calls = []
    real = getattr(smallcuts, name)

    def counted(inst, *args, **kwargs):
        calls.append(inst)
        return real(inst, *args, **kwargs)

    for module in (smallcuts, certify, cli, construction, formats):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_one_elimination_per_certificate(inst6, family6, monkeypatch, tmp_path):
    shapes = []
    eliminate = exactmath._eliminate

    def counted(m):
        shapes.append((m.rows, m.cols))
        return eliminate(m)

    monkeypatch.setattr(exactmath, "_eliminate", counted)
    builds = _count_calls(monkeypatch, "build_incidence_matrix")
    replays = _count_calls(monkeypatch, "full_reduction")
    circulants = _count_calls(monkeypatch, "build_circulant")
    cert = certify_instance(inst6, family6)
    assert cert.is_basic and cert.reduction_ok
    # one circulant, eliminated once for the replay's rank and the
    # determinant; no 21 x 21, and the replay runs on the sparse rows
    # without building A
    assert shapes == [(5, 5)] and circulants == [6]
    assert (len(builds), len(replays)) == (0, 1)
    shapes.clear(), builds.clear(), replays.clear(), circulants.clear()
    out = tmp_path / "cert.json"
    assert cli.main(["verify", "-k", "6", "--strategy", "flow", "--out", str(out)]) == 0
    assert shapes == [(5, 5)] and circulants == [6]
    assert (len(builds), len(replays)) == (0, 1)


def test_nothing_kept_between_certificates(inst6, family6, monkeypatch):
    # each certificate builds its own circulant and eliminates it once:
    # nothing is cached from one certificate to the next
    shapes = []
    eliminate = exactmath._eliminate
    monkeypatch.setattr(
        exactmath, "_eliminate", lambda m: shapes.append((m.rows, m.cols)) or eliminate(m)
    )
    circulants = _count_calls(monkeypatch, "build_circulant")
    first, second = certify_instance(inst6, family6), certify_instance(inst6, family6)
    assert first == second and first.det_a == 6 * 2**4
    assert shapes == [(5, 5), (5, 5)] and circulants == [6, 6]


@pytest.mark.parametrize("replay", ("succeeds", "fails"))
def test_no_dense_matrix_at_k94(monkeypatch, replay):
    # k = 94 has m = 4465: no m x m matrix is built or eliminated, whether
    # the replay proves the rank or fails and leaves it unproved
    inst = build_instance(94)
    family = enumerate_flow(inst.graph)
    if replay == "fails":

        def broken(inst, rows, links):
            raise CertificationError("no move from here")

        monkeypatch.setattr(certify, "_move_loop", broken)
    built, eliminated = [], []
    post_init, eliminate = IntMatrix.__post_init__, exactmath._eliminate

    def recorded(self):
        built.append((self.rows, self.cols))
        post_init(self)

    def counted(m):
        eliminated.append((m.rows, m.cols))
        return eliminate(m)

    monkeypatch.setattr(IntMatrix, "__post_init__", recorded)
    monkeypatch.setattr(exactmath, "_eliminate", counted)
    circulants = _count_calls(monkeypatch, "build_circulant")
    cert = certify_instance(inst, family)
    assert all(rows < inst.k for rows, _ in built + eliminated) and circulants == [94]
    if replay == "succeeds":
        assert not cert.false_verdicts and eliminated == [(93, 93)]
        assert (cert.rank_a, cert.det_a) == (inst.m, 94 * 2**92)
    else:
        assert eliminated == [] and cert.false_verdicts == ("is_basic", "reduction_ok")
        assert (cert.rank_a, cert.det_a, cert.failures) == (None, None, ("rank:unproved",))


@pytest.mark.parametrize("k", (4, 6, 8, 10))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_shuffled_documents_certify(k, data):
    # Valid instances that build_instance does not make: the intervals take
    # the chain's positions in a random order, and the paths that meet an
    # interval take its nodes in a random order.  Each document loads, and
    # its certificate proves the rank and determinant by the replay.
    inst = build_instance(k)
    n, half = inst.n, k // 2
    order = data.draw(st.permutations(range(1, k)), label="interval at each position")
    first = {j: 2 + p * half for p, j in enumerate(order)}
    links = [[i, 1, n, i] for i in range(1, k + 1)]
    last = list(range(-1, k))  # last[i]: position in links of path i's latest link
    for j in order:
        paths = data.draw(st.permutations(construction.meeting_paths(k, j)), label=f"paths of {j}")
        for i, v in zip(paths, range(first[j], first[j] + half)):
            links[last[i]][2] = v
            last[i] = len(links)
            links.append([k + v - 1, v, n, i])
    doc = formats.instance_to_doc(inst)
    doc["qsets"] = [[first[j], first[j] + half - 1] for j in range(1, k)]
    doc["links"] = links
    shuffled = formats.instance_from_doc(doc)
    cert = certify_instance(shuffled, enumerate_flow(shuffled.graph))
    assert not cert.false_verdicts and cert.reduction_ok
    assert (cert.rank_a, cert.det_a) == (shuffled.m, k * 2 ** (k - 2))
    if k <= 6:
        assert rational_det(build_incidence_matrix(shuffled).to_rows()) == cert.det_a
