"""Acceptance suite: one test per acceptance criterion, in order.

Each test asserts the criterion exactly (exact equality everywhere; runtime
bounds via perf_counter around the relevant computation) and prints a single
PASS line when it holds.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import time
from fractions import Fraction

import dataclasses
import pytest

from smallcuts import cli
from smallcuts.certify import (
    CertificationError,
    certify_instance,
    full_reduction,
    listed_capacity_table,
)
from smallcuts.construction import (
    build_circulant,
    build_incidence_matrix,
    build_instance,
    listed_small_cuts,
)
from smallcuts.cuts import (
    Cut,
    CutFamily,
    cut_capacity,
    enumerate_bruteforce,
    enumerate_flow,
    karger_probe,
)
from smallcuts.exactmath import IntMatrix, det_bareiss, rank

from test_construction import GOLDEN_A_K4

CERTIFIED_K = (4, 6, 8, 10)

_instances = {}
_certificates = {}


def instance(k):
    if k not in _instances:
        _instances[k] = build_instance(k)
    return _instances[k]


def listed_family(inst) -> CutFamily:
    return CutFamily.collect(
        (
            Cut(side=side, capacity=cut_capacity(inst.graph, side))
            for _, side in listed_small_cuts(inst)
        ),
        inst.graph.lam,
    )


def certificate(k):
    if k not in _certificates:
        inst = instance(k)
        _certificates[k] = certify_instance(inst, listed_family(inst))
    return _certificates[k]


def reduced_matrix(inst, traces) -> IntMatrix:
    """The matrix the replay reduces A to: each interval row is the
    indicator of its trace's final links, each prefix row that of A."""
    m = inst.m
    rows = [[1 if c + 1 in t.final else 0 for c in range(m)] for t in traces]
    a = build_incidence_matrix(inst)
    rows += [a.row(r) for r in range(inst.k - 1, m)]
    return IntMatrix.from_rows(rows)


def with_rows(inst, rows):
    """A copy of ``inst`` whose ``cut_links`` cache holds ``rows``: the
    bitset rows the replay reads in place of the instance's own."""
    copy = dataclasses.replace(inst)
    object.__setattr__(copy, "cut_links", tuple(rows))
    return copy


def flip(rows, entries):
    """The bitset rows with each listed (row, column) entry flipped between
    0 and 1; column c is link c + 1."""
    rows = list(rows)
    for r, c in entries:
        rows[r] ^= 1 << (c + 1)
    return rows


def dense(inst, rows):
    """The bitset rows as 0/1 lists, column c for link c + 1, for the
    determinant oracles."""
    return [[bits >> (c + 1) & 1 for c in range(inst.m)] for bits in rows]


def test_criterion_1_golden_matrix_k4():
    started = time.perf_counter()
    inst = instance(4)
    a = build_incidence_matrix(inst)
    assert a == IntMatrix.from_rows(GOLDEN_A_K4)
    assert build_circulant(4) == IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: k=4 incidence matrix and circulant match the "
          f"golden entries exactly ({elapsed:.3f}s)")


def test_criterion_2_circulant_det_and_rank():
    started = time.perf_counter()
    for k in (4, 6, 8, 10, 12):
        apq = build_circulant(k)
        assert det_bareiss(apq) == k // 2, k
        assert rank(apq) == k - 1, k
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: det = k/2 and rank = k-1 for the circulant, "
          f"k in {{4,6,8,10,12}} ({elapsed:.3f}s)")


def test_criterion_3_listed_capacities():
    started = time.perf_counter()
    for k in CERTIFIED_K:
        inst = instance(k)
        table = listed_capacity_table(inst)
        for label, cap in table.items():
            assert cap < 5, (k, label, cap)
            if label.startswith("N"):
                assert cap in (3, 4), (k, label, cap)
            else:
                assert cap == 4, (k, label, cap)
        assert table["N_1"] == 3
        assert table[f"N_{inst.n - 1}"] == 3
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 PASS: every listed cut has capacity 3 or 4 (< 5), "
          f"interval cuts all 4, extreme prefix cuts 3, k in {CERTIFIED_K} "
          f"({elapsed:.3f}s)")


def test_criterion_4_enumeration_and_probe():
    # exhaustive scan at desk scale
    started = time.perf_counter()
    inst4 = instance(4)
    assert (1 << (inst4.n - 1)) - 1 == 127
    fam4 = enumerate_bruteforce(inst4.graph)
    t_brute4 = time.perf_counter() - started
    assert t_brute4 < 1.0
    assert len(fam4) == 10 == (inst4.n - 1) + (inst4.k - 1)
    assert certify_instance(inst4, fam4).family_exact

    started = time.perf_counter()
    inst6 = instance(6)
    assert (1 << (inst6.n - 1)) - 1 == 65535
    fam6 = enumerate_bruteforce(inst6.graph)
    t_brute6 = time.perf_counter() - started
    assert t_brute6 < 1.0
    assert len(fam6) == 21 == (inst6.n - 1) + (inst6.k - 1)
    assert certify_instance(inst6, fam6).family_exact

    # flow-bounded enumeration agrees, and extends to k=8
    assert enumerate_flow(inst4.graph).sides() == fam4.sides()
    assert enumerate_flow(inst6.graph).sides() == fam6.sides()
    started = time.perf_counter()
    inst8 = instance(8)
    fam8 = enumerate_flow(inst8.graph)
    t_flow8 = time.perf_counter() - started
    assert t_flow8 < 300.0
    assert len(fam8) == 36 == (inst8.n - 1) + (inst8.k - 1)
    assert certify_instance(inst8, fam8).family_exact

    # seeded contraction probe at k in {8, 10}: nothing outside the family
    probe_stats = []
    for k, seed in ((8, 2024), (10, 2025)):
        inst = instance(k)
        fam = karger_probe(inst.graph, trials=100_000, seed=seed)
        listed = {side for _, side in listed_small_cuts(inst)}
        assert fam.sides() <= listed, k
        assert {c.capacity for c in fam} <= {3, 4}
        probe_stats.append(f"k={k}:{len(fam)}/{len(listed)}")
    print(f"ACCEPTANCE 4 PASS: brute force finds 10 (k=4, {t_brute4:.3f}s) and "
          f"21 (k=6, {t_brute6:.3f}s) cuts; flow enumeration identical for "
          f"k in {{4,6}} and 36 cuts for k=8 ({t_flow8:.3f}s); 1e5-trial probes "
          f"stay inside the family ({', '.join(probe_stats)})")


def test_criterion_5_basic_solution_certificates():
    _certificates.clear()
    started = time.perf_counter()
    expected_rank = {4: 10, 6: 21, 8: 36, 10: 55}
    for k in CERTIFIED_K:
        cert = certificate(k)
        assert cert.is_basic, k
        assert cert.max_coordinate == Fraction(1, k), k
        assert cert.rank_a == expected_rank[k] == instance(k).m, k
        # the replay's determinant, against a Bareiss elimination of A itself
        assert cert.det_a == det_bareiss(build_incidence_matrix(instance(k))) != 0, k
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 5 PASS: is_basic with max coordinate exactly 1/k and "
          f"rank {expected_rank} for k in {CERTIFIED_K} ({elapsed:.3f}s)")


def test_criterion_6_worked_example_replay():
    started = time.perf_counter()
    inst = instance(4)
    traces = full_reduction(inst)
    assert [(t.add_nested, t.sub_nested) for t in traces] == [(1, 3), (3, 5), (5, 7)]
    assert [t.halved for t in traces] == [
        frozenset({1, 3}),
        frozenset({2, 5}),
        frozenset({6, 8}),
    ]
    assert [[s.links for s in t.moves] for t in traces] == [
        [],
        [frozenset({1, 2})],
        [frozenset({2, 6}), frozenset({2, 3})],
    ]
    assert [t.paths for t in traces] == [
        frozenset({1, 3}),
        frozenset({1, 2}),
        frozenset({2, 3}),
    ]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 6 PASS: k=4 reduction replays the worked example "
          f"exactly ({elapsed:.3f}s)")


def test_criterion_7_reduction_structure():
    started = time.perf_counter()
    for k in CERTIFIED_K:
        inst = instance(k)
        traces = full_reduction(inst)  # raises on any block violation
        m = inst.m
        reduced = reduced_matrix(inst, traces)
        assert reduced.block(0, k - 1, 0, k - 1) == build_circulant(k).transpose()
        assert all(x == 0 for x in reduced.block(0, k - 1, k - 1, m).entries)
        block = reduced.block(k - 1, m, k - 1, m)
        for i in range(block.rows):
            assert block.at(i, i) == 1
            assert all(block.at(i, j) == 0 for j in range(i + 1, block.cols))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 7 PASS: transposed-circulant / zero / unit-lower-"
          f"triangular block shape for k in {CERTIFIED_K} ({elapsed:.3f}s)")


def test_criterion_8_mutation_suite():
    rng = random.Random(20240817)
    detected = {"xstar": 0, "cut": 0, "entry": 0}
    for k in (4, 6):
        inst = instance(k)
        family = listed_family(inst)

        for _ in range(20):
            idx = rng.randrange(inst.m)
            wrong = rng.choice(
                [Fraction(1, 2), Fraction(1, 2 * k), Fraction(1, k) + Fraction(1, k * k),
                 Fraction(0), Fraction(1), Fraction(2, k)]
            )
            xs = list(inst.xstar)
            xs[idx] = wrong
            cert = certify_instance(dataclasses.replace(inst, xstar=tuple(xs)), family)
            assert cert.is_basic == (not cert.failures), (k, idx, wrong)
            assert not cert.is_basic, (k, idx, wrong)
            assert not cert.tight or not cert.bounds_strict, (k, idx, wrong)
            detected["xstar"] += 1

        sides = sorted(family.sides(), key=sorted)
        for _ in range(20):
            removed = rng.choice(sides)
            pruned = CutFamily.collect(
                (c for c in family if c.side != removed), family.lam
            )
            check = certify_instance(inst, pruned)
            assert not check.family_exact
            assert check.missing == (removed,)
            detected["cut"] += 1

        for _ in range(20):
            i = rng.randrange(inst.m)
            j = rng.randrange(inst.m)
            mutated = flip(inst.cut_links, [(i, j)])
            assert mutated != list(inst.cut_links), (k, i, j)
            detected["entry"] += 1
            if i < k - 1:
                # interval-row flips must also abort the replay itself
                with pytest.raises(CertificationError):
                    full_reduction(with_rows(inst, mutated))
    assert all(v == 40 for v in detected.values())
    print(f"ACCEPTANCE 8 PASS: 40 point perturbations, 40 cut removals and 40 "
          f"entry flips across k in {{4,6}}, every one detected")


def test_criterion_9_threshold_failure_report():
    values = []
    for k in CERTIFIED_K:
        cert = certificate(k)
        assert cert.is_basic
        assert cert.max_coordinate == Fraction(1, k)
        assert cert.max_coordinate < Fraction(1, 2)
        values.append(cert.max_coordinate)
    assert all(a > b for a, b in zip(values, values[1:]))
    report = ", ".join(f"k={k}: {v}" for k, v in zip(CERTIFIED_K, values))
    print(f"ACCEPTANCE 9 PASS: max positive coordinate equals 1/k < 1/2 and "
          f"strictly decreases ({report})")


def test_reach_k94_flow_certificate(tmp_path):
    # the full verify path well past the benchmarked k, against closed forms:
    # n = 2 + k(k-1)/2 nodes, m = n + k - 2 links and listed cuts, and
    # det A = k 2^(k-2)
    k = 94
    n = 2 + k * (k - 1) // 2
    m = n + k - 2
    out = tmp_path / "cert.json"
    started = time.perf_counter()
    assert cli.main(["verify", "-k", str(k), "--strategy", "flow", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - started
    doc = json.loads(out.read_text())
    assert (n, m) == (4373, 4465)
    assert doc["family_exact"] is True and doc["is_basic"] is True and doc["reduction_ok"] is True
    assert doc["family_size"] == doc["rank_A"] == m
    assert doc["det_A"] == str(k * 2 ** (k - 2))
    assert doc["max_coordinate"] == f"1/{k}"
    assert elapsed < 30.0
    print(f"REACH PASS: verify -k {k} --strategy flow certifies {m} cuts and "
          f"rank {m} ({elapsed:.3f}s)")
