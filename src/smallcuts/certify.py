"""Certification of the constructed instances.

Checks, in exact arithmetic, everything the construction promises: the
listed cuts are small, an exact enumeration finds nothing else, the uniform
point covers every listed cut tightly with no tight variable bound, and the
cut/link incidence matrix has full rank (so the point is a vertex of the LP).
The rank is proved by an executable replay of the rank argument, the only
proof of it: explicit row operations reduce the interval-cut rows to path
indicator rows, which also gives the determinant from that of the
(k-1) x (k-1) circulant.  The replay works on the instance's own rows and
no others: the 0/1 bitsets of ``Instance.cut_links``, bit ``l`` for link
``l``.  Each row operation is a few word operations, computed once and
accepted only under the exact identity that makes it that row operation;
the move loop reads no link.  No m x m matrix is built or eliminated; a
replay that fails leaves the rank unproved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .construction import (
    Instance,
    bit_ids,
    build_circulant,
    listed_labels,
    listed_sums,
)
from .cuts import Cut, CutFamily, FrontierFamily
from .exactmath import IntMatrix, det_bareiss, rank


class CertificationError(Exception):
    """A verdict that should hold for every built instance failed."""


class MoveStep(NamedTuple):
    """One row operation of the push-to-source loop: subtract the row of
    prefix cut ``sub_nested``, add the row of ``add_nested``.  ``bits`` is
    the resulting link set, bit ``l`` for link ``l``."""

    sub_nested: int
    add_nested: int
    bits: int

    @property
    def links(self) -> frozenset[int]:
        """The resulting link set, decoded from ``bits`` on each read."""
        return frozenset(bit_ids(self.bits))


@dataclass(frozen=True)
class ReductionTrace:
    """Replayable record of the reduction of one interval-cut row."""

    qrow: int
    add_nested: int  # largest prefix index disjoint from the interval
    sub_nested: int  # smallest prefix index containing the interval
    halved: frozenset[int]
    moves: tuple[MoveStep, ...]
    final: frozenset[int]
    paths: frozenset[int]


@dataclass(frozen=True)
class Certificate:
    """Every verdict on one instance and family.  ``rank_a`` and ``det_a``
    are those the replay proves, or None when it failed (``failures`` then
    ends with ``rank:unproved``); ``traces`` is empty unless the replay
    succeeded, and ``reduction_error`` says why it failed."""

    k: int
    family_exact: bool
    family_size: int
    missing: tuple[frozenset[int], ...]
    surplus: tuple[frozenset[int], ...]
    listed_capacities: dict[str, int]
    feasible: bool
    tight: bool
    bounds_strict: bool
    rank_a: int | None
    det_a: int | None
    is_basic: bool
    max_coordinate: Fraction
    failures: tuple[str, ...]
    reduction_ok: bool
    traces: tuple[ReductionTrace, ...]
    reduction_error: str | None

    @property
    def false_verdicts(self) -> tuple[str, ...]:
        """The verdicts that are false, in a fixed order."""
        verdicts = ("is_basic", "family_exact", "reduction_ok")
        return tuple(name for name in verdicts if not getattr(self, name))


def _scaled_point(inst: Instance) -> tuple[list[int], int]:
    """The candidate point as integer numerators over one common denominator."""
    den = lcm(*(x.denominator for x in inst.xstar))
    return [x.numerator * (den // x.denominator) for x in inst.xstar], den


def _crossing_total(inst: Instance, nums: list[int], side: frozenset[int]) -> int:
    return sum(nums[l.id - 1] for l in inst.links if (l.lo in side) != (l.hi in side))


def coverage(inst: Instance, cut: Cut | Iterable[int]) -> Fraction:
    """Exact sum of the candidate point over the links crossing the cut."""
    side = cut.side if isinstance(cut, Cut) else frozenset(cut)
    nums, den = _scaled_point(inst)
    return Fraction(_crossing_total(inst, nums, side), den)


def listed_capacity_table(inst: Instance) -> dict[str, int]:
    """Capacities of all n-1 prefix cuts and k-1 interval cuts, by label."""
    caps = listed_sums(inst, inst.graph.edges)
    return dict(zip(listed_labels(inst), caps))


class FamilySizeError(ValueError):
    """An enumerated family not proved exact by its count is too large to
    name its missing and surplus cuts side by side."""


def family_walk_budget(inst: Instance) -> int:
    """The most cuts a frontier family may hold and still have its missing
    and surplus cuts named when its count proves no exactness: twice the
    n + k - 2 listed cuts."""
    return 2 * (inst.k + inst.n - 2)


def _family(
    inst: Instance, family: CutFamily, caps: dict[str, int]
) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...], list[int | None] | None]:
    """The missing and surplus sides of the family against the listed cuts,
    and the listed row of each cut of the family in order (None for a
    surplus cut), or None in place of the rows when the family is proved
    exact by counting.

    A ``FrontierFamily`` of the instance's own graph is exactly that graph's
    small cuts.  When every listed capacity in ``caps`` is below ``lam``,
    the n + k - 2 listed cuts are among them, and they are distinct, since
    ``listed_sums`` refuses intervals that do not partition 2..n-1; so such
    a family of n + k - 2 cuts is the listed cuts, and no side is read.
    Otherwise its cuts are walked and compared by shape, like an explicit
    family's, but only when it holds at most ``family_walk_budget`` cuts; a
    larger family raises ``FamilySizeError``, naming both counts.

    Compared by shape, through ``_listed_rows`` and each cut's ``extent``, a
    family costs O(1) per cut; a side is sorted only to name it as missing
    or surplus.
    """
    if isinstance(family, FrontierFamily):
        listed = inst.k + inst.n - 2
        if (
            len(family) == listed
            and family.graph == inst.graph
            and all(cap < inst.graph.lam for cap in caps.values())
        ):
            return (), (), None
        budget = family_walk_budget(inst)
        if len(family) > budget:
            raise FamilySizeError(
                f"the enumerated family has {len(family)} cuts against {listed} listed "
                f"cuts; naming its missing and surplus cuts is refused above {budget} cuts"
            )
    rows = _listed_rows(inst, family)
    # Sides are built only for the listed cuts the family misses.
    found = set(rows)
    missing = {_listed_side(inst, r) for r in range(inst.k + inst.n - 2) if r not in found}
    surplus = {c.side for c, r in zip(family, rows) if r is None}
    return tuple(sorted(missing, key=sorted)), tuple(sorted(surplus, key=sorted)), rows


def _listed_rows(inst: Instance, family: CutFamily) -> list[int | None]:
    """For each cut of the family, in order, the incidence row of the listed
    cut with the same side, or None.  A listed side is recognised by its
    shape, a run lo..hi of nodes: ``hi = n`` with ``lo >= 2`` is prefix cut
    N_{lo-1}, and an interval's (first, last) is that interval's cut.

    The shape is read from the cut's ``extent``, (lo, hi), and the size of
    its side, so each cut costs O(1): ``CutFamily.collect`` records the
    extent of every cut it orders, and a cut built otherwise computes it
    once, on first read.  No side is sorted or scanned here."""
    k, n = inst.k, inst.n
    qrow = {(q.first, q.last): j for j, q in enumerate(inst.qsets)}
    rows: list[int | None] = []
    for c in family:
        ends, row = c.extent, None
        if ends is not None:
            lo, hi = ends
            if hi - lo + 1 == len(c.side):
                row = k - 3 + lo if hi == n and lo >= 2 else qrow.get(ends)
        rows.append(row)
    return rows


def _listed_side(inst: Instance, r: int) -> frozenset[int]:
    """The side of the listed cut of incidence row r."""
    k = inst.k
    return inst.qset_side(r + 1) if r < k - 1 else inst.nested_side(r - k + 2)


def _certificate(
    inst: Instance,
    family: CutFamily,
    circulant: IntMatrix,
    traces: tuple[ReductionTrace, ...],
    error: str | None,
) -> Certificate:
    """Assemble the certificate from every check and the replay's outcome:
    its ``traces``, or the ``error`` of a replay that failed, which leaves
    the rank unproved.  ``circulant`` is the one the replay read."""
    failures: list[str] = []
    caps = listed_capacity_table(inst)
    lam = inst.graph.lam
    for label, cap in caps.items():
        if cap >= lam:
            failures.append(f"capacity:{label}")
    missing, surplus, rows = _family(inst, family, caps)
    if missing:
        failures.append(f"family:missing={len(missing)}")

    # Coverage as a numerator over ``den``: covered at least once is
    # ``>= den``, exactly once is ``== den``.  A listed row sums the point
    # over its own links; only a surplus cut is tested link by link.
    nums, den = _scaled_point(inst)
    totals = listed_sums(inst, ((l.lo, l.hi, nums[l.id - 1]) for l in inst.links))
    if rows is None:
        # Exact by counting: the family is the listed cuts, so only the
        # sides of listed rows covered less than once are built, and named
        # in the family's (size, sorted side) order.
        short = [_listed_side(inst, r) for r, total in enumerate(totals) if total < den]
        uncovered = [sorted(side) for side in sorted(short, key=lambda s: (len(s), sorted(s)))]
    else:
        uncovered = [
            sorted(c.side)
            for c, r in zip(family, rows)
            if (_crossing_total(inst, nums, c.side) if r is None else totals[r]) < den
        ]
    feasible = not uncovered
    failures.extend(f"coverage:{side}" for side in uncovered)
    tight = True
    for label, total in zip(caps, totals):  # caps is keyed by label, in row order
        if total != den:
            tight = False
            failures.append(f"tightness:{label}")
    bounds_strict = all(0 < v < den for v in nums)
    if not bounds_strict:
        failures.append("bounds")
    if error is None:
        # the replay's block shape gives det A = 2^(k-1) det C
        rank_a, det_a = inst.m, 2 ** (inst.k - 1) * det_bareiss(circulant)
    else:
        rank_a = det_a = None
        failures.append("rank:unproved")

    return Certificate(
        k=inst.k,
        family_exact=not missing and not surplus,
        family_size=len(family),
        missing=missing,
        surplus=surplus,
        listed_capacities=caps,
        feasible=feasible,
        tight=tight,
        bounds_strict=bounds_strict,
        rank_a=rank_a,
        det_a=det_a,
        is_basic=not failures,
        max_coordinate=Fraction(max(nums), den),
        failures=tuple(failures),
        reduction_ok=error is None,
        traces=traces,
        reduction_error=error,
    )


# ---------------------------------------------------------------------------
# row-operation replay


def bracketing_prefixes(inst: Instance, j: int) -> tuple[int, int]:
    """For interval j: the largest prefix index whose node set misses the
    interval, and the smallest prefix index whose node set contains it."""
    if not 1 <= j <= inst.k - 1:
        raise ValueError(f"interval index {j} out of range 1..{inst.k - 1}")
    q = inst.qsets[j - 1]
    return q.first - 1, q.last


def _check_link_indexing(inst: Instance) -> None:
    """Refuse an instance whose links are not indexed as the replay reads
    them.

    The replay reads the largest ``lo`` of a link set from its top bit: link
    ``f`` starts at node 1 for ``f <= k`` and at ``f - k + 1`` after that,
    as ``validate_instance`` requires, and source link ``f`` is on path ``f``.
    That indexing, and a path in 1..k for every link, is checked once per
    call, in O(m): column by column, and link by link only to name the
    first link that breaks it."""
    k, m = inst.k, inst.m
    ids, los, _, paths = tuple(zip(*inst.links)) or ((),) * 4
    others = paths[k:]
    if (
        ids == tuple(range(1, m + 1))
        and los == (1,) * min(k, m) + tuple(range(2, m - k + 2))
        and paths[:k] == ids[:k]
        and 1 <= min(others, default=1)
        and max(others, default=k) <= k
    ):
        return
    for f, l in enumerate(inst.links, start=1):
        on_path = l.path == f if f <= k else 1 <= l.path <= k
        if (l.id, l.lo) != (f, max(f - k + 1, 1)) or not on_path:
            raise CertificationError(
                f"link {list(l)} at position {f} is not indexed as the replay reads it"
            )


def _split(inst: Instance, j: int, rows: Sequence[int], low: int, high: int) -> int:
    if not 1 <= low < high < inst.n:
        raise CertificationError(f"interval row {j}: no prefix cuts {low} and {high} bracket it")
    # prefix cut i is row k-2+i
    q, h, l = rows[j - 1], rows[inst.k - 2 + high], rows[inst.k - 2 + low]
    # On 0/1 rows, q - h + l is twice the indicator of q & l iff h == q ^ l.
    if h != q ^ l:
        raise CertificationError(
            f"interval row {j}: prefix row {high} is not the symmetric difference "
            f"of the interval row and prefix row {low}"
        )
    halved = q & l
    if halved.bit_count() != inst.k // 2:
        raise CertificationError(
            f"interval row {j}: expected {inst.k // 2} links, got {halved.bit_count()}"
        )
    if halved >> inst.k & 1:
        raise CertificationError("source-sink link cannot leave an interval cut")
    return halved


def _move_loop(inst: Instance, rows: Sequence[int], cur: int) -> tuple[int, tuple[MoveStep, ...]]:
    """The bitset the moves take the link set ``cur`` to, and the moves.  A
    move takes ``cur`` to ``add - (sub - cur)`` for the rows ``sub`` and
    ``add`` of two prefix cuts; on 0/1 rows that is the row
    ``cur - sub + add`` iff ``cur <= sub`` and ``sub - cur <= add``, so
    both are checked as word operations, and it must leave links and lower
    the containing prefix cut.  The caller vouches for ``cur``; no link is
    read, and a set is decoded only to name it in a refusal."""
    k = inst.k
    base = k - 2  # prefix cut i is row base + i
    # the largest lo of a nonempty set is read from its top bit, link id
    # f > k having lo = f - k + 1, and lo = 1 below that
    high = cur.bit_length() - k
    if high < 1:
        high = 1
    moves: list[MoveStep] = []
    while high > 1:
        sub = rows[base + high]
        if cur & ~sub:
            raise CertificationError(f"link set {bit_ids(cur)} not inside prefix cut {high}")
        complement = sub ^ cur
        if not complement:
            raise CertificationError(
                f"link set {bit_ids(cur)} leaves no complement in prefix cut {high}"
            )
        low = complement.bit_length() - k
        if low < 1:
            low = 1
        add = rows[base + low]
        if complement & ~add:
            raise CertificationError(
                f"complement set {bit_ids(complement)} not inside prefix cut {low}"
            )
        new = add ^ complement
        if not new:
            raise CertificationError(f"move {high}->{low} left no link")
        new_high = new.bit_length() - k
        if new_high < 1:
            new_high = 1
        if new_high >= high:
            raise CertificationError(f"move {high}->{low} made no progress")
        moves.append(MoveStep(high, low, new))
        cur, high = new, new_high
    return cur, tuple(moves)


def push_to_source(
    inst: Instance, links: Iterable[int]
) -> tuple[frozenset[int], tuple[MoveStep, ...]]:
    """Row-operation loop moving a half-cut link set into the source links.

    ``links`` must be k/2 links, none of them the source-sink link, jointly
    contained in some prefix cut; only this entry point checks that, and
    that the final set touches the paths ``links`` touches.  Each step swaps
    the link set for its complement within two prefix cuts of
    ``inst.cut_links``, strictly decreasing the containing prefix index; the
    loop ends when all links are incident to node 1.  The returned link set
    is that of the last step, or ``links`` when no step is needed.
    """
    current = frozenset(links)
    if len(current) != inst.k // 2:
        raise ValueError(f"need exactly {inst.k // 2} links, got {len(current)}")
    if inst.k in current:
        raise ValueError("the source-sink link cannot be moved")
    paths = frozenset(inst.link(l).path for l in current)
    if max(inst.link(l).lo for l in current) >= min(inst.link(l).hi for l in current):
        raise ValueError("link set is not contained in any prefix cut")
    _check_link_indexing(inst)
    bits, moves = _move_loop(inst, inst.cut_links, sum(1 << l for l in current))
    final = frozenset(bit_ids(bits))
    touched = frozenset(inst.link(l).path for l in final)
    if touched != paths:
        raise CertificationError(
            f"the moves changed the touched paths from {sorted(paths)} to "
            f"{sorted(touched)} ({sorted(current)} -> {sorted(final)})"
        )
    return final, moves


def full_reduction(inst: Instance, circulant: IntMatrix | None = None) -> list[ReductionTrace]:
    """Reduce every interval-cut row of the incidence matrix to a path
    indicator row, verify the resulting block shape, and return the traces.

    The rows are the 0/1 bitsets of ``inst.cut_links``, read after the link
    indexing is checked; no m x m matrix is built.  The split (``_split``)
    and the moves (``_move_loop``, the loop of ``push_to_source``) are word
    operations on one bitset, each checked by the identity that makes it a
    row operation, so a single flipped entry in any row they read aborts
    the replay.  Then each interval row j must be column j of the
    path/interval circulant over the source links 1..k-1 (the top rows are
    ``[C^T, 0]``), and each prefix row must have entry 1 on the diagonal and
    none right of it (the prefix block is unit lower triangular).  The
    replay ends by checking that the circulant is nonsingular; with the
    block shape that gives rank m.

    ``circulant`` is ``build_circulant(inst.k)``: built here, after the
    link indexing is checked, unless a caller that reads it too passes it.
    ``certify_instance`` does, so a certificate builds one circulant and
    eliminates it once, for this rank and for its determinant.
    """
    _check_link_indexing(inst)
    rows, k = inst.cut_links, inst.k
    if circulant is None:
        circulant = build_circulant(k)
    # column j of the circulant: the paths i with a 1 in row i
    columns = [
        frozenset(compress(range(1, k), circulant.entries[c :: k - 1])) for c in range(k - 1)
    ]
    traces: list[ReductionTrace] = []
    for j, column in enumerate(columns, start=1):
        low, high = bracketing_prefixes(inst, j)
        # _split checked that the split is twice the indicator of
        # ``halved``; halving it leaves that indicator.
        halved = _split(inst, j, rows, low, high)
        try:
            final, moves = _move_loop(inst, rows, halved)
        except (ValueError, RuntimeError) as exc:
            raise CertificationError(f"interval row {j}: {exc}") from exc
        halved_links = frozenset(bit_ids(halved))
        paths = frozenset(inst.links[l - 1].path for l in halved_links)
        if paths != column:
            raise CertificationError(
                f"interval row {j}: touched paths {sorted(paths)} differ from "
                f"circulant column {sorted(column)}"
            )
        if final != sum(1 << i for i in column):  # links 1..k-1 are indexed by their path
            raise CertificationError(
                f"interval row {j}: reduced row {bit_ids(final)} is not the "
                f"indicator of the source links of paths {sorted(column)}"
            )
        traces.append(
            ReductionTrace(
                qrow=j,
                add_nested=low,
                sub_nested=high,
                halved=halved_links,
                moves=moves,
                final=column,  # the final set, checked equal just above
                paths=paths,
            )
        )
    for r, bits in enumerate(rows[k - 1 :], start=k - 1):
        # prefix row r has its diagonal at column r, link id r + 1
        if not bits >> (r + 1) & 1:
            raise CertificationError(f"prefix block diagonal entry {r - k + 1} is not one")
        if bits.bit_length() != r + 2:
            raise CertificationError(
                f"prefix block row {r - k + 1} is non-zero above the diagonal"
            )
    if rank(circulant) != k - 1:
        raise CertificationError("circulant is singular, so the block shape does not give rank m")
    return traces


def certify_instance(inst: Instance, family: CutFamily) -> Certificate:
    """Full verdict bundle: basic-solution checks plus the reduction replay.

    The one code path that assembles a certificate, ``verify`` included.
    The replay runs first, on the bitset rows of ``inst.cut_links``, and is
    the only proof of the rank.  A replay that succeeds proves
    ``rank A = m``: it only adds and subtracts rows and makes k-1 exact
    halvings, and it checks the final shape ``[[C^T, 0], [*, L]]`` with
    ``L`` unit lower triangular and the circulant ``C`` nonsingular.  So
    ``det A = 2^(k-1) det C``, and neither ``A`` nor any m x m elimination
    is needed.  One circulant is built per certificate: the replay reads
    its columns and its rank, the determinant is read from the same
    object, and that object is eliminated once for both.  A failed replay
    gives ``reduction_ok`` false, no traces, its message in
    ``reduction_error``, ``rank_a`` and ``det_a`` None and the failure
    ``rank:unproved``, so ``is_basic`` is false too.

    An instance whose k - 1 intervals do not partition 2..n-1 gets no
    certificate: ``listed_sums`` raises a ValueError naming the interval
    where the partition breaks, since its rows, capacities and totals, and
    the count that proves a frontier family exact, all assume one.  Nor
    does a graph with an edge end outside 1..n: ``listed_sums`` raises a
    ValueError naming the edge's ends and n.  Nor does an instance whose
    point is not one coordinate for each of at least one link: that is a
    ValueError naming both counts, raised before any sweep.  Nor does one
    whose k is not an even integer >= 4: ``build_circulant`` refuses it.
    """
    if not inst.links or len(inst.xstar) != inst.m:
        raise ValueError(
            f"the point has {len(inst.xstar)} coordinates for {inst.m} links; "
            "a certificate needs one coordinate per link, and at least one link"
        )
    circulant = build_circulant(inst.k)
    try:
        traces = tuple(full_reduction(inst, circulant))
    except CertificationError as exc:
        return _certificate(inst, family, circulant, (), str(exc))
    return _certificate(inst, family, circulant, traces, None)
