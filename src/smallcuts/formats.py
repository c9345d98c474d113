"""Serialization: JSON instance/certificate documents, LP and DOT export.

Rationals are serialized as "num/den" strings, never floats, so documents
round-trip exactly.  The LP writer emits one covering constraint per listed
cut in incidence-matrix row order (interval cuts first), which keeps the
files byte-stable for golden tests.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterable

from .certify import Certificate, ReductionTrace
from .construction import (
    CapGraph,
    Edge,
    Instance,
    Link,
    QSet,
    bit_ids,
    listed_labels,
    validate_instance,
)

SCHEMA_VERSION = "1"

DOT_PALETTE = (
    "blue", "red", "teal", "brown", "darkgreen", "purple",
    "orange", "magenta", "gray40", "olive", "cyan4", "black",
)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    """A rational written as a string; anything else is a ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"{s!r} is not a string")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"{s!r} has a zero denominator") from None


# ---------------------------------------------------------------------------
# instance documents


def instance_to_doc(inst: Instance) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "k": inst.k,
        "n": inst.n,
        "m": inst.m,
        "lambda": inst.graph.lam,
        "edges": [[e.lo, e.hi, e.cap] for e in inst.graph.edges],
        "qsets": [[q.first, q.last] for q in inst.qsets],
        "links": [[l.id, l.lo, l.hi, l.path] for l in inst.links],
        "xstar": [frac_str(x) for x in inst.xstar],
    }


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def _list(doc: dict[str, Any], key: str) -> list[Any]:
    value = doc[key]
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list, got {value!r}")
    return value


def _int_rows(doc: dict[str, Any], key: str, width: int) -> list[tuple[int, ...]]:
    """The list ``doc[key]`` read as rows of ``width`` integers."""
    rows = []
    for i, row in enumerate(_list(doc, key)):
        if not isinstance(row, list) or len(row) != width:
            raise ValueError(f"{key}[{i}] must be a list of {width} integers, got {row!r}")
        rows.append(tuple(_int(x, f"{key}[{i}]") for x in row))
    return rows


def instance_from_doc(doc: dict[str, Any]) -> Instance:
    """The instance a document describes; a malformed document, of any
    shape, is a ValueError that names the offending field."""
    if not isinstance(doc, dict):
        raise ValueError(f"instance document must be an object, got {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    for key in ("k", "n", "m", "lambda", "edges", "qsets", "links", "xstar"):
        if key not in doc:
            raise ValueError(f"instance document has no {key!r} key")
    k, n, m, lam = (_int(doc[key], repr(key)) for key in ("k", "n", "m", "lambda"))
    graph = CapGraph(
        n=n, edges=tuple(Edge(*e) for e in _int_rows(doc, "edges", 3)), lam=lam
    )
    qsets = tuple(
        QSet(j, first, last)
        for j, (first, last) in enumerate(_int_rows(doc, "qsets", 2), start=1)
    )
    links = tuple(Link(*l) for l in _int_rows(doc, "links", 4))
    xstar: list[Fraction] = []
    for i, s in enumerate(_list(doc, "xstar")):
        try:
            xstar.append(parse_frac(s))
        except ValueError as exc:
            raise ValueError(f"xstar[{i}]: {exc}") from None
    if len(xstar) != m or len(links) != m:
        raise ValueError("m does not match links/xstar length")
    inst = Instance(
        k=k,
        graph=graph,
        qsets=qsets,
        links=links,
        xstar=tuple(xstar),
    )
    validate_instance(inst)
    return inst


# ---------------------------------------------------------------------------
# certificate documents


def trace_to_doc(trace: ReductionTrace) -> dict[str, Any]:
    return {
        "qrow": trace.qrow,
        "add_nested": trace.add_nested,
        "sub_nested": trace.sub_nested,
        "halved": sorted(trace.halved),
        "moves": [
            {
                "sub_nested": s.sub_nested,
                "add_nested": s.add_nested,
                "links": bit_ids(s.bits),
            }
            for s in trace.moves
        ],
        "final": sorted(trace.final),
        "paths": sorted(trace.paths),
    }


def certificate_to_doc(
    cert: Certificate,
    *,
    tool_version: str,
    strategy: str,
    elapsed_seconds: float,
    lam: int,
    traces: Iterable[ReductionTrace] | None = None,
    probe: dict[str, Any] | None = None,
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": tool_version,
        "k": cert.k,
        "lambda": lam,
        "strategy": strategy,
        "elapsed_seconds": round(elapsed_seconds, 6),
        "family_exact": cert.family_exact,
        "family_size": cert.family_size,
        "missing_cuts": [sorted(s) for s in cert.missing],
        "surplus_cuts": [sorted(s) for s in cert.surplus],
        "listed_capacities": dict(cert.listed_capacities),
        "feasible": cert.feasible,
        "tight": cert.tight,
        "bounds_strict": cert.bounds_strict,
        "rank_A": cert.rank_a,
        "det_A": None if cert.det_a is None else str(cert.det_a),
        "is_basic": cert.is_basic,
        "max_coordinate": frac_str(cert.max_coordinate),
        "failures": list(cert.failures),
        "reduction_ok": cert.reduction_ok,
    }
    if traces is not None:
        doc["traces"] = [trace_to_doc(t) for t in traces]
    if probe is not None:
        doc["probe"] = probe
    return doc


def dump_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# LP export


def write_lp(inst: Instance) -> str:
    """The covering LP in lp-format text, unit objective costs.

    One constraint per listed cut, named cut_Q_j / cut_N_i, ordered exactly
    like the incidence-matrix rows; bounds 0 <= x_f <= 1 for every link.
    """
    m = inst.m
    lines = [f"/* cover-small-cuts LP, k={inst.k}, lambda={inst.graph.lam} */"]
    objective = " + ".join(f"x_{f}" for f in range(1, m + 1))
    lines.append(f"min: {objective};")
    lines.append("")
    for label, bits in zip(listed_labels(inst), inst.cut_links):
        terms = " + ".join(f"x_{f}" for f in bit_ids(bits))
        lines.append(f"cut_{label}: {terms} >= 1;")
    lines.append("")
    for f in range(1, m + 1):
        lines.append(f"0 <= x_{f} <= 1;")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def write_dot_capgraph(inst: Instance) -> str:
    """Chain-with-chords drawing; every edge labelled with its capacity."""
    lines = [
        f"graph capacitated_k{inst.k} {{",
        "  rankdir=LR;",
        "  node [shape=circle];",
    ]
    for v in inst.graph.node_range():
        lines.append(f"  v{v};")
    for e in inst.graph.edges:
        lines.append(f'  v{e.lo} -- v{e.hi} [label="{e.cap}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot_links(inst: Instance) -> str:
    """Link drawing; links coloured by the source-sink path they belong to."""
    lines = [
        f"graph links_k{inst.k} {{",
        "  rankdir=LR;",
        "  node [shape=circle];",
    ]
    for v in inst.graph.node_range():
        lines.append(f"  v{v};")
    for l in inst.links:
        color = DOT_PALETTE[(l.path - 1) % len(DOT_PALETTE)]
        lines.append(f'  v{l.lo} -- v{l.hi} [color="{color}", label="l{l.id}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
