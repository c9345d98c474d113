"""Span tracer that times the package's layers from outside the package.

``Tracer.install`` wraps every public function of the six layer modules and
rebinds each wrapped name in every ``smallcuts`` module that holds it, so a
call made through ``smallcuts.certify.rank`` or ``smallcuts.cli.enumerate_flow``
is recorded as well as one through the defining module.  Nothing under
``src/`` changes; ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, request, extra]``: ``parent`` is the
index of the enclosing span or -1, ``request`` the certificate it belongs to
(or ``"setup"``), and ``extra`` a count read at the call boundary.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children, which never overlap because a
workload runs on one thread.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

PACKAGE = "smallcuts"
LAYERS = ("construction", "cuts", "exactmath", "certify", "formats", "cli")


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


def _elimination_updates(args: tuple, kwargs: dict, result: Any) -> int:
    # Computed, not counted: sum over pivots p of (rows-1-p)(cols-1-p), the
    # entry updates of a fraction-free elimination that finds a pivot in
    # every column.  For an m x m matrix of full rank that is sum (m-1-p)^2.
    mat = _arg(args, kwargs, 0, "m")
    return sum((mat.rows - 1 - p) * (mat.cols - 1 - p) for p in range(min(mat.rows, mat.cols)))


# Counts read at the call boundary, by span name.
EXTRAS: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "cuts.enumerate_flow": lambda args, kwargs, result: len(result),
    "cuts.enumerate_bruteforce": lambda args, kwargs, result: (1 << (_arg(args, kwargs, 0, "g").n - 1)) - 1,
    "cuts.karger_probe": lambda args, kwargs, result: (_arg(args, kwargs, 1, "trials"), len(result)),
    "exactmath.rank": _elimination_updates,
    "exactmath.det_bareiss": _elimination_updates,
    "formats.dump_json": lambda args, kwargs, result: len(result.encode("utf-8")),
}


class Tracer:
    """Records a span for every call of a public function of the layers."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.request: Any = "setup"
        self.wrapped: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
                self.wrapped.append(f"{layer}.{attr}")
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON, span names replaced by indices."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "request", "extra"],
                       "spans": [[index[s[0]], *s[1:]] for s in self.spans]}, fh)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, extra = self.spans, self._stack, EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced


class Aggregate:
    """Calls, total seconds, self seconds and extras of one span name."""

    __slots__ = ("calls", "total", "self", "extras")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.extras: list[Any] = []


def by_request(spans: list[list[Any]]) -> dict[Any, dict[str, Aggregate]]:
    """Per request, per span name: calls, total and self seconds, extras."""
    children = [0.0] * len(spans)
    for name, start, end, parent, request, extra in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[Any, dict[str, Aggregate]] = defaultdict(lambda: defaultdict(Aggregate))
    for i, (name, start, end, parent, request, extra) in enumerate(spans):
        agg = out[request][name]
        agg.calls += 1
        agg.total += end - start
        agg.self += end - start - children[i]
        if extra is not None:
            agg.extras.append(extra)
    return out


def _total(aggs: dict[str, Aggregate], name: str) -> float:
    return aggs[name].total if name in aggs else 0.0


def _self(aggs: dict[str, Aggregate], name: str) -> float:
    return aggs[name].self if name in aggs else 0.0


def _calls(aggs: dict[str, Aggregate], name: str) -> int:
    return aggs[name].calls if name in aggs else 0


def _extras(aggs: dict[str, Aggregate], name: str) -> list[Any]:
    return aggs[name].extras if name in aggs else []


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def certificate_metrics(aggs: dict[str, Aggregate]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one certificate; 0 where the layer was not called."""
    probe = _extras(aggs, "cuts.karger_probe")
    metrics = {
        "cuts.enumerate_flow_s": (_total(aggs, "cuts.enumerate_flow"), "s"),
        "cuts.enumerate_flow.cuts": (sum(_extras(aggs, "cuts.enumerate_flow")), "count"),
        "cuts.enumerate_bruteforce_s": (_total(aggs, "cuts.enumerate_bruteforce"), "s"),
        "cuts.enumerate_bruteforce.masks_per_s": (
            _rate(sum(_extras(aggs, "cuts.enumerate_bruteforce")), _total(aggs, "cuts.enumerate_bruteforce")),
            "1/s"),
        "cuts.karger_probe_s": (_total(aggs, "cuts.karger_probe"), "s"),
        "cuts.karger_probe.trials_per_s": (
            _rate(sum(e[0] for e in probe), _total(aggs, "cuts.karger_probe")), "1/s"),
        "cuts.karger_probe.distinct_cuts": (sum(e[1] for e in probe), "count"),
        "exactmath.rank_s": (_total(aggs, "exactmath.rank"), "s"),
        "exactmath.det_bareiss_s": (_total(aggs, "exactmath.det_bareiss"), "s"),
        "exactmath.elimination_updates": (
            sum(_extras(aggs, "exactmath.rank")) + sum(_extras(aggs, "exactmath.det_bareiss")), "count"),
        "exactmath.row_combine_s": (_total(aggs, "exactmath.row_combine"), "s"),
        "exactmath.row_combine.calls": (_calls(aggs, "exactmath.row_combine"), "count"),
        "exactmath.row_divide_exact.calls": (_calls(aggs, "exactmath.row_divide_exact"), "count"),
        "certify.full_reduction.self_s": (_self(aggs, "certify.full_reduction"), "s"),
        "certify.verify_basic.self_s": (_self(aggs, "certify.verify_basic"), "s"),
        "construction.build_incidence_matrix.calls": (_calls(aggs, "construction.build_incidence_matrix"), "count"),
        "construction.build_incidence_matrix_s": (_total(aggs, "construction.build_incidence_matrix"), "s"),
        "formats.certificate_to_doc_s": (_total(aggs, "formats.certificate_to_doc"), "s"),
        "formats.dump_json_s": (_total(aggs, "formats.dump_json"), "s"),
        "formats.doc_bytes": (sum(_extras(aggs, "formats.dump_json")), "bytes"),
        "cli.main.self_s": (_self(aggs, "cli.main"), "s"),
    }
    for layer in LAYERS:
        if layer == "cli":  # one public function: its self time is cli.main.self_s
            continue
        own = sum(agg.self for name, agg in aggs.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (own, "s")
    return metrics


def layer_metrics(
    spans: list[list[Any]], certificates: list[Any]
) -> tuple[dict[str, tuple[float, str]], list[dict[str, tuple[float, str]]]]:
    """Median over the traced certificates of each per-layer metric, and the
    per-certificate values it was taken from."""
    requests = by_request(spans)
    per_cert = [certificate_metrics(requests.get(c, {})) for c in certificates]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_cert), unit)
        for name, (_, unit) in per_cert[0].items()
    }
    # Per call, set-up included: on certify-k28 the instance is built only in set-up.
    build = [end - start for name, start, end, *_ in spans if name == "construction.build_instance"]
    metrics["construction.build_instance_s"] = (statistics.median(build) if build else 0.0, "s")
    return metrics, per_cert


# Counts that must repeat exactly from one certificate to the next.
EXACT_COUNTS = (
    "cuts.enumerate_flow.cuts",
    "cuts.karger_probe.distinct_cuts",
    "exactmath.row_combine.calls",
    "exactmath.row_divide_exact.calls",
    "construction.build_incidence_matrix.calls",
)


def trace_checks(
    spans: list[list[Any]],
    certificates: list[Any],
    per_cert: list[dict[str, tuple[float, str]]],
    workload: Any,
) -> list[str]:
    """Bypass predictions, exercised layers and counts that must repeat."""
    problems = []
    seen = {span[0] for span in spans}
    for name in workload.bypassed:
        if name in seen:
            problems.append(f"bypass: {name} recorded spans on {workload.name}")
    requests = by_request(spans)
    for c in certificates:
        missing = [name for name in workload.exercised if name not in requests.get(c, {})]
        if missing:
            problems.append(f"certificate {c} recorded no span for {', '.join(missing)}")
    for metric in EXACT_COUNTS:
        values = sorted({m[metric][0] for m in per_cert})
        if len(values) > 1:
            problems.append(f"count {metric} varies across certificates: {values}")
    return problems


# Which end-to-end metric each per-layer metric should move, and where.
LAYER_TABLE = (
    ("cuts.enumerate_flow_s, cuts.enumerate_flow.cuts", "certificate_s",
     "verify-flow-k24; flat on certify-k28, where enumerate_flow is never called"),
    ("cuts.enumerate_bruteforce_s, cuts.enumerate_bruteforce.masks_per_s", "certificates_per_s",
     "small-both-k6 (masks = 2^(n-1)-1, computed from n)"),
    ("cuts.karger_probe_s, cuts.karger_probe.trials_per_s, cuts.karger_probe.distinct_cuts",
     "certificate_s, cut_recall", "probe-k10"),
    ("exactmath.rank_s, exactmath.det_bareiss_s, exactmath.elimination_updates (computed)",
     "certificate_s", "certify-k28 first, verify-flow-k24 second"),
    ("exactmath.row_combine_s, exactmath.row_combine.calls, exactmath.row_divide_exact.calls, "
     "certify.full_reduction.self_s", "certificate_s, peak_rss_mb", "certify-k28"),
    ("certify.verify_basic.self_s, construction.build_incidence_matrix.calls, "
     "construction.build_incidence_matrix_s", "certificate_s", "certify-k28"),
    ("construction.build_instance_s", "setup_s", "all workloads"),
    ("formats.certificate_to_doc_s, formats.dump_json_s, formats.doc_bytes, cli.main.self_s",
     "certificates_per_s", "small-both-k6"),
)
