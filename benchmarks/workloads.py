"""The four benchmark workloads and the reference checks on their certificates.

Every workload builds one certificate per iteration of a closed loop with a
single caller: the next certificate starts only when the previous one has
been written.  The reference values below are computed from ``k`` alone, by
closed forms, and share no code with the package.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

# Verdict keys of a certificate document that must all be true.
VERDICTS = ("family_exact", "feasible", "tight", "bounds_strict", "is_basic", "reduction_ok")
LISTED_CAPACITIES = {3, 4}


def reference(k: int) -> SimpleNamespace:
    """Closed-form values of the instance of size ``k``."""
    n = 2 + k * (k - 1) // 2
    return SimpleNamespace(n=n, m=n + k - 2, det=k * 2 ** (k - 2))


def check_certificate(doc: dict[str, Any], wl: "Workload") -> list[str]:
    """Every way ``doc`` departs from the reference values; empty when it holds."""
    ref = reference(wl.k)
    problems = [f"{key} is {doc.get(key)!r}" for key in VERDICTS if doc.get(key) is not True]
    expected = {
        "k": wl.k,
        "lambda": 5,
        "family_size": ref.m,
        "rank_A": ref.m,
        "det_A": str(ref.det),
        "max_coordinate": f"1/{wl.k}",
        "failures": [],
        "missing_cuts": [],
        "surplus_cuts": [],
    }
    if wl.strategy == "both":
        expected["strategies_agree"] = True
    for key, want in expected.items():
        if doc.get(key) != want:
            problems.append(f"{key} is {doc.get(key)!r}, expected {want!r}")
    caps = doc.get("listed_capacities") or {}
    if len(caps) != ref.m or not set(caps.values()) <= LISTED_CAPACITIES:
        problems.append(f"listed capacities are not {ref.m} values in {sorted(LISTED_CAPACITIES)}")
    if wl.trials is not None:
        probe = doc.get("probe") or {}
        if probe.get("stray_cuts") != [] or probe.get("contained_in_family") is not True:
            problems.append(f"probe found stray cuts: {probe.get('stray_cuts')!r}")
        if not 0 < probe.get("cuts_seen", 0) <= ref.m:
            problems.append(f"probe saw {probe.get('cuts_seen')!r} cuts, family has {ref.m}")
    return problems


def verdict_view(doc: dict[str, Any]) -> dict[str, Any]:
    """The document without its wall-clock field, for comparing runs."""
    return {key: value for key, value in doc.items() if key != "elapsed_seconds"}


@dataclass(frozen=True)
class Workload:
    """One workload: how to set up its inputs and how to make one certificate.

    ``strategy`` is the ``verify --strategy`` value, or None for the workload
    that calls ``certify_instance`` directly on the family of record.
    ``bypassed`` names layers that must record no span in a traced run, and
    ``exercised`` layers that must record one in every certificate.
    """

    name: str
    k: int
    strategy: str | None
    trials: int | None
    bypassed: tuple[str, ...]
    exercised: tuple[str, ...]

    def setup(self, sc: SimpleNamespace, seed: int, out: Path) -> Any:
        """Build the inputs of one certificate; this is what ``setup_s`` times."""
        inst = sc.construction.build_instance(self.k)
        if self.strategy is None:
            family = sc.cuts.CutFamily.collect(
                (sc.cuts.canonical_cut(inst.graph, side)
                 for _, side in sc.construction.listed_small_cuts(inst)),
                inst.graph.lam,
            )
            return SimpleNamespace(inst=inst, family=family)
        argv = ["verify", "-k", str(self.k), "--strategy", self.strategy, "--out", str(out)]
        if self.trials is not None:
            argv += ["--trials", str(self.trials), "--seed", str(seed)]
        return SimpleNamespace(inst=inst, argv=argv, out=out)

    def cuts_found(self, doc: dict[str, Any]) -> int:
        """Distinct cuts behind the certificate: the probe's on a probe workload,
        otherwise those of the enumerated or given family."""
        if self.trials is not None:
            return (doc.get("probe") or {}).get("cuts_seen", 0)
        return doc.get("family_size", 0)

    def certificate(self, sc: SimpleNamespace, inputs: Any) -> tuple[float, dict[str, Any], int]:
        """Make one certificate; returns (wall seconds, document, exit status).

        Only the path from the inputs to the written certificate is timed;
        reading the document back for the checks is not.
        """
        if self.strategy is None:
            started = time.perf_counter()
            cert = sc.certify.certify_instance(inputs.inst, inputs.family)
            doc = sc.formats.certificate_to_doc(
                cert,
                tool_version=sc.version,
                strategy="record",
                elapsed_seconds=time.perf_counter() - started,
                lam=inputs.inst.graph.lam,
            )
            text = sc.formats.dump_json(doc)
            seconds = time.perf_counter() - started
            return seconds, json.loads(text), 0
        started = time.perf_counter()
        status = sc.cli.main(list(inputs.argv))
        seconds = time.perf_counter() - started
        return seconds, json.loads(inputs.out.read_text(encoding="utf-8")), status


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Headline user path; flow branch-and-bound about 75% of the time.
        Workload(
            "verify-flow-k24", 24, "flow", None,
            bypassed=("cuts.karger_probe", "cuts.enumerate_bruteforce"),
            exercised=("cuts.enumerate_flow", "exactmath.rank", "exactmath.det_bareiss"),
        ),
        # No enumeration: exact rank, determinant and replay about 80%.
        Workload(
            "certify-k28", 28, None, None,
            bypassed=("cuts.enumerate_flow", "cuts.enumerate_bruteforce", "cuts.karger_probe"),
            exercised=("exactmath.rank", "exactmath.det_bareiss", "certify.full_reduction"),
        ),
        # Seeded contraction probe about 98%; the only workload using the seed.
        Workload(
            "probe-k10", 10, "flow", 100_000,
            bypassed=("cuts.enumerate_bruteforce",),
            exercised=("cuts.karger_probe", "cuts.enumerate_flow"),
        ),
        # Small instances: brute scan and the fixed costs of every layer.
        Workload(
            "small-both-k6", 6, "both", None,
            bypassed=("cuts.karger_probe",),
            exercised=("cuts.enumerate_bruteforce", "cuts.enumerate_flow", "cli.main"),
        ),
    )
}
