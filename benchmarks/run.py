"""Benchmark: wall time from inputs to a checked smallcuts certificate.

    python3 benchmarks/run.py --workload verify-flow-k24 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

One workload runs in one process on one thread, as a closed loop with one
caller: each certificate starts when the previous one is written, until
``--seconds`` have passed.  Every certificate is checked against reference
values computed from ``k`` alone.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs half the time untraced and half with every public
function of the package wrapped in a span, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` of the checkout this file sits in, never from
anywhere else.  A full record of each run, with the environment, goes to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

# One thread: numpy's BLAS pool is never used by the package, so keep it from starting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans
from workloads import WORKLOADS, check_certificate, reference, verdict_view

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 11


def import_package() -> SimpleNamespace:
    """The package under ``src/`` of this checkout, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import smallcuts
        from smallcuts import certify, cli, construction, cuts, exactmath, formats
    except ImportError as exc:
        sys.exit(f"error: cannot import smallcuts from {src}: {exc}")
    if src.resolve() not in Path(smallcuts.__file__).resolve().parents:
        sys.exit(f"error: smallcuts was imported from {smallcuts.__file__}, not from {src}")
    return SimpleNamespace(
        version=smallcuts.__version__, certify=certify, cli=cli,
        construction=construction, cuts=cuts, exactmath=exactmath, formats=formats,
    )


def setup_child(args: argparse.Namespace) -> None:
    """Import the package, build the inputs, report ready; timed by the parent."""
    sc = import_package()
    WORKLOADS[args.workload].setup(sc, args.seed, RESULTS / "never-written.json")
    print("ready", flush=True)


def time_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from process start to inputs ready, once per fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"error: set-up process failed with status {child.returncode}")
        samples.append(ready - started)
    return samples


class Sample(NamedTuple):
    seconds: float | None  # None when the certificate raised
    problems: list[str]
    cuts: int  # distinct cuts behind the certificate, for cut_recall


def measure(wl, sc, inputs, seconds: float, min_count: int,
            first: dict | None = None, tracer=None) -> tuple[list[Sample], dict | None]:
    """Closed loop, one caller: certificates back to back until ``seconds``
    of wall time have passed and at least ``min_count`` were made.

    Each certificate is checked as it completes, outside its timed interval:
    exit status, reference values, and identity with ``first`` (by default
    the run's first certificate).  An exception ends the loop and counts as a
    failed certificate.  Returns the samples and ``first``."""
    samples = []
    started = time.perf_counter()
    while len(samples) < min_count or time.perf_counter() - started < seconds:
        if tracer is not None:
            tracer.request = len(samples)
        try:
            taken, doc, status = wl.certificate(sc, inputs)
        except Exception as exc:  # a crash is a failed certificate, not a crashed benchmark
            samples.append(Sample(None, [f"{type(exc).__name__}: {exc}"], 0))
            break
        problems = check_certificate(doc, wl)
        if status != 0:
            problems.append(f"exit status {status}")
        view = verdict_view(doc)
        if first is None:
            first = view
        elif view != first:
            problems.append("certificate differs from the first one of the run")
        samples.append(Sample(taken, problems, wl.cuts_found(doc)))
    return samples, first


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.  With
    fewer than eleven samples there is none; the median stands in, because
    the slowest of a few samples swings too much from run to run."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return statistics.median(ordered), f"median of {len(ordered)} samples: fewer than 11, no tail"
    index = len(ordered) - 11
    return ordered[index], f"p{100 * (index + 1) / len(ordered):.1f} of {len(ordered)} samples"


def median_seconds(samples: list[Sample]) -> float:
    return statistics.median([s.seconds for s in samples if s.seconds is not None] or [0.0])


def end_to_end(wl, samples: list[Sample], setup: list[float]) -> tuple[dict, dict]:
    times = [s.seconds for s in samples if s.seconds is not None]
    found = [s.cuts for s in samples if s.seconds is not None]
    passed = sum(1 for s in samples if not s.problems)
    m = reference(wl.k).m
    tail_value, tail_note = tail(times) if times else (0.0, "no samples")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "certificate_s": (median_seconds(samples), "s"),
        "certificate_tail_s": (tail_value, "s"),
        "certificates_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "cut_recall": (statistics.median(found) / m if found else 0.0, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "certified_frac": (passed / len(samples), "frac"),
    }
    source = "probe" if wl.trials is not None else "enumerated or given"
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes: import, then build the inputs",
        "certificate_s": f"median of {len(times)} certificates",
        "certificate_tail_s": tail_note,
        "certificates_per_s": f"{len(times)} certificates / their summed wall time",
        "cut_recall": f"distinct {source} cuts / (n+k-2), base {m}",
        "peak_rss_mb": "ru_maxrss of this process",
        "certified_frac": f"{passed} passing / {len(samples)} attempted",
    }
    return metrics, notes


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` inside it; no git process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """CRC-32 over the package sources, naming the code a record measured.

    zlib, not hashlib: hashlib loads OpenSSL, which would add megabytes to
    the process's peak_rss_mb."""
    crc = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        crc = zlib.crc32(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes(), crc)
    return f"{crc:08x}"


def environment(sc) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "platform": platform.platform(),
        "smallcuts": sc.version,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def run_untraced(wl, sc, args, out: Path, record: dict) -> tuple:
    setup = time_setup(args)
    record["setup_samples"] = setup
    samples, _ = measure(wl, sc, wl.setup(sc, args.seed, out), args.seconds, 1)
    metrics, notes = end_to_end(wl, samples, setup)
    return samples, [], metrics, notes


def earlier_count_problems(wl, seed: int, digest: str, counts: dict) -> list[str]:
    """The exact counts against earlier traced runs of the same workload on
    the same sources in this checkout; the probe's count only for the same seed."""
    problems = []
    for path in sorted(RESULTS.glob(f"{wl.name}-seed*-trace1.json")):
        old = json.loads(path.read_text(encoding="utf-8"))
        if old.get("environment", {}).get("source_digest") != digest:
            continue
        for name in spans.EXACT_COUNTS:
            before = old.get("metrics", {}).get(name, {}).get("value")
            if name == "cuts.karger_probe.distinct_cuts" and old.get("seed") != seed:
                continue
            if before is not None and before != counts[name]:
                problems.append(f"count {name} is {counts[name]}, was {before} in {path.name}")
    return problems


def run_traced(wl, sc, args, out: Path, record: dict) -> tuple:
    """Half the time untraced, then set-up and half the time traced."""
    plain, first = measure(wl, sc, wl.setup(sc, args.seed, out), args.seconds / 2, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _ = measure(wl, sc, wl.setup(sc, args.seed, out), args.seconds / 2, 2, first, tracer)
    finally:
        tracer.uninstall()
    certs = list(range(len(traced)))
    metrics, per_cert = spans.layer_metrics(tracer.spans, certs)
    plain_s, traced_s = median_seconds(plain), median_seconds(traced)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1 if plain_s else 0.0, "frac")
    notes = {"trace.overhead_frac": f"traced certificate_s {traced_s:.6g} s vs untraced {plain_s:.6g} s"}
    trace_problems = spans.trace_checks(tracer.spans, certs, per_cert, wl)
    trace_problems += earlier_count_problems(
        wl, args.seed, record["environment"]["source_digest"],
        {name: metrics[name][0] for name in spans.EXACT_COUNTS})
    record.update(wrapped_functions=tracer.wrapped, per_certificate=per_cert)
    tracer.dump(RESULTS / f"{wl.name}-seed{args.seed}-spans.json.gz")
    return plain + traced, trace_problems, metrics, notes


def run_workload(args: argparse.Namespace) -> int:
    wl = WORKLOADS[args.workload]
    sc = import_package()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(sc), "layer_table": spans.LAYER_TABLE}
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        run = run_traced if args.trace else run_untraced
        samples, run_problems, metrics, notes = run(wl, sc, args, Path(tmp) / "certificate.json", record)
    failed = sum(1 for s in samples if s.problems)
    correct = not failed and not run_problems
    record["samples_s"] = [s.seconds for s in samples]
    record["problems"] = [f"certificate {i}: {p}" for i, s in enumerate(samples) for p in s.problems]
    record["problems"] += run_problems
    record["metrics"] = {name: {"value": v, "unit": u, "note": notes.get(name, "")}
                         for name, (v, u) in metrics.items()}
    (RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    for problem in record["problems"][:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if len(record["problems"]) > 10:
        print(f"FAILED: ... {len(record['problems']) - 10} more in the run record", file=sys.stderr)
    report = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} differs from BENCHMARK.json {entry['unit']}")
        report[entry["name"]] = {"value": value, "unit": unit}
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "") + ("" if name in report else "; not in BENCHMARK.json")
        print(f"{wl.name}  {name} = {value:.6g} {unit}" + (f"  ({note.lstrip('; ')})" if note else ""))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": report}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        result = json.loads(lines.pop()) if lines and lines[-1].startswith("{") else {}
        print("\n".join(lines))
        print(f"{name}: correct={result.get('correct')} attempted={result.get('attempted')} "
              f"failed={result.get('failed')} exit={child.returncode}")
        status = status or child.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        setup_child(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
