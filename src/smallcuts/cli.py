"""Command-line interface.

Verbs: ``gen`` (instance JSON / DOT), ``verify`` (build, enumerate, run
``certify.certify_instance``, emit a certificate document), ``reduce`` (print
the row-operation replay), ``export-lp`` (covering LP file).  ``verify``
assembles no verdict of its own: it adds only the cross-check of two
strategies and the probe's containment to the certificate's false verdicts.
Exit status: 0 on success, 1 when any certification verdict fails, 2 on
usage errors, among them an output path that cannot be written, a
``--trials`` below 1, and a budget a graph or an enumerated family exceeds.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import __version__
from .certify import (
    CertificationError,
    FamilySizeError,
    _listed_rows,
    certify_instance,
    full_reduction,
)
from .construction import bit_ids, build_instance, node_count
from .cuts import (
    BruteForceSizeError,
    check_brute_nodes,
    enumerate_bruteforce,
    enumerate_flow,
    karger_probe,
)
from .formats import (
    certificate_to_doc,
    dump_json,
    instance_to_doc,
    trace_to_doc,
    write_dot_capgraph,
    write_dot_links,
    write_lp,
)

EXIT_OK = 0
EXIT_CERTIFICATION_FAILURE = 1
EXIT_USAGE = 2


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# Built once per process: each parser holds its actions and formatters in
# reference cycles, which only the cyclic collector would free.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallcuts",
        description="Construct and certify cover-small-cuts LP instances "
        "whose basic solution has every positive value equal to 1/k.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-k", type=int, required=True, help="even instance size >= 4")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_gen = sub.add_parser("gen", help="write the instance as JSON or DOT")
    add_common(p_gen)
    p_gen.add_argument(
        "--format",
        choices=["json", "dot-capgraph", "dot-links"],
        default="json",
        dest="fmt",
    )

    p_verify = sub.add_parser("verify", help="enumerate small cuts and certify")
    add_common(p_verify)
    p_verify.add_argument(
        "--strategy", choices=["brute", "flow", "both"], default="flow",
        help="flow (default): frontier dynamic programme, for graphs of "
        "frontier width <= 16; brute: exhaustive scan, for graphs of "
        "at most 24 nodes (k <= 6); both: run the two and cross-check",
    )
    p_verify.add_argument(
        "--trials", type=int, default=None,
        help="also run a randomized contraction probe with this many "
        "trials (at least 1)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="probe seed")
    p_verify.add_argument(
        "--trace", action="store_true", help="include reduction traces in the output"
    )

    p_reduce = sub.add_parser("reduce", help="replay the interval-row reduction")
    add_common(p_reduce)
    p_reduce.add_argument(
        "--trace", action="store_true", help="emit the trace as JSON instead of text"
    )

    p_lp = sub.add_parser("export-lp", help="write the covering LP file")
    add_common(p_lp)

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = build_instance(args.k)
    if args.fmt == "json":
        text = dump_json(instance_to_doc(inst))
    elif args.fmt == "dot-capgraph":
        text = write_dot_capgraph(inst)
    else:
        text = write_dot_links(inst)
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_export_lp(args: argparse.Namespace) -> int:
    inst = build_instance(args.k)
    _write_output(write_lp(inst), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.strategy in ("brute", "both"):
        # refused from k alone: an instance past the budget is never built
        check_brute_nodes(node_count(args.k))
    started = time.perf_counter()  # elapsed_seconds covers construction too
    inst = build_instance(args.k)
    families = {}
    if args.strategy in ("brute", "both"):
        families["brute"] = enumerate_bruteforce(inst.graph)
    if args.strategy in ("flow", "both"):
        families["flow"] = enumerate_flow(inst.graph)
    strategies_agree = True
    if args.strategy == "both":
        strategies_agree = families["brute"].sides() == families["flow"].sides()
    family = families["flow" if args.strategy == "flow" else "brute"]

    cert = certify_instance(inst, family)
    if cert.reduction_error is not None:
        print(f"reduction failed: {cert.reduction_error}", file=sys.stderr)

    probe_doc = None
    probe_ok = True
    if args.trials is not None:
        probe_family = karger_probe(inst.graph, args.trials, args.seed)
        # a probe cut is listed iff the certifier's shape rule gives it a row
        rows = _listed_rows(inst, probe_family)
        stray = [sorted(c.side) for c, r in zip(probe_family, rows) if r is None]
        probe_ok = not stray
        probe_doc = {
            "trials": args.trials,
            "seed": args.seed,
            "cuts_seen": len(probe_family),
            "contained_in_family": probe_ok,
            "stray_cuts": stray,
        }

    elapsed = time.perf_counter() - started
    doc = certificate_to_doc(
        cert,
        tool_version=__version__,
        strategy=args.strategy,
        elapsed_seconds=elapsed,
        lam=inst.graph.lam,
        traces=cert.traces if args.trace else None,
        probe=probe_doc,
    )
    if args.strategy == "both":
        doc["strategies_agree"] = strategies_agree
    _write_output(dump_json(doc), args.out)

    failed = list(cert.false_verdicts)
    if not strategies_agree:
        failed.append("strategies_agree")
    if not probe_ok:
        failed.append("probe_contained")
    for name in failed:
        print(f"certification failed: {name}", file=sys.stderr)
    return EXIT_CERTIFICATION_FAILURE if failed else EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    inst = build_instance(args.k)
    traces = full_reduction(inst)
    if args.trace:
        doc = {
            "schema_version": "1",
            "k": inst.k,
            "traces": [trace_to_doc(t) for t in traces],
        }
        _write_output(dump_json(doc), args.out)
        return EXIT_OK
    lines = [f"k={inst.k}: {inst.m} links, {inst.k - 1} interval-cut rows"]
    for t in traces:
        cut_links = sorted(inst.qcut_links(t.qrow))
        lines.append(
            f"Q_{t.qrow}: links {_set_str(cut_links)}; "
            f"split -N_{t.sub_nested} +N_{t.add_nested} -> 2*{_set_str(sorted(t.halved))}; "
            f"halve -> {_set_str(sorted(t.halved))}"
        )
        for step in t.moves:
            lines.append(
                f"     move -N_{step.sub_nested} +N_{step.add_nested} "
                f"-> {_set_str(bit_ids(step.bits))}"
            )
        lines.append(
            f"     source links {_set_str(sorted(t.final))}; "
            f"paths {_set_str(sorted(t.paths))}"
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _set_str(ids) -> str:
    return "{" + ",".join(str(i) for i in ids) + "}"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.k % 2 != 0 or args.k < 4:
        parser.error(f"k must be an even integer >= 4, got {args.k}")
    if getattr(args, "trials", None) is not None and args.trials < 1:
        parser.error(f"argument --trials: must be at least 1, got {args.trials}")
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "export-lp":
            return _cmd_export_lp(args)
        parser.error(f"unknown command {args.command}")
    except (BruteForceSizeError, FamilySizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
