import dataclasses
import gc
import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from smallcuts import __version__, certify, cli, cuts
from smallcuts.certify import CertificationError, certify_instance
from smallcuts.construction import build_incidence_matrix, build_instance, listed_small_cuts
from smallcuts.cuts import CutFamily, enumerate_flow
from smallcuts.formats import (
    certificate_to_doc,
    dump_json,
    frac_str,
    instance_from_doc,
    instance_to_doc,
    parse_frac,
    write_dot_capgraph,
    write_dot_links,
    write_lp,
)

from oracles import scan_small_cuts

# --- tiny independent parsers used as oracles -------------------------------

DOT_EDGE = re.compile(r'^\s*v(\d+) -- v(\d+) \[([^\]]*)\];$')
DOT_NODE = re.compile(r"^\s*v(\d+);$")
DOT_ATTR = re.compile(r"^\s*\w+=\S+;$|^\s*node \[[^\]]*\];$")
LP_CONSTRAINT = re.compile(r"^(\w+): ([x_\d +]+) >= 1;$")

GOLDEN = Path(__file__).parent / "golden"


def check_dot_syntax(text: str) -> tuple[int, int, list[dict]]:
    """Validates the narrow DOT dialect we emit; returns (nodes, edges, attrs)."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("graph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes = 0
    edges = []
    for line in lines[1:-1]:
        if DOT_NODE.match(line):
            nodes += 1
            continue
        m = DOT_EDGE.match(line)
        if m:
            attrs = {}
            for part in m.group(3).split(", "):
                key, val = part.split("=")
                attrs[key] = val.strip('"')
            edges.append({"lo": int(m.group(1)), "hi": int(m.group(2)), **attrs})
            continue
        assert DOT_ATTR.match(line), f"unexpected DOT line: {line!r}"
    return nodes, len(edges), edges


def parse_lp(text: str):
    """Constraint rows (name, 0/1 coefficient vector) plus variable count."""
    lines = [l for l in text.splitlines() if l and not l.startswith("/*")]
    obj = lines[0]
    assert obj.startswith("min: ") and obj.endswith(";")
    variables = obj[len("min: ") : -1].split(" + ")
    m = len(variables)
    assert variables == [f"x_{i}" for i in range(1, m + 1)]
    constraints = []
    bounds = []
    for line in lines[1:]:
        cm = LP_CONSTRAINT.match(line)
        if cm:
            row = [0] * m
            for term in cm.group(2).split(" + "):
                row[int(term.removeprefix("x_")) - 1] = 1
            constraints.append((cm.group(1), row))
            continue
        bm = re.match(r"^0 <= x_(\d+) <= 1;$", line)
        assert bm, f"unexpected LP line: {line!r}"
        bounds.append(int(bm.group(1)))
    assert bounds == list(range(1, m + 1))
    return constraints, m


# --- JSON documents ----------------------------------------------------------


class TestInstanceDoc:
    @pytest.mark.parametrize("k", (4, 6, 8, 10, 12))
    def test_round_trip(self, k):
        inst = build_instance(k)
        doc = json.loads(dump_json(instance_to_doc(inst)))
        assert instance_from_doc(doc) == inst

    def test_fields_k4(self):
        doc = instance_to_doc(build_instance(4))
        assert doc["schema_version"] == "1"
        assert (doc["k"], doc["n"], doc["m"], doc["lambda"]) == (4, 8, 10, 5)
        assert doc["xstar"] == ["1/4"] * 10
        assert doc["links"][4] == [5, 2, 4, 1]

    def test_rationals_never_floats(self):
        doc = instance_to_doc(build_instance(6))
        assert all(isinstance(s, str) and "/" in s for s in doc["xstar"])
        assert parse_frac(doc["xstar"][0]) == Fraction(1, 6)
        assert frac_str(Fraction(1, 6)) == "1/6"

    def test_unknown_schema_rejected(self):
        doc = instance_to_doc(build_instance(4))
        doc["schema_version"] = "99"
        with pytest.raises(ValueError, match="schema_version"):
            instance_from_doc(doc)

    def test_tampered_doc_rejected(self):
        tamperings = (
            ("links", {0: [1, 1, 3, 1]}, "crosses into path"),  # wrong target, source link of path 1
            ("links", {6: [7, 4, 2, 1]}, "no link to a higher node"),  # the walk 2 -> 4 -> 2 cycles
            ("links", {4: [5, 2, 0, 1]}, "no link to a higher node"),  # node 0 does not exist
            ("links", {1: [2, 1, 8, 2]}, "lies on no path"),
            ("links", {5: [7, 4, 8, 1], 6: [6, 3, 7, 3]}, "id order"),  # links 6 and 7 swapped
            ("edges", {-1: [3, 99, 1]}, r"edge \[3, 99, 1\] has an endpoint outside 1\.\.8"),
            ("edges", {-1: [0, 3, 1]}, r"edge \[0, 3, 1\] has an endpoint outside 1\.\.8"),
        )
        for key, edits, message in tamperings:
            doc = instance_to_doc(build_instance(4))
            for index, value in edits.items():
                doc[key][index] = value
            with pytest.raises(ValueError, match=message):
                instance_from_doc(doc)
        for key in ("k", "n", "m", "lambda", "edges", "qsets", "links", "xstar"):
            doc = instance_to_doc(build_instance(4))
            del doc[key]
            with pytest.raises(ValueError, match=f"no '{key}' key"):
                instance_from_doc(doc)
        for index, value, message in (
            (3, "1/0", "zero denominator"),
            (0, 0.25, "not a string"),
            (9, None, "not a string"),
            (2, "a/b", "Invalid literal"),
        ):
            doc = instance_to_doc(build_instance(4))
            doc["xstar"][index] = value
            with pytest.raises(ValueError, match=rf"xstar\[{index}\]: .*{message}"):
                instance_from_doc(doc)
        for doc in ([], "{}", None, 4):
            with pytest.raises(ValueError, match="must be an object"):
                instance_from_doc(doc)

    @pytest.mark.parametrize(
        "index, qset",
        (
            (0, [2, 9]),  # the right start, far past the sink
            (1, [0, 1]),  # takes in the source
            (2, [7, 8]),  # takes in the sink
            (1, [5, 4]),  # empty
            (1, [4, 6]),  # three nodes, k/2 = 2
        ),
    )
    def test_out_of_range_qset_named(self, index, qset):
        doc = instance_to_doc(build_instance(4))
        doc["qsets"][index] = qset
        message = rf"qsets\[{index}\] = {re.escape(str(qset))} is not 2 consecutive nodes within 2\.\.7"
        with pytest.raises(ValueError, match=message):
            instance_from_doc(doc)

    def test_negative_capacity_named(self):
        doc = instance_to_doc(build_instance(4))
        doc["edges"][3][2] = -3
        with pytest.raises(ValueError, match=r"edges\[3\] = \[4, 5, -3\] has a negative capacity"):
            instance_from_doc(doc)

    @pytest.mark.parametrize("k", (0, 2, 3, -4))
    def test_bad_k_refused(self, k):
        # k = 0 with n = 2 and no edges or links agrees with every count
        doc = {
            "schema_version": "1", "k": k, "n": 2, "m": 0, "lambda": 5,
            "edges": [], "qsets": [], "links": [], "xstar": [],
        }
        with pytest.raises(ValueError, match=f"k must be an even integer >= 4, got {k}"):
            instance_from_doc(doc)

    @pytest.mark.parametrize(
        "key, value, message",
        (
            ("edges", None, "'edges' must be a list"),
            ("k", None, "'k' must be an integer"),
            ("links", None, "'links' must be a list"),
            ("qsets", {"1": [2, 3]}, "'qsets' must be a list"),
            ("xstar", "1/4", "'xstar' must be a list"),
            ("lambda", 5.0, "'lambda' must be an integer"),
        ),
    )
    def test_wrongly_typed_field_named(self, key, value, message):
        doc = instance_to_doc(build_instance(4))
        doc[key] = value
        with pytest.raises(ValueError, match=message):
            instance_from_doc(doc)

    @pytest.mark.parametrize(
        "key, index, row, message",
        (
            ("edges", 0, [1, 2], r"edges\[0\] must be a list of 3 integers"),
            ("edges", 2, [1, 2, "3"], r"edges\[2\] must be an integer"),
            ("qsets", 1, 4, r"qsets\[1\] must be a list of 2 integers"),
            ("links", 3, [4, 1, 5, None], r"links\[3\] must be an integer"),
            ("links", 0, [1, 1, 2, 1, 0], r"links\[0\] must be a list of 4 integers"),
        ),
    )
    def test_wrongly_shaped_row_named(self, key, index, row, message):
        doc = instance_to_doc(build_instance(4))
        doc[key][index] = row
        with pytest.raises(ValueError, match=message):
            instance_from_doc(doc)

    def test_single_field_mutations_are_total(self):
        # every field of every edge, interval and link of the k=4 document,
        # set to each other value in 0..8: the document is refused with a
        # ValueError, or certified with verdicts that agree with themselves
        base = instance_to_doc(build_instance(4))
        outcomes = Counter()
        for key in ("qsets", "links", "edges"):
            for i, entry in enumerate(base[key]):
                for field, old in enumerate(entry):
                    for value in set(range(9)) - {old}:
                        doc = json.loads(json.dumps(base))
                        doc[key][i][field] = value
                        try:
                            inst = instance_from_doc(doc)
                        except ValueError:
                            outcomes["refused"] += 1
                            continue
                        cert = certify_instance(inst, enumerate_flow(inst.graph))
                        case = (key, i, field, value)
                        assert cert.is_basic == (not cert.failures), case
                        assert (cert.reduction_ok is False) == (cert.reduction_error is not None), case
                        outcomes["basic" if cert.is_basic else "not basic"] += 1
        assert sum(outcomes.values()) == 610
        assert outcomes["refused"] and outcomes["not basic"]


# --- LP export ---------------------------------------------------------------


class TestLpExport:
    def test_k4_named_constraints(self):
        text = write_lp(build_instance(4))
        assert "cut_N_1: x_1 + x_2 + x_3 + x_4 >= 1;" in text
        assert "cut_Q_1: x_1 + x_3 + x_5 + x_6 >= 1;" in text

    def test_k4_counts(self):
        constraints, m = parse_lp(write_lp(build_instance(4)))
        assert m == 10
        assert len(constraints) == 10

    @pytest.mark.parametrize("k", (4, 6))
    def test_reparsed_matrix_matches_incidence(self, k):
        inst = build_instance(k)
        constraints, m = parse_lp(write_lp(inst))
        names = [name for name, _ in constraints]
        expected_names = [f"cut_Q_{j}" for j in range(1, k)] + [
            f"cut_N_{i}" for i in range(1, inst.n)
        ]
        assert names == expected_names
        a = build_incidence_matrix(inst)
        assert [row for _, row in constraints] == a.to_rows()

    def test_byte_stable(self):
        assert write_lp(build_instance(4)) == write_lp(build_instance(4))


# --- DOT export ---------------------------------------------------------------


class TestDotExport:
    def test_capgraph_k4_labels(self):
        inst = build_instance(4)
        nodes, nedges, edges = check_dot_syntax(write_dot_capgraph(inst))
        assert nodes == 8
        assert nedges == 10
        assert Counter(e["label"] for e in edges) == Counter(
            ["2", "3", "1", "3", "1", "3", "2", "1", "1", "1"]
        )

    def test_links_k4_color_classes(self):
        inst = build_instance(4)
        nodes, nedges, edges = check_dot_syntax(write_dot_links(inst))
        assert nodes == 8
        assert nedges == 10
        sizes = sorted(Counter(e["color"] for e in edges).values())
        assert sizes == [1, 3, 3, 3]

    @pytest.mark.parametrize("k", (6, 8))
    def test_counts_scale(self, k):
        inst = build_instance(k)
        _, nedges, _ = check_dot_syntax(write_dot_capgraph(inst))
        assert nedges == len(inst.graph.edges)
        _, nlinks, edges = check_dot_syntax(write_dot_links(inst))
        assert nlinks == inst.m
        assert len({e["color"] for e in edges}) == k


# --- CLI ----------------------------------------------------------------------


class TestCli:
    def test_gen_json(self, tmp_path):
        out = tmp_path / "inst.json"
        assert cli.main(["gen", "-k", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 8 and doc["m"] == 10
        assert instance_from_doc(doc) == build_instance(4)

    def test_gen_dot_variants(self, tmp_path):
        for fmt in ("dot-capgraph", "dot-links"):
            out = tmp_path / f"{fmt}.dot"
            assert cli.main(["gen", "-k", "4", "--format", fmt, "--out", str(out)]) == 0
            check_dot_syntax(out.read_text())

    def test_export_lp(self, tmp_path):
        out = tmp_path / "cover.lp"
        assert cli.main(["export-lp", "-k", "4", "--out", str(out)]) == 0
        constraints, m = parse_lp(out.read_text())
        assert m == 10 and len(constraints) == 10

    def test_verify_brute_k4(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = cli.main(["verify", "-k", "4", "--strategy", "brute", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["is_basic"] is True
        assert doc["max_coordinate"] == "1/4"
        assert doc["rank_A"] == 10
        assert doc["reduction_ok"] is True

    def test_verify_both_k6(self, tmp_path):
        out = tmp_path / "cert.json"
        code = cli.main(
            ["verify", "-k", "6", "--strategy", "both", "--trials", "2000",
             "--seed", "5", "--trace", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["family_size"] == 21
        assert doc["strategies_agree"] is True
        assert doc["probe"]["contained_in_family"] is True
        assert len(doc["traces"]) == 5
        assert all(len(t["final"]) == 3 for t in doc["traces"])

    def test_verify_flow_k8(self, tmp_path):
        out = tmp_path / "cert.json"
        code = cli.main(["verify", "-k", "8", "--strategy", "flow", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["family_size"] == 36
        assert doc["max_coordinate"] == "1/8"

    def test_odd_k_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "-k", "5"])
        assert exc.value.code == 2

    def test_too_small_k_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "-k", "2"])
        assert exc.value.code == 2

    def test_brute_guard_usage_error(self, capsys):
        assert cli.main(["verify", "-k", "8", "--strategy", "brute"]) == 2
        assert "enumerate_flow" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ("brute", "both"))
    def test_brute_guard_refuses_before_building(self, monkeypatch, capsys, strategy):
        # the node budget is applied to node_count(k), before any instance is
        # built: at k = 10^8 a build would not finish
        def refused(k):
            raise AssertionError(f"an instance was built for k = {k}")

        monkeypatch.setattr(cli, "build_instance", refused)
        assert cli.main(["verify", "-k", "100000000", "--strategy", strategy]) == 2
        n = 2 + 100000000 * 99999999 // 2
        assert capsys.readouterr().err == (
            f"error: {n} nodes exceeds the exhaustive-scan budget of "
            f"{cuts.MAX_BRUTE_NODES}; use enumerate_flow\n"
        )

    def test_reduce_text_k4(self, capsys):
        assert cli.main(["reduce", "-k", "4"]) == 0
        text = capsys.readouterr().out
        assert "split -N_3 +N_1 -> 2*{1,3}" in text
        assert "move -N_2 +N_1 -> {1,2}" in text
        assert "move -N_5 +N_4 -> {2,6}" in text
        assert "move -N_3 +N_2 -> {2,3}" in text

    def test_reduce_trace_json_k4(self, capsys):
        assert cli.main(["reduce", "-k", "4", "--trace"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [t["halved"] for t in doc["traces"]] == [[1, 3], [2, 5], [6, 8]]
        assert [t["paths"] for t in doc["traces"]] == [[1, 3], [1, 2], [2, 3]]

    def test_reduce_k6_final_sizes(self, capsys):
        assert cli.main(["reduce", "-k", "6", "--trace"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["traces"]) == 5
        assert all(len(t["final"]) == 3 for t in doc["traces"])

    def test_certification_failure_exit(self, tmp_path, monkeypatch, capsys):
        # force a failing verdict to check the exit-code contract
        real_build = cli.build_instance

        def sabotaged(k):
            inst = real_build(k)
            xs = list(inst.xstar)
            xs[0] = Fraction(1, 2)
            return dataclasses.replace(inst, xstar=tuple(xs))

        monkeypatch.setattr(cli, "build_instance", sabotaged)
        out = tmp_path / "cert.json"
        code = cli.main(["verify", "-k", "4", "--out", str(out)])
        assert code == 1
        assert "is_basic" in capsys.readouterr().err
        assert json.loads(out.read_text())["is_basic"] is False

    def test_empty_brute_family_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        # an empty family is legal and falsy; it must still be the one certified
        monkeypatch.setattr(
            cli, "enumerate_bruteforce", lambda g: CutFamily((), g.lam)
        )
        out = tmp_path / "cert.json"
        code = cli.main(["verify", "-k", "4", "--strategy", "brute", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["family_exact"] is False
        err = capsys.readouterr().err
        assert "family_exact" in err and "Traceback" not in err

    @pytest.mark.parametrize("error", (ValueError, RuntimeError))
    def test_replay_error_exits_one(self, tmp_path, monkeypatch, capsys, error):
        def broken(inst, rows, links):
            raise error("no move from here")

        monkeypatch.setattr(certify, "_move_loop", broken)
        out = tmp_path / "cert.json"
        assert cli.main(["verify", "-k", "4", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["reduction_ok"] is False
        err = capsys.readouterr().err
        assert "no move from here" in err and "Traceback" not in err

    def test_failed_replay_leaves_rank_unproved(self, tmp_path, monkeypatch, capsys):
        # no other path proves the rank, so the document holds none
        def broken(inst, rows, links):
            raise CertificationError("no move from here")

        monkeypatch.setattr(certify, "_move_loop", broken)
        out = tmp_path / "cert.json"
        assert cli.main(["verify", "-k", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "certification failed: is_basic" in err
        assert "certification failed: reduction_ok" in err
        doc = json.loads(out.read_text())
        assert doc["rank_A"] is None and doc["det_A"] is None
        assert doc["is_basic"] is False and doc["reduction_ok"] is False
        assert doc["failures"] == ["rank:unproved"]
        assert '"rank_A": null,\n  "det_A": null,' in out.read_text()

    @pytest.mark.parametrize("strays", ((), ({3, 4},), ({6}, {3, 4})))
    def test_probe_containment(self, tmp_path, monkeypatch, capsys, strays):
        # the probe is replaced by a family of listed cuts plus the given
        # stray sides; the strays are reported in family order
        def probe(g, trials, seed):
            inst = build_instance(4)
            sides = [inst.qset_side(2), *strays, inst.nested_side(5)]
            return CutFamily(tuple(cuts.canonical_cut(g, s) for s in sides), g.lam)

        monkeypatch.setattr(cli, "karger_probe", probe)
        out = tmp_path / "cert.json"
        code = cli.main(["verify", "-k", "4", "--trials", "1", "--out", str(out)])
        probe_doc = json.loads(out.read_text())["probe"]
        err = capsys.readouterr().err
        assert probe_doc["cuts_seen"] == 2 + len(strays)
        assert probe_doc["stray_cuts"] == [sorted(s) for s in strays]
        assert probe_doc["contained_in_family"] is (not strays)
        assert code == (1 if strays else 0)
        assert ("certification failed: probe_contained" in err) == bool(strays)

    def test_frontier_width_budget_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(cuts, "MAX_FRONTIER_WIDTH", 1)
        assert cli.main(["verify", "-k", "4", "--strategy", "flow"]) == 2
        assert "frontier width 2" in capsys.readouterr().err

    def test_unwritable_path(self, capsys):
        code = cli.main(["gen", "-k", "4", "--out", "/nonexistent-dir/x.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_default_strategy_is_flow(self, tmp_path):
        out = tmp_path / "cert.json"
        assert cli.main(["verify", "-k", "8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["strategy"] == "flow"
        assert doc["family_size"] == 36

    @pytest.mark.parametrize("trials", ("0", "-5"))
    def test_trials_below_one_usage_error(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "-k", "4", "--trials", trials])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--trials" in err and "at least 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k", (4, 6, 8))
    def test_verify_doc_is_the_library_certificate(self, tmp_path, k):
        # verify assembles no verdict of its own: its document is the one
        # certify_instance gives for the same family
        out = tmp_path / "cert.json"
        argv = ["verify", "-k", str(k), "--strategy", "flow", "--trace", "--out", str(out)]
        assert cli.main(argv) == 0
        doc = json.loads(out.read_text())
        inst = build_instance(k)
        cert = certify_instance(inst, enumerate_flow(inst.graph))
        want = certificate_to_doc(
            cert, tool_version=__version__, strategy="flow",
            elapsed_seconds=0.0, lam=inst.graph.lam, traces=cert.traces,
        )
        assert len(want["traces"]) == k - 1
        doc.pop("elapsed_seconds"), want.pop("elapsed_seconds")
        assert doc == json.loads(dump_json(want))

    def test_exact_flow_family_builds_no_side(self, tmp_path, monkeypatch):
        # on the verify path family exactness is proved by counting alone:
        # no walk, no Cut, no side shapes, no collected family
        def refused(*args, **kwargs):
            raise AssertionError("a side was built")

        monkeypatch.setattr(cuts.FrontierFamily, "cuts", property(refused))
        monkeypatch.setattr(cuts, "Cut", refused)
        monkeypatch.setattr(cuts.CutFamily, "collect", refused)
        monkeypatch.setattr(certify, "_listed_rows", refused)
        monkeypatch.setattr(certify, "_listed_side", refused)
        out = tmp_path / "cert.json"
        assert cli.main(["verify", "-k", "28", "--strategy", "flow", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["family_size"] == 406 == 2 + 28 * 27 // 2 + 28 - 2
        assert doc["family_exact"] is True and doc["is_basic"] is True

    def _lifted(self, monkeypatch, lam):
        # the k=4 instance with its threshold raised to ``lam``, so the
        # frontier family holds cuts beyond the listed ones
        real_build = cli.build_instance

        def lifted(k):
            inst = real_build(k)
            return dataclasses.replace(inst, graph=dataclasses.replace(inst.graph, lam=lam))

        monkeypatch.setattr(cli, "build_instance", lifted)
        g = lifted(4).graph
        return set(scan_small_cuts(g.n, g.edges, g.lam))

    def test_surplus_flow_cuts_named(self, tmp_path, monkeypatch, capsys):
        found = self._lifted(monkeypatch, 6)
        listed = {side for _, side in listed_small_cuts(build_instance(4))}
        out = tmp_path / "cert.json"
        assert cli.main(["verify", "-k", "4", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["family_exact"] is False and doc["family_size"] == len(found) == 18
        assert doc["missing_cuts"] == []
        assert doc["surplus_cuts"] == sorted(sorted(s) for s in found - listed)
        assert "Traceback" not in capsys.readouterr().err

    def test_flow_family_past_the_budget_exits_two(self, tmp_path, monkeypatch, capsys):
        found = self._lifted(monkeypatch, 7)
        assert len(found) == 26 > 2 * 10
        out = tmp_path / "cert.json"
        assert cli.main(["verify", "-k", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (
            "the enumerated family has 26 cuts against 10 listed cuts; naming its missing and "
            "surplus cuts is refused above 20 cuts"
        ) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_warm_call_leaves_no_parser_garbage(self, tmp_path):
        # the parser is built once per process: one built per call would
        # leave its actions and formatters in reference cycles
        argv = ["verify", "-k", "6", "--strategy", "both", "--out", str(tmp_path / "c.json")]
        assert cli.main(argv) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert cli.main(argv) == 0
            gc.collect()
            modules = {type(obj).__module__ for obj in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert "argparse" not in modules

    def test_verify_doc_written_before_exit_check(self, tmp_path):
        # even a passing run writes the document
        out = tmp_path / "c.json"
        cli.main(["verify", "-k", "4", "--out", str(out)])
        assert out.exists()


@pytest.mark.parametrize(
    "argv, name",
    (
        (["verify", "-k", "8", "--strategy", "flow", "--trace"], "verify_k8_flow_trace.json"),
        (["reduce", "-k", "8"], "reduce_k8.txt"),
        (["verify", "-k", "6", "--strategy", "both"], "verify_k6_both.json"),
        (["verify", "-k", "24", "--strategy", "flow"], "verify_k24_flow.json"),
        (["verify", "-k", "6", "--strategy", "brute"], "verify_k6_brute.json"),
        (["gen", "-k", "8"], "gen_k8.json"),
    ),
    ids=("verify", "reduce", "verify-both", "verify-k24", "verify-brute", "gen"),
)
def test_documents_match_golden(argv, name, capsys):
    # The documents are byte for byte those of the files under golden/, apart
    # from the certificate's elapsed_seconds line; a change that means to
    # alter them regenerates the files, e.g. with
    # ``smallcuts verify -k 8 --strategy flow --trace | grep -v elapsed_seconds``.
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith('  "elapsed_seconds": '))
    assert text.encode() == (GOLDEN / name).read_bytes()
