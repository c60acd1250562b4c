import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import nrdkit
from nrdkit import hypergraph, sat, substructure, tables
from nrdkit.catalog import catalog
from nrdkit.cli import main
from nrdkit.generators import build_R1S1_instance, build_R2S2_instance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


def usage_error(capsys, *argv):
    """Run argv, expect exit 2 with nothing on stdout; return the stderr line."""
    code = main(list(argv))
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    lines = cap.err.splitlines()
    assert len(lines) == 1
    return lines[0]


def test_project(capsys):
    code, d = run_json(capsys, "project", "C6", "--coords", "1")
    assert code == 0
    assert sorted(d["tuples"]) == [[0], [1], [2]]


def test_permute(capsys):
    code, d = run_json(capsys, "permute", "1IN3", "--sigma", "3,2,1")
    assert code == 0
    assert sorted(tuple(t) for t in d["tuples"]) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_boxprod(capsys):
    code, d = run_json(capsys, "boxprod", "C6*|C6", "C6*|C6")
    assert code == 0
    assert len(d["base"]["tuples"]) == 35
    # plain predicates rejected
    assert usage_error(capsys, "boxprod", "EQ", "EQ") == (
        "nrd boxprod: both operands must be conditional pairs")


def test_balance(capsys):
    code, d = run_json(capsys, "balance", "1IN3")
    assert code == 0 and d["balanced"]
    code, d = run_json(capsys, "balance", "OR2", "--method", "bounded",
                       "--k-max", "3")
    assert code == 0 and not d["balanced"]
    assert d["witness"]


def test_cancel(capsys):
    code, out = run(capsys, "cancel", "0221221")
    assert code == 0 and out.strip() == "0"


def test_catalan_search(capsys):
    code, d = run_json(capsys, "catalan-search", "CAT5+", "--max-len", "3")
    assert code == 0 and d["violations"] == []


@pytest.mark.parametrize("max_len, err", [
    ("1", "nrd: max_len must be at least 3"),
    ("-1", "nrd: max_len must be at least 3"),
    ("4", "nrd: max_len must be odd")])
def test_catalan_search_max_len_that_searches_nothing_exits_2(
        capsys, max_len, err):
    assert usage_error(capsys, "catalan-search", "CAT5+",
                       "--max-len", max_len) == err


def test_verify_nrd_roundtrip(tmp_path, capsys):
    inst = build_R1S1_instance(2).truncated(10)
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst.hypergraph.to_dict()))
    code, d = run_json(capsys, "verify-nrd", "--instance", str(f),
                       "--predicate", "R1S1", "--emit-witnesses")
    assert code == 0 and d["non_redundant"]
    wf = tmp_path / "wit.json"
    wf.write_text(json.dumps(d["witnesses"]))
    code, d = run_json(capsys, "verify-nrd", "--instance", str(f),
                       "--predicate", "R1S1", "--mode", "check-given",
                       "--certificate", str(wf))
    assert code == 0 and d["non_redundant"]


def _instance_file(tmp_path, inst):
    f = tmp_path / f"{inst.name}.json"
    f.write_text(json.dumps(inst.hypergraph.to_dict()))
    return str(f)


def _r1s1_file(tmp_path):
    return _instance_file(tmp_path, build_R1S1_instance(2))


def test_find_witnesses_output_is_pinned(tmp_path, capsys):
    # each witness is the first solution in search order, so the output
    # must not change with how the search propagates
    code, out = run(capsys, "--json", "verify-nrd", "--instance",
                    _r1s1_file(tmp_path), "--predicate", "R1|S1",
                    "--emit-witnesses")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "10f107e84e1e1eaf08657a2520f5dead8fd5d151b9aa1e0525afd53f29b07d77")


def test_find_witnesses_tie_break_is_pinned(tmp_path, capsys):
    # every vertex has degree 2, so ties are broken by label, and "v10"
    # comes before "v2" although v2 is listed (and numbered) first; with
    # ties broken by number, 8 of the 12 witnesses change
    f = tmp_path / "tie.json"
    f.write_text(json.dumps({
        "vertices": [f"v{i}" for i in range(1, 13)],
        "edges": [["v3", "v5"], ["v1", "v9"], ["v2", "v8"], ["v10", "v6"],
                  ["v6", "v3"], ["v2", "v5"], ["v11", "v8"], ["v10", "v4"],
                  ["v12", "v7"], ["v4", "v7"], ["v12", "v9"], ["v11", "v1"]]}))
    assert _sha256_of_run(capsys, "verify-nrd", "--instance", str(f),
                          "--predicate", "OR2", "--emit-witnesses") == (
        "121a34e6175754da04747ef3a1ac71f8548e32f581a34137f09fcd5c53a8342c")


def test_find_substructure_output_is_pinned(capsys):
    # every hit is confirmed through the SAT solver, so the output must not
    # change with how the solver stores its assignment and watch lists
    code, out = run(capsys, "--json", "find-substructure", "C6*|C6", "3LIN*",
                    "--max-results", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "97b2e8cc90c7e9a5648667ef510043626aa6420704361010b592d2ec68bec1e7")


def _pair_files(tmp_path, cert):
    """The certificate's source and target pairs as predicate files."""
    files = []
    for pq in (cert.source, cert.target):
        files.append(tmp_path / f"{len(files)}.json")
        files[-1].write_text(json.dumps(pq.to_dict()))
    return [str(f) for f in files]


@pytest.mark.parametrize("name, family, text, as_json", [
    ("3LIN*", "1,2;1,3;2,3",
     "0c641ad3e0c8d357940453008b602a17cb2cb1c388ee0be24a657014f93ff6a7",
     "daa6f9be3c0c9d530b66d5e51412f3613fc4d66515c203e157770ccc71d07495"),
    ("P1Q1", "1,2;2,3;1,3",
     "20f65dc239462cfc86f09eec1036df52f8a1e91ef05f7030004ac7c19fba65c8",
     "75b0c818f25bd25bc8cc946a4c828d78c650ea727cf4a0323058fd0f7de956b4"),
], ids=["3LIN*", "P1Q1"])
def test_find_substructure_family_output_is_pinned(tmp_path, capsys, name,
                                                   family, text, as_json):
    # text mode prints the certificate's JSON without sorted keys, --json
    # wraps it with sorted keys; neither may change with how it is written
    files = _pair_files(tmp_path, tables.certificate(name))
    argv = ["find-substructure", *files, "--family", family]
    for prefix, digest in (([], text), (["--json"], as_json)):
        code, out = run(capsys, *prefix, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("budget", ["10", "0"])
def test_verify_nrd_budget_exhausted_exits_1(tmp_path, capsys, budget):
    code = main(["--json", "verify-nrd", "--instance", _r1s1_file(tmp_path),
                 "--predicate", "R1|S1", "--max-assignments", budget])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == (f"nrd: assignment budget of {budget} exceeded with "
                   "0 of 147 edges witnessed\n")


def test_verify_nrd_negative_budget_exits_2(tmp_path, capsys):
    code = main(["verify-nrd", "--instance", _r1s1_file(tmp_path),
                 "--predicate", "R1|S1", "--max-assignments", "-1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "budget" in err


def test_verify_nrd_flag_of_the_other_mode_exits_2(tmp_path, capsys):
    # a flag that the chosen mode would ignore is an error, not a no-op
    inst = build_R1S1_instance(2)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(inst.certificate().to_dict(inst.hypergraph)))
    find = ["verify-nrd", "--instance", _r1s1_file(tmp_path), "--predicate",
            "R1|S1"]
    given = find + ["--mode", "check-given", "--certificate", str(cert)]
    assert run(capsys, *find) == (0, "non-redundant\n")
    assert run(capsys, *given) == (0, "non-redundant\n")
    assert usage_error(capsys, *find, "--certificate", str(cert)) == (
        "nrd verify-nrd: --certificate needs --mode check-given")
    assert usage_error(capsys, *given, "--max-assignments", "10") == (
        "nrd verify-nrd: --max-assignments needs --mode find-witnesses")


def test_nrd_exact_budget_exhausted_exits_1(capsys):
    code = main(["--search-budget", "5", "nrd-exact", "EQ", "-n", "4"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == ("nrd: search budget of 5 feasibility checks exceeded; "
                   "best size so far 3\n")


@pytest.mark.parametrize("argv, err", [
    (["nrd-exact", "EQ", "-n", "-1"], "nrd nrd-exact: -n must not be negative"),
    (["--search-budget", "-1", "nrd-exact", "EQ", "-n", "3"],
     "nrd: --search-budget must not be negative"),
    (["--conflict-budget", "-1", "find-substructure", "C6*|C6", "3LIN*",
      "--family", "1;1;2"], "nrd: --conflict-budget must not be negative"),
    (["nrd-exact", "EQ", "-n", "6", "--parts", "2,2,2"],
     "nrd nrd-exact: --parts gives 3 part sizes but EQ has arity 2"),
    (["nrd-exact", "EQ", "-n", "1", "--parts", "2,-1"],
     "nrd nrd-exact: --parts sizes must not be negative"),
    (["nrd-exact", "EQ", "-n", "5", "--parts", "2,2"],
     "nrd nrd-exact: --parts sizes must sum to -n"),
], ids=["n", "search-budget", "conflict-budget", "parts-count",
        "parts-negative", "parts-sum"])
def test_bad_sizes_and_budgets_exit_2(capsys, argv, err):
    assert usage_error(capsys, *argv) == err


@pytest.mark.parametrize("flag, argv, readers", [
    ("--search-budget", ["cancel", "0221221"], "nrd-exact and find-substructure"),
    ("--conflict-budget", ["cancel", "0221221"], "find-substructure"),
    ("--search-budget", ["paper-verify", "--shallow"],
     "nrd-exact and find-substructure"),
    ("--conflict-budget", ["nrd-exact", "EQ", "-n", "1"], "find-substructure"),
    ("--search-budget", ["verify-substructure", "J1"],
     "nrd-exact and find-substructure"),
], ids=["search-cancel", "conflict-cancel", "search-paper-verify",
        "conflict-nrd-exact", "search-verify-substructure"])
def test_budget_flag_on_a_subcommand_that_ignores_it_exits_2(
        monkeypatch, capsys, flag, argv, readers):
    assert usage_error(capsys, flag, "1", *argv) == (
        f"nrd {argv[0]}: {flag} applies only to {readers}")
    # the environment's defaults reach every subcommand without a word
    monkeypatch.setenv("NRD_SEARCH_BUDGET", "1")
    monkeypatch.setenv("NRD_CONFLICT_BUDGET", "1")
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_negative_search_budget_from_environment_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("NRD_SEARCH_BUDGET", "-3")
    assert usage_error(capsys, "nrd-exact", "EQ", "-n", "3") == (
        "nrd: --search-budget must not be negative")


@pytest.mark.parametrize("argv", [
    ["nrd-exact", "EQ", "-n", "4"],
    ["find-substructure", "C6*|C6", "3LIN*", "--max-results", "5"],
], ids=["nrd-exact", "find-substructure"])
def test_search_budget_zero_is_unlimited(capsys, monkeypatch, argv):
    want = run(capsys, "--json", *argv)
    assert want[0] == 0
    assert run(capsys, "--json", "--search-budget", "0", *argv) == want
    monkeypatch.setenv("NRD_SEARCH_BUDGET", "0")
    assert run(capsys, "--json", *argv) == want


def test_nrd_exact_zero_vertices(capsys):
    code, d = run_json(capsys, "nrd-exact", "EQ", "-n", "0")
    assert code == 0 and d["nrd"] == 0


def test_find_substructure_conflict_budget_exits_1(tmp_path, capsys):
    # this family takes the solver 4 conflicts
    files = _pair_files(tmp_path, tables.certificate("CAT5-BOOLBCK"))
    code = main(["--conflict-budget", "1", "find-substructure", *files,
                 "--family",
                 "2,3,5;5;1,2,4;2,4;5;1,3;2,3,4,5;1,2;4,5"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("nrd: SAT conflict budget of 1 exceeded with ")
    assert err.count("\n") == 1


def test_find_substructure_without_family_passes_the_conflict_budget(
        capsys, monkeypatch):
    # every hit of the family search is re-derived through the SAT solver
    budgets = []

    def out_of_budget(formula, conflict_budget=None):
        budgets.append(conflict_budget)
        raise sat.ConflictBudgetExceeded(
            f"SAT conflict budget of {conflict_budget} exceeded")
    monkeypatch.setattr(substructure, "solve", out_of_budget)
    code = main(["--conflict-budget", "1", "find-substructure", "C6*|C6",
                 "3LIN*"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "nrd: SAT conflict budget of 1 exceeded\n")
    assert budgets == [1]


@pytest.mark.parametrize("flag", ["--seed", "--workers"])
def test_removed_global_flags_are_rejected(capsys, flag):
    with pytest.raises(SystemExit) as info:
        main([flag, "1", "balance", "OR2"])
    assert info.value.code == 2
    capsys.readouterr()


def _check_given(tmp_path, capsys, edit):
    inst = build_R1S1_instance(2).truncated(10)
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst.hypergraph.to_dict()))
    witnesses = inst.certificate().to_dict(inst.hypergraph)
    edit(witnesses["3"])
    wf = tmp_path / "wit.json"
    wf.write_text(json.dumps(witnesses))
    return run(capsys, "--json", "verify-nrd", "--instance", str(f),
               "--predicate", "R1S1", "--mode", "check-given",
               "--certificate", str(wf))


@pytest.mark.parametrize("value", [2.7, 1.0, True, "1"])
def test_check_given_rejects_non_integer_json_values(tmp_path, capsys, value):
    code, out = _check_given(tmp_path, capsys,
                             lambda w: w.__setitem__("p010", value))
    assert code == 2 and out == ""


@pytest.mark.parametrize("edit", [
    lambda w: w.__setitem__("p010", 7),
    lambda w: w.__setitem__("p010", -1),
    lambda w: w.pop("p010"),
    lambda w: w.__setitem__("stray", 0),
])
def test_check_given_malformed_witness_exits_1(tmp_path, capsys, edit):
    code, out = _check_given(tmp_path, capsys, edit)
    d = json.loads(out)
    assert code == 1 and not d["non_redundant"]
    assert d["failed_edge"] == list(build_R1S1_instance(2).hypergraph.edges[3])


def test_verify_nrd_redundant_exits_1(tmp_path, capsys):
    # EQ triangle is redundant
    inst = {"vertices": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}
    f = tmp_path / "tri.json"
    f.write_text(json.dumps(inst))
    code, d = run_json(capsys, "verify-nrd", "--instance", str(f),
                       "--predicate", "EQ")
    assert code == 1 and not d["non_redundant"]


def test_nrd_exact(capsys):
    code, d = run_json(capsys, "nrd-exact", "EQ", "-n", "4")
    assert code == 0 and d["nrd"] == 3


def test_nrd_exact_json_is_stable(capsys):
    code, out = run(capsys, "--json", "nrd-exact", "EQ", "-n", "3")
    assert code == 0 and out == (
        '{"instance": {"edges": [["v1", "v2"], ["v1", "v3"]], '
        '"vertices": ["v1", "v2", "v3"]}, "n": 3, "nrd": 2}\n')
    code, out = run(capsys, "--json", "nrd-exact", "EQ", "-n", "3",
                    "--parts", "1,2")
    assert code == 0 and out == (
        '{"instance": {"edges": [["v1", "v2"], ["v1", "v3"]], '
        '"parts": [["v1"], ["v2", "v3"]]}, "n": 3, "nrd": 2}\n')


def test_find_substructure_rejects_plain_predicate(capsys):
    assert usage_error(capsys, "find-substructure", "OR3", "3LIN*", "--family",
                       "1,2;1,3;2,3") == (
        "nrd find-substructure: inputs must be conditional pairs")


@pytest.mark.parametrize("family", ["1;2", "1;2;3;1"])
def test_find_substructure_family_shape_exits_2(capsys, family):
    # 3LIN* has arity 3: two or four index sets do not fit
    assert usage_error(capsys, "find-substructure", "3LIN*", "3LIN*",
                       "--family", family) == (
        "nrd: family shape does not fit source/target")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_find_substructure_max_results_below_one_exits_2(capsys, n):
    assert usage_error(capsys, "find-substructure", "C6*|C6", "3LIN*",
                       "--max-results", n) == (
        "nrd: max_results must be at least 1")


def test_find_substructure_via_files(tmp_path, capsys):
    from nrdkit.catalog import catalog, or_k
    from nrdkit.predicates import ConditionalPredicate, Predicate
    src = ConditionalPredicate(or_k(3), Predicate.full(2, 3))
    f = tmp_path / "src.json"
    f.write_text(json.dumps(src.to_dict()))
    code, d = run_json(capsys, "find-substructure", str(f), "3LIN*",
                       "--family", "1,2;1,3;2,3")
    assert code == 0 and d["found"]
    # no map for singleton family -> exit 1
    code, d = run_json(capsys, "find-substructure", str(f), "3LIN*",
                       "--family", "1;2;3")
    assert code == 1 and not d["found"]


def test_verify_substructure_bundled(capsys):
    for name in ("J1", "P1Q1", "3LIN*"):
        code, d = run_json(capsys, "verify-substructure", name)
        assert code == 0 and d["valid"]


@pytest.mark.parametrize("resize", [lambda t: t[:2], lambda t: t + [0]])
def test_verify_substructure_image_of_wrong_length(capsys, tmp_path, resize):
    # an image cut to two coordinates used to raise IndexError
    cert = tables.certificate("3LIN*").to_dict()
    cert["sigma"][1][1] = resize(cert["sigma"][1][1])
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(cert))
    code = main(["verify-substructure", str(f)])
    cap = capsys.readouterr()
    assert code == 1 and cap.err == ""
    q, t = (tuple(x) for x in cert["sigma"][1])
    assert cap.out.splitlines() == [
        "invalid:", f"  sigma({q}) = {t} outside the target ambient"]


def test_deps(capsys):
    code, d = run_json(capsys, "deps", "3LIN*")
    assert code == 0
    assert len(d["dependencies"]) == 3


@pytest.mark.parametrize("command", ["deps", "verify-substructure", "reduce"])
def test_unknown_certificate_name_exits_2(tmp_path, capsys, command):
    # a name that is neither bundled nor a file is named as such, not read
    # as a missing file
    argv = [command, "J3"]
    if command == "reduce":
        inst = _instance_file(tmp_path, build_R1S1_instance(2).truncated(1))
        argv = [command, "--instance", str(inst), "--certificate", "J3"]
    assert usage_error(capsys, *argv) == \
        "nrd: unknown certificate 'J3' (not a bundled name or file)"


def test_gen_girth6(capsys):
    code, d = run_json(capsys, "gen-girth6", "-q", "2")
    assert code == 0
    assert len(d["edges"]) == 21
    assert main(["gen-girth6", "-q", "4"]) == 2  # non-prime -> usage error
    capsys.readouterr()


def test_build_instance_and_shrink_report(tmp_path, capsys):
    out = tmp_path / "r1s1.json"
    code, d = run_json(capsys, "build-instance", "R1S1", "-q", "2",
                       "--verify", "--output", str(out))
    assert code == 0 and d["verified"]
    assert d["n_edges"] == 3 * 7 * 7
    code, d = run_json(capsys, "shrink-report", "--instance", str(out))
    assert code == 0
    assert d["shrink_factor"] == pytest.approx(3.0)


def test_reduce(tmp_path, capsys):
    inst = build_R1S1_instance(2).truncated(12)
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst.hypergraph.to_dict()))
    wf = tmp_path / "wit.json"
    wf.write_text(json.dumps(inst.certificate().to_dict(inst.hypergraph)))
    code, d = run_json(capsys, "reduce", "--instance", str(f),
                       "--certificate", "P1Q1", "--witnesses", str(wf))
    assert code == 0 and d["verified"] and d["n_edges"] == 12
    witnesses = inst.certificate().to_dict(inst.hypergraph)
    witnesses["4"]["p010"] = 3
    wf.write_text(json.dumps(witnesses))
    code, out = run(capsys, "--json", "reduce", "--instance", str(f),
                    "--certificate", "P1Q1", "--witnesses", str(wf))
    assert code == 1 and out == ""


def _sha256_of_run(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_reduce_output_is_pinned(tmp_path, capsys):
    # the projected instance lists parts and edges in first-use order, so
    # these pins hold however the projection is computed
    inst = build_R2S2_instance(2)
    wf = tmp_path / "wit.json"
    wf.write_text(json.dumps(inst.certificate().to_dict(inst.hypergraph)))
    assert _sha256_of_run(capsys, "reduce", "--instance",
                          _instance_file(tmp_path, inst), "--certificate",
                          "J1", "--witnesses", str(wf)) == (
        "3adca79acd916b60a59b77840bad922678925de28b6dce5eb0656c30d4ad67b6")
    assert _sha256_of_run(capsys, "reduce", "--instance",
                          _instance_file(tmp_path, build_R1S1_instance(3)),
                          "--certificate", "P1Q1") == (
        "e070de518810ba3dc5ecfa02107e069f695aecc629b48c3135f5c6a832081e45")


def test_shrink_report_output_is_pinned(tmp_path, capsys):
    assert _sha256_of_run(capsys, "shrink-report", "--instance",
                          _instance_file(tmp_path, build_R2S2_instance(2))) == (
        "113ec43f57aa9dab8fad91e3a2493d1a7c6527cda787a17a8e08b6efd9e07967")


def test_audit_sized_outputs_are_pinned(tmp_path, capsys):
    # the q=5 instances the deep audit builds, and the q=3 shrink report and
    # counts-only J1 projection, as the labelled builders printed them
    for name, digest in (
            ("R1S1", "39cb26b1ed9b772c22bff3e198b46d7a4820a7f8b8abce273935126330a01e98"),
            ("R2S2", "2e8b6722e92a546ea573292bfbd17f630da7ca517bb0eea35ed6ebdc94d9ba7b")):
        assert _sha256_of_run(capsys, "build-instance", name, "-q", "5") == digest
    f = _instance_file(tmp_path, build_R2S2_instance(3))
    assert _sha256_of_run(capsys, "shrink-report", "--instance", f) == (
        "1bfa470539357eeaec8c18b061ccaf86c0d5f4cce49492c8fae86419a7e1cce9")
    assert _sha256_of_run(capsys, "reduce", "--instance", f,
                          "--certificate", "J1") == (
        "37aa6001fd4edce1cf51653d8143ed25914ca121ee07d720afbef8d19e9ccb77")


@pytest.mark.parametrize("command", ["verify-nrd", "reduce"])
@pytest.mark.parametrize("witnesses, err", [
    ({"0": [1, 2]}, "witness 0 is not an object of vertex values"),
    ({"0": 7}, "witness 0 is not an object of vertex values"),
    ([{"a": 1}], "certificate must be an object keyed by edge index")],
    ids=["witness-list", "witness-int", "top-level-list"])
def test_malformed_witness_json_exits_2(tmp_path, capsys, command, witnesses,
                                        err):
    inst = build_R1S1_instance(2).truncated(1)
    wf = tmp_path / "wit.json"
    wf.write_text(json.dumps(witnesses))
    argv = ["--instance", _instance_file(tmp_path, inst)]
    if command == "verify-nrd":
        argv += ["--predicate", "R1S1", "--mode", "check-given",
                 "--certificate", str(wf)]
    else:
        argv += ["--certificate", "P1Q1", "--witnesses", str(wf)]
    assert usage_error(capsys, command, *argv) == f"nrd: {err}"


_NOT_A_LIST = "'{}' is a string, not a list"


@pytest.mark.parametrize("instance, err", [
    ({"parts": [["a"], ["b"]], "edges": [1, 2]}, "'int' object is not iterable"),
    ({"vertices": ["a", "b"], "edges": [1, 2]}, "'int' object is not iterable"),
    ([1], "list indices must be integers or slices, not str"),
    (5, "'int' object is not subscriptable"),
    ({"vertices": ["a", "b"], "edges": ["ab"]}, _NOT_A_LIST.format("ab")),
    ({"vertices": "ab", "edges": [["a", "b"]]}, _NOT_A_LIST.format("ab")),
    ({"vertices": ["a", "b"], "edges": "ab"}, _NOT_A_LIST.format("ab")),
    ({"parts": ["ab", "cd"], "edges": [["a", "c"], "bd"]},
     _NOT_A_LIST.format("ab")),
    ({"parts": [["a", "b"], ["c", "d"]], "edges": [["a", "c"], "bd"]},
     _NOT_A_LIST.format("bd")),
    ({"parts": "ab", "edges": [["a", "b"]]}, _NOT_A_LIST.format("ab"))],
    ids=["partite", "plain", "top-level-list", "top-level-int",
         "plain-edge-string", "plain-vertices-string", "plain-edges-string",
         "partite-part-string", "partite-edge-string", "partite-parts-string"])
def test_malformed_instance_json_exits_2(tmp_path, capsys, instance, err):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(instance))
    assert usage_error(capsys, "verify-nrd", "--instance", str(f),
                       "--predicate", "EQ") == f"nrd: malformed instance: {err}"


_INT_LABELS = {"parts": [[0, 1], [2, 3]], "edges": [[0, 2], [1, 3], [0, 3]]}
# what find-witnesses emitted for _INT_LABELS when it accepted integer labels
_INT_LABEL_WITNESSES = {"0": {"0": 0, "1": 0, "2": 0, "3": 1},
                        "1": {"0": 1, "1": 0, "2": 0, "3": 0},
                        "2": {"0": 0, "1": 1, "2": 1, "3": 0}}


@pytest.mark.parametrize("instance, argv, label", [
    (_INT_LABELS, ["verify-nrd", "--predicate", "C6*|C6", "--emit-witnesses"],
     0),
    (_INT_LABELS, ["verify-nrd", "--predicate", "C6*|C6", "--mode",
                   "check-given", "--certificate", "WITNESSES"], 0),
    ({"parts": [[0], [1], [2]], "edges": [[0, 1, 2]]},
     ["reduce", "--certificate", "P1Q1"], 0),
    ({"vertices": ["a", None], "edges": [["a", None]]},
     ["verify-nrd", "--predicate", "EQ"], None),
    ({"parts": [[True, "b"], ["c", 1.5]], "edges": [[True, "c"], ["b", 1.5]]},
     ["verify-nrd", "--predicate", "C6*|C6"], True)],
    ids=["find-witnesses", "check-given", "reduce", "plain-null",
         "partite-bool-float"])
def test_non_string_vertex_label_exits_2(tmp_path, capsys, instance, argv,
                                         label):
    # witness files key values by label and JSON keys are strings, so an
    # integer label made check-given reject the witnesses find-witnesses
    # had emitted; other labels failed as tracebacks
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(instance))
    w = tmp_path / "witnesses.json"
    w.write_text(json.dumps(_INT_LABEL_WITNESSES))
    argv = [str(w) if a == "WITNESSES" else a for a in argv]
    assert usage_error(capsys, *argv, "--instance", str(f)) == (
        f"nrd: malformed instance: vertex label {label!r} is not a string")


def _nested_image(cert):
    cert["sigma"][1][1] = [[0], 0, 1]
    return cert


@pytest.mark.parametrize("command", ["verify-substructure", "deps", "reduce"])
@pytest.mark.parametrize("certificate, err", [
    (lambda: [1], "malformed certificate: list indices must be integers or "
                  "slices, not str"),
    (lambda: {"source": 1}, "malformed certificate: 'int' object is not "
                            "subscriptable"),
    (lambda: _nested_image(tables.certificate("3LIN*").to_dict()),
     "malformed certificate: unhashable type: 'list'")],
    ids=["top-level-list", "source-int", "nested-image"])
def test_malformed_certificate_json_exits_2(tmp_path, capsys, command,
                                            certificate, err):
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(certificate()))
    argv = [command, str(f)]
    if command == "reduce":
        argv = [command, "--instance", _r1s1_file(tmp_path),
                "--certificate", str(f)]
    assert usage_error(capsys, *argv) == f"nrd: {err}"


@pytest.mark.parametrize("command", ["verify-substructure", "deps", "reduce"])
@pytest.mark.parametrize("index", [1.5, True], ids=["float", "bool"])
def test_certificate_family_index_not_an_integer_exits_2(tmp_path, capsys,
                                                         command, index):
    cert = tables.certificate("3LIN*").to_dict()
    assert cert["family"][0][0] == 1  # so True would have read as 1
    cert["family"][0][0] = index
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(cert))
    argv = [command, str(f)]
    if command == "reduce":
        argv = [command, "--instance", _r1s1_file(tmp_path),
                "--certificate", str(f)]
    assert usage_error(capsys, *argv) == (
        "nrd: malformed certificate: family indices must be integers")


def _plain(domain, tuples=((0, 1),)):
    return {"domain": domain, "arity": 2, "tuples": [list(t) for t in tuples]}


@pytest.mark.parametrize("predicate, n, err", [
    (_plain(1.5), 3, "domain size and arity must be integers"),
    (_plain(10 ** 20), 3, "domain size must be at most 256"),
    ({"base": _plain(10 ** 20), "ambient": _plain(10 ** 20, [(0, 1), (1, 1)])},
     2, "domain size must be at most 256"),
    (_plain(2, [(0, True)]), 3, "value True outside domain [0, 2)")],
    ids=["domain-float", "domain-huge", "pair-domain-huge", "value-bool"])
def test_nrd_exact_rejects_malformed_predicate_file(tmp_path, capsys,
                                                    predicate, n, err):
    f = tmp_path / "pred.json"
    f.write_text(json.dumps(predicate))
    assert usage_error(capsys, "nrd-exact", str(f), "-n", str(n)) == \
        f"nrd: {err}"


@pytest.mark.parametrize("predicate, err", [
    (5, "a predicate file must hold an object"),
    ([[0, 1]], "a predicate file must hold an object"),
    ({"base": 5, "ambient": []},
     "malformed predicate: 'int' object is not subscriptable"),
    ({"domain": 2, "arity": 2, "tuples": 5},
     "malformed predicate: 'int' object is not iterable"),
    ({"domain": "x", "arity": 2, "tuples": []},
     "domain size and arity must be integers")],
    ids=["int", "list", "base-int", "tuples-int", "domain-str"])
def test_malformed_predicate_json_exits_2(tmp_path, capsys, predicate, err):
    f = tmp_path / "pred.json"
    f.write_text(json.dumps(predicate))
    assert usage_error(capsys, "project", str(f), "--coords", "1") == \
        f"nrd: {err}"


@pytest.mark.parametrize("kind", ["directory", "missing"])
@pytest.mark.parametrize("slot", ["instance", "certificate", "witnesses",
                                  "check-given-certificate", "predicate"])
def test_unreadable_input_path_exits_2(tmp_path, capsys, slot, kind):
    # a directory or a missing file where an input file belongs is a usage
    # error named on one line of stderr, not a traceback
    bad = tmp_path / "input"
    if kind == "directory":
        bad.mkdir()
    inst = build_R1S1_instance(2).truncated(1)
    inst = _instance_file(tmp_path, inst)
    argv = {
        "instance": ["reduce", "--instance", bad, "--certificate", "P1Q1"],
        "certificate": ["reduce", "--instance", inst, "--certificate", bad],
        "witnesses": ["reduce", "--instance", inst, "--certificate", "P1Q1",
                      "--witnesses", bad],
        "check-given-certificate": ["verify-nrd", "--instance", inst,
                                    "--predicate", "R1S1", "--mode",
                                    "check-given", "--certificate", bad],
        "predicate": ["verify-nrd", "--instance", inst, "--predicate", bad],
    }[slot]
    err = usage_error(capsys, *map(str, argv))
    assert err.startswith("nrd: ") and repr(str(bad)) in err


def test_output_is_written_before_stdout(tmp_path, capsys, monkeypatch):
    # an unwritable --output prints no result; a failed run writes no file
    inst = build_R1S1_instance(2).truncated(12)
    f = _instance_file(tmp_path, inst)
    reduce = ["reduce", "--instance", f, "--certificate", "P1Q1"]
    for argv in (["build-instance", "R1S1", "-q", "2"], reduce):
        err = usage_error(capsys, *argv, "--output", str(tmp_path))
        assert err.startswith("nrd: ") and repr(str(tmp_path)) in err
    out = tmp_path / "out.json"
    witnesses = inst.certificate().to_dict(inst.hypergraph)
    witnesses["4"]["p010"] = 3
    wf = tmp_path / "wit.json"
    wf.write_text(json.dumps(witnesses))
    assert main([*reduce, "--witnesses", str(wf), "--output", str(out)]) == 1
    monkeypatch.setattr("nrdkit.generators.ShrinkingInstance.verify",
                        lambda self: hypergraph.NrdFailure(("a",)))
    code, d = run_json(capsys, "build-instance", "R1S1", "-q", "2",
                       "--verify", "--output", str(out))
    assert code == 1 and d["verified"] is False
    assert not out.exists()


@pytest.mark.parametrize("resize", [lambda t: t[:2], lambda t: t + [0]],
                         ids=["short", "long"])
def test_deps_image_of_wrong_length_exits_2(capsys, tmp_path, resize):
    cert = tables.certificate("3LIN*").to_dict()
    cert["sigma"][1][1] = resize(cert["sigma"][1][1])
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(cert))
    q, t = (tuple(x) for x in cert["sigma"][1])
    assert usage_error(capsys, "deps", str(f)) == (
        f"nrd: sigma({q}) = {t} does not have arity 3")


def test_fit(capsys):
    code, d = run_json(capsys, "fit", "10,1000;20,8000;40,64000")
    assert code == 0
    assert d["exponent"] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("points, err", [
    ("1,2;3", "nrd fit: each point must be a pair n,m"),
    ("1,2,3;4,5", "nrd fit: each point must be a pair n,m"),
    ("0,1;2,3", "nrd: a log-log fit needs finite positive values"),
    ("5,1;5,2", "nrd: a log-log fit needs at least 2 distinct x values"),
    # every log n is 0, which polyfit's LAPACK call rejected with its own error
    ("1,2;1,3", "nrd: a log-log fit needs at least 2 distinct x values")],
    ids=["short-point", "long-point", "zero", "one-n", "n-is-1"])
@pytest.mark.filterwarnings("error")
def test_fit_bad_points_exit_2(capfd, points, err):
    # capfd, not capsys: LAPACK would write to file descriptor 1 directly
    assert usage_error(capfd, "fit", points) == err


def test_degenerate_fit_in_a_subprocess():
    # numpy's RankWarning would go to stderr ahead of the error line
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(nrdkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "nrdkit.cli", "fit",
                           "5,1;5,2"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "nrd: a log-log fit needs at least 2 distinct x values"]
    assert "Warning" not in proc.stderr


def test_build_instance_zero_edges_exits_2(capsys):
    assert usage_error(capsys, "build-instance", "R1S1", "-q", "2",
                       "-m", "0") == "nrd: m must be in [1, 147]"


def test_cond2plain(capsys):
    code, d = run_json(capsys, "cond2plain", "C6*|C6")
    assert code == 0
    assert len(d["tuples"]) == 23


def test_paper_verify_shallow(capsys):
    code, d = run_json(capsys, "paper-verify", "--shallow")
    assert code == 0
    assert d["failures"] == 0
    assert d["anomalies"] == 1


@pytest.mark.parametrize("argv, items", [((), 18), (("--shallow",), 13)],
                         ids=["deep", "shallow"])
def test_paper_verify_text(capsys, argv, items):
    code, out = run(capsys, "paper-verify", *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == f"{items} items, 0 failures, 1 anomalies"
    _, d = run_json(capsys, "paper-verify", *argv)
    want = []
    for item in d["items"]:
        want.append(f"[{item['status'].upper():7}] {item['name']}")
        if item["status"] != "pass":
            want.append("          " + json.dumps(item["detail"], sort_keys=True))
    assert lines[:-1] == want
    anomaly = lines.index("[ANOMALY] coordinate-bijection audit")
    assert json.loads(lines[anomaly + 1])["anomaly"] == (
        "row 6 is not a bijection as printed")
    assert sum(line.startswith("[PASS   ] ") for line in lines) == items - 1


_SECTIONS = ("the sections are catalog, balance, tables, sym, cancel, "
             "instances, pipelines")


@pytest.mark.parametrize("argv, err", [
    (["--only", "pipeline"], f"nrd: unknown audit section 'pipeline'; {_SECTIONS}"),
    (["--only", "instances,pipelines,"], f"nrd: unknown audit section ''; {_SECTIONS}"),
    (["--shallow", "--only", "instances"],
     "nrd: the sections selected run no audit item (instances and pipelines "
     f"run only in a deep audit); {_SECTIONS}")],
    ids=["unknown", "empty-name", "nothing-runs"])
def test_paper_verify_only_that_checks_nothing_exits_2(capsys, argv, err):
    assert usage_error(capsys, "paper-verify", *argv) == err


def test_paper_verify_only_strips_spaces(capsys):
    code, d = run_json(capsys, "paper-verify", "--shallow",
                       "--only", "catalog, balance")
    assert code == 0
    assert [i["name"] for i in d["items"]] == [
        "catalog integrity", "equality-predicate NRD n-1", "balance suite"]


@pytest.mark.parametrize("argv, err", [
    (["balance", "OR2", "--k-max", "0"],
     "nrd balance: --k-max needs --method bounded"),
    (["find-substructure", "C6*|C6", "C6*|C6", "--family", "1;2",
      "--sizes", "9,9"],
     "nrd find-substructure: --sizes applies only without --family"),
    (["find-substructure", "C6*|C6", "C6*|C6", "--family", "1;2",
      "--max-results", "0"],
     "nrd find-substructure: --max-results applies only without --family"),
    (["find-substructure", "C6*|C6", "C6*|C6", "--family", "1;2",
      "--time-budget", "-5"],
     "nrd find-substructure: --time-budget applies only without --family")],
    ids=["balance-k-max", "sizes", "max-results", "time-budget"])
def test_flag_the_command_would_ignore_exits_2(capsys, argv, err):
    assert usage_error(capsys, *argv) == err


def test_there_is_no_verbose_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-v", "cancel", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "nrd: error: unrecognized arguments: -v\n")


@pytest.mark.parametrize("q", [2, 3])
def test_gen_girth6_emit_graph(capsys, q):
    code, out = run(capsys, "gen-girth6", "-q", str(q), "--emit-graph")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == (q + 1) * (q * q + q + 1)
    assert all(re.fullmatch(r"p\d+ l\d+", line) for line in lines)
    _, d = run_json(capsys, "gen-girth6", "-q", str(q))
    assert lines == [" ".join(e) for e in d["edges"]]


def test_reduce_output_file_holds_the_instance(tmp_path, capsys):
    out = tmp_path / "projected.json"
    code, d = run_json(capsys, "reduce", "--instance",
                       _instance_file(tmp_path, build_R1S1_instance(2)),
                       "--certificate", "P1Q1", "--output", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == d["instance"]


def test_project_and_permute_a_pair(capsys):
    code, d = run_json(capsys, "project", "3LIN*", "--coords", "1,2")
    assert code == 0
    square = [[a, b] for a in range(3) for b in range(3)]
    assert d["ambient"]["tuples"] == square
    assert d["base"]["tuples"] == square[1:]
    code, d = run_json(capsys, "permute", "3LIN*", "--sigma", "2,1,3")
    assert code == 0
    pair = catalog("3LIN*")
    for key, p in (("base", pair.base), ("ambient", pair.ambient)):
        assert d[key]["tuples"] == sorted([t[1], t[0], t[2]] for t in p.tuples)


def test_catalan_search_reads_the_ambient_of_a_pair(capsys):
    # 3LIN*R, the base of 3LIN*, has violations at the default length
    assert run(capsys, "catalan-search", "3LIN*") == \
        run(capsys, "catalan-search", "3LIN*S") == (0, "0 violation(s)\n")
    code, out = run(capsys, "catalan-search", "3LIN*R")
    assert code == 0 and not out.startswith("0 ")


def test_unknown_predicate_exits(capsys):
    assert usage_error(capsys, "balance", "DOES-NOT-EXIST") == (
        "nrd: unknown predicate 'DOES-NOT-EXIST' (not a catalog name or file)")


def test_build_instance_unknown_family_exits_2(capsys):
    assert usage_error(capsys, "build-instance", "R3S3", "-q", "2") == (
        "nrd build-instance: unknown family 'R3S3'")


def test_cond2plain_rejects_plain_predicate(capsys):
    assert usage_error(capsys, "cond2plain", "EQ") == (
        "nrd cond2plain: input must be a conditional pair")


@pytest.mark.parametrize("name", ["3LIN*", "C6*|C6", "file"])
def test_balance_rejects_a_conditional_pair(tmp_path, capsys, name):
    if name == "file":
        name = str(tmp_path / "pair.json")
        with open(name, "w") as fh:
            json.dump(tables.certificate("3LIN*").source.to_dict(), fh)
    assert usage_error(capsys, "balance", name) == (
        "nrd balance: input must be a plain predicate, not a pair")


@pytest.mark.parametrize("command", ["deps", "verify-substructure"])
def test_certificate_missing_a_key_exits_2(tmp_path, capsys, command):
    cert = tables.certificate("3LIN*").to_dict()
    del cert["family"]
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(cert))
    assert usage_error(capsys, command, str(f)) == (
        "nrd: malformed certificate: missing key 'family'")


def test_deps_sigma_missing_a_row_exits_2(tmp_path, capsys):
    cert = tables.certificate("3LIN*").to_dict()
    q = tuple(cert["sigma"].pop(0)[0])
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(cert))
    assert usage_error(capsys, "deps", str(f)) == (
        f"nrd: sigma is not defined on the source tuple {q}")


@pytest.mark.parametrize("instance, err", [
    ({"parts": [["a"], ["b"]], "edges": []}, "the instance has no edges"),
    ({"vertices": ["a"], "edges": []}, "the instance has no edges"),
    ({"parts": [["a", "b"]], "edges": [["a"], ["b"]]},
     "arity 1 has no proper projection")],
    ids=["partite-no-edges", "plain-no-edges", "arity-1"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_shrink_report_degenerate_instance_exits_2(tmp_path, capsys,
                                                   instance, err, fmt):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(instance))
    assert usage_error(capsys, *fmt, "shrink-report", "--instance", str(f)) == (
        f"nrd shrink-report: {err}")


@pytest.mark.parametrize("edges, err", [
    ([["a", "b", "c"], ["a", "b"]], "edge ('a', 'b') does not match arity 3"),
    ([["a", "b"], ["a", "b", "c"]], "edge ('a', 'b', 'c') does not match arity 2")],
    ids=["long-first", "short-first"])
def test_shrink_report_rejects_edges_of_different_lengths(tmp_path, capsys,
                                                          edges, err):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": edges}))
    assert usage_error(capsys, "shrink-report", "--instance", str(f)) == (
        f"nrd: {err}")


@pytest.mark.parametrize("command, contents, err", [
    (["project", "{}", "--coords", "1"], {"domain": 2, "arity": 2},
     "malformed predicate: missing key 'tuples'"),
    (["verify-nrd", "--instance", "{}", "--predicate", "EQ"],
     {"parts": [["a"], ["b"]]}, "malformed instance: missing key 'edges'"),
    (["verify-nrd", "--instance", "{}", "--predicate", "EQ"],
     {"edges": [["a", "b"]]}, "malformed instance: missing key 'vertices'"),
    (["project", "{}", "--coords", "1"],
     {"base": {"domain": 2, "arity": 2, "tuples": [[0, 0]]}},
     "malformed predicate: missing key 'ambient'")],
    ids=["predicate", "partite-instance", "plain-instance", "pair"])
def test_file_missing_a_key_exits_2(tmp_path, capsys, command, contents, err):
    f = tmp_path / "file.json"
    f.write_text(json.dumps(contents))
    argv = [str(f) if a == "{}" else a for a in command]
    assert usage_error(capsys, *argv) == f"nrd: {err}"


def _edgeless_argv(tmp_path, mode, certificate):
    """verify-nrd on the plain instance a, b, c with no edges, under EQ."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": []}))
    argv = ["verify-nrd", "--instance", str(inst), "--predicate", "EQ",
            "--mode", mode]
    if mode == "check-given":
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(certificate))
        argv += ["--certificate", str(cert)]
    return argv


@pytest.mark.parametrize("mode", ["find-witnesses", "check-given"])
@pytest.mark.parametrize("fmt, out", [([], "non-redundant\n"),
                                      (["--json"], '{"non_redundant": true}\n')],
                         ids=["text", "json"])
def test_verify_nrd_edgeless_plain_instance_is_non_redundant(
        tmp_path, capsys, mode, fmt, out):
    argv = _edgeless_argv(tmp_path, mode, {})
    assert run(capsys, *fmt, *argv) == (0, out)


def test_edgeless_instance_rejects_a_non_empty_certificate(tmp_path, capsys):
    argv = _edgeless_argv(tmp_path, "check-given", {"0": {"a": 0}})
    assert usage_error(capsys, *argv) == (
        "nrd: the instance has no edges, so its certificate must be empty")


def test_build_instance_n3_is_for_r1s1_only(capsys):
    assert usage_error(capsys, "build-instance", "R2S2", "-q", "2",
                       "--n3", "4") == "nrd build-instance: --n3 applies to R1S1 only"


def test_verify_nrd_rejects_a_vertex_listed_twice(tmp_path, capsys):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"vertices": ["a", "b", "a"],
                             "edges": [["a", "b"]]}))
    assert usage_error(capsys, "verify-nrd", "--instance", str(f),
                       "--predicate", "EQ") == "nrd: vertex 'a' is listed twice"


def test_cond2plain_on_a_domain_one_pair_exits_2(tmp_path, capsys):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({
        "base": {"domain": 1, "arity": 1, "tuples": []},
        "ambient": {"domain": 1, "arity": 1, "tuples": [[0]]}}))
    assert usage_error(capsys, "cond2plain", str(f)) == (
        "nrd: lifting needs both 0 and 1 in the domain")


@pytest.mark.parametrize("variable", ["NRD_SEARCH_BUDGET",
                                      "NRD_CONFLICT_BUDGET"])
def test_non_integer_budget_from_environment_exits_2(monkeypatch, capsys,
                                                     variable):
    monkeypatch.setenv(variable, "abc")
    assert usage_error(capsys, "nrd-exact", "EQ", "-n", "3") == (
        f"nrd: {variable} must be an integer, got 'abc'")


@pytest.mark.parametrize("argv, digest", [
    (["paper-verify"],
     "b5f4f0f519694928366484435ea686e1e1262636d229d3b6946f334b2e75f1b1"),
    (["build-instance", "R1S1", "-q", "2", "--verify"],
     "5c13ce3dc3a854ee4a4f5e63304af085dccae280434402d7c45889fa780bf502"),
    (["build-instance", "R1S1", "-q", "3", "--verify"],
     "1033a33ec7b2b0e892bc63d2a51363cb16967820ef53031a88ac02d436d5b130"),
    (["build-instance", "R1S1", "-q", "2", "--n3", "4", "--verify"],
     "f7cd1078c083b5635f8dde10fc949acfcc81fe0b1b34ff7a76a29c6c9d590051"),
    (["build-instance", "R2S2", "-q", "2", "--verify"],
     "d73b5fbf8a1968f990e338e8650fdd229a93013f753c445b1a5c30706c92c3f4"),
    (["build-instance", "R2S2", "-q", "3", "--verify"],
     "9ce83a378302b4cebf38594811ba28a60c7109c51c6a3b2e49ede24bd23b53df")],
    ids=["paper-verify", "R1S1-2", "R1S1-3", "R1S1-2-n3=4", "R2S2-2", "R2S2-3"])
def test_constructed_outputs_are_pinned(capsys, argv, digest):
    assert _sha256_of_run(capsys, *argv) == digest


def test_closed_output_pipe_exits_1_without_traceback(monkeypatch, capsys):
    # stdout is a pipe whose reader is gone: writing raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["--json", "build-instance", "R2S2", "-q", "3"])
    stdout.close()  # flushes what is left, now into devnull, without error
    assert code == 1
    assert capsys.readouterr().err == ""


def test_closed_output_pipe_in_a_subprocess():
    # the reader stops after 10 of the ~114 KB, as `| head -c 10` does
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(nrdkit.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "nrdkit.cli", "--json", "build-instance",
         "R2S2", "-q", "3"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    assert proc.stdout.read(10) == b'{"instance'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
