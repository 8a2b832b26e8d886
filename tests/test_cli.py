import json
import random
import sys

import pytest
from conftest import reference

from goilab import checks, cli
from goilab.cli import main
from goilab.labelled import initialize
from goilab.nets import iso_check, translate_cbn, translate_cbv, validate
from goilab.terms import Abs, App, Var, compile_term, format_term, parse_lambda


def test_compile_to_stdout(capsys):
    assert main(["compile", "(\\x.x x) (\\x.x z)"]) == 0
    assert capsys.readouterr().out.strip() == "(\\x.copy[x->x1,x2].x1 x2) (\\x.x z)"


def test_reduce_writes_trace(tmp_path):
    assert main(["reduce", "(\\x.x) (\\y.y)", "--calculus", "lcf",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["rule"] for r in records[:-1]] == ["Beta", "Var"]
    assert "final" in records[-1]


def test_net_dot_and_json(tmp_path):
    assert main(["net", "(\\x.x) (\\y.y)", "--translation", "cbn",
                 "--format", "dot", "--out", str(tmp_path)]) == 0
    dot = (tmp_path / "net.dot").read_text()
    assert "subgraph cluster_" in dot
    assert main(["net", "(\\x.x) (\\y.y)", "--translation", "cbv",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "net.json").read_text())
    assert {"nodes", "edges", "boxes", "root", "free"} <= set(data)


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["reduce", "(\\x.x x) (\\y.y)", "--calculus", "lca",
                     "--out", str(out)]) == 0
        assert main(["net", "(\\x.x x) (\\y.y)", "--translation", "cbn",
                     "--format", "json", "--out", str(out)]) == 0
    assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
    assert (a / "net.json").read_bytes() == (b / "net.json").read_bytes()


def test_check_algebra_suite(tmp_path):
    assert main(["check", "algebra", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "check_algebra.json").read_text())
    assert data["ok"] is True


def test_check_parses_the_term_first_and_prepares_only_entries_it_reads(
        tmp_path, monkeypatch):
    assert main(["check", "algebra", "--out", str(tmp_path / "a")]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the corpus was prepared")

    monkeypatch.setattr(cli, "corpus", refuse)
    assert main(["check", "algebra", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "check_algebra.json").read_bytes() == \
        (tmp_path / "a" / "check_algebra.json").read_bytes()
    assert main(["check", "invariance", "--term", "(\\x"]) == 2


def test_compile_refuses_a_term_that_is_not_plain_lambda(capsys):
    assert main(["compile", "eps[x].x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("goilab compile: error: not a plain lambda term "
                            "(at 0)\n")


def test_check_algebra_refuses_a_term(capsys):
    # the algebra suite reads no entry, so a --term would be ignored
    assert main(["check", "algebra", "--term", "\\x.x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("goilab check: error: ")
    assert captured.err.count("\n") == 1


def test_check_compile_suite(tmp_path):
    assert main(["check", "compile", "--term", "\\x.x x",
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "check_compile.json").read_text())
    assert data["ok"] is True and data["report"]["fidelity"]["failures"] == []


def test_check_confluence_small_corpus(tmp_path):
    assert main(["check", "confluence", "--corpus-max-size", "4",
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "check_confluence.json").read_text())
    assert data["ok"] is True


def test_check_net_simulation_small_corpus(tmp_path):
    assert main(["check", "net-simulation", "--corpus-max-size", "4",
                 "--out", str(tmp_path)]) == 0


# each suite that takes a budget, and the checks it calls in turn
FUELLED = {"invariance": ["check_weight_invariance"] * 2,
           "confluence": ["check_confluence"] * 2,
           "sigma-termination": ["check_sigma_termination", "check_propagation"],
           "label-lemmas": ["check_label_lemmas"] * 2,
           "net-simulation": ["check_net_simulation"],
           "label-path": ["check_goi_end_to_end"]}


def test_fuel_reaches_the_graph_budgets(tmp_path, monkeypatch):
    # and every other budget: --fuel is each suite's one budget
    calls = []

    def recorder(check):
        def record(entries, *args, **kwargs):
            calls.append((check, kwargs))
            return {"ok": True}
        return record

    for check in {check for names in FUELLED.values() for check in names}:
        monkeypatch.setattr(checks, check, recorder(check))
    for suite, names in FUELLED.items():
        calls.clear()
        assert main(["check", suite, "--corpus-max-size", "2", "--fuel", "7",
                     "--out", str(tmp_path)]) == 0
        assert calls == [(check, {"fuel": 7}) for check in names]


@pytest.mark.parametrize("suite", FUELLED)
def test_an_exhausted_budget_fails_the_suite(suite, tmp_path):
    assert main(["check", suite, "--corpus-max-size", "6", "--fuel", "1",
                 "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("suite, fuel, ok", [
    pytest.param("invariance", 642, False, id="invariance-one-short"),
    pytest.param("invariance", 643, True, id="invariance-enough"),
    pytest.param("label-path", 73, False, id="label-path-one-short"),
    pytest.param("label-path", 74, True, id="label-path-enough")])
def test_fuel_reaches_the_searches(suite, fuel, ok, tmp_path):
    # on the classics, the cbv net of church_two_twice needs the most
    # weight-set visits, 643, and copy_under_binder's lcf final weight the
    # most membership visits, 74.  A search out of fuel is a search's
    # failure, not an exhausted trace
    assert main(["check", suite, "--corpus-max-size", "0", "--fuel", str(fuel),
                 "--out", str(tmp_path)]) == (0 if ok else 1)
    report = json.loads((tmp_path / f"check_{suite}.json").read_text())["report"]
    failures = [(f["entry"], f["calculus"], f["problem"], f["error"])
                for r in report.values() for f in r["failures"]]
    expected = {"invariance": ("church_two_twice", "lcf", "weight set not found"),
                "label-path": ("copy_under_binder", "lcf", "final weight not decided")}
    assert failures == ([] if ok else [(*expected[suite], "FuelExhaustedError")])


@pytest.mark.parametrize("argv", [
    ["compile", "x", "--calculus", "lca"],
    ["compile", "x", "--translation", "cbn"],
    ["compile", "x", "--fuel", "5"],
    ["compile", "x", "--seed", "1"],
    ["reduce", "x", "--translation", "cbn"],
    ["reduce", "x", "--seed", "1"],
    ["net", "x", "--calculus", "lca"],
    ["net", "x", "--fuel", "5"],
    ["net", "x", "--seed", "1"],
    ["check", "invariance", "--calculus", "lca"],
    ["check", "invariance", "--translation", "cbn"],
    ["check", "confluence", "--seed", "9", "--corpus-max-size", "3"],
    ["check", "compile", "--fuel", "3"],
    ["check", "compile", "--seed", "1"],
    ["check", "algebra", "--corpus-max-size", "3"],
    ["check", "algebra", "--fuel", "3"],
    ["check", "algebra", "--term", "x"],
    ["check", "algebra", "--seed", "0"],
], ids=" ".join)
def test_commands_reject_flags_they_do_not_read(argv, capsys):
    # check runs both calculi and both translations, whatever it is told,
    # and each suite refuses a flag of check it does not read, in one line
    with pytest.raises(SystemExit) as exc:
        sys.exit(main(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if argv[0] == "check" and argv[2] in ("--fuel", "--term", "--corpus-max-size"):
        assert err == (f"goilab check: error: the {argv[1]} suite does not read "
                       f"{argv[2]}\n")
    else:
        assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["compile", "(\\x"],
    ["reduce", "\\x.", "--calculus", "lca"],
    ["net", "x)"],
    ["check", "algebra", "--term", "(\\x"],
], ids=" ".join)
def test_a_malformed_term_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"goilab {argv[0]}: error: ")
    assert captured.err.count("\n") == 1


def test_a_trace_that_outruns_its_fuel_fails_in_one_line(tmp_path, capsys):
    # (\x.x) (\y.y) takes a Beta step and then a Var step
    argv = ["reduce", "(\\x.x) (\\y.y)", "--fuel", "1", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "goilab reduce: error: a redex remains when the fuel runs out\n")
    assert not (tmp_path / "trace.jsonl").exists()
    assert main(argv[:3] + ["2"] + argv[4:]) == 0


@pytest.mark.parametrize("argv", [
    ["reduce", "x", "--fuel", "-1"],
    ["check", "compile", "--corpus-max-size", "-3"],
    ["check", "confluence", "--fuel", "-2"],
    ["check", "algebra", "--corpus-max-size", "-1"],
], ids=" ".join)
def test_a_negative_budget_or_corpus_size_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag, value = argv[-2:]
    assert captured.err == (f"goilab {argv[0]}: error: {flag} must be 0 or more, "
                            f"got {value}\n")


def test_a_zero_budget_or_corpus_size_is_allowed(tmp_path):
    assert main(["reduce", "x", "--fuel", "0", "--out", str(tmp_path)]) == 0
    assert main(["check", "compile", "--corpus-max-size", "0",
                 "--out", str(tmp_path)]) == 0


def deep(n):
    """Three n-deep terms, each as text and as built from constructors: a
    right-nested abstraction, n parentheses around \\x.x, and
    x0 (x1 (... (x{n-1} y)))."""
    abstraction, application = Var("x0"), Var("y")
    for i in reversed(range(n)):
        abstraction = Abs(f"x{i}", abstraction)
        application = App(Var(f"x{i}"), application)
    return [("".join(f"\\x{i}." for i in range(n)) + "x0", abstraction),
            ("(" * n + "\\x.x" + ")" * n, Abs("x", Var("x"))),
            (" (".join(f"x{i}" for i in range(n)) + " y" + ")" * (n - 1), application)]


@pytest.mark.parametrize("shape", range(3), ids=("abstraction", "parentheses",
                                                 "application"))
def test_a_term_5000_deep_compiles(shape, capsys):
    # the parser is a loop; a recursive one overflowed on each shape by 400
    # levels, at the default recursion limit
    assert sys.getrecursionlimit() < 5_000
    text, term = deep(5_000)[shape]
    assert main(["compile", text]) == 0
    assert capsys.readouterr().out == format_term(compile_term(term)) + "\n"


def left_nested(n):
    """(\\z.z) (y x0 ... x{n-1}): an argument n applications deep."""
    return "(\\z.z) (y " + " ".join(f"x{i}" for i in range(n)) + ")"


@pytest.mark.parametrize("text, translation", [
    (deep(1_000)[0][0], "cbn"), (deep(1_000)[2][0], "cbv"), (left_nested(1_000), "cbv")],
    ids=("abstraction-cbn", "application-cbv", "left-nested-cbv"))
def test_a_term_1000_deep_is_translated(text, translation, tmp_path):
    # the translator is a loop; a recursive one overflowed on each of these
    # by 1,000 levels, at the default recursion limit.  The cbv net of a
    # deep abstraction and the cbn net of a deep application grow faster
    # than linearly (README, Nets), so they are not built here
    assert sys.getrecursionlimit() <= 1_000
    assert main(["net", text, "--translation", translation, "--out", str(tmp_path)]) == 0
    term = initialize(compile_term(parse_lambda(text)))
    net = (translate_cbn if translation == "cbn" else translate_cbv)(term)
    copy = reference.renumbered(net, random.Random(0))
    assert validate(net) == validate(copy) == []
    assert iso_check(net, copy)


def test_the_cbn_net_of_a_deep_application_lists_each_node_in_one_box():
    # x0 (x1 (... y)) boxes each argument inside the last: 200 levels nest
    # 200 boxes over 21,102 nodes, and each box lists only its own members
    net = translate_cbn(initialize(compile_term(deep(200)[2][1])))
    assert validate(net) == []
    assert len(net.boxes) == 200
    assert sum(len(b.contents) for b in net.boxes.values()) \
        <= len(net.nodes) + len(net.boxes)
    net = translate_cbn(initialize(compile_term(deep(100)[2][1])))
    assert iso_check(net, reference.renumbered(net, random.Random(0)))


def test_the_json_of_a_deep_cbn_net_lists_each_id_once(tmp_path):
    # the export writes what each box lists directly; listing every node
    # nested in each box made this JSON grow cubically with depth
    assert main(["net", deep(100)[2][0], "--translation", "cbn",
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "net.json").read_text())
    assert sum(len(b["contents"]) for b in data["boxes"]) \
        <= len(data["nodes"]) + len(data["boxes"])


def test_a_left_nested_term_1000_deep_is_checked(tmp_path):
    # every step checked translates its source and target; the one failure
    # allowed is a weight-set search that runs out of fuel, not an overflow
    main(["check", "invariance", "--corpus-max-size", "0", "--term", left_nested(1_000),
          "--out", str(tmp_path)])
    report = json.loads((tmp_path / "check_invariance.json").read_text())["report"]
    assert all(r["steps_checked"] > 0 for r in report.values())
    assert {(f["error"], f["problem"]) for r in report.values() for f in r["failures"]} \
        <= {("FuelExhaustedError", "weight set not found")}
