import json

from goilab import checks
from goilab.cli import main


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


def test_check_confluence_small_corpus(tmp_path):
    assert main(["check", "confluence", "--corpus-max-size", "4",
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "check_confluence.json").read_text())
    assert data["ok"] is True


def test_check_net_simulation_small_corpus(tmp_path):
    assert main(["check", "net-simulation", "--corpus-max-size", "4",
                 "--out", str(tmp_path)]) == 0


def test_fuel_reaches_the_graph_budgets(tmp_path, monkeypatch):
    calls = []

    def recorder(suite):
        def record(entries, *args, **kwargs):
            calls.append((suite, kwargs))
            return {"ok": True}
        return record

    monkeypatch.setattr(checks, "check_weight_invariance", recorder("invariance"))
    monkeypatch.setattr(checks, "check_net_simulation", recorder("net-simulation"))
    for suite in ("invariance", "net-simulation"):
        assert main(["check", suite, "--corpus-max-size", "2", "--fuel", "7",
                     "--out", str(tmp_path)]) == 0
    budget = {"graph_budget": 7, "trace_fuel": 7}
    assert calls == [("invariance", budget), ("invariance", budget),
                     ("net-simulation", {"graph_budget": 7})]


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GOI_OUT", str(tmp_path))
    assert main(["compile", "\\x.\\y.x"]) == 0
    assert (tmp_path / "compiled.txt").read_text().strip() == "\\x.\\y.eps[y].x"
