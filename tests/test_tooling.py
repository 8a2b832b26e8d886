"""The benchmark in ``bench/`` reaches goilab by module and function name;
every name it uses must resolve, or ``--trace 1`` and its output checks
break without any other test noticing."""

import ast
import copy
import gc
import importlib
import inspect
import pickle
import random
import re
from collections import Counter
from dataclasses import MISSING, FrozenInstanceError, fields
from pathlib import Path

import pytest
from conftest import port_scan

from goilab import checks, nets
from goilab.algebra import CONSTANTS, LevelUnderflowError, normal_word
from goilab.calculus import (FUEL, LCA, LCF, Configuration, RedexSite,
                             TraceStep, normalize_sigma, reduce,
                             reduction_graph, sigma_walk)
from goilab.checks import (_step_edges, check_net_simulation,
                           check_weight_invariance)
from goilab.corpus import CLASSICS, corpus, prepare
from goilab.labels import RIGHT, Atomic, Marker, Over, Under, atomic
from goilab.nets import (closed_cut_step, eligible_cuts, iso_check,
                         translate_cbn, translate_cbv, validate)
from goilab.levy import levy_normalize
from goilab.paths import weight_member, weight_set
from goilab.terms import (Abs, App, Copy, Erase, Subst, Var, parse,
                          parse_lambda, subterms)

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "goilab"

# names bench/run.py imports or calls directly
RUN_NAMES = ("calculus.reduce", "calculus.Configuration",
             "labelled.initialize", "labelled.label_of",
             "levy.levy_normalize", "nets.iso_check", "nets.translate_cbn",
             "paths.live_words", "algebra.normal_word.cache_clear")


def resolve(dotted):
    module, *attrs = dotted.split(".")
    value = importlib.import_module(f"goilab.{module}")
    for attr in attrs:
        value = getattr(value, attr)
    return value


def test_traced_layers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.LAYER_OF
    for name in tracer.LAYER_OF:
        assert callable(resolve(name)), name


def test_names_the_benchmark_calls_resolve():
    for name in RUN_NAMES:
        assert callable(resolve(name)), name


def is_word(word) -> bool:
    """Is ``word`` a tuple of (constant, bool, level >= 0) triples?"""
    return type(word) is tuple and all(
        type(atom) is tuple and len(atom) == 3 and atom[0] in CONSTANTS
        and type(atom[1]) is bool and type(atom[2]) is int and atom[2] >= 0
        for atom in word)


def test_weight_set_returns_the_word_format_the_benchmark_reads():
    # bench/reference.py and algebra.normal_word read words as tuples of
    # (base, star, level); no internal encoding may leak out of weight_set
    entry = prepare("apply_to_identity",
                    parse_lambda(dict(CLASSICS)["apply_to_identity"]))
    words = weight_set(translate_cbn(entry.initial))
    assert type(words) is set and words
    assert all(is_word(word) for word in words)
    assert len({level for word in words for _, _, level in word}) > 1
    # and a weight is its word, on every net however made: translated or
    # stepped
    translated = [translate(entry.initial) for entry in corpus(5)[::9]
                  for translate in (translate_cbv, translate_cbn)]
    stepped = next(closed_cut_step(net, cuts[0]) for net in translated
                   if (cuts := eligible_cuts(net)))
    nets = translated + [stepped]
    weights = [e.weight for net in nets for e in net.edges.values()]
    assert None in weights and () in weights
    assert all(w is None or is_word(w) for w in weights)


def test_every_compared_set_passes_through_live_words(monkeypatch):
    # bench/run.py wraps paths.live_words the way tracer.patched does and
    # null-tests each word it is given against its own reference; a set
    # compared without passing through it would go unchecked
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    entry = prepare("apply_to_identity",
                    parse_lambda(dict(CLASSICS)["apply_to_identity"]))
    given = []

    def recorder(_, fn):
        def recorded(words):
            given.append(words)
            return fn(words)
        return recorded

    for calculus in (LCF, LCA):
        given.clear()
        with tracer.patched(["paths.live_words"], recorder):
            report = check_weight_invariance([entry], calculus)
        assert report["ok"]
        assert len(given) == 2 * report["steps_checked"] > 0
        assert all(given)



def test_traced_counters_count_steps_and_distinct_nets(monkeypatch):
    # --trace 1 reports live_steps per compared step and one weight-set
    # search per distinct term of the steps checked
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    entry = prepare("apply_to_identity",
                    parse_lambda(dict(CLASSICS)["apply_to_identity"]))
    for calculus in (LCF, LCA):
        terms = {term for src, _, dst in _step_edges(entry, calculus, 10_000, [])
                 for term in (src, dst)}
        tr = tracer.Tracer()
        tr.new_window()
        with tr.active(normal_word):
            report = check_weight_invariance([entry], calculus)
        metrics = tr.metrics()
        assert metrics["paths.check_invariance.live_steps"] \
            == report["steps_checked"] > 0
        assert metrics["paths.weight_set.calls"] == len(terms)


def test_every_net_comparison_passes_through_iso_check(monkeypatch):
    # bench/run.py wraps nets.iso_check the way tracer.patched does and
    # checks each pair it accepts against its own reference; a comparison
    # made without passing through it would go unchecked
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    entry = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))
    verdicts = []

    def recorder(_, fn):
        def recorded(a, b):
            verdicts.append(fn(a, b))
            return verdicts[-1]
        return recorded

    with tracer.patched(["nets.iso_check"], recorder):
        report = check_net_simulation([entry])
    assert report["ok"] and report["steps_checked"] > 0
    assert verdicts and any(verdicts)


def test_every_net_criterion_8_builds_passes_through_translate_cbn(monkeypatch):
    # bench/run.py wraps nets.translate_cbn the way tracer.patched does and
    # checks each net it records against its own reference; a translation
    # held in a table or a default argument would record none
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    entry = prepare("apply", parse_lambda("(\\x.\\y.x y) (\\z.z)"))
    built = []

    def recorder(_, fn):
        def recorded(term):
            built.append(term)
            return fn(term)
        return recorded

    with tracer.patched(["nets.translate_cbn"], recorder):
        report = check_net_simulation([entry])
    graph = reduction_graph(Configuration(entry.initial), LCA)
    terms = {c.term for src, _, dst in graph.steps() for c in (src, dst)}
    assert report["ok"] and report["steps_checked"] > 0
    assert len(built) == len(terms) and set(built) == terms


def test_nets_renumbered_by_the_benchmark_validate_sign_and_search_alike(
        monkeypatch):
    # bench/reference.py renumbers a net by assigning its fields directly,
    # and the simulation workload fails unless each net is iso to its copy;
    # every net, however made, must read a port map of its own edges
    monkeypatch.syspath_prepend(str(BENCH))
    reference = importlib.import_module("reference")
    rng = random.Random(0)
    translated = [translate(entry.initial) for entry in corpus(5)[::7]
                  for translate in (translate_cbv, translate_cbn)]
    # three boxes, nested
    nested = translate_cbv(prepare("nested", parse_lambda("\\x.\\y.\\z.x y z")).initial)
    assert sum(member in nested.boxes for b in nested.boxes.values()
               for member in b.contents) == 2 == len(nested.boxes) - 1
    translated.append(nested)
    stepped = [closed_cut_step(net, cut) for net in translated
               for cut in eligible_cuts(net)]
    assert stepped
    # the first step of each rule that edits boxes in the lca graphs of corpus(6)
    by_rule = {}
    for entry in corpus(6):
        for config in reduction_graph(Configuration(entry.initial), LCA).edges:
            net = translate_cbn(config.term)
            for cut in eligible_cuts(net):
                if (rule := nets._cut_redex(net, cut).rule) not in by_rule:
                    by_rule[rule] = closed_cut_step(net, cut)
    stepped += [by_rule[rule] for rule in ("derelict", "weaken", "fan", "commute")]
    for net in translated + stepped:
        copy = reference.renumbered(net, rng)
        assert validate(copy) == []
        assert iso_check(copy, net)
        assert weight_set(copy) == weight_set(net)
        for made in (net, copy):
            assert made.ports == port_scan(made)


def test_no_new_or_copied_net_starts_with_a_stale_fact():
    # a net keeps what was read of it once (its port map, validate's
    # verdict and iso_check's signature), and each starts unset; a copy
    # carries the port map alone, so the nets a step makes from a copy are
    # judged and signed afresh
    kept = {"_ports", "_verdict", "_signature"}
    fresh = vars(nets.Net())
    assert {name for name in fresh if name.startswith("_")} - {"_next"} == kept
    assert all(fresh[name] is None for name in kept)
    made = 0
    for entry in corpus(6)[::2]:
        net = translate_cbn(entry.initial)
        assert validate(net) == [] and iso_check(net, net)
        assert all(getattr(net, name) is not None for name in kept)
        copy = net.copy()
        assert copy._ports == net._ports
        assert copy._verdict is copy._signature is None
        for out in [closed_cut_step(net, cut) for cut in eligible_cuts(net)]:
            assert out._verdict is out._signature is None
            made += 1
    assert made > 10


def test_only_the_suites_catch_every_exception():
    # a suite turns any exception into a reported failure; anywhere else a
    # bare except Exception would hide a fault
    catching = sorted(path.name for path in SRC.glob("*.py")
                      if "except Exception" in path.read_text())
    assert catching == ["checks.py"]


def test_only_the_suites_catch_a_net_error():
    # the cut search asks for a record or None, and iso_check's gate,
    # validate, refuses a net before it is signed; a try around a NetError in
    # any module but checks.py would make an exception its control flow
    def subclasses(cls):
        return {cls.__name__}.union(*map(subclasses, cls.__subclasses__()))

    net_errors = subclasses(nets.NetError)
    catching = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.type)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if names & net_errors:
                    catching.add(path.name)
    assert "NotClosedError" in net_errors
    assert catching <= {"checks.py"}


def test_the_signing_code_neither_raises_nor_catches():
    # iso_check's gate, validate, is the one place a net is checked before
    # it is signed; the code that signs takes a net validate accepts
    signing = {"_explore", "_Islands", "_anchor_key",
               "_signature_part", "canonical_signature"}
    found = {node.name: node for node in ast.parse((SRC / "nets.py").read_text()).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name in signing}
    assert found.keys() == signing
    faulting = (ast.Raise, ast.Try, getattr(ast, "TryStar", ast.Try))
    faults = sorted(f"{name}: line {sub.lineno}" for name, node in found.items()
                    for sub in ast.walk(node) if isinstance(sub, faulting))
    assert faults == []


def test_only_the_steps_that_take_a_whole_box_walk_its_subtree():
    # a box lists what lies directly in it, and every other reader (the
    # export, the signature) reads that as stored; nested contents are
    # derived only where a step drops or copies a box with all it holds
    callers = sorted(node.name for node in ast.parse((SRC / "nets.py").read_text()).body
                     if isinstance(node, ast.FunctionDef) and any(
                         isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                         and call.func.id == "_inside" for call in ast.walk(node)))
    assert callers == ["_copy_closed_box", "_drop_box"]


def _scans(node, attr: str) -> bool:
    """Whether ``node`` iterates over a net's ``attr`` (its edges or its
    boxes): in a ``for``, a comprehension, or ``sorted``, ``list``, ``set``
    or ``tuple``."""
    iterated = [sub.iter for sub in ast.walk(node)
                if isinstance(sub, (ast.For, ast.comprehension))]
    iterated += [sub.args[0] for sub in ast.walk(node)
                 if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                 and sub.func.id in ("sorted", "list", "set", "tuple") and sub.args]
    for expr in iterated:
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ("items", "keys", "values")):
            expr = expr.func.value
        if isinstance(expr, ast.Attribute) and expr.attr == attr:
            return True
    return False


def _cut_step_reach() -> tuple[dict, set]:
    """The code of nets.py by label (the module's functions and
    assignments, and Net's methods as ``Net.<name>``), each with the name
    it is read by and its node, and the labels of what closed_cut_step
    reaches by name."""
    defs = {}
    for node in ast.parse((SRC / "nets.py").read_text()).body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = (node.name, node)
        elif isinstance(node, ast.Assign):
            defs.update((t.id, (t.id, node)) for t in node.targets
                        if isinstance(t, ast.Name))
        elif isinstance(node, ast.ClassDef) and node.name == "Net":
            defs.update((f"Net.{item.name}", (item.name, item)) for item in node.body
                        if isinstance(item, ast.FunctionDef))
    names, reached, grown = {"closed_cut_step"}, set(), True
    while grown:
        grown = False
        for label, (name, node) in defs.items():
            if label not in reached and name in names:
                reached.add(label)
                names |= _references([node])
                grown = True
    return defs, reached


def test_no_cut_step_scans_every_edge():
    # a step finds the edges it edits through the port map and keeps the
    # map current, so it walks what it touches, not the whole net.  Of the
    # code closed_cut_step reaches by name, only Net.ports reads every
    # edge, to build the map of a net that has none; a step's copy carries one
    defs, reached = _cut_step_reach()
    scanning = {label for label, (_, node) in defs.items() if _scans(node, "edges")}
    assert {"validate", "to_json", "Net.ports"} <= scanning
    assert {"_STEPS", "_mult_step", "_delete_nodes", "_copy_closed_box",
            "Net.copy", "Net.new_edge"} <= reached
    assert sorted(reached & scanning) == ["Net.ports"]


class _CountedEdges(dict):
    """An edge map that counts the reads of each entry, whether by key or
    through its values or items."""

    def __init__(self, edges):
        super().__init__(edges)
        self.reads = Counter()

    def __getitem__(self, eid):
        self.reads[eid] += 1
        return super().__getitem__(eid)

    def get(self, eid, default=None):
        return self[eid] if eid in self else default

    def values(self):
        return [self[eid] for eid in self]

    def items(self):
        return [(eid, self[eid]) for eid in self]


def test_a_net_without_islands_is_signed_in_one_walk():
    # the walk that numbers a net keys each edge as it leaves it, in
    # numbering order, so signing a net with no interface-free island
    # reads each edge once: no second pass keys or sorts the edges
    signed = 0
    for entry in corpus(6):
        for calc, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
            for config in reduction_graph(Configuration(entry.initial), calc).edges:
                try:
                    net = translate(config.term)
                except (nets.NetError, LevelUnderflowError):
                    continue
                for n in [net, *(closed_cut_step(net, cut) for cut in eligible_cuts(net))]:
                    signature = nets.canonical_signature(n)
                    if signature[1]:  # an island is signed from each of its anchors
                        continue
                    n.edges = counted = _CountedEdges(n.edges)
                    assert nets.canonical_signature(n) == signature
                    assert counted.reads == Counter(counted.keys())
                    signed += 1
    assert signed == 696


def test_no_cut_step_scans_every_box():
    # both ends of a cut lie in one box, which closed_cut_step edits once,
    # so of the code it reaches only the one box lookup, _box_listing, reads
    # every box: for the cut search, for the cut's box and for the box a
    # commuted door leaves.  (validate reads the boxes through a local
    # name, which this search does not see.)
    defs, reached = _cut_step_reach()
    scanning = {label for label, (_, node) in defs.items() if _scans(node, "boxes")}
    assert {"to_json", "to_dot", "_signature_part"} <= scanning
    assert {"_commute_step", "_drop_box", "_inside", "_copy_closed_box"} <= reached
    assert sorted(reached & scanning) == ["_box_listing"]


def test_no_code_edits_a_box_in_place():
    # a net copy shares its Box objects, so a step that edits a box puts a
    # new one in its own map: in nets.py no Box field is assigned, and no
    # contents set is changed in place.  The translator fills member sets
    # (_Translator.open) before they become a box's contents, never after
    fields = {"principal", "auxiliaries", "contents"}
    mutators = {"add", "discard", "remove", "update", "clear", "pop",
                "difference_update", "intersection_update",
                "symmetric_difference_update"}
    edits = [node.lineno for node in ast.walk(ast.parse((SRC / "nets.py").read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
             and node.attr in fields
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in mutators
             and isinstance(node.func.value, ast.Attribute)
             and node.func.value.attr == "contents"]
    assert edits == []


def test_no_code_edits_an_edge_outside_attach():
    # a net copy shares its Edge objects too, so in nets.py only Net.attach,
    # which places a dangling end of an edge being translated, assigns an
    # Edge field or changes an ends list in place
    fields = {"ends", "weight"}
    mutators = {"append", "extend", "insert", "pop", "remove", "clear", "sort",
                "reverse", "__setitem__", "__delitem__"}
    tree = ast.parse((SRC / "nets.py").read_text())
    net = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Net")
    attach = next(item for item in net.body
                  if isinstance(item, ast.FunctionDef) and item.name == "attach")

    def ends_list(expr) -> bool:
        return isinstance(expr, ast.Attribute) and expr.attr == "ends"

    def edits(root) -> set:
        return {node.lineno for node in ast.walk(root)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and node.attr in fields
                or isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del)) and ends_list(node.value)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in mutators and ends_list(node.func.value)}

    assert edits(attach)  # the search sees attach's own edits
    assert sorted(edits(tree) - edits(attach)) == []


def test_no_suite_reads_text():
    # the suites are called once per entry; a term parsed inside one would
    # be parsed again on every call, so fixed terms are built as terms
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(ast.parse((SRC / "checks.py").read_text()))
              if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert "compile_term" in called
    assert called.isdisjoint({"parse", "parse_lambda"})


def test_every_report_and_failure_is_made_in_one_place():
    # every suite returns _report's dict and every failure is a _failure
    # record, so a report is read by its keys and never by parsing text:
    # checks.py holds no f-string, and a dict literal only in those two
    # functions or as a record's detail (an empty one starts a cache)
    tree = ast.parse((SRC / "checks.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def calls(node, name):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)

    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)]
    def own_returns(fn):  # the returns of ``fn``, not of a function within it
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Return):
                yield node
            elif not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                stack += ast.iter_child_nodes(node)

    suites = [fn for name, fn in functions.items() if name.startswith("check_")]
    returns = [node for fn in suites for node in own_returns(fn)]
    assert len(suites) == 9 and len(returns) >= 9
    assert all(calls(node.value, "_report") for node in returns)
    appended = [node.args[0] for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute) and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id.endswith("failures")]
    yielded = [node.value for name, fn in functions.items() if name.endswith("_failures")
               for node in ast.walk(fn) if isinstance(node, ast.Yield)]
    assert len(appended) > 25 and yielded
    assert [ast.unparse(node) for node in appended + yielded
            if not calls(node, "_failure")] == []
    makers = {id(node) for name in ("_failure", "_report")
                for node in ast.walk(functions[name]) if isinstance(node, ast.Dict)}
    details = {id(keyword.value) for node in ast.walk(tree) if calls(node, "_failure")
               for keyword in node.keywords if keyword.arg == "detail"}
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Dict)
            and node.keys and id(node) not in makers | details] == []


def test_every_problem_kind_is_one_of_the_closed_set():
    # each _failure call names its problem kind as a literal of
    # checks.PROBLEMS (or picks one of two), and each kind is reported
    # somewhere, so the set is the whole vocabulary of a report
    tree = ast.parse((SRC / "checks.py").read_text())
    named = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_failure"):
            problem = node.args[0]
            choices = ((problem.body, problem.orelse)
                       if isinstance(problem, ast.IfExp) else (problem,))
            assert all(isinstance(c, ast.Constant) for c in choices), ast.unparse(problem)
            named += [c.value for c in choices]
    assert set(named) <= checks.PROBLEMS
    assert checks.PROBLEMS <= set(named)


def test_every_problem_kind_is_named_by_a_test():
    # a kind no test names is a failure no test shows its suite can report
    named = {node.value for path in Path(__file__).parent.glob("test_*.py")
             if path.name != "test_tooling.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(checks.PROBLEMS - named) == []


def test_no_sigma_walk_starts_at_the_end_of_a_trace(monkeypatch):
    # the last configuration of a complete trace is its own sigma-normal
    # form, and one left by a sigma step shares the next one's: only a
    # configuration a Beta step leaves is walked
    entries = corpus(6)
    traces = [(calculus, checks._trace(entry, calculus, 10_000))
              for entry in entries for calculus in (LCF, LCA)]
    last = {(trace[-1].config, calculus) for calculus, trace in traces}
    before_beta = sum(ts.site.rule == "Beta" for _, trace in traces for ts in trace[1:])
    walked = []

    def counted(config, calculus, fuel):
        walked.append((config, calculus))
        return sigma_walk(config, calculus, fuel)

    monkeypatch.setattr(checks, "sigma_walk", counted)
    for suite in (checks.check_sigma_termination, checks.check_propagation):
        walked.clear()
        assert suite(entries)["ok"]
        assert len(walked) == before_beta > 0
        assert last.isdisjoint(walked)


def test_no_nested_function_calls_itself():
    # a nested function that calls itself holds its own cell, so every call
    # of the function defining it leaves a cycle for the cyclic collector
    calling_itself = []
    for path in sorted(SRC.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == inner.name for node in ast.walk(inner)):
                    calling_itself.append(f"{path.name}: {outer.name}.{inner.name}")
    assert calling_itself == []


def test_the_recursion_left_is_a_stated_list():
    # one call graph per module: its module-level functions and class
    # methods, joined by calls by bare name to a module function and by
    # ``self.<method>`` calls within a class.  Each cycle is a recursion
    # that a deep enough input can overflow; the parser's and the
    # translator's are gone
    cycles = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        defs = {}  # qualified name -> (its class or None, its node)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = (None, node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{node.name}.{item.name}"] = (node.name, item)
        calls = {}
        for name, (owner, node) in defs.items():
            calls[name] = set()
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                fn = call.func
                if isinstance(fn, ast.Name) and fn.id in defs:  # a module function
                    calls[name].add(fn.id)
                elif (owner and isinstance(fn, ast.Attribute)
                      and isinstance(fn.value, ast.Name) and fn.value.id == "self"
                      and f"{owner}.{fn.attr}" in defs):
                    calls[name].add(f"{owner}.{fn.attr}")
        reach = {}  # name -> the names its calls reach, in one call or more
        for name in calls:
            reached, stack = set(), list(calls[name])
            while stack:
                if (callee := stack.pop()) not in reached:
                    reached.add(callee)
                    stack += calls[callee]
            reach[name] = reached
        cycles |= {frozenset(f"{module}.{other}" for other in reach[name]
                             if name in reach[other])
                   for name in calls if name in reach[name]}
    assert cycles == {frozenset(names) for names in (
        {"algebra._thread"},
        {"corpus._terms"},
        {"labels.reverse"}, {"labels.format_atom", "labels.format_label"},
        {"levy.meta_substitute"},
        {"terms.rename_free"})}


def test_the_net_suites_leave_no_cycle_for_the_collector():
    # criteria 6, 7 and 8 run once per entry in the benchmark; garbage only
    # the cyclic collector frees would pile up between its runs
    entries = corpus(5)
    gc.collect()
    gc.disable()
    try:
        for report in (check_weight_invariance(entries, LCF),
                       check_weight_invariance(entries, LCA),
                       check_net_simulation(entries)):
            assert report["ok"]
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_normal_word_is_the_only_memo():
    # the benchmark clears normal_word's memo before each pass, so that a
    # pass does the work of a fresh process; any other module-level memo
    # would carry work over from one pass to the next
    memos = [(path.name, line.strip())
             for path in sorted(SRC.glob("*.py"))
             for line in path.read_text().splitlines()
             if re.search(r"\b(lru_)?cache\b", line)
             and not line.startswith("from functools import")]
    assert memos == [("algebra.py", "@lru_cache(maxsize=1 << 16)")]


def test_no_term_class_has_a_dict():
    # term nodes, label atoms and calculus records are slotted: a fact
    # cached on one would need a declared slot, and could not quietly grow
    # every value of a corpus
    nodes = [t for _, t in subterms(parse("\\a.eps[x].copy[y->u,v].(u v)[w/z]"))]
    assert {type(t).__name__ for t in nodes} == {
        "Abs", "App", "Copy", "Erase", "Subst", "Var"}
    initial = prepare("id", parse_lambda("(\\x.x) (\\y.y)")).initial
    trace = reduce(Configuration(initial), LCF)
    assert trace
    atoms = [a for ts in trace for t in ts.config.erased | {ts.config.term}
             for _, node in subterms(t) for a in getattr(node, "label", None) or ()]
    atoms += [a.inner[0] for a in atoms if type(a) in (Over, Under)]
    assert {type(a).__name__ for a in atoms} == {"Atomic", "Marker", "Over", "Under"}
    records = [r for ts in trace for r in (ts, ts.site, ts.config)]
    for value in nodes + atoms + records:
        assert not hasattr(value, "__dict__"), type(value).__name__


_LABEL = atomic("b")
_VAR = Var("x", atomic("a"))
# each value class with one value for each of its fields, in field order
VALUES = [
    (Var, ("x", _LABEL)), (Abs, ("x", _VAR, _LABEL)), (App, (_VAR, _VAR, _LABEL)),
    (Erase, ("y", _VAR)), (Copy, ("x", "u", "v", _VAR)), (Subst, (_VAR, Var("z"), "x")),
    (Atomic, ("a",)), (Over, (_LABEL,)), (Under, (_LABEL,)), (Marker, (RIGHT, "D")),
    (Configuration, (_VAR, frozenset({Var("y")}))), (RedexSite, ((0, 1), "Beta")),
    (TraceStep, (RedexSite((), "Var"), Configuration(_VAR))),
]


@pytest.mark.parametrize("cls, values", VALUES, ids=[c.__name__ for c, _ in VALUES])
def test_value_classes_build_from_their_fields_and_stay_frozen(cls, values):
    # each class sets its fields through its slots, and is still built,
    # compared, copied and pickled as the dataclass it is
    init = [f for f in fields(cls) if f.init]
    assert len(init) == len(values)
    value = cls(*values)
    assert tuple(getattr(value, f.name) for f in init) == values
    assert cls(**{f.name: v for f, v in zip(init, values)}) == value
    defaults = tuple(f.default for f in init if f.default is not MISSING)
    required = values[:len(init) - len(defaults)]
    assert cls(*required) == cls(*required, *defaults)
    for f in init:
        with pytest.raises(FrozenInstanceError):
            setattr(value, f.name, values[0])
    assert tuple(getattr(value, f.name) for f in init) == values
    for again in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert again == value and hash(again) == hash(value)


def test_no_module_imports_random():
    # every check decides over a stated, enumerated set: no suite samples,
    # so no seed is needed to repeat a report
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and any(
                     alias.name == "random" for alias in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "random"]
    assert importers == []


def test_no_module_reads_the_environment():
    # each flag has one source, the command line
    readers = [path.name for path in sorted(SRC.glob("*.py"))
               if re.search(r"\bos\.(environ|getenv)\b", path.read_text())]
    assert readers == []


def test_every_suite_has_one_budget_named_fuel():
    # --fuel reaches every suite as one parameter, and every search a suite
    # makes takes the same one; a second budget would need a second flag or
    # a value the command line cannot set
    suites = [fn for name, fn in vars(checks).items()
              if name.startswith("check_") and fn.__module__ == checks.__name__]
    assert len(suites) == 9
    searches = [reduce, sigma_walk, normalize_sigma, reduction_graph,
                weight_set, weight_member, levy_normalize]
    assert FUEL == 10_000
    for fn in suites + searches:
        if fn.__name__ in ("check_compile_fidelity", "check_algebra_laws"):
            continue
        params = inspect.signature(fn).parameters
        budgets = [p for p in params.values()
                   if p.name not in ("entries", "calculus", "config", "net",
                                     "target", "term")]
        assert [(p.name, p.default) for p in budgets] == [("fuel", FUEL)], fn.__name__


def test_each_translation_takes_only_a_term():
    # one net per term: no parameter chooses a second form of it
    for translate in (translate_cbv, translate_cbn):
        assert list(inspect.signature(translate).parameters) == ["term"]



# methods the language calls for their class, so reached with it: the
# exceptions to reaching a function by its name
LANGUAGE_HOOKS = {"__init__": "runs when its class is called",
                  "__post_init__": "runs from a dataclass's __init__"}


def _references(nodes) -> set:
    """The identifiers ``nodes`` read: names and attribute names."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in nodes for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_function_in_src_is_reached_from_a_command_or_the_benchmark(
        monkeypatch):
    # a name-level reference graph over src: a top-level function or class
    # is reached when reached code reads its name, a method when its class
    # is reached and reached code reads its name.  The roots are the
    # module-level statements, imports aside, with cli.main, and the names
    # the benchmark reads.
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    defs = {}  # qualified name -> (name, qualified name of its class, node)
    roots = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots.append(node)
                continue
            qualified = f"{path.stem}.{node.name}"
            defs[qualified] = (node.name, None, node)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef):
                    defs[f"{qualified}.{item.name}"] = (item.name, qualified, item)
    reference_imports = {
        alias.name for node in ast.walk(ast.parse((BENCH / "reference.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("goilab")
        for alias in node.names}
    assert {"Box", "Edge", "Net"} <= reference_imports
    names = {"main", *_references(roots), *reference_imports,
             *(part for dotted in (*tracer.LAYER_OF, *RUN_NAMES)
               for part in dotted.split("."))}
    reached = set()
    grown = True
    while grown:
        grown = False
        for qualified, (name, owner, node) in defs.items():
            if owner is None:
                reads = name in names
            else:
                reads = owner in reached and (name in names or name in LANGUAGE_HOOKS)
            if qualified in reached or not reads:
                continue
            reached.add(qualified)
            grown = True
            if isinstance(node, ast.ClassDef):  # its bases, decorators and fields
                read = [*node.bases, *node.decorator_list,
                        *(n for n in node.body if not isinstance(n, ast.FunctionDef))]
            else:
                read = [node]
            names |= _references(read)
    functions = {q for q, (_, _, node) in defs.items() if isinstance(node, ast.FunctionDef)}
    assert sorted(functions - reached) == []
