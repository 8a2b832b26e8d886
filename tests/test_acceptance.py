"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``criterion NN ... PASS/FAIL`` line (visible with
``pytest -s``; the -v test names mirror them).  Criteria 6 and 7 compare,
step by step, the complete sets of live words of the two nets: the static
words of interface-to-interface straight paths that are not null in the
dynamic algebra.  A reduction step removes paths whose weight is null (they
bounce off a removed multiplicative pair or box), and only the non-null
words are observed (README, Weight invariance).  Each test pins the
digest of every report it computes, so a change to any report field fails
here.
"""

import hashlib
import json
import time

import pytest

from goilab.algebra import LevelUnderflowError
from goilab.calculus import LCA, LCF, Configuration, reduction_graph
from goilab.checks import (check_algebra_laws, check_compile_fidelity,
                           check_confluence, check_goi_end_to_end,
                           check_label_lemmas, check_net_simulation,
                           check_propagation, check_sigma_termination,
                           check_weight_invariance)
from goilab.corpus import _terms, corpus, prepare
from goilab.nets import NetError, translate_cbn
from goilab.terms import parse_lambda

CORPUS = None


def entries():
    global CORPUS
    if CORPUS is None:
        CORPUS = corpus(max_size=7)
    return CORPUS


def digests(*reports):
    """The first 16 hex digits of the SHA-256 of each report's sorted JSON:
    a report that changes in any field changes its digest."""
    return [hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()[:16]
            for r in reports]


# the digest of a report that passes with no counts
CLEAN = "bd390f77257dfb02"


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {status}{' — ' + detail if detail else ''}")


def test_criterion_01_compile_fidelity():
    start = time.time()
    r = check_compile_fidelity(entries())
    elapsed = time.time() - start
    report_line(1, "compilation fidelity", r["ok"], f"{elapsed:.2f}s")
    assert r["ok"], r["failures"][:5]
    assert elapsed <= 1.0, f"criterion 1 must finish within 1s, took {elapsed:.2f}s"
    assert digests(r) == [CLEAN]


def test_criterion_02_sigma_termination():
    start = time.time()
    r = check_sigma_termination(entries())
    elapsed = time.time() - start
    report_line(2, "sigma termination", r["ok"],
                f"{r['configurations']} configurations, {elapsed:.1f}s")
    assert r["ok"], r["failures"][:5]
    assert elapsed <= 30.0
    assert digests(r) == ["f7063fd2a9451374"]


def test_criterion_03_propagation():
    r = check_propagation(entries())
    report_line(3, "closed substitutions propagate", r["ok"])
    assert r["ok"], r["failures"][:5]
    assert digests(r) == [CLEAN]


def test_criterion_04_confluence():
    start = time.time()
    ra = check_confluence(entries(), LCF, fuel=10_000)
    rb = check_confluence(entries(), LCA, fuel=10_000)
    elapsed = time.time() - start
    ok = ra["ok"] and rb["ok"]
    report_line(4, "confluence by exhaustive search", ok,
                f"exhausted={ra['fuel_exhausted'] + rb['fuel_exhausted']}, {elapsed:.1f}s")
    assert ok, (ra["failures"] + rb["failures"])[:5]
    assert elapsed <= 300.0
    assert digests(ra, rb) == ["945a4941b733f749", "945a4941b733f749"]


def test_criterion_05_label_shape_lemmas():
    ra = check_label_lemmas(entries(), LCF)
    rb = check_label_lemmas(entries(), LCA)
    ok = ra["ok"] and rb["ok"]
    report_line(5, "label-shape lemmas", ok)
    assert ok, (ra["failures"] + rb["failures"])[:5]
    assert digests(ra, rb) == [CLEAN, CLEAN]


def _failing_steps(r):
    """Entry, rule, position and problem of each failure listed, with one
    differing live word on each side or the error."""
    lines = []
    for f in r["failures"]:
        step = f" {f['rule']} at {f['position']}" if f["rule"] else ""
        words = f["detail"] if isinstance(f["detail"], dict) else {}
        what = [f"{f['error']}: {f['detail']}"] if f["error"] else [
            f"{side} {found[0]}" for side, found in words.items() if found]
        lines.append(f"{f['entry']}{step}: {', '.join([f['problem'], *what])}")
    return "; ".join(lines)


def _invariance_detail(r, elapsed):
    return (f"{r['steps_checked']} steps, "
            f"failing rules {r['failing_rules']}, {elapsed:.1f}s")


def test_criterion_06_weight_invariance_lcf_cbv():
    start = time.time()
    r = check_weight_invariance(entries(), LCF)
    elapsed = time.time() - start
    report_line(6, "step invariance of live weight sets (lcf/cbv)", r["ok"],
                _invariance_detail(r, elapsed))
    assert elapsed <= 600.0
    assert r["ok"], (
        f"live weight sets differ on {r['failures_total']} steps "
        f"(rules {r['failing_rules']}): {_failing_steps(r)}")
    assert digests(r) == ["f3a618a3c8093eb7"]


def test_criterion_07_weight_invariance_lca_cbn():
    start = time.time()
    r = check_weight_invariance(entries(), LCA)
    elapsed = time.time() - start
    report_line(7, "step invariance of live weight sets (lca/cbn)", r["ok"],
                _invariance_detail(r, elapsed))
    assert elapsed <= 600.0
    assert r["ok"], (
        f"live weight sets differ on {r['failures_total']} steps "
        f"(rules {r['failing_rules']}): {_failing_steps(r)}")
    assert digests(r) == ["955a0ac78d47e2d6"]


def test_criteria_06_07_weight_invariance_on_the_size_8_corpus():
    # beyond the desk corpus: no step of either calculus loses or invents a
    # live weight (README, Weight invariance)
    size_8 = corpus(max_size=8)
    reports = []
    for number, calculus, name in ((6, LCF, "lcf/cbv"), (7, LCA, "lca/cbn")):
        start = time.time()
        r = check_weight_invariance(size_8, calculus)
        elapsed = time.time() - start
        reports.append(r)
        report_line(number, f"step invariance on corpus(8) ({name})", r["ok"],
                    _invariance_detail(r, elapsed))
        assert r["ok"], (
            f"live weight sets differ on {r['failures_total']} steps "
            f"(rules {r['failing_rules']}): {_failing_steps(r)}")
    assert digests(*reports) == ["fddbfde884055921", "9b13665f7ae586ac"]


def test_criterion_08_closed_cut_elimination_simulation():
    start = time.time()
    r = check_net_simulation(entries())
    elapsed = time.time() - start
    report_line(8, "closed cut elimination on weighted nets simulates lca",
                r["ok"], f"{r['steps_checked']} steps, {elapsed:.1f}s")
    assert r["ok"], r["failures"][:5]
    assert digests(r) == ["92ccba83b58b04fa"]


def test_criterion_09_label_describes_a_path():
    start = time.time()
    r = check_goi_end_to_end(entries())
    elapsed = time.time() - start
    report_line(9, "final labels name straight paths of the initial net",
                r["ok"], f"{r['checked']} normal forms, {elapsed:.1f}s")
    assert r["ok"], r["failures"][:5]
    assert digests(r) == ["05dfb4b91def04bd"]


# ROADMAP item 20: the (calculus, entry number) pairs of the open terms whose
# final weight criterion 9 finds no straight path for, by how many free
# names the terms may have
OPEN_FAILURES = {
    1: {(LCF, i) for i in (159, 176, 554, 555, 557, 595, 624, 625, 632)}
    | {(LCA, i) for i in (596, 598, 600)},
    2: {(LCF, i) for i in (354, 355, 356, 357, 408, 409)},
}


# the report digests of each run, criterion 9's last
OPEN_DIGESTS = {
    1: [CLEAN, "cf2018d8e83e1817", CLEAN, "ba7dae18c0ab8f80", "945a4941b733f749", CLEAN,
        "1b1a90a7495451dd", "945a4941b733f749", CLEAN, "297c44060e6561b3",
        "62e42daee9e987af"],
    2: [CLEAN, "1d917e8942377158", CLEAN, "64e2b7a38f8023c1", "945a4941b733f749", CLEAN,
        "8b2acd6afaf53106", "945a4941b733f749", CLEAN, "abacba86383b378a",
        "22cde3da300cea68"]}


@pytest.mark.parametrize("free_names, max_size", [(1, 7), (2, 6)])
def test_criteria_on_open_terms(free_names, max_size):
    # the terms of up to max_size nodes whose free names are among x0 to
    # x{free_names - 1}, numbered over all sizes in enumeration order:
    # criteria 1-8 pass, and criterion 9 fails on exactly the stated pairs
    terms = (t for size in range(1, max_size + 1) for t in _terms(size, free_names))
    entries = [prepare(f"open{free_names}_{i:03d}", t) for i, t in enumerate(terms)]
    reports = [check_compile_fidelity(entries), check_sigma_termination(entries),
               check_propagation(entries), check_net_simulation(entries),
               *(check(entries, calculus) for calculus in (LCF, LCA) for check in
                 (check_confluence, check_label_lemmas, check_weight_invariance))]
    assert [r["failures"] for r in reports] == [[]] * len(reports)
    r = check_goi_end_to_end(entries)
    report_line(9, f"final labels on terms with {free_names} free names", r["ok"],
                f"{r['failures_total']} of {r['checked']} pairs not realised")
    assert r["checked"] == 2 * len(entries)
    assert r["failures_total"] == len(OPEN_FAILURES[free_names])
    assert {(f["calculus"], int(f["entry"].split("_")[1]), f["problem"])
            for f in r["failures"]} == {(calculus, i, "final weight not realised")
                                        for calculus, i in OPEN_FAILURES[free_names]}
    assert digests(*reports, r) == OPEN_DIGESTS[free_names]


TWO, THREE = "(\\f.\\x.f (f x))", "(\\g.\\y.g (g (g y)))"
CHURCH = {"succ_two": f"(\\n.\\f.\\x.f (n f x)) {TWO}",
          "plus_two_two": f"(\\m.\\n.\\f.\\x.m f (n f x)) {TWO} {TWO}",
          "mult_two_three": f"(\\m.\\n.\\f.m (n f)) {TWO} {THREE}",
          "two_three": f"{TWO} {THREE}",
          "three_two": f"{THREE} {TWO}"}


def _top_cbn_level(entry):
    """The highest level of an atom in the weights of the cbn nets of the
    ``lca`` graph of ``entry``."""
    levels = [0]
    for config in reduction_graph(Configuration(entry.initial), LCA).edges:
        try:
            net = translate_cbn(config.term)
        except (NetError, LevelUnderflowError):
            continue
        levels += [level for e in net.edges.values() if e.weight
                   for _, _, level in e.weight]
    return max(levels)


def test_criteria_on_church_arithmetic():
    # Church numerals under successor, addition, multiplication and
    # exponentiation, none of them in the corpus: criteria 1-9 pass within
    # the default fuel.  Exponentiation and multiplication nest boxes one
    # level deeper than any corpus(8) graph reaches
    entries = [prepare(name, parse_lambda(text)) for name, text in CHURCH.items()]
    reports = [check_compile_fidelity(entries), check_sigma_termination(entries),
               check_propagation(entries), check_net_simulation(entries),
               check_goi_end_to_end(entries),
               *(check(entries, calculus) for calculus in (LCF, LCA) for check in
                 (check_confluence, check_label_lemmas, check_weight_invariance))]
    assert [r["failures"] for r in reports] == [[]] * len(reports)
    assert all(r["ok"] and not r.get("fuel_exhausted") for r in reports)
    tops = {entry.name: _top_cbn_level(entry) for entry in entries}
    assert tops["two_three"] == tops["mult_two_three"] == 4
    assert max(_top_cbn_level(entry) for entry in corpus(max_size=8)) <= 3
    assert digests(*reports) == [
        CLEAN, "d7903edf41fb6a43", CLEAN, "5eb50b395d033f8e", "61f896b4c09006a5",
        "945a4941b733f749", CLEAN, "5166a0dca333a6bd", "945a4941b733f749", CLEAN,
        "dfb3458dd57b75f6"]


def test_criterion_10_algebra_unit_laws():
    r = check_algebra_laws()
    report_line(10, f"lw laws on every label of size at most 3, {r['labels']} of them",
                r["ok"])
    assert r["ok"], r["failures"][:5]
    assert r["labels"] == 2_255
    assert digests(r) == ["15135be82f7512d3"]
