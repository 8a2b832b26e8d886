"""Machine-checkable property suites over the desk-scale corpus.

Every suite returns ``_report``'s dict: ``ok``, the first ``FAILURES_LISTED``
failure records, ``failures_total`` and the suite's counts.  Every failure
is one ``_failure`` record with the same keys: entry, calculus, rule,
position, a problem kind from ``PROBLEMS``, the type name of the exception
behind it, and a detail.  The CLI and the acceptance tests share these.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .algebra import compose, entry_level_needed, involute, lw
from .calculus import (LCA, LCF, Configuration, FuelExhaustedError, TraceStep,
                       FUEL, reduce, reduction_graph, sigma_walk)
from .corpus import CorpusEntry
from .labelled import label_of
from .labels import (LEFT, MARKER_KINDS, RIGHT, Atomic, Over, Under, concat,
                     format_label, mark, reverse, split_argument_label)
from .nets import closed_cut_step, eligible_cuts, iso_check, translate_cbn, translate_cbv
from .paths import check_invariance, weight_member, weight_set
from .terms import (Abs, App, Copy, Erase, Subst, Term, Var, check_linear,
                    compile_term, format_term, free_vars, subterms, term_size)

IDENTITY_RULES = ("App1", "Lam", "Cpy2", "Ers2")
# source nodes of the largest terms whose reduction graphs must complete
DESK_SIZE = 7
# the total size of the labels criterion 10 reads, every one of them
LAW_LABEL_SIZE = 3
# failure records a report lists; ``failures_total`` counts them all
FAILURES_LISTED = 40
# every failure's problem kind, in the order of the criteria that report it
PROBLEMS = frozenset({
    "miscompiled", "not linear", "free variables changed", "not deterministic",
    "trace fuel exhausted", "sigma fuel exhausted", "closed substitution survives",
    "fuel exhausted at desk size", "distinct sinks", "first atom changed",
    "label ends in a marker", "last atom names another kind", "open substitution",
    "malformed argument label", "variable atom before a malformed argument label",
    "weight set not found", "live words lost", "live words gained",
    "net cannot be built", "nets cannot be compared", "expected identical nets",
    "eligible cut does not step", "no cut step reaches the reduct",
    "final weight not decided", "zero final weight", "final weight not realised",
    "composite row incoherent", "reversal symmetry broken", "W marker did not absorb",
    "label cannot be read",
})


def _failure(problem: str, entry=None, calculus=None, rule=None, position=None,
             error: Optional[Exception] = None, detail=None) -> dict:
    """One failure record.  ``entry`` names the corpus entry, or criterion
    1's golden source; ``position`` is a term position; ``detail``
    defaults to ``error``'s message."""
    return {"entry": entry, "calculus": calculus, "rule": rule,
            "position": position, "problem": problem,
            "error": None if error is None else type(error).__name__,
            "detail": str(error) if detail is None and error else detail}


def _report(failures: list, **counts) -> dict:
    """A suite's report on its failure records and counts."""
    return {"ok": not failures, "failures": failures[:FAILURES_LISTED],
            "failures_total": len(failures), **counts}


def _trace(entry: CorpusEntry, calculus: str, fuel: int) -> Optional[list]:
    """The leftmost-outermost configurations of ``entry`` as ``TraceStep``s,
    the initial one first with no site, or None when ``fuel`` runs out."""
    config = Configuration(entry.initial)
    try:
        return [TraceStep(None, config), *reduce(config, calculus, fuel=fuel)]
    except FuelExhaustedError:
        return None


def _traces(entries: Iterable[CorpusEntry], calculi: Iterable[str], fuel: int,
            failures: list):
    """(entry, calculus, trace) for each entry and calculus in turn.  A trace
    that runs out of ``fuel`` is not yielded; it is a failure, appended to
    ``failures``."""
    for entry in entries:
        for calculus in calculi:
            if (trace := _trace(entry, calculus, fuel)) is None:
                failures.append(_failure("trace fuel exhausted", entry.name, calculus))
            else:
                yield entry, calculus, trace


def _attempted(fn, *args) -> tuple:
    """``(fn(*args), None)``, or ``(None, the exception it raised)``."""
    try:
        return fn(*args), None
    except Exception as exc:  # a suite reports every error as a failure
        return None, exc


# ---------------------------------------------------------------------------
# criterion 1: compilation fidelity

# (source, compiled) golden pairs, built as terms: \x.\y.x compiles to
# \x.\y.eps[y].x, and (\x.x x) (\x.x z) to (\x.copy[x->x1,x2].x1 x2) (\x.x z)
COMPILE_EXPECTED = (
    (Abs("x", Abs("y", Var("x"))),
     Abs("x", Abs("y", Erase("y", Var("x"))))),
    (App(Abs("x", App(Var("x"), Var("x"))), Abs("x", App(Var("x"), Var("z")))),
     App(Abs("x", Copy("x", "x1", "x2", App(Var("x1"), Var("x2")))),
         Abs("x", App(Var("x"), Var("z"))))),
)


def check_compile_fidelity(entries: Iterable[CorpusEntry]) -> dict:
    failures = []
    for source, expected in COMPILE_EXPECTED:
        # unlabelled terms print alike when equal, so only a failure prints
        if (got := compile_term(source)) != expected:
            failures.append(_failure("miscompiled", format_term(source), detail=[
                format_term(got), format_term(expected)]))
    for entry in entries:
        if violations := check_linear(entry.compiled):
            failures.append(_failure("not linear", entry.name, detail=violations))
        if free_vars(entry.compiled) != free_vars(entry.source):
            failures.append(_failure("free variables changed", entry.name))
        # compiled terms carry no labels, so equal terms are equal prints
        if compile_term(entry.source) != entry.compiled:
            failures.append(_failure("not deterministic", entry.name))
    return _report(failures)


# ---------------------------------------------------------------------------
# criterion 2 and 3: sigma termination and propagation

def _sigma_nfs(entries: Iterable[CorpusEntry], fuel: int, failures: list):
    """(entry, calculus, sigma-normal form) for each configuration of each
    trace.  A trace that runs out of fuel yields nothing and a normalisation
    that does yields None; both are reported in ``failures``."""
    for entry, calculus, trace in _traces(entries, (LCF, LCA), fuel, failures):
        for ts, nf in zip(trace, _trace_sigma_nfs(trace, calculus, fuel)):
            if nf is None:
                failures.append(_failure("sigma fuel exhausted", entry.name, calculus,
                                         detail=format_term(ts.config.term, labels=True)))
            yield entry, calculus, nf


def _trace_sigma_nfs(trace: list, calculus: str, fuel: int) -> list:
    """The sigma-normal form of each configuration of a complete
    leftmost-outermost ``trace``, or None where a walk of ``fuel`` steps
    does not reach it, as ``normalize_sigma`` finds them.

    The trace must be complete: its last configuration has no redex under
    the calculus's rules, so none under the sigma rules, a subset of them,
    and it is its own sigma-normal form in 0 steps, whatever the fuel.  The
    trace is walked backwards from there.  A step that is not ``Beta`` is
    also the first step of the sigma walk of the configuration it leaves,
    so that configuration has the normal form of the next one, one step
    further away.  It is reused when that many steps fit ``fuel``;
    otherwise the walk starts afresh."""
    nf, steps = trace[-1].config, 0
    forms = [None] * (len(trace) - 1) + [nf]
    for i in reversed(range(len(trace) - 1)):
        config = trace[i].config
        if nf is not None and trace[i + 1].site.rule != "Beta" and steps < fuel:
            steps += 1
        else:
            try:
                nf, steps = sigma_walk(config, calculus, fuel)
            except FuelExhaustedError:
                nf = steps = None
        forms[i] = nf
    return forms


def check_sigma_termination(entries: Iterable[CorpusEntry],
                            fuel: int = FUEL) -> dict:
    failures = []
    checked = sum(1 for _ in _sigma_nfs(entries, fuel, failures))
    return _report(failures, configurations=checked)


def check_propagation(entries: Iterable[CorpusEntry],
                      fuel: int = FUEL) -> dict:
    failures = []
    for entry, calculus, nf in _sigma_nfs(entries, fuel, failures):
        for pos, t in subterms(nf.term) if nf else ():
            if isinstance(t, Subst) and not free_vars(t.arg):
                failures.append(_failure("closed substitution survives", entry.name,
                                         calculus, position=pos))
    return _report(failures)


# ---------------------------------------------------------------------------
# criterion 4: confluence by exhaustive search

def _graphs(entries: Iterable[CorpusEntry], calculus: str, fuel: int,
            failures: list, exhausted: list):
    """(entry, reduction graph) for each entry whose graph completes within
    ``fuel`` configurations.  An incomplete graph's entry is appended to
    ``exhausted``, unchecked, and at desk size, where that is a failure, to
    ``failures`` too."""
    for entry in entries:
        graph = reduction_graph(Configuration(entry.initial), calculus, fuel=fuel)
        if graph.complete:
            yield entry, graph
        else:
            exhausted.append(entry.name)
            if term_size(entry.source) <= DESK_SIZE:
                failures.append(_failure("fuel exhausted at desk size", entry.name,
                                         calculus))


def check_confluence(entries: Iterable[CorpusEntry], calculus: str,
                     fuel: int = FUEL) -> dict:
    failures, exhausted = [], []
    for entry, graph in _graphs(entries, calculus, fuel, failures, exhausted):
        if len(sinks := graph.sink_terms()) > 1:
            failures.append(_failure("distinct sinks", entry.name, calculus,
                                     detail=sorted(format_term(t, labels=True)
                                                   for t in sinks)))
    return _report(failures, fuel_exhausted=exhausted)


# ---------------------------------------------------------------------------
# criterion 5: label-shape lemmas

def _forward_sequences(label):
    """Atom sequences in reading order, each followed by those nested in
    it; underline blocks hold reversed copies (the Beta rules put history
    there backwards), so they are mirrored before inspection.  A loop over
    an explicit stack, so a deeply nested label takes no recursion."""
    stack = [label]
    while stack:
        seq = stack.pop()
        yield seq
        stack += [atom.inner if isinstance(atom, Over) else reverse(atom.inner)
                  for atom in reversed(seq) if isinstance(atom, (Over, Under))]


def _variable_atom_failures(entry: CorpusEntry, label, position):
    """An ``lcf`` lemma: in each forward sequence of ``label``, what follows
    a variable's atom reads as an unboxed argument label.  Yields a failure
    where it does not."""
    for seq in _forward_sequences(label):
        for i, atom in enumerate(seq[:-1]):
            if isinstance(atom, Atomic) and entry.atom_classes.get(atom.name) == "var":
                suffix = seq[i + 1:]
                if error := _attempted(split_argument_label, suffix, False)[1]:
                    yield _failure("variable atom before a malformed argument label",
                                   entry.name, LCF, position=position, error=error,
                                   detail=[atom.name, format_label(suffix), str(error)])


def _label_failures(entry: CorpusEntry, calculus: str, term: Term) -> list:
    """The failures of one configuration's ``term``, the variable-atom
    ones last."""
    where = entry.name, calculus
    failures, atom_failures = [], []
    if violations := check_linear(term):
        failures.append(_failure("not linear", *where, detail=violations))
    first = label_of(term)[0]
    if not (isinstance(first, Atomic) and first.name == entry.root_atom):
        failures.append(_failure("first atom changed", *where,
                                 detail=[format_label((first,)), entry.root_atom]))
    for pos, t in subterms(term):
        label = getattr(t, "label", None)
        if label is not None:
            last = label[-1]
            cls = type(t).__name__.lower()
            if not isinstance(last, Atomic):
                failures.append(_failure("label ends in a marker", *where, position=pos))
            elif (marked := entry.atom_classes.get(last.name)) != cls:
                failures.append(_failure("last atom names another kind", *where,
                                         position=pos, detail=[last.name, marked, cls]))
            if calculus == LCF:
                atom_failures += _variable_atom_failures(entry, label, pos)
        if isinstance(t, Subst):
            if calculus == LCA and free_vars(t.arg):
                failures.append(_failure("open substitution", *where, position=pos))
            arg_label = label_of(t.arg)
            if error := _attempted(split_argument_label, arg_label, calculus == LCA)[1]:
                failures.append(_failure("malformed argument label", *where, position=pos,
                                         error=error,
                                         detail=[format_label(arg_label), str(error)]))
    return failures + atom_failures


def check_label_lemmas(entries: Iterable[CorpusEntry], calculus: str,
                       fuel: int = FUEL) -> dict:
    failures = []
    for entry, _, trace in _traces(entries, (calculus,), fuel, failures):
        for ts in trace:
            failures += _label_failures(entry, calculus, ts.config.term)
    return _report(failures)


# ---------------------------------------------------------------------------
# criteria 6 and 7: weight-set invariance per reduction step

def _step_edges(entry: CorpusEntry, calculus: str, fuel: int, failures: list):
    """Reduction steps to check: the exhaustive graph up to ``fuel``
    configurations, and when that cuts it short, the leftmost-outermost
    trace of up to ``fuel`` steps too.  A complete graph holds every step
    of the trace already.  When the trace runs out of fuel as well, that
    failure is appended to ``failures`` after the graph's steps."""
    seen = set()
    graph = reduction_graph(Configuration(entry.initial), calculus, fuel=fuel)
    for src, site, dst in graph.steps():
        key = (src.term, site, dst.term)
        if key not in seen:
            seen.add(key)
            yield key
    if graph.complete:
        return
    if (trace := _trace(entry, calculus, fuel)) is None:
        failures.append(_failure("trace fuel exhausted", entry.name, calculus))
        return
    for before, ts in zip(trace, trace[1:]):
        key = (before.config.term, ts.site, ts.config.term)
        if key not in seen:
            seen.add(key)
            yield key


def check_weight_invariance(entries: Iterable[CorpusEntry], calculus: str,
                            fuel: int = FUEL) -> dict:
    """Per-step equality of the live weight sets.

    For every checked step the live words of interface-to-interface
    straight paths, those not null in the dynamic algebra, are found on
    both nets and must be equal.  Each term's net is translated and
    searched once per call, however many steps touch it.  A step fails on
    the live words found on one side only, or on the error that stopped a
    translation or search, a search of more than ``fuel`` visits among
    them.  A trace that runs out of ``fuel``, read when ``fuel``
    configurations cut the graph short, fails its entry."""
    translate = translate_cbv if calculus == LCF else translate_cbn
    failures = []
    words_cache = {}  # term -> (weight set of its net, None), or (None, its error)
    checked = 0

    def words_of(term):
        if term not in words_cache:  # fuel or translation trouble is a failure
            words_cache[term] = _attempted(lambda: weight_set(translate(term), fuel))
        return words_cache[term]

    for entry in entries:
        for src, site, dst in _step_edges(entry, calculus, fuel, failures):
            checked += 1
            where = entry.name, calculus, site.rule, site.position
            (left, left_error), (right, right_error) = words_of(src), words_of(dst)
            if error := left_error or right_error:
                failures.append(_failure("weight set not found", *where, error=error))
                continue
            report = check_invariance(left, right)
            if not report["live_equal"]:
                gained = report["live_right_only"]
                failures.append(_failure(
                    "live words gained" if gained else "live words lost", *where,
                    detail={"lost": report["live_left_only"], "gained": gained}))
    # reduction may lose live weights but never invents them
    return _report(failures, steps_checked=checked, containment_ok=all(
        f["problem"] != "live words gained" for f in failures),
        failing_rules=sorted({f["rule"] for f in failures if f["rule"]}))


# ---------------------------------------------------------------------------
# criterion 8: closed cut elimination on weighted nets simulates lca

def check_net_simulation(entries: Iterable[CorpusEntry],
                         fuel: int = FUEL) -> dict:
    """Closed cut elimination on weighted call-by-name nets simulates every
    labelled ``lca`` step.  Each term is translated, and its net's eligible
    cuts stepped, once per call.  An entry whose graph outgrows ``fuel``
    configurations is listed under ``fuel_exhausted``, unchecked; at desk
    size that is a failure, as in criterion 4 (``_graphs``).  A net that
    cannot be built, or a pair that ``iso_check`` cannot compare, a stepped
    net ``validate`` rejects among them, fails the step that reads it."""
    failures, exhausted, checked = [], [], 0
    net_cache = {}  # term -> (its net, None), or (None, its translation's error)
    stepped = {}  # term -> (net, error) of its net stepped at each eligible cut

    def net_of(term):
        if term not in net_cache:
            net_cache[term] = _attempted(translate_cbn, term)
        return net_cache[term]

    def same_net(a, b, where) -> Optional[bool]:
        """``iso_check``, or None once the error it raised is reported."""
        same, error = _attempted(iso_check, a, b)
        if error:
            failures.append(_failure("nets cannot be compared", *where, error=error))
        return same

    for entry, graph in _graphs(entries, LCA, fuel, failures, exhausted):
        for src, site, dst in graph.steps():
            checked += 1
            (left, left_error), (right, right_error) = net_of(src.term), net_of(dst.term)
            where = entry.name, LCA, site.rule, site.position
            if error := left_error or right_error:
                failures.append(_failure("net cannot be built", *where, error=error))
                continue
            if site.rule in IDENTITY_RULES:
                if same_net(left, right, where) is False:
                    failures.append(_failure("expected identical nets", *where))
                continue
            if src.term not in stepped:
                stepped[src.term] = [_attempted(closed_cut_step, left, cut)
                                     for cut in eligible_cuts(left)]
            hits = 0
            for rewritten, error in stepped[src.term]:
                if error:  # an eligible cut must step
                    failures.append(_failure("eligible cut does not step", *where,
                                             error=error))
                elif same_net(rewritten, right, where):
                    hits += 1
            if hits == 0:
                failures.append(_failure("no cut step reaches the reduct", *where))
    return _report(failures, steps_checked=checked, fuel_exhausted=exhausted)


# ---------------------------------------------------------------------------
# criterion 9: end-to-end label/path agreement

def check_goi_end_to_end(entries: Iterable[CorpusEntry],
                         fuel: int = FUEL) -> dict:
    """Criterion 9: under ``lcf`` (call-by-value net) and ``lca``
    (call-by-name net), the weight of each entry's final external label is
    realised by a straight path from the root of the initial term's net.
    A trace out of ``fuel``, a zero weight and any exception, such as a
    level underflow or a search of more than ``fuel`` visits, fail a pair
    too.
    ``checked`` counts the pairs whose word was decided, realised or not."""
    failures = []
    checked = 0
    for entry, calculus, trace in _traces(entries, (LCF, LCA), fuel, failures):
        translate = translate_cbv if calculus == LCF else translate_cbn
        realised, error = _attempted(_label_realised, trace[-1].config.term,
                                     entry.initial, translate, fuel)
        if error:
            failures.append(_failure("final weight not decided", entry.name, calculus,
                                     error=error))
        elif realised is None:
            failures.append(_failure("zero final weight", entry.name, calculus))
        else:
            checked += 1
            if not realised:
                failures.append(_failure("final weight not realised", entry.name,
                                         calculus))
    return _report(failures, checked=checked)


def _label_realised(final: Term, initial: Term, translate,
                    fuel: int) -> Optional[bool]:
    """Whether a straight path from the root of ``translate(initial)``
    realises the weight of ``final``'s label, found within ``fuel`` visits,
    or None when that weight is zero.  An empty weight is realised by the
    empty path, so the net is built only for a non-empty word."""
    weight = lw(label_of(final), 0).weight
    if weight is None:
        return None
    return not weight or weight_member(translate(initial), weight, fuel)


# ---------------------------------------------------------------------------
# criterion 10: the label-to-weight map respects concatenation and reversal

def _short_labels(size: int) -> list:
    """Every label of total size at most ``size``, smaller ones first, over
    one atomic name and the ten markers but W; an over- or underline
    counts 1 plus its inside.  Built bottom-up, one size after another."""
    atoms = [[], [Atomic("a"), *(mark(direction, kind)[0] for direction in (RIGHT, LEFT)
                                 for kind in MARKER_KINDS if kind != "W")]]
    labels = [[()]]  # the labels of each size, from 0
    for n in range(1, size + 1):
        labels.append([(atom, *rest) for k in range(1, n + 1)
                       for atom in atoms[k] for rest in labels[n - k]])
        atoms.append([line(label) for line in (Over, Under) for label in labels[n]])
    return [label for sized in labels[1:] for label in sized]


def check_algebra_laws() -> dict:
    """Criterion 10: on every label of total size at most ``LAW_LABEL_SIZE``,
    read from the least level it needs, ``lw`` of a concatenation composes
    ``lw`` of its two parts at every cut, ``lw`` of the reversal is the
    involution, read back to the entry level, and a leading W marker reads
    0.  A failure's ``detail`` is the printed label and the law it breaks,
    then, for a composite row, the number of atoms before the cut.  The
    smaller labels come first, so the first failure names a smallest
    label.  A label whose reading raises is one failure, its detail the
    printed label and the error's message, and the next label is read."""
    failures = []
    labels = _short_labels(LAW_LABEL_SIZE)
    for label in labels:
        printed = format_label(label)
        found, error = _attempted(_law_failures, label, printed)
        if error:
            failures.append(_failure("label cannot be read", error=error,
                                     detail=[printed, str(error)]))
        else:
            failures += found
    return _report(failures, labels=len(labels))


def _law_failures(label: tuple, printed: str) -> list:
    """Criterion 10's failures on one label, printed as ``printed``."""
    failures = []
    level = entry_level_needed(label)
    full = lw(label, level)
    for cut in range(1, len(label)):
        left = lw(label[:cut], level)
        right = lw(label[cut:], left.out_level)
        if (compose(left.weight, right.weight), right.out_level) != full:
            failures.append(_failure("composite row incoherent", detail=[
                printed, "lw(u.v) = lw(u).lw(v)", cut]))
    if lw(reverse(label), full.out_level) != (involute(full.weight), level):
        failures.append(_failure("reversal symmetry broken", detail=[
            printed, "lw(reverse(u)) = involute(lw(u))"]))
    if lw(concat(mark(RIGHT, "W"), label), level).weight is not None:
        failures.append(_failure("W marker did not absorb", detail=[
            printed, "lw(W>.u) = 0"]))
    return failures
