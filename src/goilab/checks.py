"""Machine-checkable property suites over the desk-scale corpus.

Each check returns a report dict with an ``ok`` flag plus enough detail to
diagnose a failure; the CLI and the acceptance tests share these.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from .algebra import (ONE, ZERO, compose, entry_level_needed, involute,
                      lw, watom)
from .calculus import (LCA, LCF, Configuration, FuelExhaustedError, TraceStep,
                       FUEL, default_sigma_fuel, reduce, reduction_graph, sigma_walk)
from .corpus import CorpusEntry
from .labelled import label_of
from .labels import (ArgumentLabelError, Atomic, Over, RIGHT, Under,
                     concat, format_label, mark, reverse,
                     split_argument_label)
from .nets import (closed_cut_step, eligible_cuts, iso_check, translate_cbn,
                   translate_cbv)
from .paths import check_invariance, weight_member, weight_set
from .terms import (Abs, App, Copy, Erase, Subst, Term, Var, check_linear,
                    compile_term, format_term, free_vars, subterms, term_size)

IDENTITY_RULES = ("App1", "Lam", "Cpy2", "Ers2")
# source nodes of the largest terms whose reduction graphs must complete
DESK_SIZE = 7
# random samples of the algebra laws, criterion 10
ALGEBRA_SAMPLES = 1000


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
                failures.append(f"{entry.name}/{calculus}: trace fuel exhausted")
            else:
                yield entry, calculus, trace


def _attempted(fn, *args):
    """``fn(*args)``, or the exception it raised as ``"<Type>: <message>"``."""
    try:
        return fn(*args)
    except Exception as exc:  # a suite reports every error as a failure
        return f"{type(exc).__name__}: {exc}"


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
        # unlabelled terms: equal terms print alike, so printing only words
        # a failure
        if (got := compile_term(source)) != expected:
            failures.append(f"compile({format_term(source)!r}) printed "
                            f"{format_term(got)!r}, wanted {format_term(expected)!r}")
    for entry in entries:
        violations = check_linear(entry.compiled)
        if violations:
            failures.append(f"{entry.name}: linearity violations {violations}")
        if free_vars(entry.compiled) != free_vars(entry.source):
            failures.append(f"{entry.name}: free variables changed by compilation")
        # compiled terms carry no labels, so equal terms are equal prints
        if compile_term(entry.source) != entry.compiled:
            failures.append(f"{entry.name}: compilation not deterministic")
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# criterion 2 and 3: sigma termination and propagation

def _sigma_nfs(entries: Iterable[CorpusEntry], fuel: int, failures: list):
    """(entry, calculus, sigma-normal form) for each configuration of each
    trace.  A trace that runs out of fuel yields nothing and a normalisation
    that does yields None; both are reported in ``failures``."""
    for entry, calculus, trace in _traces(entries, (LCF, LCA), fuel, failures):
        for ts, nf in zip(trace, _trace_sigma_nfs(trace, calculus)):
            if nf is None:
                failures.append(f"{entry.name}/{calculus}: sigma fuel exhausted "
                                f"on {format_term(ts.config.term, labels=True)}")
            yield entry, calculus, nf


def _trace_sigma_nfs(trace: list, calculus: str) -> list:
    """The sigma-normal form of each configuration of a complete
    leftmost-outermost ``trace``, or None where ``default_sigma_fuel`` runs
    out, as ``normalize_sigma`` finds them.

    The trace must be complete: its last configuration has no redex under
    the calculus's rules, so none under the sigma rules, a subset of them,
    and it is its own sigma-normal form in 0 steps, whatever the fuel.  The
    trace is walked backwards from there.  A step that is not ``Beta`` is
    also the first step of the sigma walk of the configuration it leaves,
    so that configuration has the normal form of the next one, one step
    further away.  It is reused when that many steps fit the
    configuration's own fuel; otherwise the walk starts afresh."""
    nf, steps = trace[-1].config, 0
    forms = [None] * (len(trace) - 1) + [nf]
    for i in reversed(range(len(trace) - 1)):
        config = trace[i].config
        if (nf is not None and trace[i + 1].site.rule != "Beta"
                and steps < default_sigma_fuel(config.term)):
            steps += 1
        else:
            try:
                nf, steps = sigma_walk(config, calculus)
            except FuelExhaustedError:
                nf = steps = None
        forms[i] = nf
    return forms


def check_sigma_termination(entries: Iterable[CorpusEntry],
                            fuel: int = FUEL) -> dict:
    failures = []
    checked = sum(1 for _ in _sigma_nfs(entries, fuel, failures))
    return {"ok": not failures, "failures": failures, "configurations": checked}


def check_propagation(entries: Iterable[CorpusEntry],
                      fuel: int = FUEL) -> dict:
    failures = []
    for entry, calculus, nf in _sigma_nfs(entries, fuel, failures):
        for pos, t in subterms(nf.term) if nf else ():
            if isinstance(t, Subst) and not free_vars(t.arg):
                failures.append(f"{entry.name}/{calculus}: closed substitution "
                                f"survives sigma normalisation at {pos}")
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# criterion 4: confluence by exhaustive search

def _graphs(entries: Iterable[CorpusEntry], calculus: str, fuel: int,
            exhausted: list):
    """(entry, reduction graph) for each entry in turn.  A graph that
    outgrows ``fuel`` configurations is incomplete: its entry is appended
    to ``exhausted``, unchecked, and yielded with None for its graph only
    at desk size, where that is a failure."""
    for entry in entries:
        graph = reduction_graph(Configuration(entry.initial), calculus,
                                max_configs=fuel)
        if graph.complete:
            yield entry, graph
        else:
            exhausted.append(entry.name)
            if term_size(entry.source) <= DESK_SIZE:
                yield entry, None


def check_confluence(entries: Iterable[CorpusEntry], calculus: str,
                     fuel: int = FUEL) -> dict:
    failures = []
    exhausted = []
    for entry, graph in _graphs(entries, calculus, fuel, exhausted):
        if graph is None:
            failures.append(f"{entry.name}: fuel exhausted at desk size")
        elif len(sinks := graph.sink_terms()) > 1:
            failures.append(f"{entry.name}: {len(sinks)} distinct sinks")
    return {"ok": not failures, "failures": failures, "fuel_exhausted": exhausted}


# ---------------------------------------------------------------------------
# criterion 5: label-shape lemmas

def _argument_problem(label, boxed: bool) -> Optional[str]:
    try:
        split_argument_label(label, boxed)
    except ArgumentLabelError as exc:
        return str(exc)
    return None


def _forward_sequences(label):
    """Atom sequences in reading order; underline blocks hold reversed
    copies (the Beta rules put history there backwards), so they are
    mirrored before inspection."""
    yield label
    for atom in label:
        if isinstance(atom, Over):
            yield from _forward_sequences(atom.inner)
        elif isinstance(atom, Under):
            yield from _forward_sequences(reverse(atom.inner))


def _variable_atom_problems(entry: CorpusEntry, label) -> list:
    """An ``lcf`` lemma: in each forward sequence of ``label``, what follows
    a variable's atom reads as an unboxed argument label."""
    problems = []
    for seq in _forward_sequences(label):
        for i, atom in enumerate(seq):
            if (isinstance(atom, Atomic)
                    and entry.atom_classes.get(atom.name) == "var"
                    and i + 1 < len(seq)):
                suffix = seq[i + 1:]
                problem = _argument_problem(suffix, boxed=False)
                if problem:
                    problems.append(
                        f"{entry.name}/lcf: variable atom {atom.name} followed "
                        f"by {format_label(suffix)} ({problem})")
    return problems


def check_label_lemmas(entries: Iterable[CorpusEntry], calculus: str,
                       fuel: int = FUEL) -> dict:
    failures = []
    for entry, _, trace in _traces(entries, (calculus,), fuel, failures):
        where = f"{entry.name}/{calculus}"
        for ts in trace:
            c = ts.config
            if check_linear(c.term):
                failures.append(f"{where}: linearity broken")
            root = label_of(c.term)
            first = root[0]
            if not (isinstance(first, Atomic) and first.name == entry.root_atom):
                failures.append(f"{where}: first label is {format_label((first,))}"
                                f", expected {entry.root_atom}")
            atom_failures = []  # reported after the configuration's others
            for pos, t in subterms(c.term):
                label = getattr(t, "label", None)
                if label is not None:
                    last = label[-1]
                    cls = type(t).__name__.lower()
                    if not isinstance(last, Atomic):
                        failures.append(f"{where}: label at {pos} ends in a marker")
                    elif entry.atom_classes.get(last.name) != cls:
                        failures.append(
                            f"{where}: last atom {last.name} marks a "
                            f"{entry.atom_classes.get(last.name)}, found {cls}")
                    if calculus == LCF:
                        atom_failures += _variable_atom_problems(entry, label)
                if isinstance(t, Subst):
                    if calculus == LCA and free_vars(t.arg):
                        failures.append(f"{where}: open substitution at {pos}")
                    arg_label = label_of(t.arg)
                    problem = _argument_problem(arg_label, boxed=(calculus == LCA))
                    if problem:
                        failures.append(
                            f"{where}: argument label {format_label(arg_label)}"
                            f" at {pos}: {problem}")
            failures += atom_failures
    return {"ok": not failures, "failures": failures[:50]}


# ---------------------------------------------------------------------------
# criteria 6 and 7: weight-set invariance per reduction step

def _step_edges(entry: CorpusEntry, calculus: str, fuel: int):
    """Reduction steps to check: the exhaustive graph up to ``fuel``
    configurations, and when that cuts it short, the leftmost-outermost
    trace of up to ``fuel`` steps too.  A complete graph holds every step
    of the trace already.  When the trace runs out of fuel as well,
    ``FuelExhaustedError`` follows the graph's steps."""
    seen = set()
    graph = reduction_graph(Configuration(entry.initial), calculus,
                            max_configs=fuel)
    for src, site, dst in graph.steps():
        key = (src.term, site, dst.term)
        if key not in seen:
            seen.add(key)
            yield key
    if graph.complete:
        return
    if (trace := _trace(entry, calculus, fuel)) is None:
        raise FuelExhaustedError("trace fuel exhausted")
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
    searched once per call, however many steps touch it.  A failure names
    the term, rule and position of the step and the live words found on
    one side only, or the error that stopped the step: a search that runs
    out of ``paths.MAX_EXPANSIONS`` is one, and so is a trace that runs out
    of ``fuel`` when ``fuel`` configurations cut the graph short.
    """
    translate = translate_cbv if calculus == LCF else translate_cbn
    failures = []
    words_cache = {}  # term -> weight set of its net, or the error it raised
    checked = 0

    def words_of(term):
        if term not in words_cache:  # budget or translation trouble is a failure
            words_cache[term] = _attempted(lambda: weight_set(translate(term)))
        return words_cache[term]

    for entry in entries:
        steps = _step_edges(entry, calculus, fuel)
        try:
            for src, site, dst in steps:
                checked += 1
                where = {"term": entry.name, "rule": site.rule,
                         "position": list(site.position)}
                left, right = words_of(src), words_of(dst)
                if isinstance(left, str) or isinstance(right, str):
                    failures.append({**where, "error": left
                                     if isinstance(left, str) else right})
                    continue
                report = check_invariance(left, right)
                if not report["live_equal"]:
                    failures.append({
                        **where,
                        "left_only": report["live_left_only"][:4],
                        "right_only": report["live_right_only"][:4],
                    })
        except FuelExhaustedError as exc:
            failures.append({"term": entry.name, "error": str(exc)})
    # reduction may lose live weights but never invents them
    containment = all(not f.get("right_only") for f in failures)
    return {"ok": not failures, "failures": failures[:40], "steps_checked": checked,
            "containment_ok": containment,
            "failing_rules": sorted({f["rule"] for f in failures if "rule" in f})}


# ---------------------------------------------------------------------------
# criterion 8: closed cut elimination on weighted nets simulates lca

def check_net_simulation(entries: Iterable[CorpusEntry],
                         fuel: int = FUEL) -> dict:
    """Closed cut elimination on weighted call-by-name nets simulates every
    labelled ``lca`` step.  Each term is translated, and its net's eligible
    cuts stepped, once per call.  An entry whose graph outgrows ``fuel``
    configurations is listed under ``fuel_exhausted``, unchecked; at desk
    size that is a failure, as in criterion 4 (``_graphs``).  A net that
    cannot be built, or a pair that ``iso_check`` cannot compare, fails the
    step that reads it.  ``iso_check`` refuses every net ``validate``
    rejects, so a stepped net that is malformed fails as a pair that cannot
    be compared, with ``validate``'s problems as its error."""
    failures = []
    exhausted = []
    checked = 0
    net_cache = {}  # term -> its net, or the error its translation raised
    stepped = {}  # term -> its net stepped at each eligible cut, or the error

    def net_of(term):
        if term not in net_cache:
            net_cache[term] = _attempted(translate_cbn, term)
        return net_cache[term]

    def same_net(a, b, where) -> Optional[bool]:
        """``iso_check``, or None once the error it raised is reported."""
        if isinstance(same := _attempted(iso_check, a, b), str):
            failures.append({**where, "problem": "nets cannot be compared",
                             "error": same})
            return None
        return same

    for entry, graph in _graphs(entries, LCA, fuel, exhausted):
        if graph is None:
            failures.append({"term": entry.name,
                             "problem": "fuel exhausted at desk size"})
            continue
        for src, site, dst in graph.steps():
            checked += 1
            left, right = net_of(src.term), net_of(dst.term)
            where = {"term": entry.name, "rule": site.rule}
            if error := next((n for n in (left, right) if isinstance(n, str)), None):
                failures.append({**where, "problem": "net cannot be built",
                                 "error": error})
                continue
            if site.rule in IDENTITY_RULES:
                if same_net(left, right, where) is False:
                    failures.append({**where, "problem": "expected identical nets"})
                continue
            if src.term not in stepped:
                stepped[src.term] = [_attempted(closed_cut_step, left, cut)
                                     for cut in eligible_cuts(left)]
            hits = 0
            for rewritten in stepped[src.term]:
                if isinstance(rewritten, str):  # an eligible cut must step
                    failures.append({**where, "problem": "eligible cut does not step",
                                     "error": rewritten})
                    continue
                if same_net(rewritten, right, where):
                    hits += 1
            if hits == 0:
                failures.append({**where,
                                 "problem": "no single closed cut step reaches the reduct"})
    return {"ok": not failures, "failures": failures[:40], "steps_checked": checked,
            "fuel_exhausted": exhausted}


# ---------------------------------------------------------------------------
# criterion 9: end-to-end label/path agreement

def check_goi_end_to_end(entries: Iterable[CorpusEntry],
                         fuel: int = FUEL) -> dict:
    """Criterion 9: under ``lcf`` (call-by-value net) and ``lca``
    (call-by-name net), the weight of each entry's final external label is
    realised by a straight path from the root of the initial term's net.

    Besides a word no path realises, these are failures: a trace out of
    ``fuel``, a zero weight, and any exception, such as a level underflow,
    a net that cannot be built or an exhausted search budget.  ``checked``
    counts the (entry, calculus) pairs whose word was decided, realised or
    not.
    """
    failures = []
    checked = 0
    for entry, calculus, trace in _traces(entries, (LCF, LCA), fuel, failures):
        translate = translate_cbv if calculus == LCF else translate_cbn
        realised = _attempted(_label_realised, trace[-1].config.term,
                              entry.initial, translate)
        where = f"{entry.name}/{calculus}"
        if isinstance(realised, str):
            failures.append(f"{where}: {realised}")
        elif realised is None:
            failures.append(f"{where}: final label has zero weight")
        else:
            checked += 1
            if not realised:
                failures.append(f"{where}: lw of final label "
                                f"not realised by a straight path from the root")
    return {"ok": not failures, "failures": failures[:40], "checked": checked}


def _label_realised(final: Term, initial: Term, translate) -> Optional[bool]:
    """Whether a straight path from the root of ``translate(initial)``
    realises the weight of ``final``'s label, or None when that weight is
    zero.  An empty weight is realised by the empty path, so the net is
    built only for a non-empty word."""
    weight = lw(label_of(final), 0).weight
    if weight is None:
        return None
    return not weight or weight_member(translate(initial), weight)


# ---------------------------------------------------------------------------
# criterion 10: algebra unit laws

def random_label(rng: random.Random, depth: int = 2, length: int = 4):
    atoms = []
    for _ in range(rng.randint(1, length)):
        roll = rng.random()
        if roll < 0.45:
            atoms.append(Atomic(rng.choice("abcdefgh")))
        elif roll < 0.65 and depth > 0:
            atoms.append(Over(random_label(rng, depth - 1, length)))
        elif roll < 0.85 and depth > 0:
            atoms.append(Under(random_label(rng, depth - 1, length)))
        else:
            direction = rng.choice(("right", "left"))
            kind = rng.choice(("D", "!", "?", "R", "S"))
            atoms += mark(direction, kind)
    return tuple(atoms)


def check_algebra_laws(seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = []

    def random_weight():
        n = rng.randint(0, 4)
        parts = [watom(rng.choice("pqrstd"), rng.randint(0, 3),
                       rng.choice((False, True))) for _ in range(n)]
        if rng.random() < 0.05:
            return ZERO
        return compose(*parts) if parts else ONE

    for i in range(ALGEBRA_SAMPLES):
        a, b, c = random_weight(), random_weight(), random_weight()
        if compose(compose(a, b), c) != compose(a, compose(b, c)):
            failures.append(f"sample {i}: composition not associative")
        if compose(ONE, a) != a or compose(a, ONE) != a:
            failures.append(f"sample {i}: unit law broken")
        if not (compose(ZERO, a) is None and compose(a, ZERO) is None):
            failures.append(f"sample {i}: absorption broken")
        if involute(compose(a, b)) != compose(involute(b), involute(a)):
            failures.append(f"sample {i}: involution not an anti-homomorphism")
        if involute(involute(a)) != a:
            failures.append(f"sample {i}: involution not involutive")

        label = random_label(rng)
        level = entry_level_needed(label)
        full = lw(label, level)
        cut_at = rng.randint(0, len(label))
        head, tail = label[:cut_at], label[cut_at:]
        if head and tail:
            left = lw(head, level)
            right = lw(tail, left.out_level)
            if full.weight != compose(left.weight, right.weight) \
                    or right.out_level != full.out_level:
                failures.append(f"sample {i}: composite row incoherent")
        rev = lw(reverse(label), full.out_level)
        if rev.weight != involute(full.weight) \
                or rev.out_level != level:
            failures.append(f"sample {i}: reversal symmetry broken")
        if lw(concat(mark(RIGHT, "W"), label), level).weight is not None:
            failures.append(f"sample {i}: W marker did not absorb")
    return {"ok": not failures, "failures": failures[:20],
            "samples": ALGEBRA_SAMPLES}
