"""Machine-checkable property suites over the desk-scale corpus.

Each check returns a report dict with an ``ok`` flag plus enough detail to
diagnose a failure; the CLI and the acceptance tests share these.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from .algebra import ONE, ZERO, compose, involute, lw, watom, weight_equal
from .calculus import (LCA, LCF, Configuration, FuelExhaustedError, TraceStep,
                       normalize_sigma, reduce, reduction_graph)
from .corpus import CorpusEntry
from .labelled import label_of
from .labels import (Atomic, Marker, Over, RIGHT, Under, atoms_flat, concat,
                     format_label, mark, reverse)
from .nets import (NetError, closed_cut_step, eligible_cuts, iso_check,
                   translate_cbn, translate_cbv, validate)
from .paths import check_invariance, weight_member, weight_set
from .terms import (Subst, check_linear, compile_term, format_term, free_vars,
                    parse_lambda, strip_labels, subterms, term_size)

IDENTITY_RULES = ("App1", "Lam", "Cpy2", "Ers2")
# source nodes of the largest terms whose reduction graphs must complete
DESK_SIZE = 7


def _trace(entry: CorpusEntry, calculus: str, fuel: int) -> Optional[list]:
    """The leftmost-outermost configurations of ``entry`` as ``TraceStep``s,
    the initial one first with no site, or None when ``fuel`` runs out."""
    config = Configuration(entry.initial)
    try:
        return [TraceStep(None, config), *reduce(config, calculus, fuel=fuel)]
    except FuelExhaustedError:
        return None


# ---------------------------------------------------------------------------
# criterion 1: compilation fidelity

COMPILE_EXPECTED = (
    ("\\x.\\y.x", "\\x.\\y.eps[y].x"),
    ("(\\x.x x) (\\x.x z)", "(\\x.copy[x->x1,x2].x1 x2) (\\x.x z)"),
)


def check_compile_fidelity(entries: Iterable[CorpusEntry]) -> dict:
    failures = []
    for source, expected in COMPILE_EXPECTED:
        got = format_term(compile_term(parse_lambda(source)))
        if got != expected:
            failures.append(f"compile({source!r}) printed {got!r}, wanted {expected!r}")
    for entry in entries:
        violations = check_linear(entry.compiled)
        if violations:
            failures.append(f"{entry.name}: linearity violations {violations}")
        if free_vars(entry.compiled) != free_vars(entry.source):
            failures.append(f"{entry.name}: free variables changed by compilation")
        again = format_term(compile_term(entry.source))
        if again != format_term(entry.compiled):
            failures.append(f"{entry.name}: compilation not deterministic")
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# criterion 2 and 3: sigma termination and propagation

def _sigma_normal_forms(entries: Iterable[CorpusEntry], trace_fuel: int,
                        failures: list):
    """(entry, calculus, sigma-normal form) for each configuration of each
    trace.  A trace that runs out of fuel yields nothing and a normalisation
    that does yields None; both are reported in ``failures``."""
    for entry in entries:
        for calculus in (LCF, LCA):
            if (trace := _trace(entry, calculus, trace_fuel)) is None:
                failures.append(f"{entry.name}/{calculus}: trace fuel exhausted")
                continue
            for ts in trace:
                try:
                    nf = normalize_sigma(ts.config, calculus)
                except FuelExhaustedError:
                    nf = None
                    failures.append(f"{entry.name}/{calculus}: sigma fuel exhausted "
                                    f"on {format_term(ts.config.term, labels=True)}")
                yield entry, calculus, nf


def check_sigma_termination(entries: Iterable[CorpusEntry],
                            trace_fuel: int = 10_000) -> dict:
    failures = []
    checked = sum(1 for _ in _sigma_normal_forms(entries, trace_fuel, failures))
    return {"ok": not failures, "failures": failures, "configurations": checked}


def check_propagation(entries: Iterable[CorpusEntry],
                      trace_fuel: int = 10_000) -> dict:
    failures = []
    for entry, calculus, nf in _sigma_normal_forms(entries, trace_fuel, failures):
        for pos, t in subterms(nf.term) if nf else ():
            if isinstance(t, Subst) and not free_vars(t.arg):
                failures.append(f"{entry.name}/{calculus}: closed substitution "
                                f"survives sigma normalisation at {pos}")
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# criterion 4: confluence by exhaustive search

def check_confluence(entries: Iterable[CorpusEntry], calculus: str,
                     fuel: int = 10_000) -> dict:
    failures = []
    exhausted = []
    for entry in entries:
        graph = reduction_graph(Configuration(entry.initial), calculus,
                                max_configs=fuel)
        if not graph.complete:
            exhausted.append(entry.name)
            if _source_size(entry) <= DESK_SIZE:
                failures.append(f"{entry.name}: fuel exhausted at desk size")
            continue
        sinks = graph.sink_terms()
        if len(sinks) > 1:
            failures.append(f"{entry.name}: {len(sinks)} distinct sinks")
    return {"ok": not failures, "failures": failures, "fuel_exhausted": exhausted}


def _source_size(entry: CorpusEntry) -> int:
    return term_size(entry.source)


# ---------------------------------------------------------------------------
# criterion 5: label-shape lemmas

def _is_right_marker(atom) -> bool:
    return isinstance(atom, Marker) and atom.direction == RIGHT


def _decompose_argument(label, forbid_d: bool, need_box_marker: bool) -> Optional[str]:
    i = 0
    while i < len(label) and _is_right_marker(label[i]):
        if forbid_d and label[i].kind == "D":
            return "dereliction marker in the exponential prefix"
        i += 1
    if i >= len(label) or not isinstance(label[i], Under):
        return "no underlined block after the exponential prefix"
    if need_box_marker:
        i += 1
        if i >= len(label) or label[i] != Marker("left", "!"):
            return "no box marker after the underlined block"
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


def check_label_lemmas(entries: Iterable[CorpusEntry], calculus: str,
                       trace_fuel: int = 10_000) -> dict:
    failures = []
    for entry in entries:
        where = f"{entry.name}/{calculus}"
        if (trace := _trace(entry, calculus, trace_fuel)) is None:
            failures.append(f"{where}: trace fuel exhausted")
            continue
        for ts in trace:
            c = ts.config
            if check_linear(c.term):
                failures.append(f"{where}: linearity broken")
            root = label_of(c.term)
            first = root[0]
            if not (isinstance(first, Atomic) and first.name == entry.root_atom):
                failures.append(f"{where}: first label is {format_label((first,))}"
                                f", expected {entry.root_atom}")
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
                if isinstance(t, Subst):
                    if calculus == LCA and free_vars(t.arg):
                        failures.append(f"{where}: open substitution at {pos}")
                    arg_label = label_of(t.arg)
                    problem = _decompose_argument(
                        arg_label, forbid_d=(calculus == LCA),
                        need_box_marker=(calculus == LCA))
                    if problem:
                        failures.append(
                            f"{where}: argument label {format_label(arg_label)}"
                            f" at {pos}: {problem}")
            if calculus == LCF:
                for pos, t in subterms(c.term):
                    label = getattr(t, "label", None)
                    if label is None:
                        continue
                    for seq in _forward_sequences(label):
                        for i, atom in enumerate(seq):
                            if (isinstance(atom, Atomic)
                                    and entry.atom_classes.get(atom.name) == "var"
                                    and i + 1 < len(seq)):
                                suffix = seq[i + 1:]
                                problem = _decompose_argument(
                                    suffix, forbid_d=False, need_box_marker=False)
                                if problem:
                                    failures.append(
                                        f"{entry.name}/lcf: variable atom "
                                        f"{atom.name} followed by "
                                        f"{format_label(suffix)} ({problem})")
    return {"ok": not failures, "failures": failures[:50]}


# ---------------------------------------------------------------------------
# criteria 6 and 7: weight-set invariance per reduction step

def _step_edges(entry: CorpusEntry, calculus: str, graph_budget: int,
                trace_fuel: int):
    """Reduction steps to check: the exhaustive graph up to a budget, and
    when the budget cuts it short, the leftmost-outermost trace too.  A
    complete graph holds every step of the trace already."""
    seen = set()
    graph = reduction_graph(Configuration(entry.initial), calculus,
                            max_configs=graph_budget)
    for src, site, dst in graph.steps():
        key = (src.term, site, dst.term)
        if key not in seen:
            seen.add(key)
            yield key
    if graph.complete:
        return
    trace = _trace(entry, calculus, trace_fuel) or ()
    for before, ts in zip(trace, trace[1:]):
        key = (before.config.term, ts.site, ts.config.term)
        if key not in seen:
            seen.add(key)
            yield key


def check_weight_invariance(entries: Iterable[CorpusEntry], calculus: str,
                            graph_budget: int = 10_000,
                            trace_fuel: int = 10_000) -> dict:
    """Per-step equality of the live weight sets.

    For every checked step the live words of interface-to-interface
    straight paths, those not null in the dynamic algebra, are found on
    both nets and must be equal.  Each term's net is translated and
    searched once per call, however many steps touch it.  A failure names
    the term, rule and position of the step and the live words found on
    one side only, or the error that stopped the step: a search that runs
    out of ``paths.MAX_EXPANSIONS`` is one.
    """
    translate = translate_cbv if calculus == LCF else translate_cbn
    failures = []
    words_cache = {}  # term -> weight set of its net; a raising term is absent
    checked = 0

    def words_of(term):
        if term not in words_cache:
            words_cache[term] = weight_set(translate(term))
        return words_cache[term]

    for entry in entries:
        for src, site, dst in _step_edges(entry, calculus, graph_budget, trace_fuel):
            checked += 1
            where = {"term": entry.name, "rule": site.rule,
                     "position": list(site.position)}
            try:
                report = check_invariance(words_of(src), words_of(dst))
            except Exception as exc:  # budget or translation trouble is a failure
                failures.append({**where,
                                 "error": f"{type(exc).__name__}: {exc}"})
                continue
            if not report["live_equal"]:
                failures.append({
                    **where,
                    "left_only": report["live_left_only"][:4],
                    "right_only": report["live_right_only"][:4],
                })
    # reduction may lose live weights but never invents them
    containment = all(not f.get("right_only") for f in failures)
    return {"ok": not failures, "failures": failures[:40], "steps_checked": checked,
            "containment_ok": containment,
            "failing_rules": sorted({f["rule"] for f in failures if "rule" in f})}


# ---------------------------------------------------------------------------
# criterion 8: closed cut elimination simulates unlabelled reduction

def check_net_simulation(entries: Iterable[CorpusEntry],
                         graph_budget: int = 10_000) -> dict:
    """Closed cut elimination on call-by-name nets simulates every
    unlabelled ``lca`` step.  An entry whose reduction graph outgrows
    ``graph_budget`` is listed under ``fuel_exhausted`` and its steps are
    not checked; at desk size that is a failure, as in criterion 4.  A pair
    of nets that ``iso_check`` cannot compare is a failure too."""
    failures = []
    exhausted = []
    checked = 0
    net_cache = {}

    def net_of(term):
        if term not in net_cache:
            net_cache[term] = translate_cbn(term, weighted=False)
        return net_cache[term]

    def same_net(a, b, where) -> Optional[bool]:
        """``iso_check``, or None once a ``NetError`` is reported under
        ``where``."""
        try:
            return iso_check(a, b)
        except NetError as exc:
            failures.append({**where, "problem": "nets cannot be compared",
                             "error": f"{type(exc).__name__}: {exc}"})
            return None

    for entry in entries:
        config = Configuration(strip_labels(entry.initial))
        graph = reduction_graph(config, LCA, max_configs=graph_budget)
        if not graph.complete:
            exhausted.append(entry.name)
            if _source_size(entry) <= DESK_SIZE:
                failures.append({"term": entry.name,
                                 "problem": "fuel exhausted at desk size"})
            continue
        for src, site, dst in graph.steps():
            checked += 1
            left, right = net_of(src.term), net_of(dst.term)
            where = {"term": entry.name, "rule": site.rule}
            if site.rule in IDENTITY_RULES:
                if same_net(left, right, where) is False:
                    failures.append({**where, "problem": "expected identical nets"})
                continue
            hits = 0
            for cut in eligible_cuts(left):
                try:
                    rewritten = closed_cut_step(left, cut)
                except Exception as exc:  # an eligible cut must step
                    failures.append({**where,
                                     "problem": "eligible cut does not step",
                                     "error": f"{type(exc).__name__}: {exc}"})
                    continue
                if same_net(rewritten, right, where):
                    if validate(rewritten):
                        failures.append({**where,
                                         "problem": "rewritten net is malformed"})
                    hits += 1
            if hits == 0:
                failures.append({**where,
                                 "problem": "no single closed cut step reaches the reduct"})
    return {"ok": not failures, "failures": failures[:40], "steps_checked": checked,
            "fuel_exhausted": exhausted}


# ---------------------------------------------------------------------------
# criterion 9: end-to-end label/path agreement

def check_goi_end_to_end(entries: Iterable[CorpusEntry],
                         trace_fuel: int = 10_000) -> dict:
    failures = []
    skipped = []
    checked = 0
    for entry in entries:
        for calculus, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
            trace = _trace(entry, calculus, trace_fuel)
            if trace is None:
                skipped.append(f"{entry.name}/{calculus}")
                continue
            label = label_of(trace[-1].config.term)
            levelled = lw(label, 0)
            if levelled.weight.is_zero:
                failures.append(f"{entry.name}/{calculus}: final label has zero weight")
                continue
            net = translate(entry.initial)
            checked += 1
            if not weight_member(net, levelled.weight):
                failures.append(
                    f"{entry.name}/{calculus}: lw of final label "
                    f"not realised by a straight path from the root")
    return {"ok": not failures, "failures": failures[:40],
            "checked": checked, "skipped": skipped}


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
            atoms.append(Marker(direction, kind))
    return tuple(atoms)


def _safe_level(label) -> int:
    return 2 * sum(1 for _ in atoms_flat(label)) + 2


def check_algebra_laws(samples: int = 1000, seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = []

    def random_weight():
        n = rng.randint(0, 4)
        parts = [watom(rng.choice("pqrstd"), rng.randint(0, 3),
                       rng.choice((False, True))) for _ in range(n)]
        if rng.random() < 0.05:
            return ZERO
        return compose(*parts) if parts else ONE

    for i in range(samples):
        a, b, c = random_weight(), random_weight(), random_weight()
        if not weight_equal(compose(compose(a, b), c), compose(a, compose(b, c))):
            failures.append(f"sample {i}: composition not associative")
        if not weight_equal(compose(ONE, a), a) or not weight_equal(compose(a, ONE), a):
            failures.append(f"sample {i}: unit law broken")
        if not (compose(ZERO, a).is_zero and compose(a, ZERO).is_zero):
            failures.append(f"sample {i}: absorption broken")
        if not weight_equal(involute(compose(a, b)), compose(involute(b), involute(a))):
            failures.append(f"sample {i}: involution not an anti-homomorphism")
        if not weight_equal(involute(involute(a)), a):
            failures.append(f"sample {i}: involution not involutive")

        label = random_label(rng)
        level = _safe_level(label)
        full = lw(label, level)
        cut_at = rng.randint(0, len(label))
        head, tail = label[:cut_at], label[cut_at:]
        if head and tail:
            left = lw(head, level)
            right = lw(tail, left.out_level)
            if not weight_equal(full.weight, compose(left.weight, right.weight)) \
                    or right.out_level != full.out_level:
                failures.append(f"sample {i}: composite row incoherent")
        rev = lw(reverse(label), full.out_level)
        if not weight_equal(rev.weight, involute(full.weight)) \
                or rev.out_level != level:
            failures.append(f"sample {i}: reversal symmetry broken")
        if not lw(concat(mark(RIGHT, "W"), label), level).weight.is_zero:
            failures.append(f"sample {i}: W marker did not absorb")
    return {"ok": not failures, "failures": failures[:20], "samples": samples}
