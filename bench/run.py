#!/usr/bin/env python3
"""goilab benchmark: the time and memory it takes to reach a verdict over the
size-8 corpus (711 entries: every closed lambda term of at most 8 nodes plus
the four classics).

    python3 bench/run.py --workload invariance --seed 1 --seconds 20 --trace 0
    python3 bench/run.py          # every workload, each in its own process

A run imports goilab from ``src/`` and prepares the corpus ``SETUPS`` times
(``setup_s`` is the median), then makes whole passes over the workload's
operations in the order the seed fixes.  The number of passes is
``max(2, round(seconds / PASS_SECONDS[workload]))``, so a run does the same
work for the same arguments.  Every set-up, and every second of a pass, is
timed between two runs of the yardstick and scaled to the yardstick's
nominal speed (see ``yardstick.py``).  An operation is one call into a
``goilab.checks`` suite for one entry; it fails when a report says
``ok: false`` or the call raises.  After the passes the outputs are checked
against computations made apart from the code under test (see
``reference.py``).  The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import tracer
import yardstick

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

WORKLOADS = ("invariance", "simulation", "rewrite")
CORPUS_SIZE = 8
# seconds one pass takes on a 2-core x86 box
PASS_SECONDS = {"invariance": 9.0, "simulation": 1.5, "rewrite": 3.2}
SETUPS = 7
# seconds of work between two runs of the yardstick within a pass
CHUNK_S = 1.0
# report keys that count the steps or configurations a verdict covers
STEP_KEYS = ("steps_checked", "configurations", "checked")
# entries whose invariance words are null-tested in each run, besides
# LIVE_ENTRY, whose steps always compare live words
INVARIANCE_SAMPLE = 40
LIVE_ENTRY = "apply_to_identity"
# its lcf Beta step gains a live word, a known fault of the cbv translation
GAINS_LIVE_WORDS = "closed_08_389"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "steps_checked": "count"}


def load() -> tuple:
    """Import goilab afresh and prepare the corpus; (seconds, entries)."""
    for name in [n for n in sys.modules if n == "goilab" or n.startswith("goilab.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("goilab.checks")
    entries = importlib.import_module("goilab.corpus").corpus(CORPUS_SIZE)
    return perf_counter() - start, entries


def operations(workload: str, entries: list, seed: int) -> list:
    """(entry, calculus or None, call) in the seed's order; each call returns
    the reports of the suites it ran."""
    from goilab import checks
    from goilab.calculus import LCA, LCF

    order = list(entries)
    random.Random(seed).shuffle(order)
    ops = []
    for e in order:
        if workload == "invariance":
            for calc in (LCF, LCA):
                ops.append((e, calc, lambda e=e, calc=calc:
                            [checks.check_weight_invariance([e], calc)]))
        elif workload == "simulation":
            ops.append((e, None, lambda e=e: [checks.check_net_simulation([e])]))
        else:
            ops.append((e, None, lambda e=e: [
                checks.check_compile_fidelity([e]),
                checks.check_sigma_termination([e]),
                checks.check_propagation([e]),
                checks.check_confluence([e], LCF),
                checks.check_confluence([e], LCA),
                checks.check_label_lemmas([e], LCF),
                checks.check_label_lemmas([e], LCA),
                checks.check_goi_end_to_end([e])]))
    return ops


def op_name(op) -> str:
    e, calc, _ = op
    return e.name if calc is None else f"{e.name}/{calc}"


def summary(outcome) -> tuple:
    """(failure reason or None, steps checked, whether a step gained live
    words) of one operation's reports, or of the exception it raised."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}", 0, False
    steps = sum(r.get(k, 0) for r in outcome for k in STEP_KEYS)
    gains = not all(r.get("containment_ok", True) for r in outcome)
    bad = [r for r in outcome if not r["ok"]]
    reason = str((bad[0].get("failures") or ["not ok"])[0])[:200] if bad else None
    return reason, steps, gains


def run_pass(ops: list, normal_word, yard: list) -> tuple:
    """(scaled seconds, wall seconds, summaries, per-operation seconds).

    The pass runs the yardstick after every ``CHUNK_S`` seconds of work and
    at its end, appending to ``yard``, whose last item is the time of the run
    before the pass.  Each stretch of work is scaled by the yardstick times
    on either side of it; the yardstick's own time is in neither figure.
    The weight-word memo starts empty, as in a fresh ``goilab check``
    process, and each report is summarised as soon as it is made, so that
    peak memory is the program's."""
    normal_word.cache_clear()
    gc.collect()
    summaries, latencies = [], []
    wall = scaled_wall = 0.0
    start = perf_counter()
    for i, (_, _, call) in enumerate(ops):
        t = perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # a raising suite is a failed operation
            outcome = exc
        latencies.append(perf_counter() - t)
        summaries.append(summary(outcome))
        del outcome
        stretch = perf_counter() - start
        if stretch >= CHUNK_S or i == len(ops) - 1:
            yard.append(yardstick.measure())
            wall += stretch
            scaled_wall += yardstick.scaled(stretch, yard[-2], yard[-1])
            start = perf_counter()
    return scaled_wall, wall, summaries, latencies


def verdicts(ops: list, summaries: list) -> tuple:
    """({failed operation: reason}, steps checked) of one pass."""
    failed = {op_name(op): s[0] for op, s in zip(ops, summaries) if s[0]}
    return failed, sum(s[1] for s in summaries)


# ---------------------------------------------------------------------------
# checks against independent computations, outside the timed region

def check_invariance(ops, summaries, failed, seed) -> list:
    from goilab import checks

    problems = [f"{op_name(op)}: a step gains live words"
                for op, (_, _, gains) in zip(ops, summaries)
                if gains and op[0].name != GAINS_LIVE_WORDS]
    passed = [op for op in ops if op_name(op) not in failed]
    rng = random.Random(seed)
    sample = rng.sample(passed, min(INVARIANCE_SAMPLE, len(passed)))
    sample += [op for op in passed if op[0].name == LIVE_ENTRY]
    seen = []

    def recorder(_, fn):
        def recorded(words):
            kept = fn(words)
            seen.append((words, kept))
            return kept
        return recorded

    with tracer.patched(["paths.live_words"], recorder):
        for e, calc, _ in sample:
            if not checks.check_weight_invariance([e], calc)["ok"]:
                problems.append(f"{e.name}/{calc}: verdict differs on a second run")
    live = 0
    for words, kept in seen:
        live += len(kept)
        if not kept <= words:
            problems.append("live_words kept a word it was not given")
        for word in words:
            if reference.reference_null(word, rng) == (word in kept):
                problems.append(f"null test disagrees with live_words on {word}")
    if live == 0:
        problems.append("no live word compared")
    return problems


def check_simulation(ops, failed, seed) -> list:
    from goilab import checks
    from goilab.nets import iso_check

    nets, accepted = [], []

    def recorder(name, fn):
        if name == "nets.iso_check":
            def recorded(a, b):
                same = fn(a, b)
                if same:
                    accepted.append((a, b))
                return same
        else:
            def recorded(*args, **kwargs):
                net = fn(*args, **kwargs)
                nets.append(net)
                return net
        return recorded

    problems = []
    with tracer.patched(["nets.iso_check", "nets.translate_cbn"], recorder):
        for op in ops:
            if op_name(op) not in failed and \
                    not checks.check_net_simulation([op[0]])["ok"]:
                problems.append(f"{op_name(op)}: verdict differs on a second run")
    rng = random.Random(seed)
    for net in nets:
        if not iso_check(net, reference.renumbered(net, rng)):
            problems.append("a net is not iso to itself renumbered")
    for a, b in accepted:
        if reference.shape(a) != reference.shape(b):
            problems.append(f"iso_check accepted nets of shapes "
                            f"{reference.shape(a)} and {reference.shape(b)}")
    if not nets or not accepted:
        problems.append("no net built or no pair accepted")
    return problems


def check_rewrite(ops, failed) -> list:
    from goilab.calculus import LCA, LCF, Configuration, reduce
    from goilab.labelled import initialize, label_of
    from goilab.levy import levy_normalize

    problems = []
    for op in ops:
        e = op[0]
        if op_name(op) in failed:
            continue
        levy = reference.plain_shape(label_of(levy_normalize(initialize(e.source))))
        for calc in (LCF, LCA):
            trace = reduce(Configuration(e.initial), calc)
            final = trace[-1].config.term if trace else e.initial
            if reference.levy_shape(label_of(final)) != levy:
                problems.append(f"{e.name}/{calc}: root label is not the Levy label")
    return problems


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "goilab" / "__init__.py").is_file():
        sys.exit(f"bench: no goilab sources in {SRC}")
    sys.path.insert(0, str(SRC))
    problems = [f"self-test: {p}" for p in reference.self_test()]
    yard = [yardstick.measure()]
    setups = []
    for _ in range(SETUPS):
        seconds_taken, entries = load()
        yard.append(yardstick.measure())
        setups.append(yardstick.scaled(seconds_taken, yard[-2], yard[-1]))
    import goilab
    if not Path(goilab.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: goilab was imported from {goilab.__file__}, not {SRC}")
    normal_word = sys.modules["goilab.algebra"].normal_word
    ops = operations(workload, entries, seed)
    passes = max(2, round(seconds / PASS_SECONDS[workload]))

    walls, raw_walls, passes_failed, passes_steps = [], [], [], []
    traced_walls, layer_windows, latencies = [], [], []
    tr = tracer.Tracer()
    if trace:
        tr.new_window()
        with tr.active(normal_word):
            importlib.import_module("goilab.corpus").corpus(CORPUS_SIZE)
        setup_layers = tr.metrics()
    for i in range(passes):
        wall, raw_wall, summaries, _ = run_pass(ops, normal_word, yard)
        walls.append(wall)
        raw_walls.append(raw_wall)
        failed, steps = verdicts(ops, summaries)
        passes_failed.append(failed)
        passes_steps.append(steps)
        if trace and i < passes // 2:
            tr.new_window()
            with tr.active(normal_word):
                wall, _, t_summaries, lat = run_pass(ops, normal_word, yard)
            traced_walls.append(wall)
            layer_windows.append(tr.metrics())
            latencies.extend(lat)
            passes_failed.append(verdicts(ops, t_summaries)[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if any(f.keys() != failed.keys() for f in passes_failed) or \
            len(set(passes_steps)) != 1:
        problems.append("passes disagree on failures or steps checked")
    try:
        if workload == "invariance":
            problems += check_invariance(ops, summaries, failed, seed)
        elif workload == "simulation":
            problems += check_simulation(ops, failed, seed)
        else:
            problems += check_rewrite(ops, failed)
    except Exception as exc:  # a check that cannot finish is a wrong output
        problems.append(f"correctness check raised {type(exc).__name__}: {exc}")

    print("pass walls: " + " ".join(f"{w:.3f}" for w in raw_walls))
    print("scaled pass walls: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"yardstick: {len(yard)} runs, median {statistics.median(yard):.4f} s, "
          f"range {min(yard):.4f}-{max(yard):.4f} s, nominal {yardstick.NOMINAL_S} s")
    for name, reason in sorted(failed.items()):
        print(f"failed: {name}: {reason}")
    for problem in problems[:20]:
        print(f"incorrect: {problem}")
    if trace:
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"trace-{workload}-{seed}.jsonl")
        values = {k: v + statistics.median_low([w[k] for w in layer_windows])
                  for k, v in setup_layers.items()}
        units = {k: "s" if k.endswith(".s") else "count" for k in values}
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        ms = sorted(x * 1000 for x in latencies)
        values.update({
            "checks.op_p50_ms": statistics.median(ms),
            "checks.op_p98_ms": statistics.quantiles(ms, n=50)[-1],
            "checks.op_samples": len(ms),
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": traced,
            "trace.overhead_pct": 100 * (traced / untraced - 1),
            "trace.spans": sum(1 for s in tr.spans if s[0] == tr.window),
        })
        units.update({"checks.op_p50_ms": "ms", "checks.op_p98_ms": "ms",
                      "checks.op_samples": "count", "trace.untraced_wall_s": "s",
                      "trace.traced_wall_s": "s", "trace.overhead_pct": "%",
                      "trace.spans": "count"})
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(walls),
                  "peak_rss_mb": peak_rss_mb,
                  "steps_checked": passes_steps[0]}
        units = END_TO_END
    return {"correct": not problems,
            "attempted": len(ops) * len(passes_failed),
            "failed": sum(len(f) for f in passes_failed),
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in values}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(result, indent=1))
        for name, m in result["metrics"].items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        if child.returncode:
            sys.exit(child.stderr.strip() or f"bench: {workload} exited "
                     f"with code {child.returncode}")
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
