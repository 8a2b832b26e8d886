"""Spans and counters around goilab's public functions.

A traced function is replaced, for the length of a ``with`` block, in every
loaded goilab module whose globals bind it: callers look functions up at
those globals, so calls made inside the package are seen too.  Each call
records a span (layer, start, end, parent) in memory; self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

SUITES = ("check_compile_fidelity", "check_sigma_termination",
          "check_propagation", "check_confluence", "check_label_lemmas",
          "check_weight_invariance", "check_net_simulation",
          "check_goi_end_to_end")

# layer -> (module, functions); the two translations share one layer
LAYERS = {
    "corpus.prepare": ("corpus", ("prepare",)),
    "terms.compile_term": ("terms", ("compile_term",)),
    "terms.check_linear": ("terms", ("check_linear",)),
    "calculus.find_redexes": ("calculus", ("find_redexes",)),
    "calculus.step": ("calculus", ("step",)),
    "calculus.reduction_graph": ("calculus", ("reduction_graph",)),
    "calculus.normalize_sigma": ("calculus", ("normalize_sigma",)),
    "calculus.reduce": ("calculus", ("reduce",)),
    "algebra.normal_word": ("algebra", ("normal_word",)),
    "algebra.lw": ("algebra", ("lw",)),
    "nets.iso_check": ("nets", ("iso_check",)),
    "nets.closed_cut_step": ("nets", ("closed_cut_step",)),
    "nets.eligible_cuts": ("nets", ("eligible_cuts",)),
    "nets.translate": ("nets", ("translate_cbv", "translate_cbn")),
    "nets.validate": ("nets", ("validate",)),
    "paths.weight_set": ("paths", ("weight_set",)),
    "paths.live_words": ("paths", ("live_words",)),
    "paths.check_invariance": ("paths", ("check_invariance",)),
    "paths.weight_member": ("paths", ("weight_member",)),
    **{f"checks.{suite}": ("checks", (suite,)) for suite in SUITES},
}

# "module.function" -> layer
LAYER_OF = {f"{module}.{name}": layer
            for layer, (module, names) in LAYERS.items() for name in names}

# per-layer counters reported next to the self times
COUNTED = ["corpus.prepare.calls", "terms.check_linear.calls",
           "calculus.find_redexes.calls", "calculus.find_redexes.sites",
           "calculus.step.calls", "calculus.reduction_graph.configs",
           "algebra.normal_word.hits", "algebra.normal_word.misses",
           "algebra.lw.calls", "nets.iso_check.calls", "nets.iso_check.true",
           "nets.closed_cut_step.calls", "nets.closed_cut_step.raised",
           "nets.translate.calls", "nets.translate.edges",
           "paths.weight_set.calls", "paths.weight_set.words",
           "paths.weight_set.raised", "paths.live_words.live",
           "paths.live_words.null", "paths.check_invariance.live_steps",
           "paths.weight_member.calls"]


@contextmanager
def patched(names, make_wrapper):
    """Replace each function named ``"module.function"`` (``"paths.live_words"``)
    by ``make_wrapper(name, function)`` at every loaded goilab module global
    bound to it, and put the originals back on exit."""
    wrappers = {}
    for name in names:
        module, function = name.split(".")
        fn = getattr(sys.modules[f"goilab.{module}"], function)
        wrappers[id(fn)] = (fn, make_wrapper(name, fn))
    found = [(module, global_name, value)
             for mod_name, module in list(sys.modules.items())
             if mod_name == "goilab" or mod_name.startswith("goilab.")
             for global_name, value in list(vars(module).items())
             if id(value) in wrappers and wrappers[id(value)][0] is value]
    for module, global_name, fn in found:
        setattr(module, global_name, wrappers[id(fn)][1])
    try:
        yield
    finally:
        for module, global_name, fn in found:
            setattr(module, global_name, fn)


class Tracer:
    """Spans and counters of traced calls; one ``window`` per measured pass."""

    def __init__(self):
        self.spans = []      # (window, layer, start, end, parent span index)
        self.window = -1
        self.self_time = Counter()
        self.counts = Counter()
        self._stack = []     # [span index, time covered by children]
        self._live_sizes = []

    def new_window(self) -> None:
        self.window += 1
        self.self_time = Counter()
        self.counts = Counter()

    @contextmanager
    def active(self, normal_word):
        """Trace every layer in ``LAYERS``; ``normal_word`` is the memoised
        function whose cache statistics are read at the end of a window."""
        with patched(LAYER_OF, lambda name, fn: self._wrap(LAYER_OF[name], fn)):
            yield
        info = normal_word.cache_info()
        self.counts["algebra.normal_word.hits"] = info.hits
        self.counts["algebra.normal_word.misses"] = info.misses

    def _wrap(self, layer: str, fn):
        spans, stack, live_sizes = self.spans, self._stack, self._live_sizes
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            live_mark = len(live_sizes)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[f"{layer}.raised"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                spans[index] = (tracer.window, layer, start, end, parent)
                tracer.self_time[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer.counts[f"{layer}.calls"] += 1
            tracer._count(layer, args, result, live_mark)
            return result

        return traced

    def _count(self, layer, args, result, live_mark) -> None:
        counts = self.counts
        if layer == "calculus.find_redexes":
            counts["calculus.find_redexes.sites"] += len(result)
        elif layer == "calculus.reduction_graph":
            counts["calculus.reduction_graph.configs"] += len(result.edges)
        elif layer == "nets.iso_check":
            counts["nets.iso_check.true"] += bool(result)
        elif layer == "nets.translate":
            counts["nets.translate.edges"] += len(result.edges)
        elif layer == "paths.weight_set":
            counts["paths.weight_set.words"] += len(result)
        elif layer == "paths.live_words":
            counts["paths.live_words.live"] += len(result)
            counts["paths.live_words.null"] += len(args[0]) - len(result)
            self._live_sizes.append(len(result))
        elif layer == "paths.check_invariance":
            if any(self._live_sizes[live_mark:]):
                counts["paths.check_invariance.live_steps"] += 1
            del self._live_sizes[live_mark:]

    def metrics(self) -> dict:
        """Self seconds and counters of the current window."""
        out = {f"{layer}.s": self.self_time[layer] for layer in LAYERS}
        out.update({name: self.counts[name] for name in COUNTED})
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: window, layer, start, end, parent."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
