"""The benchmark in ``bench/`` reaches goilab by module and function name;
every name it uses must resolve, or ``--trace 1`` and its output checks
break without any other test noticing."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

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
