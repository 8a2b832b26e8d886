"""Batch command-line front end.

Subcommands: ``compile``, ``reduce``, ``net``, ``check``.  Flags may be
overridden by ``GOI_``-prefixed environment variables (GOI_CALCULUS,
GOI_TRANSLATION, GOI_FUEL, GOI_CORPUS_MAX_SIZE, GOI_SEED, GOI_OUT).
``--fuel`` bounds the leftmost-outermost traces and the reduction graphs the
suites explore.  Identical configuration and inputs produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import checks
from .calculus import Configuration, LCA, LCF, reduce, trace_records
from .corpus import corpus, prepare
from .labelled import initialize
from .nets import to_dot, to_json, translate_cbn, translate_cbv, validate
from .terms import compile_term, format_term, parse_lambda


@dataclass
class RunConfig:
    """Stable run parameters; defaults are part of the interface."""

    calculus: str = LCF
    translation: str = "cbv"
    fuel: int = 10_000
    corpus_max_size: int = 7
    seed: int = 0
    output_dir: Optional[str] = None


def _env_default(name: str, fallback, cast=int):
    value = os.environ.get(f"GOI_{name}")
    if value is None:
        return fallback
    return cast(value)


def _config_from(args) -> RunConfig:
    return RunConfig(
        calculus=args.calculus,
        translation=args.translation,
        fuel=args.fuel,
        corpus_max_size=getattr(args, "corpus_max_size", 7),
        seed=args.seed,
        output_dir=args.out,
    )


def _write(config: RunConfig, name: str, text: str) -> None:
    if config.output_dir is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text, encoding="utf-8")


def cmd_compile(term_text: str, config: RunConfig) -> int:
    compiled = compile_term(parse_lambda(term_text))
    _write(config, "compiled.txt", format_term(compiled))
    return 0


def cmd_reduce(term_text: str, config: RunConfig) -> int:
    term = initialize(compile_term(parse_lambda(term_text)))
    start = Configuration(term)
    trace = reduce(start, config.calculus, fuel=config.fuel)
    records = trace_records(trace, config.calculus)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    final = trace[-1].config.term if trace else term
    lines.append(json.dumps({"final": format_term(final, labels=True)},
                            sort_keys=True))
    _write(config, "trace.jsonl", "\n".join(lines) + "\n")
    return 0


def cmd_net(term_text: str, config: RunConfig, fmt: str) -> int:
    term = initialize(compile_term(parse_lambda(term_text)))
    translate = translate_cbv if config.translation == "cbv" else translate_cbn
    net = translate(term)
    problems = validate(net)
    if problems:
        _write(config, "net.err", "\n".join(problems))
        return 1
    if fmt == "dot":
        _write(config, "net.dot", to_dot(net))
    else:
        _write(config, "net.json", to_json(net))
    return 0


def cmd_check(suite: str, config: RunConfig, extra_term: Optional[str]) -> int:
    entries = corpus(config.corpus_max_size)
    if extra_term:
        entries = entries + [prepare("user", parse_lambda(extra_term))]
    if suite == "sigma-termination":
        report = {
            "termination": checks.check_sigma_termination(entries, config.fuel),
            "propagation": checks.check_propagation(entries, config.fuel),
        }
        ok = report["termination"]["ok"] and report["propagation"]["ok"]
    elif suite == "confluence":
        report = {
            LCF: checks.check_confluence(entries, LCF, config.fuel),
            LCA: checks.check_confluence(entries, LCA, config.fuel),
        }
        ok = report[LCF]["ok"] and report[LCA]["ok"]
    elif suite == "label-lemmas":
        report = {
            LCF: checks.check_label_lemmas(entries, LCF, config.fuel),
            LCA: checks.check_label_lemmas(entries, LCA, config.fuel),
        }
        ok = report[LCF]["ok"] and report[LCA]["ok"]
    elif suite == "invariance":
        report = {
            "lcf_cbv": checks.check_weight_invariance(
                entries, LCF, graph_budget=config.fuel, trace_fuel=config.fuel),
            "lca_cbn": checks.check_weight_invariance(
                entries, LCA, graph_budget=config.fuel, trace_fuel=config.fuel),
        }
        ok = report["lcf_cbv"]["ok"] and report["lca_cbn"]["ok"]
    elif suite == "net-simulation":
        report = {"lca_cbn": checks.check_net_simulation(
            entries, graph_budget=config.fuel)}
        ok = report["lca_cbn"]["ok"]
    elif suite == "label-path":
        report = {"end_to_end": checks.check_goi_end_to_end(entries, config.fuel)}
        ok = report["end_to_end"]["ok"]
    elif suite == "algebra":
        report = {"laws": checks.check_algebra_laws(seed=config.seed)}
        ok = report["laws"]["ok"]
    else:
        raise SystemExit(f"unknown suite {suite!r}")
    text = json.dumps({"suite": suite, "ok": ok, "report": report},
                      indent=2, sort_keys=True)
    _write(config, f"check_{suite}.json", text)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goilab",
        description="labelled explicit-substitution calculi and weighted proof-nets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--calculus", choices=(LCF, LCA),
                       default=_env_default("CALCULUS", LCF, str))
        p.add_argument("--translation", choices=("cbv", "cbn"),
                       default=_env_default("TRANSLATION", "cbv", str))
        p.add_argument("--fuel", type=int, default=_env_default("FUEL", 10_000))
        p.add_argument("--seed", type=int, default=_env_default("SEED", 0))
        p.add_argument("--out", default=_env_default("OUT", None, str))

    p = sub.add_parser("compile", help="compile a lambda term to the linear calculus")
    p.add_argument("term")
    common(p)

    p = sub.add_parser("reduce", help="trace a labelled reduction to normal form")
    p.add_argument("term")
    common(p)

    p = sub.add_parser("net", help="translate a term into a weighted proof-net")
    p.add_argument("term")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    common(p)

    p = sub.add_parser("check", help="run a verification suite over the corpus")
    p.add_argument("suite", choices=("invariance", "confluence",
                                     "sigma-termination", "label-lemmas",
                                     "net-simulation", "label-path", "algebra"))
    p.add_argument("--term", default=None,
                   help="additional lambda term to include in the corpus")
    p.add_argument("--corpus-max-size", type=int,
                   default=_env_default("CORPUS_MAX_SIZE", 7))
    common(p)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from(args)
    if args.command == "compile":
        return cmd_compile(args.term, config)
    if args.command == "reduce":
        return cmd_reduce(args.term, config)
    if args.command == "net":
        return cmd_net(args.term, config, args.format)
    if args.command == "check":
        return cmd_check(args.suite, config, args.term)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
