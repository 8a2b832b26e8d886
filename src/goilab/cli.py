"""Batch command-line front end.

Subcommands: ``compile``, ``reduce``, ``net``, ``check``.  Each takes only the
flags it reads: ``reduce`` takes ``--calculus`` and ``--fuel``, ``net``
``--translation`` and ``--format``, ``check`` ``--fuel``, ``--seed``,
``--corpus-max-size`` and ``--term``, and all four ``--out``.  Flags may be
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
from pathlib import Path
from typing import Optional

from . import checks
from .calculus import Configuration, LCA, LCF, reduce, trace_records
from .corpus import corpus, prepare
from .labelled import initialize
from .nets import to_dot, to_json, translate_cbn, translate_cbv, validate
from .terms import compile_term, format_term, parse_lambda


def _env_default(name: str, fallback, cast=int):
    value = os.environ.get(f"GOI_{name}")
    if value is None:
        return fallback
    return cast(value)


def _write(out_dir: Optional[str], name: str, text: str) -> None:
    if out_dir is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text, encoding="utf-8")


def cmd_compile(args) -> int:
    compiled = compile_term(parse_lambda(args.term))
    _write(args.out, "compiled.txt", format_term(compiled))
    return 0


def cmd_reduce(args) -> int:
    term = initialize(compile_term(parse_lambda(args.term)))
    start = Configuration(term)
    trace = reduce(start, args.calculus, fuel=args.fuel)
    records = trace_records(trace, args.calculus)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    final = trace[-1].config.term if trace else term
    lines.append(json.dumps({"final": format_term(final, labels=True)},
                            sort_keys=True))
    _write(args.out, "trace.jsonl", "\n".join(lines) + "\n")
    return 0


def cmd_net(args) -> int:
    term = initialize(compile_term(parse_lambda(args.term)))
    translate = translate_cbv if args.translation == "cbv" else translate_cbn
    net = translate(term)
    problems = validate(net)
    if problems:
        _write(args.out, "net.err", "\n".join(problems))
        return 1
    if args.format == "dot":
        _write(args.out, "net.dot", to_dot(net))
    else:
        _write(args.out, "net.json", to_json(net))
    return 0


def cmd_check(args) -> int:
    suite, fuel = args.suite, args.fuel
    entries = corpus(args.corpus_max_size)
    if args.term:
        entries = entries + [prepare("user", parse_lambda(args.term))]
    if suite == "sigma-termination":
        report = {
            "termination": checks.check_sigma_termination(entries, fuel),
            "propagation": checks.check_propagation(entries, fuel),
        }
        ok = report["termination"]["ok"] and report["propagation"]["ok"]
    elif suite == "confluence":
        report = {
            LCF: checks.check_confluence(entries, LCF, fuel),
            LCA: checks.check_confluence(entries, LCA, fuel),
        }
        ok = report[LCF]["ok"] and report[LCA]["ok"]
    elif suite == "label-lemmas":
        report = {
            LCF: checks.check_label_lemmas(entries, LCF, fuel),
            LCA: checks.check_label_lemmas(entries, LCA, fuel),
        }
        ok = report[LCF]["ok"] and report[LCA]["ok"]
    elif suite == "invariance":
        report = {
            "lcf_cbv": checks.check_weight_invariance(
                entries, LCF, graph_budget=fuel, trace_fuel=fuel),
            "lca_cbn": checks.check_weight_invariance(
                entries, LCA, graph_budget=fuel, trace_fuel=fuel),
        }
        ok = report["lcf_cbv"]["ok"] and report["lca_cbn"]["ok"]
    elif suite == "net-simulation":
        report = {"lca_cbn": checks.check_net_simulation(
            entries, graph_budget=fuel)}
        ok = report["lca_cbn"]["ok"]
    elif suite == "label-path":
        report = {"end_to_end": checks.check_goi_end_to_end(entries, fuel)}
        ok = report["end_to_end"]["ok"]
    elif suite == "algebra":
        report = {"laws": checks.check_algebra_laws(seed=args.seed)}
        ok = report["laws"]["ok"]
    else:
        raise SystemExit(f"unknown suite {suite!r}")
    text = json.dumps({"suite": suite, "ok": ok, "report": report},
                      indent=2, sort_keys=True)
    _write(args.out, f"check_{suite}.json", text)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goilab",
        description="labelled explicit-substitution calculi and weighted proof-nets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a lambda term to the linear calculus")
    p.add_argument("term")

    p = sub.add_parser("reduce", help="trace a labelled reduction to normal form")
    p.add_argument("term")
    p.add_argument("--calculus", choices=(LCF, LCA),
                   default=_env_default("CALCULUS", LCF, str))

    p = sub.add_parser("net", help="translate a term into a weighted proof-net")
    p.add_argument("term")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--translation", choices=("cbv", "cbn"),
                   default=_env_default("TRANSLATION", "cbv", str))

    p = sub.add_parser("check", help="run a verification suite over the corpus")
    p.add_argument("suite", choices=("invariance", "confluence",
                                     "sigma-termination", "label-lemmas",
                                     "net-simulation", "label-path", "algebra"))
    p.add_argument("--term", default=None,
                   help="additional lambda term to include in the corpus")
    p.add_argument("--corpus-max-size", type=int,
                   default=_env_default("CORPUS_MAX_SIZE", 7))
    p.add_argument("--seed", type=int, default=_env_default("SEED", 0))

    for name in ("reduce", "check"):
        sub.choices[name].add_argument(
            "--fuel", type=int, default=_env_default("FUEL", 10_000))
    for p in sub.choices.values():
        p.add_argument("--out", default=_env_default("OUT", None, str))
    return parser


_COMMANDS = {"compile": cmd_compile, "reduce": cmd_reduce, "net": cmd_net,
             "check": cmd_check}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
