"""Batch command-line front end.

Subcommands: ``compile``, ``reduce``, ``net``, ``check``.  Each takes only the
flags it reads: ``reduce`` takes ``--calculus`` and ``--fuel``, ``net``
``--translation`` and ``--format``, ``check`` those of ``--fuel``,
``--corpus-max-size`` and ``--term`` its suite reads (``_suites``:
``algebra`` reads none, ``compile`` the last two, the others all three),
and all four ``--out``.  ``--fuel`` is
every suite's one budget: it bounds the steps of each leftmost-outermost
trace and sigma walk, the configurations of each reduction graph and the
visits of each weight-set and membership search.  Identical configuration
and inputs produce byte-identical outputs.

Exit status: 0 on success; 1 when a ``check`` suite fails or a ``reduce``
trace outruns its fuel; 2 on a usage error, a malformed term, a negative
``--fuel`` or ``--corpus-max-size`` or a flag the suite does not read among
them.  Each error is reported in one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import checks
from .calculus import (FUEL, LCA, LCF, Configuration, FuelExhaustedError,
                       reduce, trace_records)
from .corpus import corpus, prepare
from .labelled import initialize
from .nets import to_dot, to_json, translate_cbn, translate_cbv
from .terms import ParseError, compile_term, format_term, parse_lambda


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
    if args.format == "dot":
        _write(args.out, "net.dot", to_dot(net))
    else:
        _write(args.out, "net.json", to_json(net))
    return 0


class UsageError(Exception):
    """Flags that parse but do not fit together."""


# the flags of check that a suite of the corpus reads, without and with --fuel
_ENTRIES = frozenset({"term", "corpus_max_size"})
_FUELLED = _ENTRIES | {"fuel"}


def _suites() -> dict:
    """Each suite of check: the flags of check it reads, so that it refuses
    the others, and report key -> the check that makes that report, with
    the calculus it is given.  A suite that reads --corpus-max-size runs on
    the corpus, and one that reads --fuel is given it.  Built when called,
    so a patched check is the one run."""
    return {
        "compile": (_ENTRIES, {"fidelity": (checks.check_compile_fidelity,)}),
        "invariance": (_FUELLED, {"lcf_cbv": (checks.check_weight_invariance, LCF),
                                  "lca_cbn": (checks.check_weight_invariance, LCA)}),
        "confluence": (_FUELLED, {c: (checks.check_confluence, c) for c in (LCF, LCA)}),
        "sigma-termination": (_FUELLED, {
            "termination": (checks.check_sigma_termination,),
            "propagation": (checks.check_propagation,)}),
        "label-lemmas": (_FUELLED, {c: (checks.check_label_lemmas, c)
                                    for c in (LCF, LCA)}),
        "net-simulation": (_FUELLED, {"lca_cbn": (checks.check_net_simulation,)}),
        "label-path": (_FUELLED, {"end_to_end": (checks.check_goi_end_to_end,)}),
        "algebra": (frozenset(), {"laws": (checks.check_algebra_laws,)}),
    }


# the value of each flag of check it is not given
_CHECK_DEFAULTS = {"term": None, "corpus_max_size": 7, "fuel": FUEL}


def cmd_check(args) -> int:
    flags, calls = _suites()[args.suite]
    given = vars(args).keys() & _CHECK_DEFAULTS.keys()
    unread = sorted(given - flags)
    if unread:
        raise UsageError(f"the {args.suite} suite does not read "
                         + ", ".join(f"--{flag.replace('_', '-')}" for flag in unread))
    for flag, value in _CHECK_DEFAULTS.items():
        vars(args).setdefault(flag, value)
    inputs = []  # the corpus entries, for a suite that reads them
    if "corpus_max_size" in flags:
        source = parse_lambda(args.term) if args.term else None
        entries = corpus(args.corpus_max_size)
        if source is not None:
            entries.append(prepare("user", source))
        inputs.append(entries)
    budget = {"fuel": args.fuel} if "fuel" in flags else {}
    report = {key: check(*inputs, *calculus, **budget)
              for key, (check, *calculus) in calls.items()}
    ok = all(r["ok"] for r in report.values())
    text = json.dumps({"suite": args.suite, "ok": ok, "report": report},
                      indent=2, sort_keys=True)
    _write(args.out, f"check_{args.suite}.json", text)
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
    p.add_argument("--calculus", choices=(LCF, LCA), default=LCF)
    p.add_argument("--fuel", type=int, default=FUEL)

    p = sub.add_parser("net", help="translate a term into a weighted proof-net")
    p.add_argument("term")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--translation", choices=("cbv", "cbn"), default="cbv")

    # a flag of check not given is left unset, so the suite can refuse
    # one it does not read
    p = sub.add_parser("check", help="run a verification suite over the corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("suite", choices=tuple(_suites()))
    p.add_argument("--term", help="additional lambda term to include in the corpus")
    for flag in ("--corpus-max-size", "--fuel"):
        p.add_argument(flag, type=int)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


_COMMANDS = {"compile": cmd_compile, "reduce": cmd_reduce, "net": cmd_net,
             "check": cmd_check}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, value in vars(args).items():
            if flag in ("fuel", "corpus_max_size") and value < 0:
                raise UsageError(f"--{flag.replace('_', '-')} must be 0 or more, "
                                 f"got {value}")
        return _COMMANDS[args.command](args)
    except (ParseError, UsageError, FuelExhaustedError) as err:
        print(f"goilab {args.command}: error: {err}", file=sys.stderr)
        return 1 if isinstance(err, FuelExhaustedError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
