"""Labelled explicit-substitution calculi, weighted proof-nets, and
Geometry-of-Interaction path checks."""

from .algebra import (ONE, ZERO, LevelledWeight, Weight, compose, format_weight,
                      involute, lw, normal_word)
from .calculus import (LCA, LCF, Configuration, RedexSite, find_redexes,
                       normalize_sigma, reduce, reduction_graph, step)
from .corpus import corpus, prepare
from .labelled import bullet, initialize, label_of
from .labels import (Atomic, Label, Marker, Over, Under, concat, format_label,
                     reverse)
from .levy import levy_normalize, levy_step
from .nets import (Net, closed_cut_step, eligible_cuts, iso_check, to_dot,
                   to_json, translate_cbn, translate_cbv, validate)
from .paths import check_invariance, live_words, weight_member, weight_set
from .terms import (Abs, App, Copy, Erase, FreshSupply, Subst, Term, Var,
                    check_linear, compile_term, format_term, free_vars, parse,
                    parse_lambda)

__all__ = [name for name in dir() if not name.startswith("_")]
