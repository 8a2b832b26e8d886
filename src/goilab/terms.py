"""Plain lambda terms, linear terms with explicit substitution/copy/erase,
parsing and printing, linearity validation, and compilation.

Concrete grammar (UTF-8 text)::

    term  ::= '\\' ident '.' term | app
    app   ::= item item*                          (left associative)
    item  ::= atom postfix* | '\\' ident '.' term (as final argument)
    atom  ::= ident | '(' term ')'
            | 'eps' '[' ident ']' '.' term
            | 'copy' '[' ident '->' ident ',' ident ']' '.' term
    postfix ::= '[' term '/' ident ']'            (explicit substitution)

Plain lambda terms use only variables, abstraction and application; the
other constructs appear in compiled terms and printed reduction traces.
Labelled nodes print with a ``^{...}`` superscript and surrounding parens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .labels import Label, format_label


def _hash_once(cls):
    """Keep the hash of a term class's fields in its ``_hash`` slot, computed
    on the first ``hash``: terms are immutable, so the fields' hash never
    changes, and each dict or set lookup then costs one slot read instead of
    a walk of the whole term.  Pickling and copying rebuild a node from its
    fields alone, since a ``str`` hash differs between processes."""
    field_hash = cls.__hash__  # the dataclass's hash of the compared fields

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = field_hash(self)
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        return cls, tuple(getattr(self, name) for name in cls.__match_args__)

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


@_hash_once
@dataclass(frozen=True, slots=True)
class Var:
    name: str
    label: Optional[Label] = None
    _hash: int = field(init=False, repr=False, compare=False)


@_hash_once
@dataclass(frozen=True, slots=True)
class Abs:
    binder: str
    body: "Term"
    label: Optional[Label] = None
    _hash: int = field(init=False, repr=False, compare=False)


@_hash_once
@dataclass(frozen=True, slots=True)
class App:
    fun: "Term"
    arg: "Term"
    label: Optional[Label] = None
    _hash: int = field(init=False, repr=False, compare=False)


@_hash_once
@dataclass(frozen=True, slots=True)
class Erase:
    binder: str
    body: "Term"
    _hash: int = field(init=False, repr=False, compare=False)


@_hash_once
@dataclass(frozen=True, slots=True)
class Copy:
    source: str
    left: str
    right: str
    body: "Term"
    _hash: int = field(init=False, repr=False, compare=False)


@_hash_once
@dataclass(frozen=True, slots=True)
class Subst:
    body: "Term"
    arg: "Term"
    target: str
    _hash: int = field(init=False, repr=False, compare=False)


Term = Var | Abs | App | Erase | Copy | Subst


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at {position})")
        self.position = position


def is_lambda_term(term: Term) -> bool:
    match term:
        case Var():
            return True
        case Abs(_, body):
            return is_lambda_term(body)
        case App(fun, arg):
            return is_lambda_term(fun) and is_lambda_term(arg)
        case _:
            return False


def children(term: Term) -> tuple:
    """Child subterms in position order (Subst: body then argument)."""
    match term:
        case Var():
            return ()
        case Abs(_, body) | Erase(_, body) | Copy(_, _, _, body):
            return (body,)
        case App(fun, arg):
            return (fun, arg)
        case Subst(body, arg, _):
            return (body, arg)
    raise AssertionError


def replace_child(term: Term, index: int, child: Term) -> Term:
    match term:
        case Abs(binder, _, label):
            return Abs(binder, child, label)
        case Erase(binder, _):
            return Erase(binder, child)
        case Copy(source, left, right, _):
            return Copy(source, left, right, child)
        case App(fun, arg, label):
            return App(child, arg, label) if index == 0 else App(fun, child, label)
        case Subst(body, arg, target):
            return Subst(child, arg, target) if index == 0 else Subst(body, child, target)
    raise AssertionError


def subterm_at(term: Term, position: tuple) -> Term:
    for i in position:
        term = children(term)[i]
    return term


def replace_at(term: Term, position: tuple, new: Term) -> Term:
    if not position:
        return new
    i = position[0]
    return replace_child(term, i, replace_at(children(term)[i], position[1:], new))


def subterms(term: Term, position: tuple = ()) -> Iterator[tuple[tuple, Term]]:
    """Preorder traversal yielding (position, subterm)."""
    yield position, term
    for i, c in enumerate(children(term)):
        yield from subterms(c, position + (i,))


def term_size(term: Term) -> int:
    return 1 + sum(term_size(c) for c in children(term))


def free_vars(term: Term) -> frozenset:
    match term:
        case Var(name):
            return frozenset((name,))
        case Abs(binder, body):
            return free_vars(body) - {binder}
        case App(fun, arg):
            return free_vars(fun) | free_vars(arg)
        case Erase(binder, body):
            return free_vars(body) | {binder}
        case Copy(source, left, right, body):
            return (free_vars(body) - {left, right}) | {source}
        case Subst(body, arg, target):
            return (free_vars(body) - {target}) | free_vars(arg)
    raise AssertionError


def check_linear(term: Term) -> list:
    """Variable-constraint violations as (position, message) in preorder;
    empty means ok.  Free variables are computed bottom-up in one pass."""
    violations = []

    def fv(t: Term, pos: tuple) -> frozenset:
        """Free variables of ``t``; its violations go before those found
        below it."""
        mark = len(violations)
        found = []
        match t:
            case Var(name):
                return frozenset((name,))
            case Abs(binder, body):
                inner = fv(body, pos + (0,))
                if binder not in inner:
                    found.append(f"abstraction binder {binder} unused in body")
                free = inner - {binder}
            case App(fun, arg):
                left, right = fv(fun, pos + (0,)), fv(arg, pos + (1,))
                if shared := left & right:
                    found.append(f"application shares free variables {sorted(shared)}")
                free = left | right
            case Erase(binder, body):
                inner = fv(body, pos + (0,))
                if binder in inner:
                    found.append(f"erased variable {binder} occurs in body")
                free = inner | {binder}
            case Copy(source, left, right, body):
                inner = fv(body, pos + (0,))
                if left == right:
                    found.append(f"copy targets must differ, got {left} twice")
                if source in inner:
                    found.append(f"copy source {source} already free in body")
                if not {left, right} <= inner:
                    found.append(f"copy targets {left},{right} must be free in body")
                free = (inner - {left, right}) | {source}
            case Subst(body, arg, target):
                inner, outer = fv(body, pos + (0,)), fv(arg, pos + (1,))
                if target not in inner:
                    found.append(f"substitution target {target} not free in body")
                rest = inner - {target}
                if shared := rest & outer:
                    found.append(f"substitution shares free variables {sorted(shared)}")
                free = rest | outer
            case _:
                raise AssertionError
        violations[mark:mark] = [(pos, message) for message in found]
        return free

    fv(term, ())
    return violations


def all_var_names(term: Term) -> frozenset:
    names = set()
    for _, t in subterms(term):
        match t:
            case Var(name):
                names.add(name)
            case Abs(binder, _) | Erase(binder, _):
                names.add(binder)
            case Copy(source, left, right, _):
                names.update((source, left, right))
            case Subst(_, _, target):
                names.add(target)
    return frozenset(names)


@dataclass
class FreshSupply:
    """Deterministic fresh-name source; never emits a name in ``used``."""

    prefix: str = "v"
    counter: int = 0
    used: set = field(default_factory=set)

    def reserve(self, names) -> None:
        self.used.update(names)

    def fresh(self, base: Optional[str] = None) -> str:
        base = base or self.prefix
        i = 0
        while True:
            i += 1
            name = f"{base}{i}"
            if name not in self.used:
                self.used.add(name)
                return name


# ---------------------------------------------------------------------------
# parsing

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789'")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n\r":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, s: str):
        self.skip_ws()
        if not self.text.startswith(s, self.pos):
            self.error(f"expected {s!r}")
        self.pos += len(s)

    def ident(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] not in _IDENT_START:
            self.error("expected identifier")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT:
            self.pos += 1
        return self.text[start:self.pos]

    def term(self) -> Term:
        if self.peek() == "\\":
            self.expect("\\")
            binder = self.ident()
            self.expect(".")
            return Abs(binder, self.term())
        return self.application()

    def application(self) -> Term:
        t = self.item()
        while True:
            c = self.peek()
            if c and (c in _IDENT_START or c in "(\\"):
                t = App(t, self.item())
                continue
            return t

    def item(self) -> Term:
        if self.peek() == "\\":
            self.expect("\\")
            binder = self.ident()
            self.expect(".")
            return Abs(binder, self.term())
        t = self.atom()
        while self.peek() == "[":
            self.expect("[")
            arg = self.term()
            self.expect("/")
            target = self.ident()
            self.expect("]")
            t = Subst(t, arg, target)
        return t

    def atom(self) -> Term:
        c = self.peek()
        if c == "(":
            self.expect("(")
            t = self.term()
            self.expect(")")
            return t
        name = self.ident()
        if name == "eps" and self.peek() == "[":
            self.expect("[")
            binder = self.ident()
            self.expect("]")
            self.expect(".")
            return Erase(binder, self.term())
        if name == "copy" and self.peek() == "[":
            self.expect("[")
            source = self.ident()
            self.expect("->")
            left = self.ident()
            self.expect(",")
            right = self.ident()
            self.expect("]")
            self.expect(".")
            return Copy(source, left, right, self.term())
        return Var(name)


def parse(text: str) -> Term:
    parser = _Parser(text)
    term = parser.term()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        parser.error("trailing input")
    return term


def parse_lambda(text: str) -> Term:
    term = parse(text)
    if not is_lambda_term(term):
        raise ParseError("not a plain lambda term", 0)
    return term


# ---------------------------------------------------------------------------
# printing

def format_term(term: Term, labels: bool = False) -> str:
    def printed_self_contained(t: Term) -> bool:
        # labelled Abs/App print with their own surrounding parens
        return labels and isinstance(t, (Abs, App)) and t.label is not None

    def fmt(t: Term) -> str:
        match t:
            case Var(name, label):
                return name + sup(label)
            case Abs(binder, body, label):
                core = f"\\{binder}.{fmt(body)}"
                if labels and label is not None:
                    return f"({core})" + sup(label)
                return core
            case App(fun, arg, label):
                f = fmt(fun)
                if isinstance(fun, (Abs, Erase, Copy)) and not printed_self_contained(fun):
                    f = f"({f})"
                a = fmt(arg)
                if isinstance(arg, (App, Abs, Erase, Copy)) and not printed_self_contained(arg):
                    a = f"({a})"
                core = f"{f} {a}"
                if labels and label is not None:
                    return f"({core})" + sup(label)
                return core
            case Erase(binder, body):
                return f"eps[{binder}].{fmt(body)}"
            case Copy(source, left, right, body):
                return f"copy[{source}->{left},{right}].{fmt(body)}"
            case Subst(body, arg, target):
                b = fmt(body)
                if isinstance(body, (App, Abs, Erase, Copy)) and not printed_self_contained(body):
                    b = f"({b})"
                return f"{b}[{fmt(arg)}/{target}]"
        raise AssertionError

    def sup(label: Optional[Label]) -> str:
        if not labels or label is None:
            return ""
        return "^{" + format_label(label) + "}"

    return fmt(term)


# ---------------------------------------------------------------------------
# compilation into the linear calculus

def _occurrences(t: Term, name: str) -> int:
    """Free occurrences of ``name`` in a (possibly compiled) term."""
    match t:
        case Var(n):
            return 1 if n == name else 0
        case Abs(binder, body):
            return 0 if binder == name else _occurrences(body, name)
        case Erase(binder, body):
            return 0 if binder == name else _occurrences(body, name)
        case Copy(source, left, right, body):
            if name in (left, right):
                return 1 if source == name else 0
            return _occurrences(body, name) + (1 if source == name else 0)
        case App(fun, arg):
            return _occurrences(fun, name) + _occurrences(arg, name)
        case Subst(body, arg, target):
            inner = 0 if target == name else _occurrences(body, name)
            return inner + _occurrences(arg, name)
    raise AssertionError


def _rename_leftmost(t: Term, name: str, new: str) -> tuple[Term, bool]:
    """Rename the leftmost free occurrence of ``name`` (Var leaf or Copy source)."""
    match t:
        case Var(n, lab):
            return (Var(new, lab), True) if n == name else (t, False)
        case Abs(binder, body, lab):
            if binder == name:
                return t, False
            body2, done = _rename_leftmost(body, name, new)
            return Abs(binder, body2, lab), done
        case Erase(binder, body):
            if binder == name:
                return t, False
            body2, done = _rename_leftmost(body, name, new)
            return Erase(binder, body2), done
        case Copy(source, left, right, body):
            if source == name:
                return Copy(new, left, right, body), True
            if name in (left, right):
                return t, False
            body2, done = _rename_leftmost(body, name, new)
            return Copy(source, left, right, body2), done
        case App(fun, arg, lab):
            fun2, done = _rename_leftmost(fun, name, new)
            if done:
                return App(fun2, arg, lab), True
            arg2, done = _rename_leftmost(arg, name, new)
            return App(fun, arg2, lab), done
        case Subst(body, arg, target):
            if target != name:
                body2, done = _rename_leftmost(body, name, new)
                if done:
                    return Subst(body2, arg, target), True
            arg2, done = _rename_leftmost(arg, name, new)
            return Subst(body, arg2, target), done
    raise AssertionError


def _share(body: Term, name: str, supply: FreshSupply) -> Term:
    """Make ``name`` occur exactly once free in ``body`` via eps/copy nodes.

    n occurrences are renamed apart left to right and rebuilt with a
    left-leaning chain of copy nodes placed directly above the body.
    """
    n = _occurrences(body, name)
    if n == 0:
        return Erase(name, body)
    if n == 1:
        return body
    leaves = [supply.fresh(name) for _ in range(n)]
    renamed = body
    for leaf in leaves:
        renamed, done = _rename_leftmost(renamed, name, leaf)
        assert done
    sources = [name] + [supply.fresh(name) for _ in range(n - 2)]
    pairs = []
    for i in range(n - 1):
        src = sources[i]
        left = leaves[i]
        right = sources[i + 1] if i + 1 < len(sources) else leaves[i + 1]
        pairs.append((src, left, right))
    chain = renamed
    for src, left, right in reversed(pairs):
        chain = Copy(src, left, right, chain)
    return chain


def compile_term(term: Term, supply: Optional[FreshSupply] = None) -> Term:
    """Compile a plain lambda term into a linear term with copy/erase.

    Bottom-up: at each abstraction, an unused binder is erased, and a binder
    with n >= 2 occurrences is split left to right through copy nodes placed
    directly under the lambda.  Duplicated free variables are shared the same
    way at the top of the term.
    """
    if not is_lambda_term(term):
        raise ValueError("compile expects a plain lambda term")
    if supply is None:
        supply = FreshSupply()
    supply.reserve(all_var_names(term))

    def go(t: Term) -> Term:
        match t:
            case Var():
                return t
            case Abs(binder, body, lab):
                return Abs(binder, _share(go(body), binder, supply), lab)
            case App(fun, arg, lab):
                return App(go(fun), go(arg), lab)
        raise AssertionError

    compiled = go(term)
    for name in sorted(free_vars(term)):
        compiled = _share(compiled, name, supply)
    return compiled


def erase_annotations(term: Term) -> Term:
    """Forget copy/erase/substitutions and labels, recovering a lambda term."""
    match term:
        case Var(name, _):
            return Var(name)
        case Abs(binder, body, _):
            return Abs(binder, erase_annotations(body))
        case App(fun, arg, _):
            return App(erase_annotations(fun), erase_annotations(arg))
        case Erase(_, body):
            return erase_annotations(body)
        case Copy(source, left, right, body):
            body2 = erase_annotations(body)
            return _rename_all(_rename_all(body2, left, source), right, source)
        case Subst(body, arg, target):
            return _substitute(erase_annotations(body), target, erase_annotations(arg))
    raise AssertionError


def _rename_all(t: Term, old: str, new: str) -> Term:
    match t:
        case Var(name, lab):
            return Var(new, lab) if name == old else t
        case Abs(binder, body, lab):
            return t if binder == old else Abs(binder, _rename_all(body, old, new), lab)
        case App(fun, arg, lab):
            return App(_rename_all(fun, old, new), _rename_all(arg, old, new), lab)
    raise AssertionError


def _substitute(t: Term, name: str, value: Term) -> Term:
    match t:
        case Var(n):
            return value if n == name else t
        case Abs(binder, body, lab):
            return t if binder == name else Abs(binder, _substitute(body, name, value), lab)
        case App(fun, arg, lab):
            return App(_substitute(fun, name, value), _substitute(arg, name, value), lab)
    raise AssertionError


def _debruijn(t: Term, env: tuple = ()):
    match t:
        case Var(name):
            return env.index(name) if name in env else ("free", name)
        case Abs(binder, body):
            return ("abs", _debruijn(body, (binder,) + env))
        case App(fun, arg):
            return ("app", _debruijn(fun, env), _debruijn(arg, env))
    raise AssertionError


def alpha_equal(a: Term, b: Term) -> bool:
    """Alpha-equivalence of plain lambda terms."""
    return _debruijn(a) == _debruijn(b)


def relabel(term: Term, label_for: Callable[[], Optional[Label]]) -> Term:
    """``term`` with each variable, abstraction and application labelled
    ``label_for()``, called once per node in preorder.  Copy, erase and
    substitution nodes carry no label."""
    match term:
        case Var(name, _):
            return Var(name, label_for())
        case Abs(binder, body, _):
            label = label_for()
            return Abs(binder, relabel(body, label_for), label)
        case App(fun, arg, _):
            label = label_for()
            return App(relabel(fun, label_for), relabel(arg, label_for), label)
        case Erase(binder, body):
            return Erase(binder, relabel(body, label_for))
        case Copy(source, left, right, body):
            return Copy(source, left, right, relabel(body, label_for))
        case Subst(body, arg, target):
            return Subst(relabel(body, label_for), relabel(arg, label_for), target)
    raise AssertionError


def strip_labels(term: Term) -> Term:
    return relabel(term, lambda: None)
