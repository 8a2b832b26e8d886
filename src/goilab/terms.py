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

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional

from .labels import Label, format_label, slot_init

# per term class: the dataclass's hash of its compared fields, and the setter
# of its ``_hash`` slot
_HASHING: dict = {}


def _hash_once(cls):
    """Keep the hash of a term class's fields in its ``_hash`` slot, computed
    on the first ``hash``: terms are immutable, so the fields' hash never
    changes, and each dict or set lookup then costs one slot read instead of
    a walk of the whole term.  ``==`` is one loop for every class
    (``_equal``).  Pickling and copying rebuild a node from its fields
    alone, since a ``str`` hash differs between processes."""
    _HASHING[cls] = cls.__hash__, cls.__dict__["_hash"].__set__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _first_hash(self)

    def __reduce__(self):
        return cls, tuple(getattr(self, name) for name in cls.__match_args__)

    cls.__eq__ = _equal
    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


def _equal(a: Term, b):
    """``a == b`` for every term class: equal when each compared field is,
    as the dataclass's ``==`` has it, and ``NotImplemented`` across
    classes.  A loop that follows each node pair's first children and keeps
    the pairs of second children on an explicit stack, so no depth can
    overflow it.  A pair of one node twice is equal without a look, so
    shared subterms cost nothing."""
    if type(b) is not type(a):
        return NotImplemented
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        while x is not y:
            kind = type(x)
            if type(y) is not kind:
                return False
            if kind is App:
                if x.label != y.label:
                    return False
                stack.append((x.arg, y.arg))
                x, y = x.fun, y.fun
            elif kind is Var:
                if x.name != y.name or x.label != y.label:
                    return False
                break
            elif kind is Abs:
                if x.binder != y.binder or x.label != y.label:
                    return False
                x, y = x.body, y.body
            elif kind is Subst:
                if x.target != y.target:
                    return False
                stack.append((x.arg, y.arg))
                x, y = x.body, y.body
            elif kind is Erase:
                if x.binder != y.binder:
                    return False
                x, y = x.body, y.body
            else:  # Copy
                if (x.source, x.left, x.right) != (y.source, y.left, y.right):
                    return False
                x, y = x.body, y.body
    return True


def _first_hash(term: Term) -> int:
    """Store the field hash of ``term`` and of each unhashed node below it,
    deepest first, so that each field hash reads its children's stored
    hashes: a loop over an explicit stack, which no depth can overflow.  A
    node with an unhashed child goes back on the stack under it.  A node
    shared below two parents may be hashed twice, to the same value, but
    its children are walked once."""
    stack = [term]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is App or kind is Subst:
            first = node.fun if kind is App else node.body
            done_first, done_arg = hasattr(first, "_hash"), hasattr(node.arg, "_hash")
            if not (done_first and done_arg):
                stack.append(node)
                if not done_first:
                    stack.append(first)
                if not done_arg:
                    stack.append(node.arg)
                continue
        elif kind is not Var and not hasattr(node.body, "_hash"):  # Abs, Erase, Copy
            stack += (node, node.body)
            continue
        field_hash, set_hash = _HASHING[kind]
        set_hash(node, field_hash(node))
    return term._hash


@_hash_once
@slot_init
@dataclass(frozen=True, slots=True)
class Var:
    name: str
    label: Optional[Label] = None
    _hash: int = field(init=False, repr=False, compare=False)


@_hash_once
@slot_init
@dataclass(frozen=True, slots=True)
class Abs:
    binder: str
    body: "Term"
    label: Optional[Label] = None
    _hash: int = field(init=False, repr=False, compare=False)


@_hash_once
@slot_init
@dataclass(frozen=True, slots=True)
class App:
    fun: "Term"
    arg: "Term"
    label: Optional[Label] = None
    _hash: int = field(init=False, repr=False, compare=False)


@_hash_once
@slot_init
@dataclass(frozen=True, slots=True)
class Erase:
    binder: str
    body: "Term"
    _hash: int = field(init=False, repr=False, compare=False)


@_hash_once
@slot_init
@dataclass(frozen=True, slots=True)
class Copy:
    source: str
    left: str
    right: str
    body: "Term"
    _hash: int = field(init=False, repr=False, compare=False)


@_hash_once
@slot_init
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
    """Whether ``term`` has only variables, abstractions and applications."""
    return all(type(t) in (Var, Abs, App) for t in nodes(term))


def _child(term: Term, index: int) -> Term:
    """The child of ``term`` at ``index``: 0 is a body or an application's
    function, 1 the argument of an application or a substitution."""
    kind = type(term)
    if index == 1 and (kind is App or kind is Subst):
        return term.arg
    if index == 0 and kind is not Var:
        return term.fun if kind is App else term.body
    raise IndexError(f"{kind.__name__} has no child {index}")


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
        term = _child(term, i)
    return term


def replace_at(term: Term, position: tuple, new: Term) -> Term:
    """``term`` with its subterm at ``position`` replaced by ``new``: a walk
    down to it, then a rebuild of each node above it, bottom up, both loops."""
    above = []
    for i in position:
        above.append(term)
        term = _child(term, i)
    for parent, i in zip(reversed(above), reversed(position)):
        new = replace_child(parent, i, new)
    return new


def subterms(term: Term) -> Iterator[tuple[tuple, Term]]:
    """``(position, subterm)`` for each node in preorder: a node, then the
    subterms of its children in position order.  Lazy, and a loop over an
    explicit stack, so a deep term cannot overflow the interpreter's."""
    stack = [((), term)]
    while stack:
        position, term = stack.pop()
        yield position, term
        kind = type(term)
        if kind is App or kind is Subst:
            stack.append((position + (1,), term.arg))
            stack.append((position + (0,), term.fun if kind is App else term.body))
        elif kind is not Var:  # Abs, Erase, Copy
            stack.append((position + (0,), term.body))


def nodes(term: Term) -> Iterator[Term]:
    """Each node of ``term`` in preorder, in the child order of
    ``subterms`` but without positions.  Lazy, and a loop over an explicit
    stack, so a deep term cannot overflow the interpreter's."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        kind = type(t)
        if kind is App or kind is Subst:
            stack += (t.arg, t.fun if kind is App else t.body)
        elif kind is not Var:  # Abs, Erase, Copy
            stack.append(t.body)


def term_size(term: Term) -> int:
    return sum(1 for _ in nodes(term))


def free_vars(term: Term) -> frozenset:
    """The names free in ``term``: a variable, an erased name or a copy
    source not bound above it by an abstraction, a copy's targets or, in a
    substitution's body only, its target."""
    free = set()
    stack = [(term, frozenset())]
    while stack:
        t, bound = stack.pop()
        cls = type(t)
        if cls is Var:
            if t.name not in bound:
                free.add(t.name)
        elif cls is App:
            stack.append((t.fun, bound))
            stack.append((t.arg, bound))
        elif cls is Subst:
            stack.append((t.body, bound | {t.target}))
            stack.append((t.arg, bound))
        elif cls is Abs:
            stack.append((t.body, bound | {t.binder}))
        elif cls is Copy:
            if t.source not in bound:
                free.add(t.source)
            stack.append((t.body, bound | {t.left, t.right}))
        elif cls is Erase:
            if t.binder not in bound:
                free.add(t.binder)
            stack.append((t.body, bound))
        else:
            raise AssertionError
    return frozenset(free)


def check_linear(term: Term) -> list:
    """Variable-constraint violations as (position, message) in preorder;
    empty means ok.  Free variables are computed bottom-up in one pass, a
    loop over an explicit stack, so a deep term cannot overflow the
    interpreter's."""
    found = []  # (preorder number, position, messages) of each node with any
    frees = []  # the free variables of each finished subterm, the latest last
    path = []  # the child indices from the root down to the node at hand
    count = 0
    stack = [(term, None, None)]  # (node, its child index, its preorder number)
    while stack:
        t, index, number = stack.pop()
        cls = type(t)
        if cls is Var:
            frees.append(frozenset((t.name,)))
            continue
        if number is None:  # entering t: finish its children first
            if index is not None:
                path.append(index)
            stack.append((t, index, count))
            count += 1
            if cls is App or cls is Subst:
                stack += ((t.arg, 1, None), (t.fun if cls is App else t.body, 0, None))
            else:  # Abs, Erase, Copy
                stack.append((t.body, 0, None))
            continue
        messages = []
        if cls is Abs:
            inner = frees.pop()
            if t.binder not in inner:
                messages.append(f"abstraction binder {t.binder} unused in body")
            free = inner - {t.binder}
        elif cls is App:
            right = frees.pop()
            left = frees.pop()
            if shared := left & right:
                messages.append(f"application shares free variables {sorted(shared)}")
            free = left | right
        elif cls is Erase:
            inner = frees.pop()
            if t.binder in inner:
                messages.append(f"erased variable {t.binder} occurs in body")
            free = inner | {t.binder}
        elif cls is Copy:
            inner = frees.pop()
            if t.left == t.right:
                messages.append(f"copy targets must differ, got {t.left} twice")
            if t.source in inner:
                messages.append(f"copy source {t.source} already free in body")
            if not {t.left, t.right} <= inner:
                messages.append(f"copy targets {t.left},{t.right} must be free in body")
            free = (inner - {t.left, t.right}) | {t.source}
        elif cls is Subst:
            outer = frees.pop()
            inner = frees.pop()
            if t.target not in inner:
                messages.append(f"substitution target {t.target} not free in body")
            rest = inner - {t.target}
            if shared := rest & outer:
                messages.append(f"substitution shares free variables {sorted(shared)}")
            free = rest | outer
        else:
            raise AssertionError
        frees.append(free)
        if messages:
            found.append((number, tuple(path), messages))
        if index is not None:
            path.pop()
    found.sort()
    return [(position, message) for _, position, messages in found
            for message in messages]


def all_var_names(term: Term) -> frozenset:
    names = set()
    for t in nodes(term):
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
    """Deterministic fresh-name source; never emits a name in ``used``.
    ``fresh`` resumes after the number it last gave a base: ``used`` only
    grows, so the names below it are all still taken."""

    used: set = field(default_factory=set)
    _last: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def reserve(self, names) -> None:
        self.used.update(names)

    def fresh(self, base: str) -> str:
        i = self._last.get(base, 0)
        while True:
            i += 1
            name = f"{base}{i}"
            if name not in self.used:
                self.used.add(name)
                self._last[base] = i
                return name


# ---------------------------------------------------------------------------
# parsing

# white space, then a token: a name, a symbol, a stray character or, at the
# end of the text, nothing
_TOKEN = re.compile(r"[ \t\n\r]*(([A-Za-z_][A-Za-z0-9_']*)|->|.?)")
# each token that opens a binder, or ends a substitution's argument: the
# constructor it calls, and the tokens it reads next, None for each name
_HEADERS = {"\\": (Abs, (None, ".")),
            "eps": (Erase, ("[", None, "]", ".")),
            "copy": (Copy, ("[", None, "->", None, ",", None, "]", ".")),
            "/": (Subst, (None, "]"))}


def parse(text: str) -> Term:
    """The term ``text`` spells in the concrete grammar, or a ``ParseError``
    at the first token it cannot take.  One loop over the tokens, with each
    open group on an explicit stack, so no depth can overflow the
    interpreter's.  A group is the whole text, a parenthesis, or a
    substitution's argument up to its ``/``.  The group at hand is the token
    that closes it, the application of its items so far, and its binders: a
    binder's body runs to the group's end, so each is kept as the
    constructor that takes the body last, behind the items before it."""
    tokens = ((m[1], m[2], m.start(1)) for m in _TOKEN.finditer(text))
    token, name, at = next(tokens)
    stack = []  # each enclosing group, with the item its '[' extends
    closer, items, binders = "", None, []
    item = None  # the item last read, which a '[' may still extend
    while True:
        if item is None:  # an item starts here
            if name is None and token != "(" and token != "\\":
                raise ParseError("expected identifier", at)
            opener = token
            token, name, at = next(tokens)
            if opener == "(":
                stack.append((closer, items, binders, None))
                closer, items, binders = ")", None, []
                continue
            if opener != "\\" and (token != "[" or opener not in _HEADERS):
                item = Var(opener)
                continue
        elif token == "[":
            token, name, at = next(tokens)
            stack.append((closer, items, binders, item))
            closer, items, binders, item = "/", None, [], None
            continue
        else:
            items = item if items is None else App(items, item)
            item = None
            if name is not None or token == "(" or token == "\\":
                continue
            if token != closer:
                raise ParseError(f"expected {closer!r}" if closer else "trailing input",
                                 at)
            for binder in reversed(binders):
                items = binder(items)
            if not stack:
                return items
            opener, arg = closer, items
            closer, items, binders, item = stack.pop()
            token, name, at = next(tokens)
            if opener == ")":
                item = arg
                continue
        # a binder's header, or the target after a substitution's '/'
        kind, shape = _HEADERS[opener]
        names = []
        for want in shape:
            if want is None:
                if name is None:
                    raise ParseError("expected identifier", at)
                names.append(name)
            elif token != want:
                raise ParseError(f"expected {want!r}", at)
            token, name, at = next(tokens)
        if kind is Subst:
            item = Subst(item, arg, *names)
        else:
            if items is not None:
                binders.append(partial(App, items))
            binders.append(partial(kind, *names))
            items = None


def parse_lambda(text: str) -> Term:
    term = parse(text)
    if not is_lambda_term(term):
        raise ParseError("not a plain lambda term", 0)
    return term


# ---------------------------------------------------------------------------
# printing

# where a node is read as an application's function, an application's
# argument or a substitution's body, the kinds that print in parentheses
_OPEN_ENDED = (Abs, Erase, Copy)  # each reaches as far right as it can
_COMPOUND = (App, Abs, Erase, Copy)


def format_term(term: Term, labels: bool = False) -> str:
    """``term`` in the concrete grammar, with each label as a ``^{...}``
    superscript when ``labels`` is set; a labelled abstraction or
    application prints in its own parentheses.  A loop over an explicit
    stack of pieces still to print, text or terms, so a deep term cannot
    overflow the interpreter's."""
    def labelled(t: Term) -> bool:
        return labels and type(t) in (Abs, App) and t.label is not None

    def grouped(t: Term, kinds: tuple) -> tuple:
        return ("(", t, ")") if isinstance(t, kinds) and not labelled(t) else (t,)

    def sup(label: Optional[Label]) -> str:
        return "^{" + format_label(label) + "}" if labels and label is not None else ""

    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is str:
            out.append(t)
            continue
        if kind is Var:
            out.append(t.name + sup(t.label))
            continue
        if kind is Abs:
            pieces = (f"\\{t.binder}.", t.body)
        elif kind is App:
            pieces = (*grouped(t.fun, _OPEN_ENDED), " ", *grouped(t.arg, _COMPOUND))
        elif kind is Erase:
            pieces = (f"eps[{t.binder}].", t.body)
        elif kind is Copy:
            pieces = (f"copy[{t.source}->{t.left},{t.right}].", t.body)
        else:  # Subst
            pieces = (*grouped(t.body, _COMPOUND), "[", t.arg, f"/{t.target}]")
        if labelled(t):
            pieces = ("(", *pieces, ")" + sup(t.label))
        stack.extend(reversed(pieces))
    return "".join(out)


# ---------------------------------------------------------------------------
# compilation into the linear calculus

def _name_uses(name: str, uses: int, supply: FreshSupply) -> tuple[list, list]:
    """The names of ``name``'s uses, left to right, and the copy sources that
    split ``name`` into them: fresh, the uses' first, for two uses or more."""
    if uses < 2:
        return [name] * uses, []
    leaves = [supply.fresh(name) for _ in range(uses)]
    return leaves, [name] + [supply.fresh(name) for _ in range(uses - 2)]


def _share(body: Term, name: str, leaves: list, sources: list) -> Term:
    """``body``, whose uses of ``name`` are named ``leaves``, under an eps
    when there are none, else under the left-leaning copy chain from ``sources``."""
    if not leaves:
        return Erase(name, body)
    for source, left, right in reversed([*zip(sources, leaves, sources[1:] + leaves[-1:])]):
        body = Copy(source, left, right, body)
    return body


def compile_term(term: Term) -> Term:
    """Compile a plain lambda term into a linear term with copy/erase.

    The first of two walks counts the uses of each binder and free name
    and rejects any node that is not a variable, an abstraction or an
    application.  Then each binder is named in the order its body is done,
    and the free names in sorted order; every name the term holds is a
    binder or a free name, and the fresh names avoid them all.  The second
    walk builds the term, handing each use its name left to right; an
    abstraction's body goes under an eps if its binder is unused or a copy
    chain if it is used twice or more, and the term under a chain for each
    free name used twice or more.  Both walks are loops over an explicit
    stack, so a deep term cannot overflow the interpreter's.
    """
    named = []  # each abstraction's cell in preorder: [uses], then [leaves, sources]
    done = []  # (binder, cell) of each abstraction as its body is done
    free = {}  # free name -> its cell
    scope = {}  # binder -> its cell
    stack = [term]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is Var:
            cell = scope.get(t.name) or free.setdefault(t.name, [0])
            cell[0] += 1
        elif kind is App:
            stack += (t.arg, t.fun)
        elif kind is Abs:
            cell = [0]
            named.append(cell)
            stack += ((t.binder, scope.get(t.binder), cell), t.body)
            scope[t.binder] = cell
        elif kind is tuple:  # leaving an abstraction's body
            binder, outer, cell = t
            scope[binder] = outer
            done.append((binder, cell))
        else:
            raise ValueError("compile expects a plain lambda term")
    supply = FreshSupply()
    supply.reserve([*free, *(binder for binder, _ in done)])
    for binder, cell in done:
        cell[:] = _name_uses(binder, cell[0], supply)
    free = {name: _name_uses(name, free[name][0], supply) for name in sorted(free)}

    shares = iter(named)
    scope = {name: iter(leaves) for name, (leaves, _) in free.items()}
    built = []  # the terms built for finished subterms, the latest last
    stack = [term]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is Var:
            built.append(Var(next(scope[t.name]), t.label))
        elif kind is App:
            stack += ((t,), t.arg, t.fun)
        elif kind is Abs:
            leaves, sources = next(shares)
            stack += ((t, scope.get(t.binder), leaves, sources), t.body)
            scope[t.binder] = iter(leaves)
        elif len(t) == 1:  # leaving an application: both sides are built
            arg = built.pop()
            built.append(App(built.pop(), arg, t[0].label))
        else:  # leaving an abstraction
            node, outer, leaves, sources = t
            scope[node.binder] = outer
            body = _share(built.pop(), node.binder, leaves, sources)
            built.append(Abs(node.binder, body, node.label))
    compiled = built.pop()
    for name, (leaves, sources) in free.items():
        compiled = _share(compiled, name, leaves, sources)
    return compiled


def rename_free(t: Term, old: str, new: str) -> Term:
    """The lambda term ``t`` with its free occurrences of ``old`` renamed
    ``new``; labels are kept."""
    match t:
        case Var(name, lab):
            return Var(new, lab) if name == old else t
        case Abs(binder, body, lab):
            return t if binder == old else Abs(binder, rename_free(body, old, new), lab)
        case App(fun, arg, lab):
            return App(rename_free(fun, old, new), rename_free(arg, old, new), lab)
    raise AssertionError


def relabel(term: Term, label_for: Callable[[], Optional[Label]]) -> Term:
    """``term`` with each variable, abstraction and application labelled
    ``label_for()``, called once per node in preorder.  Copy, erase and
    substitution nodes carry no label.  A loop over an explicit stack, as
    ``compile_term``'s second walk, so a deep term cannot overflow the
    interpreter's: a node is labelled as it is reached, and rebuilt from its
    built children as it is left."""
    built = []  # the terms built for finished subterms, the latest last
    stack = [term]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is Var:
            built.append(Var(t.name, label_for()))
        elif kind is App or kind is Subst:
            label = label_for() if kind is App else None
            stack += ((t, label), t.arg, t.fun if kind is App else t.body)
        elif kind is not tuple:  # Abs, Erase, Copy
            stack += ((t, label_for() if kind is Abs else None), t.body)
        else:  # leaving a node: its children are built
            node, label = t
            kind, child = type(node), built.pop()
            if kind is App:
                built.append(App(built.pop(), child, label))
            elif kind is Subst:
                built.append(Subst(built.pop(), child, node.target))
            elif kind is Abs:
                built.append(Abs(node.binder, child, label))
            else:
                built.append(replace_child(node, 0, child))
    return built.pop()
