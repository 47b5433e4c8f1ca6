"""Formulas of the trimodal language of knowledge (K), knowability (box), belief (B).

The AST is a small family of immutable slotted classes whose nodes are
interned (hash-consed, after Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): building a node returns the one already made from
the same class and fields, so equal formulas are one object, `==` is
identity and hashing is O(1) at any depth.  Each node keeps its children
and its depth, and postorder(f) lists f's distinct subformulas children
first.  Every walk over a formula is a loop, so every function here works
at any depth except parse, the one place that limits it: parse refuses
input nested deeper than MAX_DEPTH with NestingError.  The surface syntax is
ASCII only.  Each connective, `true` and `false` included, is defined once,
in CONNECTIVES: its word, precedence and operand contexts, which the parser,
the printer and every node's arity read, and a Boolean one's truth
function, which both evaluators read.  `hatK`, `dia` and `hatB` are parser
sugar for the dual modalities and are stored desugared as not-op-not.
The printer resugars those patterns, so parse/to_text round-trip on the
desugared form.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .record import Frozen, Record


class FormulaError(Exception):
    """Bad formula-level input (unknown scheme, missing metavariable...)."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class NestingError(FormulaError, RecursionError):
    """Input that parse refuses as too deep (see MAX_DEPTH)."""

    def __init__(self, message: str = "input nested too deeply (recursion limit reached)"):
        super().__init__(message)


# The deepest input parse reads: a formula's depth (connectives on its
# longest path down to a leaf) and the parentheses open at once may each
# reach it.  The parser spends at most four stack frames per level, on
# `p & (p & (...))`, so input at the limit takes about 520 of Python's
# default 1 000 and leaves the rest to the caller.
MAX_DEPTH = 128


# (class, *fields) -> the one node with them; nodes live as long as the process
_NODES: dict[tuple, Formula] = {}


class Formula(Frozen):
    """Base class; every node is one of the variants below.

    Nodes are interned: __new__ is the only code that builds one, and it
    hands back the node already built from the same class and fields, so
    hash and == are the identity's and a node never changes.  A node
    stores its children and its depth once, when it is built; Atom and
    Meta carry a name, and every other node's fields are its children.
    A new node is checked before it is interned: a child that is not a
    formula, or a name that is not an ATOM_RE word or is a connective's
    word (true, false, box, dia), raises FormulaError.
    """

    # _postorder is set by postorder(f), on f alone
    __slots__ = ("_children", "_depth", "_postorder")
    _fields: tuple[str, ...] = ()  # each variant's, in constructor order

    def __new__(cls, *fields, **named):
        if named:  # bind keywords in field order
            fields += tuple(named.pop(name) for name in cls._fields[len(fields) :] if name in named)
        key = (cls, *fields)
        try:
            node = _NODES.get(key)
        except TypeError:  # an unhashable field is no formula's; the checks below name it
            node = None
        if node is None or named:  # a keyword left over, unknown or given twice, is an error
            if named or len(fields) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
            kids, depth = fields, 0
            if cls is Atom or cls is Meta:
                word = fields[0]
                if not isinstance(word, str) or not ATOM_RE.match(word) or word in _RESERVED:
                    raise FormulaError(f"bad {cls.__name__.lower()} name {word!r}")
                kids = ()
            for k in kids:
                if not isinstance(k, Formula):
                    raise FormulaError(f"{cls.__name__} takes formulas, not {k!r}")
                if k._depth >= depth:
                    depth = k._depth + 1
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_children", kids)
            object.__setattr__(node, "_depth", depth)
            object.__setattr__(node, "_postorder", None)
            _NODES[key] = node
        return node

    def __reduce__(self):
        """Pickle and copy rebuild through the constructor, so they get this
        node, from a flat list that _rebuild reads in one loop, at any depth:
        per node of postorder(self), its class and its fields, a child as
        its index in that list and any other field wrapped in a 1-tuple."""
        index = {g: i for i, g in enumerate(postorder(self))}
        entries = []
        for g in index:
            values = (getattr(g, name) for name in g._fields)
            entries.append((type(g), *(index[v] if isinstance(v, Formula) else (v,) for v in values)))
        return _rebuild, (tuple(entries),)

    def __repr__(self) -> str:
        """Name(field=value!r, ...), as a Record writes it, at any depth:
        one explicit stack of pending text and nodes."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            g = stack.pop()
            if type(g) is str:
                out.append(g)
                continue
            out.append(f"{type(g).__name__}(")
            stack.append(")")
            for i in reversed(range(len(g._fields))):
                value = getattr(g, g._fields[i])
                stack.append(value if isinstance(value, Formula) else repr(value))
                stack.append(f"{', ' if i else ''}{g._fields[i]}=")
        return "".join(out)

    def __str__(self) -> str:
        return to_text(self)


class Atom(Formula):
    __slots__ = _fields = ("name",)


class Top(Formula):
    __slots__ = _fields = ()


class Bot(Formula):
    __slots__ = _fields = ()


class Not(Formula):
    __slots__ = _fields = ("sub",)


class And(Formula):
    __slots__ = _fields = ("left", "right")


class Or(Formula):
    __slots__ = _fields = ("left", "right")


class Implies(Formula):
    __slots__ = _fields = ("left", "right")


class Iff(Formula):
    __slots__ = _fields = ("left", "right")


class K(Formula):
    __slots__ = _fields = ("sub",)


class Box(Formula):
    __slots__ = _fields = ("sub",)


class Bel(Formula):
    __slots__ = _fields = ("sub",)


class Meta(Formula):
    """Metavariable; only legal inside scheme templates."""

    __slots__ = _fields = ("name",)


def dia(f: Formula) -> Formula:
    """dia f, stored as !box!f."""
    return Not(Box(Not(f)))


class Connective(NamedTuple):
    """How one connective is written, where it binds and what it means.

    A constant is written `word`, a unary connective `word sub`, a binary
    one `left word right`.  Each operand is rendered at its context
    precedence and parenthesized when its own connective binds more
    loosely; the parser groups by the same numbers, so a binary connective
    whose right context is its own precedence is right-associative.  A
    modality's dual is the word for not-op-not, which parse reads as sugar
    and to_text writes back.  A Boolean connective's truth(u, a, b) maps
    the universe and its operands' extensions to its own, ignoring any
    operand past its arity.
    """

    word: str
    prec: int
    operands: tuple[int, ...]  # the context precedence of each operand
    dual: str | None = None
    truth: Callable[[int, int, int], int] | None = None


_PREC_UNARY = 5

# the one definition of every connective's syntax and Boolean truth function
CONNECTIVES: dict[type[Formula], Connective] = {
    Top: Connective("true", _PREC_UNARY, (), truth=lambda u, a, b: u),
    Bot: Connective("false", _PREC_UNARY, (), truth=lambda u, a, b: 0),
    Not: Connective("!", _PREC_UNARY, (_PREC_UNARY,), truth=lambda u, a, b: u & ~a),
    K: Connective("K", _PREC_UNARY, (_PREC_UNARY,), dual="hatK"),
    Box: Connective("box", _PREC_UNARY, (_PREC_UNARY,), dual="dia"),
    Bel: Connective("B", _PREC_UNARY, (_PREC_UNARY,), dual="hatB"),
    And: Connective("&", 4, (4, 5), truth=lambda u, a, b: a & b),
    Or: Connective("|", 3, (3, 4), truth=lambda u, a, b: a | b),
    Implies: Connective("->", 2, (3, 2), truth=lambda u, a, b: (u & ~a) | b),
    Iff: Connective("<->", 1, (2, 1), truth=lambda u, a, b: u & ~(a ^ b)),
}

# modality word -> node class, in the order K, box, B
MODALITIES: dict[str, type[Formula]] = {c.word: cls for cls, c in CONNECTIVES.items() if c.dual}

ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
# the connective words an atom name would read as: true, false, box, dia
_RESERVED = frozenset(
    w for c in CONNECTIVES.values() for w in (c.word, c.dual) if w and ATOM_RE.match(w)
)

_INFIX = {c.word: (cls, c) for cls, c in CONNECTIVES.items() if len(c.operands) == 2}
_PREFIX: dict[str, Callable[[Formula], Formula]] = {"~": Not}
_PREFIX |= {c.word: cls for cls, c in CONNECTIVES.items() if len(c.operands) == 1}
_PREFIX |= {c.dual: lambda f, op=cls: Not(op(Not(f))) for cls, c in CONNECTIVES.items() if c.dual}
_CONSTANTS = {c.word: cls() for cls, c in CONNECTIVES.items() if not c.operands}

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SYMBOLS = (*_INFIX, *(w for w in _PREFIX if not w.isalpha()), "(", ")")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Yield (kind, value, offset) triples; kinds: word, sym, end.

    Raises NestingError once more than MAX_DEPTH parentheses are open."""
    tokens = []
    i = opened = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _WORD_RE.match(text, i)
        if m:
            tokens.append(("word", m.group(), i))
            i = m.end()
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(("sym", sym, i))
                i += len(sym)
                opened += (sym == "(") - (sym == ")")
                if opened > MAX_DEPTH:
                    raise NestingError()
                break
        else:
            raise ParseError(f"unknown operator token {text[i]!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> None:
        kind, value, offset = self.peek()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}", offset)
        self.advance()

    def formula(self, context: int = 0) -> Formula:
        """The longest formula whose binary connectives bind at least as
        tightly as the context (precedence climbing over CONNECTIVES)."""
        out = self.unary()
        while True:
            hit = _INFIX.get(self.peek()[1])
            if hit is None or hit[1].prec < context:
                return out
            self.advance()
            cls, c = hit
            out = cls(out, self.formula(c.operands[1]))

    def unary(self) -> Formula:
        op = _PREFIX.get(self.peek()[1])
        if op is None:
            return self.atom()
        self.advance()
        return op(self.unary())

    def atom(self) -> Formula:
        kind, value, offset = self.advance()
        if kind == "word":
            if value in _CONSTANTS:
                return _CONSTANTS[value]
            if ATOM_RE.match(value):
                return Atom(value)
            raise ParseError(f"unknown operator token {value!r}", offset)
        if kind == "sym" and value == "(":
            inner = self.formula()
            self.expect_sym(")")
            return inner
        raise ParseError("expected a formula", offset)


def parse(text: str) -> Formula:
    """Parse the ASCII surface syntax into a (desugared) Formula.

    The one depth check in the package: input nested deeper than
    MAX_DEPTH, or too deep for the parser's stack, raises NestingError.
    Formulas built in code have no depth limit.
    """
    p = _Parser(text)
    try:
        out = p.formula()
    except RecursionError:
        raise NestingError() from None
    kind, value, offset = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", offset)
    if out._depth > MAX_DEPTH:
        raise NestingError()
    return out


def to_text(f: Formula) -> str:
    """Canonical rendering; round-trips through parse.

    Written left to right with an explicit stack of pending text and
    (subformula, context) pairs, so it is linear in the text at any depth.
    """
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, context = item
        cls = type(g)
        c = CONNECTIVES.get(cls)
        if c is None:
            if cls is Atom or cls is Meta:
                out.append(g.name)
                continue
            raise FormulaError(f"not a formula node: {g!r}")
        if c.prec < context:
            out.append("(")
            stack.append(")")
        if not c.operands:
            out.append(c.word)
        elif len(c.operands) == 2:
            left, right = c.operands
            stack += [(g.right, right), f" {c.word} ", (g.left, left)]
        else:
            word, sub = c.word, g.sub
            inner = CONNECTIVES.get(type(sub))
            if cls is Not and inner is not None and inner.dual and type(sub.sub) is Not:
                word, sub = inner.dual, sub.sub.sub
            out.append(f"{word} ")
            stack.append((sub, c.operands[0]))
    return "".join(out)


def postorder(f: Formula) -> tuple[Formula, ...]:
    """f's distinct subformulas, each after its children, left to right.

    One iterative depth-first walk, so any depth is fine; the tuple is
    stored on f alone, not on its descendants, so a chain's memory stays
    linear in its length.
    """
    out = f._postorder
    if out is None:
        order: list[Formula] = []
        seen: set[Formula] = set()
        stack = [(f, False)]
        while stack:
            g, expanded = stack.pop()
            if expanded:  # its children are listed
                order.append(g)
            elif g not in seen:
                seen.add(g)
                stack.append((g, True))
                stack.extend((h, False) for h in reversed(g._children))
        out = tuple(order)
        object.__setattr__(f, "_postorder", out)
    return out


def _rebuild(entries: tuple[tuple, ...]) -> Formula:
    """The node of Formula.__reduce__'s entries: each built from the ones before it."""
    built: list[Formula] = []
    for cls, *fields in entries:
        built.append(cls(*(built[v] if type(v) is int else v[0] for v in fields)))
    return built[-1]


def subformulas(f: Formula) -> frozenset[Formula]:
    """The formula and all of its descendants, each once."""
    return frozenset(postorder(f))


def _map_nodes(f: Formula, fn: Callable[[Formula], Formula | None]) -> Formula:
    """Rebuild bottom-up; fn may replace a node (given its rebuilt children).

    One loop over postorder(f), so each distinct subformula is rebuilt
    once, at any depth.
    """
    out: dict[Formula, Formula] = {}
    for g in postorder(f):
        kids = g._children
        h = type(g)(*[out[k] for k in kids]) if kids else g
        replaced = fn(h)
        out[g] = h if replaced is None else replaced
    return out[f]


T_MAP = "T"
E_MAP = "E"
ALPHA_MAP = "ALPHA"


def translate(f: Formula, mapping: str) -> Formula:
    """Apply one of the named operator-replacement maps.

    T      every box phi becomes K phi (the result reads in the K/B fragment)
    E      every B phi becomes K dia box phi (eliminates B)
    ALPHA  every B phi becomes B dia box phi (keeps B, innermost first)
    """
    if mapping == T_MAP:
        return _map_nodes(f, lambda g: K(g.sub) if isinstance(g, Box) else None)
    if mapping == E_MAP:
        return _map_nodes(f, lambda g: K(dia(Box(g.sub))) if isinstance(g, Bel) else None)
    if mapping == ALPHA_MAP:
        return _map_nodes(f, lambda g: Bel(dia(Box(g.sub))) if isinstance(g, Bel) else None)
    raise FormulaError(f"unknown translation map {mapping!r}")


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in postorder(f) if type(g) is Atom)


def modalities(f: Formula) -> frozenset[str]:
    kinds = {type(g) for g in postorder(f)}
    return frozenset(word for word, cls in MODALITIES.items() if cls in kinds)


def modal_depth(f: Formula) -> int:
    """Most modalities on one path from f down to a leaf; one loop over
    postorder(f), so each distinct subformula is visited once."""
    modal = set(MODALITIES.values())
    depth: dict[Formula, int] = {}
    for g in postorder(f):
        d = max((depth[h] for h in g._children), default=0)
        depth[g] = d + 1 if type(g) in modal else d
    return depth[f]


class Scheme(Record):
    """An axiom scheme: a template over metavariables phi, psi."""

    __slots__ = _fields = ("name", "template")
    name: str
    template: Formula

    def metavariables(self) -> frozenset[str]:
        return frozenset(g.name for g in postorder(self.template) if type(g) is Meta)


def instantiate(scheme: Scheme, subst: Mapping[str, Formula]) -> Formula:
    """Homomorphic substitution of every metavariable in the template."""
    names = sorted(scheme.metavariables())
    missing = [name for name in names if name not in subst]
    if missing:
        raise FormulaError(f"scheme {scheme.name}: no binding for {missing}")
    return next(instances(scheme, [[subst[name] for name in names]]))


def instances(scheme: Scheme, bindings: Iterable[Sequence[Formula]]) -> Iterator[Formula]:
    """The template under each binding in turn, a binding giving a formula
    for each metavariable in sorted name order.

    postorder(template) is read once, into a plan: the nodes at or above a
    metavariable, children first, each as its class and the places of its
    children in a list that starts with the binding, then the nodes
    without a metavariable that the rebuilt ones read.  Each instance is
    built by one loop over the plan, so any depth is fine, and reads a
    node already built straight from the intern table.
    """
    names = sorted(scheme.metavariables())
    template = scheme.template
    varying = {Meta(name) for name in names}
    rebuilt = []  # the nodes at or above a metavariable, in postorder
    for g in postorder(template):
        if any(k in varying for k in g._children):
            varying.add(g)
            rebuilt.append(g)
    place = {Meta(name): i for i, name in enumerate(names)}
    # the nodes without a metavariable that the plan reads: children of
    # rebuilt nodes, or the template itself when nothing is rebuilt
    fixed: list[Formula] = []
    for k in [k for g in rebuilt for k in g._children] or [template]:
        if k not in varying and k not in place:
            place[k] = len(names) + len(fixed)
            fixed.append(k)
    plan = []  # per rebuilt node: its class and its children's places (b None if unary)
    for g in rebuilt:
        place[g] = len(names) + len(fixed) + len(plan)
        a, *b = (place[k] for k in g._children)
        plan.append((type(g), a, b[0] if b else None))
    root = place[template]
    for binding in bindings:
        built = [*binding, *fixed]
        for cls, a, b in plan:  # the interned node if there is one, as __new__ would
            key = (cls, built[a]) if b is None else (cls, built[a], built[b])
            node = _NODES.get(key)
            built.append(cls(*key[1:]) if node is None else node)
        yield built[root]


PHI = Meta("phi")
PSI = Meta("psi")

def _star_schemes() -> dict[str, Scheme]:
    out = {}
    for star, op in MODALITIES.items():
        out[f"K_{star}"] = Scheme(
            f"K_{star}", Implies(op(Implies(PHI, PSI)), Implies(op(PHI), op(PSI)))
        )
        out[f"D_{star}"] = Scheme(f"D_{star}", Implies(op(PHI), Not(op(Not(PHI)))))
        out[f"T_{star}"] = Scheme(f"T_{star}", Implies(op(PHI), PHI))
        out[f"4_{star}"] = Scheme(f"4_{star}", Implies(op(PHI), op(op(PHI))))
        out[f".2_{star}"] = Scheme(
            f".2_{star}", Implies(Not(op(Not(op(PHI)))), op(Not(op(Not(PHI)))))
        )
        out[f"5_{star}"] = Scheme(f"5_{star}", Implies(Not(op(PHI)), op(Not(op(PHI)))))
    return out


SCHEMES: dict[str, Scheme] = {
    **_star_schemes(),
    # knowledge/belief bridges
    "sPI": Scheme("sPI", Implies(Bel(PHI), K(Bel(PHI)))),
    "sNI": Scheme("sNI", Implies(Not(Bel(PHI)), K(Not(Bel(PHI))))),
    "KB": Scheme("KB", Implies(K(PHI), Bel(PHI))),
    "FB": Scheme("FB", Implies(Bel(PHI), Bel(K(PHI)))),
    "RB": Scheme("RB", Implies(Bel(PHI), Bel(Box(PHI)))),
    "wF": Scheme("wF", Implies(Bel(PHI), dia(PHI))),
    "CB": Scheme("CB", Bel(Or(Box(PHI), Box(Not(Box(PHI)))))),
    "KI": Scheme("KI", Implies(K(PHI), Box(PHI))),
    "EQ": Scheme("EQ", Iff(Bel(PHI), K(dia(Box(PHI))))),
}


def get_scheme(name: str) -> Scheme:
    try:
        return SCHEMES[name]
    except KeyError:
        raise FormulaError(f"unknown scheme {name!r}") from None


def formula_corpus(
    connectives: tuple[str, ...] = ("K", "box", "B"),
) -> tuple[Formula, ...]:
    """A fixed, deterministic formula corpus over atoms p, q.

    Complete enumeration of formulas with at most three AST nodes over the
    given modalities, plus a curated batch of deeper (modal depth 3)
    formulas.  Tests and soundness sweeps key their exhaustive claims to
    this list, so its content is versioned: do not reorder casually.
    """
    p, q = Atom("p"), Atom("q")
    ops = [MODALITIES[c] for c in connectives]
    size1: list[Formula] = [p, q]
    size2: list[Formula] = [Not(f) for f in size1]
    size2 += [op(f) for op in ops for f in size1]
    size3: list[Formula] = [Not(f) for f in size2]
    size3 += [op(f) for op in ops for f in size2]
    size3 += [cls(a, b) for cls in (And, Or, Implies) for a in size1 for b in size1]
    corpus = size1 + size2 + size3
    for op1 in ops:
        for op2 in ops:
            for op3 in ops:
                corpus.append(op1(op2(op3(p))))
    corpus.append(Not(ops[0](Not(ops[-1](And(p, q))))))
    corpus.append(Implies(ops[-1](p), ops[0](Not(ops[-1](Not(q))))))
    seen: dict[Formula, None] = dict.fromkeys(corpus)
    return tuple(seen)
