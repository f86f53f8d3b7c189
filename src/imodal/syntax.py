"""Formula ASTs for the three modal languages, parsing, printing, substitution,
and the syntactic translations between the languages.

Dialects:
  * ``modal``   -- box/diamond language (Box, Dia)
  * ``nabla``   -- single monotone modality (Nabla)
  * ``bimodal`` -- indexed boxes/diamonds over the indices ``N`` and ``E``

One token table, ``_TOKENS``, gives each token's ASCII spelling, its UTF-8
synonym and what it stands for; a modality's entry names the node class it
builds, which fixes its dialect, and the index.  The tokenizer is a regular
expression built from the table, the parser looks tokens up in it, and the
printer spells nodes from its inverse.  An atom is ``p`` and ASCII digits.
Negation and verum are abbreviations: ``~x`` parses to ``x -> F`` and ``T``
to ``F -> F``; the printer re-sugars both.

Formula nodes are hash-consed (see ``Formula``): equal formulas are one
object, so equality is identity.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping

DIALECTS = ("modal", "nabla", "bimodal")

BI_INDICES = ("N", "E")

# (class, *fields) -> the one live node with those fields
_NODES = weakref.WeakValueDictionary()


class Formula:
    """Base of the formula classes.  Nodes are hash-consed: constructing a
    node whose class and fields equal those of a live node, kept in a weak
    table, returns that node, so equal formulas are one object, a shared
    subformula is stored once, and equality is identity.  Copies and
    unpickled nodes are the canonical node.  Each node keeps its hash, that
    of its field tuple (as a frozen dataclass would), and ``dialects``, the
    dialects it belongs to; both are computed once, at construction."""

    __slots__ = ("_hash", "dialects", "__weakref__")
    _fields: tuple = ()
    _children: tuple = ()  # the fields that hold subformulas
    _dialects: frozenset = frozenset(DIALECTS)  # those the node's own operator is in

    def __new__(cls, *args):
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            if len(args) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
            node = object.__new__(cls)
            dialects = cls._dialects
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
                if name in cls._children:
                    if not isinstance(value, Formula):
                        raise TypeError(f"not a formula: {value!r}")
                    dialects = dialects & value.dialects
            object.__setattr__(node, "dialects", dialects)
            object.__setattr__(node, "_hash", hash(args))
            _NODES[key] = node
        return node

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Atom(Formula):
    __slots__ = _fields = ("index",)


class Falsum(Formula):
    __slots__ = ()


class And(Formula):
    __slots__ = _fields = _children = ("left", "right")


class Or(Formula):
    __slots__ = _fields = _children = ("left", "right")


class Implies(Formula):
    __slots__ = _fields = _children = ("left", "right")


class Box(Formula):
    __slots__ = _fields = _children = ("sub",)
    _dialects = frozenset({"modal"})


class Dia(Formula):
    __slots__ = _fields = _children = ("sub",)
    _dialects = frozenset({"modal"})


class Nabla(Formula):
    __slots__ = _fields = _children = ("sub",)
    _dialects = frozenset({"nabla"})


class BiBox(Formula):
    __slots__ = _fields = ("index", "sub")  # index: "N" or "E"
    _children = ("sub",)
    _dialects = frozenset({"bimodal"})


class BiDia(Formula):
    __slots__ = _fields = ("index", "sub")
    _children = ("sub",)
    _dialects = frozenset({"bimodal"})


FALSUM = Falsum()
TRUE = Implies(FALSUM, FALSUM)


def neg(phi: Formula) -> Formula:
    return Implies(phi, FALSUM)


@dataclass(frozen=True)
class Consecution:
    """An expression ``Gamma |- phi``; the context is a set."""

    context: frozenset
    conclusion: Formula


def consecution(context: Iterable[Formula], conclusion: Formula) -> Consecution:
    return Consecution(frozenset(context), conclusion)


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# The token table, the tokenizer, the parser and the printer
# ---------------------------------------------------------------------------

# Every token but an atom: its kind, its ASCII spelling, its UTF-8 synonym and
# what it stands for, which is a binary node class, ``neg``, a constant, or a
# modality's node class and index.  A modality's dialect is its class's.
_TOKENS = (
    ("op", "->", "→", Implies),
    ("op", "|", "∨", Or),
    ("op", "&", "∧", And),
    ("op", "~", "¬", neg),
    ("const", "F", "⊥", FALSUM),
    ("const", "T", "⊤", TRUE),
    ("lpar", "(", None, None),
    ("rpar", ")", None, None),
    ("mod", "[]", "□", (Box, None)),
    ("mod", "<>", "◇", (Dia, None)),
    ("mod", "nabla", "▽", (Nabla, None)),
    ("mod", "[N]", None, (BiBox, "N")),
    ("mod", "<N>", None, (BiDia, "N")),
    ("mod", "[E]", None, (BiBox, "E")),
    ("mod", "<E>", None, (BiDia, "E")),
)

# spelling or synonym -> (kind, ASCII spelling), the token the parser reads
_READ = {text: (kind, spelling) for kind, spelling, synonym, _ in _TOKENS
         for text in (spelling, synonym) if text}
_MEANING = {spelling: meaning for _, spelling, _, meaning in _TOKENS}
_SPELLING = {meaning: spelling for spelling, meaning in _MEANING.items() if meaning}

# ``\s`` matches where ``str.isspace()`` holds; atom indices are ASCII digits.
# No spelling is a prefix of another, so the order of the alternatives is free.
_LEXER = re.compile(r"(?P<space>\s+)|p(?P<atom>[0-9]+)|(?P<token>{})|(?P<bad>.)".format(
    "|".join(map(re.escape, _READ))), re.DOTALL)

_MALFORMED = {"[": "malformed box modality", "<": "malformed diamond modality"}


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    for m in _LEXER.finditer(text):
        group, pos = m.lastgroup, m.start()
        if group == "token":
            tokens.append((*_READ[m.group()], pos))
        elif group == "atom":
            tokens.append(("atom", int(m.group("atom")), pos))
        elif group == "bad":
            c = m.group()
            raise FormulaSyntaxError(_MALFORMED.get(c, f"unexpected character {c!r}"), pos)
    tokens.append(("end", None, len(text)))
    return tokens


# Deepest formula the parser accepts, counting ``~``, modalities, parentheses
# and binary operators.  Printing, hashing and evaluating recurse once or
# twice per level, and the parser itself four times per parenthesis, so this
# keeps them all inside Python's default recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; every method returns a formula with its depth."""

    def __init__(self, tokens, dialect: str):
        self.tokens = tokens
        self.pos = 0
        self.dialect = dialect
        self.depth = 0  # levels open around the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def check(self, depth: int, pos: int) -> int:
        if self.depth + depth > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nested more than {MAX_DEPTH} deep", pos)
        return depth

    def nested(self, parse, pos: int, *args):
        """Parse one level deeper than the current token."""
        self.depth += 1
        self.check(0, pos)
        node, depth = parse(*args)
        self.depth -= 1
        return node, self.check(depth + 1, pos)

    def parse_binary(self, min_prec: int = 1):
        """Precedence climbing over the printer's table ``_BINARY``: each
        right operand is parsed at the precedence the table asks of it, and
        that of the right-associative ``->`` one level deeper."""
        node, depth = self.parse_unary()
        while (op := _MEANING.get(self.peek()[1])) in _BINARY and _BINARY[op][0] >= min_prec:
            pos = self.advance()[2]
            if op is Implies:
                right, rdepth = self.nested(self.parse_binary, pos, _BINARY[op][2])
                node, depth = op(node, right), self.check(max(depth + 1, rdepth), pos)
            else:
                right, rdepth = self.parse_binary(_BINARY[op][2])
                node, depth = op(node, right), self.check(max(depth, rdepth) + 1, pos)
        return node, depth

    def parse_unary(self):
        kind, value, pos = self.peek()
        if _MEANING.get(value) is neg:
            self.advance()
            sub, depth = self.nested(self.parse_unary, pos)
            return neg(sub), depth
        if kind == "mod":
            node, index = _MEANING[value]
            if self.dialect not in node._dialects:
                raise FormulaSyntaxError(
                    f"modality {value!r} is not part of the {self.dialect} dialect", pos)
            self.advance()
            sub, depth = self.nested(self.parse_unary, pos)
            return (node(sub) if index is None else node(index, sub)), depth
        return self.parse_atom()

    def parse_atom(self):
        kind, value, pos = self.advance()
        if kind == "atom":
            return Atom(value), 0
        if kind == "const":
            node = _MEANING[value]
            return node, int(node is TRUE)  # T is F -> F
        if kind == "lpar":
            node = self.nested(self.parse_binary, pos)
            self.expect("rpar")
            return node
        raise FormulaSyntaxError(f"unexpected token {value!r}", pos)


def parse(text: str, dialect: str = "modal") -> Formula:
    """Parse ``text`` in the given dialect.

    Precedence: ``~`` and the modalities bind tightest, then ``&``, then
    ``|``; ``->`` is weakest and right-associative.
    """
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")
    parser = _Parser(_tokenize(text), dialect)
    node, _ = parser.parse_binary()
    tok = parser.peek()
    if tok[0] != "end":
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return node


_PREC_UNARY, _PREC_ATOM = 4, 5
# binary node class -> its precedence and those asked of its left and right
# operands: & and | group to the left, -> to the right
_BINARY = {Implies: (1, 2, 1), Or: (2, 2, 3), And: (3, 3, 4)}


def _render(phi: Formula, min_prec: int) -> str:
    if phi is TRUE or phi is FALSUM:
        text, prec = _SPELLING[phi], _PREC_ATOM
    elif isinstance(phi, Atom):
        text, prec = f"p{phi.index}", _PREC_ATOM
    elif isinstance(phi, Implies) and phi.right is FALSUM:
        text, prec = _SPELLING[neg] + _render(phi.left, _PREC_UNARY), _PREC_UNARY
    elif isinstance(phi, (Box, Dia, Nabla, BiBox, BiDia)):
        prefix = _SPELLING[type(phi), getattr(phi, "index", None)]
        if prefix.isalpha():  # a word, ``nabla``, is set off from its operand
            prefix += " "
        text, prec = prefix + _render(phi.sub, _PREC_UNARY), _PREC_UNARY
    elif type(phi) in _BINARY:
        prec, left, right = _BINARY[type(phi)]
        text = f"{_render(phi.left, left)} {_SPELLING[type(phi)]} {_render(phi.right, right)}"
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if prec < min_prec:
        return "(" + text + ")"
    return text


def show(phi: Formula) -> str:
    """Minimal-parenthesis rendering; ``parse(show(phi)) == phi``."""
    return _render(phi, 0)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def substitute(schema: Formula, mapping: Mapping[int, Formula]) -> Formula:
    """Simultaneous substitution of formulas for atoms; unmapped atoms stay."""
    if isinstance(schema, Atom):
        return mapping.get(schema.index, schema)
    if isinstance(schema, Falsum):
        return schema
    if isinstance(schema, (And, Or, Implies)):
        return type(schema)(substitute(schema.left, mapping),
                            substitute(schema.right, mapping))
    if isinstance(schema, (Box, Dia, Nabla)):
        return type(schema)(substitute(schema.sub, mapping))
    if isinstance(schema, (BiBox, BiDia)):
        return type(schema)(schema.index, substitute(schema.sub, mapping))
    raise TypeError(f"not a formula: {schema!r}")


def modal_depth(phi: Formula) -> int:
    """Maximum nesting of modalities and implications along any branch.

    Implications count because their semantics quantifies over order
    successors.  The verum abbreviation ``F -> F`` costs nothing.
    """
    if phi is TRUE or isinstance(phi, (Atom, Falsum)):
        return 0
    if isinstance(phi, (And, Or)):
        return max(modal_depth(phi.left), modal_depth(phi.right))
    if isinstance(phi, Implies):
        return 1 + max(modal_depth(phi.left), modal_depth(phi.right))
    return 1 + modal_depth(phi.sub)


def in_dialect(phi: Formula, dialect: str) -> bool:
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    return dialect in phi.dialects


def _rebuild(phi: Formula, replace: Mapping, error: str) -> Formula:
    """``phi`` with each modal node replaced by ``replace[type(node)]`` of its
    rebuilt operand, homomorphically elsewhere; any other modal node raises
    ``TypeError`` with ``error``."""
    if isinstance(phi, (Atom, Falsum)):
        return phi
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(_rebuild(phi.left, replace, error),
                         _rebuild(phi.right, replace, error))
    build = replace.get(type(phi))
    if build is None:
        raise TypeError(f"{error}: {phi!r}")
    return build(_rebuild(phi.sub, replace, error))


def embed_box(phi: Formula) -> Formula:
    """Replace each nabla with a box, homomorphically elsewhere."""
    return _rebuild(phi, {Nabla: Box}, "not a nabla-dialect formula")


def embed_dia(phi: Formula) -> Formula:
    """Replace each nabla with a diamond, homomorphically elsewhere."""
    return _rebuild(phi, {Nabla: Dia}, "not a nabla-dialect formula")


def translate_bimodal(phi: Formula) -> Formula:
    """Modal-to-bimodal translation: box |-> <N>[E], diamond |-> [N]<E>."""
    return _rebuild(phi, {Box: lambda sub: BiDia("N", BiBox("E", sub)),
                          Dia: lambda sub: BiBox("N", BiDia("E", sub))},
                    "not a modal-dialect formula")
