"""Formula ASTs for the three modal languages, parsing, printing, substitution,
and the syntactic translations between the languages.

Dialects:
  * ``modal``   -- box/diamond language (Box, Dia)
  * ``nabla``   -- single monotone modality (Nabla)
  * ``bimodal`` -- indexed boxes/diamonds over the indices ``N`` and ``E``

Negation and verum are abbreviations: ``~x`` parses to ``x -> F`` and ``T``
parses to ``F -> F``.  The printer re-sugars both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

DIALECTS = ("modal", "nabla", "bimodal")

BI_INDICES = ("N", "E")


@dataclass(frozen=True)
class Atom:
    index: int


@dataclass(frozen=True)
class Falsum:
    pass


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    sub: "Formula"


@dataclass(frozen=True)
class Dia:
    sub: "Formula"


@dataclass(frozen=True)
class Nabla:
    sub: "Formula"


@dataclass(frozen=True)
class BiBox:
    index: str  # "N" or "E"
    sub: "Formula"


@dataclass(frozen=True)
class BiDia:
    index: str
    sub: "Formula"


Formula = Union[Atom, Falsum, And, Or, Implies, Box, Dia, Nabla, BiBox, BiDia]

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
# Tokenizer / parser
# ---------------------------------------------------------------------------

# UTF-8 synonyms for the ASCII token vocabulary.
_UTF_SYNONYMS = {
    "□": "[]",     # box
    "◇": "<>",     # diamond
    "▽": "nabla",  # nabla
    "⊥": "F",
    "⊤": "T",
    "¬": "~",
    "∧": "&",
    "∨": "|",
    "→": "->",
}

_MODAL_TOKENS = {
    "[]": ("modal", Box),
    "<>": ("modal", Dia),
    "nabla": ("nabla", Nabla),
    "[N]": ("bimodal", lambda s: BiBox("N", s)),
    "<N>": ("bimodal", lambda s: BiDia("N", s)),
    "[E]": ("bimodal", lambda s: BiBox("E", s)),
    "<E>": ("bimodal", lambda s: BiDia("E", s)),
}


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _UTF_SYNONYMS:
            syn = _UTF_SYNONYMS[c]
            if syn in _MODAL_TOKENS:
                tokens.append(("mod", syn, i))
            elif syn == "->":
                tokens.append(("op", "->", i))
            elif syn in ("&", "|", "~"):
                tokens.append(("op", syn, i))
            else:
                tokens.append(("const", syn, i))
            i += 1
            continue
        if c == "p" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("atom", int(text[i + 1:j]), i))
            i = j
            continue
        if text.startswith("nabla", i):
            tokens.append(("mod", "nabla", i))
            i += 5
            continue
        if c == "[":
            for lit in ("[]", "[N]", "[E]"):
                if text.startswith(lit, i):
                    tokens.append(("mod", lit, i))
                    i += len(lit)
                    break
            else:
                raise FormulaSyntaxError("malformed box modality", i)
            continue
        if c == "<":
            for lit in ("<>", "<N>", "<E>"):
                if text.startswith(lit, i):
                    tokens.append(("mod", lit, i))
                    i += len(lit)
                    break
            else:
                raise FormulaSyntaxError("malformed diamond modality", i)
            continue
        if text.startswith("->", i):
            tokens.append(("op", "->", i))
            i += 2
            continue
        if c in ("&", "|", "~"):
            tokens.append(("op", c, i))
            i += 1
            continue
        if c in ("F", "T"):
            tokens.append(("const", c, i))
            i += 1
            continue
        if c == "(":
            tokens.append(("lpar", "(", i))
            i += 1
            continue
        if c == ")":
            tokens.append(("rpar", ")", i))
            i += 1
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


# Deepest formula the parser accepts, counting ``~``, modalities, parentheses
# and binary operators.  Printing, hashing and evaluating recurse once or
# twice per level, and the parser itself six times per parenthesis, so this
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

    def nested(self, parse, pos: int):
        """Parse one level deeper than the current token."""
        self.depth += 1
        self.check(0, pos)
        node, depth = parse()
        self.depth -= 1
        return node, self.check(depth + 1, pos)

    def parse_formula(self):
        left, depth = self.parse_disjunction()
        if self.peek()[:2] == ("op", "->"):
            pos = self.advance()[2]
            right, rdepth = self.nested(self.parse_formula, pos)  # right-associative
            return Implies(left, right), self.check(max(depth + 1, rdepth), pos)
        return left, depth

    def parse_disjunction(self):
        node, depth = self.parse_conjunction()
        while self.peek()[:2] == ("op", "|"):
            pos = self.advance()[2]
            right, rdepth = self.parse_conjunction()
            node, depth = Or(node, right), self.check(max(depth, rdepth) + 1, pos)
        return node, depth

    def parse_conjunction(self):
        node, depth = self.parse_unary()
        while self.peek()[:2] == ("op", "&"):
            pos = self.advance()[2]
            right, rdepth = self.parse_unary()
            node, depth = And(node, right), self.check(max(depth, rdepth) + 1, pos)
        return node, depth

    def parse_unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "~":
            self.advance()
            sub, depth = self.nested(self.parse_unary, pos)
            return neg(sub), depth
        if kind == "mod":
            required, build = _MODAL_TOKENS[value]
            if required != self.dialect:
                raise FormulaSyntaxError(
                    f"modality {value!r} is not part of the {self.dialect} dialect", pos)
            self.advance()
            sub, depth = self.nested(self.parse_unary, pos)
            return build(sub), depth
        return self.parse_atom()

    def parse_atom(self):
        kind, value, pos = self.advance()
        if kind == "atom":
            return Atom(value), 0
        if kind == "const":
            return (FALSUM, 0) if value == "F" else (TRUE, 1)
        if kind == "lpar":
            node = self.nested(self.parse_formula, pos)
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
    node, _ = parser.parse_formula()
    tok = parser.peek()
    if tok[0] != "end":
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return node


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_PREC_IMPL = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_ATOM = 5

_BI_LITERAL = {("box", "N"): "[N]", ("dia", "N"): "<N>",
               ("box", "E"): "[E]", ("dia", "E"): "<E>"}


def _render(phi: Formula, min_prec: int) -> str:
    if phi == TRUE:
        text, prec = "T", _PREC_ATOM
    elif isinstance(phi, Atom):
        text, prec = f"p{phi.index}", _PREC_ATOM
    elif isinstance(phi, Falsum):
        text, prec = "F", _PREC_ATOM
    elif isinstance(phi, Implies) and phi.right == FALSUM:
        text, prec = "~" + _render(phi.left, _PREC_UNARY), _PREC_UNARY
    elif isinstance(phi, Box):
        text, prec = "[]" + _render(phi.sub, _PREC_UNARY), _PREC_UNARY
    elif isinstance(phi, Dia):
        text, prec = "<>" + _render(phi.sub, _PREC_UNARY), _PREC_UNARY
    elif isinstance(phi, Nabla):
        text, prec = "nabla " + _render(phi.sub, _PREC_UNARY), _PREC_UNARY
    elif isinstance(phi, BiBox):
        text, prec = _BI_LITERAL[("box", phi.index)] + _render(phi.sub, _PREC_UNARY), _PREC_UNARY
    elif isinstance(phi, BiDia):
        text, prec = _BI_LITERAL[("dia", phi.index)] + _render(phi.sub, _PREC_UNARY), _PREC_UNARY
    elif isinstance(phi, And):
        text = _render(phi.left, _PREC_AND) + " & " + _render(phi.right, _PREC_AND + 1)
        prec = _PREC_AND
    elif isinstance(phi, Or):
        text = _render(phi.left, _PREC_OR) + " | " + _render(phi.right, _PREC_OR + 1)
        prec = _PREC_OR
    elif isinstance(phi, Implies):
        text = _render(phi.left, _PREC_IMPL + 1) + " -> " + _render(phi.right, _PREC_IMPL)
        prec = _PREC_IMPL
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


def atoms(phi: Formula) -> frozenset:
    if isinstance(phi, Atom):
        return frozenset([phi.index])
    if isinstance(phi, Falsum):
        return frozenset()
    if isinstance(phi, (And, Or, Implies)):
        return atoms(phi.left) | atoms(phi.right)
    return atoms(phi.sub)


def modal_depth(phi: Formula) -> int:
    """Maximum nesting of modalities and implications along any branch.

    Implications count because their semantics quantifies over order
    successors.  The verum abbreviation ``F -> F`` costs nothing.
    """
    if phi == TRUE:
        return 0
    if isinstance(phi, (Atom, Falsum)):
        return 0
    if isinstance(phi, (And, Or)):
        return max(modal_depth(phi.left), modal_depth(phi.right))
    if isinstance(phi, Implies):
        return 1 + max(modal_depth(phi.left), modal_depth(phi.right))
    return 1 + modal_depth(phi.sub)


def in_dialect(phi: Formula, dialect: str) -> bool:
    if isinstance(phi, (Atom, Falsum)):
        return True
    if isinstance(phi, (And, Or, Implies)):
        return in_dialect(phi.left, dialect) and in_dialect(phi.right, dialect)
    if isinstance(phi, (Box, Dia)):
        return dialect == "modal" and in_dialect(phi.sub, dialect)
    if isinstance(phi, Nabla):
        return dialect == "nabla" and in_dialect(phi.sub, dialect)
    if isinstance(phi, (BiBox, BiDia)):
        return dialect == "bimodal" and in_dialect(phi.sub, dialect)
    raise TypeError(f"not a formula: {phi!r}")


def embed_box(phi: Formula) -> Formula:
    """Replace each nabla with a box, homomorphically elsewhere."""
    if isinstance(phi, (Atom, Falsum)):
        return phi
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(embed_box(phi.left), embed_box(phi.right))
    if isinstance(phi, Nabla):
        return Box(embed_box(phi.sub))
    raise TypeError(f"not a nabla-dialect formula: {phi!r}")


def embed_dia(phi: Formula) -> Formula:
    """Replace each nabla with a diamond, homomorphically elsewhere."""
    if isinstance(phi, (Atom, Falsum)):
        return phi
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(embed_dia(phi.left), embed_dia(phi.right))
    if isinstance(phi, Nabla):
        return Dia(embed_dia(phi.sub))
    raise TypeError(f"not a nabla-dialect formula: {phi!r}")


def translate_bimodal(phi: Formula) -> Formula:
    """Modal-to-bimodal translation: box |-> <N>[E], diamond |-> [N]<E>."""
    if isinstance(phi, (Atom, Falsum)):
        return phi
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(translate_bimodal(phi.left), translate_bimodal(phi.right))
    if isinstance(phi, Box):
        return BiDia("N", BiBox("E", translate_bimodal(phi.sub)))
    if isinstance(phi, Dia):
        return BiBox("N", BiDia("E", translate_bimodal(phi.sub)))
    raise TypeError(f"not a modal-dialect formula: {phi!r}")
