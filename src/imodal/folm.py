"""Two-sorted first-order side: sorted FO formulas, the standard translation,
intuitionistic-Kripke evaluation (classical, Tarskian evaluation is its case
of one world), direct modal evaluation on growing-structure posets, and the
classical maps between neighbourhood models and their first-order
presentations.

The direct modal evaluation ``eval_modal_ifom`` is kept apart from the
neighbourhood clauses in ``models``, which evaluate a structure through its
image ``bullet``; the two routes check each other.

Sorts are ``"s"`` (states) and ``"n"`` (neighbourhoods).  The signature has a
binary predicate N between s and n, a binary predicate E between n and s, and
a unary predicate P_i of sort s per atom.  The modal falsum translates to a
primitive always-false formula rather than an inequality, since the signature
carries no equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .orders import is_partial_order, successors
from .syntax import And, Atom, Box, Dia, Falsum, Formula, Implies, Or

SORT_STATE = "s"
SORT_NBHD = "n"


@dataclass(frozen=True)
class Var:
    sort: str
    name: str


@dataclass(frozen=True)
class PredP:
    index: int
    term: Var


@dataclass(frozen=True)
class RelN:
    state: Var
    nbhd: Var


@dataclass(frozen=True)
class RelE:
    nbhd: Var
    state: Var


@dataclass(frozen=True)
class FoFalsum:
    pass


@dataclass(frozen=True)
class FoAnd:
    left: "FOFormula"
    right: "FOFormula"


@dataclass(frozen=True)
class FoOr:
    left: "FOFormula"
    right: "FOFormula"


@dataclass(frozen=True)
class FoImplies:
    left: "FOFormula"
    right: "FOFormula"


@dataclass(frozen=True)
class Forall:
    var: Var
    body: "FOFormula"


@dataclass(frozen=True)
class Exists:
    var: Var
    body: "FOFormula"


FOFormula = Union[PredP, RelN, RelE, FoFalsum, FoAnd, FoOr, FoImplies, Forall, Exists]

FO_FALSUM = FoFalsum()


class EvaluationError(ValueError):
    pass


class UnboundVariableError(EvaluationError):
    pass


class SortMismatchError(EvaluationError):
    pass


def free_vars(phi: FOFormula) -> frozenset:
    if isinstance(phi, PredP):
        return frozenset([phi.term])
    if isinstance(phi, RelN):
        return frozenset([phi.state, phi.nbhd])
    if isinstance(phi, RelE):
        return frozenset([phi.nbhd, phi.state])
    if isinstance(phi, FoFalsum):
        return frozenset()
    if isinstance(phi, (FoAnd, FoOr, FoImplies)):
        return free_vars(phi.left) | free_vars(phi.right)
    return free_vars(phi.body) - {phi.var}


def well_sorted(phi: FOFormula) -> bool:
    if isinstance(phi, PredP):
        return phi.term.sort == SORT_STATE
    if isinstance(phi, RelN):
        return phi.state.sort == SORT_STATE and phi.nbhd.sort == SORT_NBHD
    if isinstance(phi, RelE):
        return phi.nbhd.sort == SORT_NBHD and phi.state.sort == SORT_STATE
    if isinstance(phi, FoFalsum):
        return True
    if isinstance(phi, (FoAnd, FoOr, FoImplies)):
        return well_sorted(phi.left) and well_sorted(phi.right)
    return well_sorted(phi.body)


def show_fo(phi: FOFormula) -> str:
    if isinstance(phi, PredP):
        return f"P{phi.index}({phi.term.name})"
    if isinstance(phi, RelN):
        return f"{phi.state.name} N {phi.nbhd.name}"
    if isinstance(phi, RelE):
        return f"{phi.nbhd.name} E {phi.state.name}"
    if isinstance(phi, FoFalsum):
        return "F"
    if isinstance(phi, FoAnd):
        return f"({show_fo(phi.left)} & {show_fo(phi.right)})"
    if isinstance(phi, FoOr):
        return f"({show_fo(phi.left)} | {show_fo(phi.right)})"
    if isinstance(phi, FoImplies):
        return f"({show_fo(phi.left)} -> {show_fo(phi.right)})"
    if isinstance(phi, Forall):
        return f"forall {phi.var.name}:{phi.var.sort}. {show_fo(phi.body)}"
    if isinstance(phi, Exists):
        return f"exists {phi.var.name}:{phi.var.sort}. {show_fo(phi.body)}"
    raise TypeError(f"not a first-order formula: {phi!r}")


# ---------------------------------------------------------------------------
# Standard translation
# ---------------------------------------------------------------------------

def standard_translation(phi: Formula, var: Var = Var(SORT_STATE, "x")) -> FOFormula:
    """The standard translation of a box/diamond formula at ``var``.

    Bound variables are indexed by the modal nesting depth at which they are
    introduced (``a0, y0, a1, y1, ...``), so the output is deterministic and
    capture-free.
    """
    if var.sort != SORT_STATE:
        raise SortMismatchError("translation variable must have the state sort")
    return _st(phi, var, 0)


def _st(phi: Formula, x: Var, depth: int) -> FOFormula:
    if isinstance(phi, Atom):
        return PredP(phi.index, x)
    if isinstance(phi, Falsum):
        return FO_FALSUM
    if isinstance(phi, And):
        return FoAnd(_st(phi.left, x, depth), _st(phi.right, x, depth))
    if isinstance(phi, Or):
        return FoOr(_st(phi.left, x, depth), _st(phi.right, x, depth))
    if isinstance(phi, Implies):
        return FoImplies(_st(phi.left, x, depth), _st(phi.right, x, depth))
    a = Var(SORT_NBHD, f"a{depth}")
    y = Var(SORT_STATE, f"y{depth}")
    if isinstance(phi, Box):
        return Exists(a, FoAnd(RelN(x, a),
                               Forall(y, FoImplies(RelE(a, y), _st(phi.sub, y, depth + 1)))))
    if isinstance(phi, Dia):
        return Forall(a, FoImplies(RelN(x, a),
                                   Exists(y, FoAnd(RelE(a, y), _st(phi.sub, y, depth + 1)))))
    raise TypeError(f"not a modal-dialect formula: {phi!r}")


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FOMStructure:
    """Classical two-sorted structure.

    The neighbourhood sort may be empty: images of neighbourhood models with
    empty neighbourhood maps naturally produce an empty n-domain, and nothing
    downstream requires nonemptiness.
    """

    states: frozenset
    nbhds: frozenset
    relN: frozenset  # pairs (state, nbhd)
    relE: frozenset  # pairs (nbhd, state)
    preds: Mapping[int, frozenset]


def validate_fom(m: FOMStructure) -> list:
    out = []
    if not m.states:
        out.append(("empty-states",))
    for (w, a) in m.relN:
        if w not in m.states or a not in m.nbhds:
            out.append(("relN-out-of-domain", w, a))
    for (a, w) in m.relE:
        if a not in m.nbhds or w not in m.states:
            out.append(("relE-out-of-domain", a, w))
    for i, ext in m.preds.items():
        for w in ext:
            if w not in m.states:
                out.append(("pred-out-of-domain", i, w))
    return out


@dataclass(frozen=True)
class IFOMStructure:
    """Poset of worlds, each carrying a classical structure; the per-world
    structures grow monotonically along the order."""

    worlds: frozenset
    leq: frozenset
    interp: Mapping  # world -> FOMStructure


def validate_ifom(s: IFOMStructure) -> list:
    out = []
    if set(s.interp) != set(s.worlds):
        out.append(("interpretation-world-mismatch",))
        return out
    if not is_partial_order(s.worlds, s.leq):
        out.append(("not-a-partial-order",))
    for (w, v) in s.leq:
        a, b = s.interp[w], s.interp[v]
        if not (a.states <= b.states and a.nbhds <= b.nbhds
                and a.relN <= b.relN and a.relE <= b.relE):
            out.append(("non-monotone-growth", w, v))
        for i, ext in a.preds.items():
            if not ext <= b.preds.get(i, frozenset()):
                out.append(("non-monotone-pred", w, v, i))
    for w in s.worlds:
        out.extend(("at-world", w) + v for v in validate_fom(s.interp[w]))
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _domain(m: FOMStructure, sort: str):
    return m.states if sort == SORT_STATE else m.nbhds


def _check_env(m: FOMStructure, phi: FOFormula, env) -> None:
    for v in free_vars(phi):
        if v not in env:
            raise UnboundVariableError(f"unbound variable {v.name}:{v.sort}")
        if env[v] not in _domain(m, v.sort):
            raise SortMismatchError(f"{env[v]!r} is not in the {v.sort}-domain")


def eval_fo_classical(m: FOMStructure, phi: FOFormula, env: Mapping) -> bool:
    """Standard classical satisfaction; ``env`` covers the free variables.  A
    classical structure is a Kripke structure with one world."""
    return eval_fo_kripke(IFOMStructure(frozenset((0,)), frozenset(((0, 0),)), {0: m}),
                          0, phi, env)


def eval_fo_kripke(s: IFOMStructure, w, phi: FOFormula, env: Mapping) -> bool:
    """Intuitionistic Kripke semantics with increasing domains.

    Universal quantification and implication range over order successors;
    existentials, conjunction, disjunction and atoms are local.
    """
    if w not in s.worlds:
        raise EvaluationError(f"unknown world {w!r}")
    if not well_sorted(phi):
        raise SortMismatchError("formula is not well-sorted")
    _check_env(s.interp[w], phi, env)
    memo: dict = {}
    return _eval_kripke(s, w, phi, frozenset(env.items()), memo)


def _eval_kripke(s: IFOMStructure, w, phi, env_items, memo) -> bool:
    key = (w, phi, env_items)
    if key in memo:
        return memo[key]
    env = dict(env_items)
    m = s.interp[w]
    if isinstance(phi, PredP):
        result = env[phi.term] in m.preds.get(phi.index, frozenset())
    elif isinstance(phi, RelN):
        result = (env[phi.state], env[phi.nbhd]) in m.relN
    elif isinstance(phi, RelE):
        result = (env[phi.nbhd], env[phi.state]) in m.relE
    elif isinstance(phi, FoFalsum):
        result = False
    elif isinstance(phi, FoAnd):
        result = (_eval_kripke(s, w, phi.left, env_items, memo)
                  and _eval_kripke(s, w, phi.right, env_items, memo))
    elif isinstance(phi, FoOr):
        result = (_eval_kripke(s, w, phi.left, env_items, memo)
                  or _eval_kripke(s, w, phi.right, env_items, memo))
    elif isinstance(phi, FoImplies):
        result = all(
            (not _eval_kripke(s, v, phi.left, env_items, memo))
            or _eval_kripke(s, v, phi.right, env_items, memo)
            for v in successors(s.worlds, s.leq, w))
    elif isinstance(phi, Forall):
        result = all(
            _eval_kripke(s, v, phi.body,
                         frozenset({**env, phi.var: d}.items()), memo)
            for v in successors(s.worlds, s.leq, w)
            for d in _domain(s.interp[v], phi.var.sort))
    elif isinstance(phi, Exists):
        result = any(
            _eval_kripke(s, w, phi.body, frozenset({**env, phi.var: d}.items()), memo)
            for d in _domain(m, phi.var.sort))
    else:
        raise TypeError(f"not a first-order formula: {phi!r}")
    memo[key] = result
    return result


def eval_modal_ifom(s: IFOMStructure, w, d, phi: Formula) -> bool:
    """Direct interpretation of box/diamond formulas in pairs (world, state)."""
    if w not in s.worlds:
        raise EvaluationError(f"unknown world {w!r}")
    if d not in s.interp[w].states:
        raise EvaluationError(f"{d!r} is not a state at world {w!r}")
    return _eval_pair(s, w, d, phi, {})


def _eval_pair(s: IFOMStructure, w, d, phi, memo) -> bool:
    key = (w, d, phi)
    if key in memo:
        return memo[key]
    m = s.interp[w]
    # the successors of (w, d) are the pairs (v, d) above it where d exists
    up = [v for v in successors(s.worlds, s.leq, w) if d in s.interp[v].states]
    if isinstance(phi, Atom):
        result = d in m.preds.get(phi.index, frozenset())
    elif isinstance(phi, Falsum):
        result = False
    elif isinstance(phi, And):
        result = _eval_pair(s, w, d, phi.left, memo) and _eval_pair(s, w, d, phi.right, memo)
    elif isinstance(phi, Or):
        result = _eval_pair(s, w, d, phi.left, memo) or _eval_pair(s, w, d, phi.right, memo)
    elif isinstance(phi, Implies):
        result = all((not _eval_pair(s, v, d, phi.left, memo))
                     or _eval_pair(s, v, d, phi.right, memo)
                     for v in up)
    elif isinstance(phi, Box):
        # some a N-related to d whose E-image satisfies phi.sub at every
        # successor where a is still a neighbourhood N-related to d
        result = any(
            (d, a) in m.relN
            and all(_eval_pair(s, v, x, phi.sub, memo)
                    for v in up
                    if a in s.interp[v].nbhds and (d, a) in s.interp[v].relN
                    for x in s.interp[v].states
                    if (a, x) in s.interp[v].relE)
            for a in m.nbhds)
    elif isinstance(phi, Dia):
        result = all(
            any((a, y) in s.interp[v].relE and _eval_pair(s, v, y, phi.sub, memo)
                for y in s.interp[v].states)
            for v in up
            for a in s.interp[v].nbhds
            if (d, a) in s.interp[v].relN)
    else:
        raise TypeError(f"not a modal-dialect formula: {phi!r}")
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Classical bullet / circle maps
# ---------------------------------------------------------------------------

def classical_bullet(m: FOMStructure):
    """FOM structure to classical neighbourhood model: each N-edge of a world
    contributes the E-extension of its neighbourhood element."""
    from .models import NbhdModel

    def extension(a):
        return frozenset(y for y in m.states if (a, y) in m.relE)

    nf = {w: frozenset(extension(a) for a in m.nbhds if (w, a) in m.relN)
          for w in m.states}
    val = {i: frozenset(ext) for i, ext in m.preds.items()}
    return NbhdModel(worlds=frozenset(m.states), nf=nf, val=val)


def classical_circle(model) -> FOMStructure:
    """Classical neighbourhood model to FOM structure; the n-domain is the
    union of all neighbourhood collections, so it may be empty."""
    nbhds = frozenset(a for w in model.worlds for a in model.nf.get(w, frozenset()))
    relN = frozenset((w, a) for w in model.worlds for a in model.nf.get(w, frozenset()))
    relE = frozenset((a, w) for a in nbhds for w in a)
    return FOMStructure(states=frozenset(model.worlds), nbhds=nbhds,
                        relN=relN, relE=relE,
                        preds={i: frozenset(ext) for i, ext in model.val.items()})
