"""Generalised Hilbert calculi as data, derivation checking with explicit
axiom certificates, the deduction-theorem transformer, derivable-rule macros
for the bimodal calculus, and the compiler from the monotone calculus into it.

The shared propositional base is a fixed ten-schema Hilbert axiomatisation of
intuitionistic logic over falsum/and/or/implies (listed in ``BASE_SCHEMAS``
and in the README).  Axiom nodes carry explicit substitution certificates;
the checker verifies, it never searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from .syntax import (And, Atom, BiBox, BiDia, Box, Consecution, Dia, FALSUM,
                     Formula, Implies, Nabla, Or, TRUE, in_dialect, neg, show,
                     substitute, translate_bimodal)

_P0, _P1, _P2 = Atom(0), Atom(1), Atom(2)

#: Propositional base: K and S, conjunction introduction/projections,
#: disjunction injections/elimination, ex falso, syllogism, identity.
BASE_SCHEMAS: Tuple[Tuple[str, Formula], ...] = (
    ("K", Implies(_P0, Implies(_P1, _P0))),
    ("S", Implies(Implies(_P0, Implies(_P1, _P2)),
                  Implies(Implies(_P0, _P1), Implies(_P0, _P2)))),
    ("and-elim-1", Implies(And(_P0, _P1), _P0)),
    ("and-elim-2", Implies(And(_P0, _P1), _P1)),
    ("and-intro", Implies(_P0, Implies(_P1, And(_P0, _P1)))),
    ("or-intro-1", Implies(_P0, Or(_P0, _P1))),
    ("or-intro-2", Implies(_P1, Or(_P0, _P1))),
    ("or-elim", Implies(Implies(_P0, _P2),
                        Implies(Implies(_P1, _P2), Implies(Or(_P0, _P1), _P2)))),
    ("ex-falso", Implies(FALSUM, _P0)),
    ("id", Implies(_P0, _P0)),
)

NEG_A = Implies(And(Box(_P0), Dia(neg(_P0))), FALSUM)
I_DIA = Implies(Implies(Box(TRUE), Dia(_P0)), Dia(_P0))


def _ik2_axioms() -> Tuple[Tuple[str, Formula], ...]:
    out = []
    for j in ("N", "E"):
        box = lambda f, j=j: BiBox(j, f)
        dia = lambda f, j=j: BiDia(j, f)
        out.extend([
            (f"k-box-{j}", Implies(box(Implies(_P0, _P1)),
                                   Implies(box(_P0), box(_P1)))),
            (f"k-dia-{j}", Implies(box(Implies(_P0, _P1)),
                                   Implies(dia(_P0), dia(_P1)))),
            (f"n-dia-{j}", neg(dia(FALSUM))),
            (f"c-dia-{j}", Implies(dia(Or(_P0, _P1)), Or(dia(_P0), dia(_P1)))),
            (f"i-diabox-{j}", Implies(Implies(dia(_P0), box(_P1)),
                                      box(Implies(_P0, _P1)))),
        ])
    return tuple(out)


@dataclass(frozen=True)
class CalculusSpec:
    name: str
    dialect: str
    axioms: Tuple[Tuple[str, Formula], ...]
    rules: frozenset

    def schema_table(self) -> Tuple[Tuple[str, Formula], ...]:
        return BASE_SCHEMAS + self.axioms

    def schema(self, schema_id: str) -> Formula:
        for sid, f in self.schema_table():
            if sid == schema_id:
                return f
        raise KeyError(f"unknown schema {schema_id!r} in calculus {self.name}")


_GHC_RULES = frozenset({"El", "Ax", "MP", "MonBox", "MonDia"})

_BUILTINS = {
    "ghc0": CalculusSpec("ghc0", "modal", (), _GHC_RULES),
    "WM": CalculusSpec("WM", "modal", (("neg-a", NEG_A),), _GHC_RULES),
    "IM_Calc": CalculusSpec("IM_Calc", "modal",
                            (("neg-a", NEG_A), ("i-dia", I_DIA)), _GHC_RULES),
    # The single-modality calculus reads nabla as box and drops MonDia; the
    # box-and-diamond axiom is not expressible in the nabla language, so the
    # modal axiom set is empty.
    "iM": CalculusSpec("iM", "nabla", (),
                       frozenset({"El", "Ax", "MP", "MonBox"})),
    "IK2": CalculusSpec("IK2", "bimodal", _ik2_axioms(),
                        frozenset({"El", "Ax", "MP", "NecN", "NecE"})),
}


def builtin_calculus(name: str) -> CalculusSpec:
    if name not in _BUILTINS:
        raise KeyError(f"unknown calculus {name!r}; "
                       f"choose from {sorted(_BUILTINS)}")
    return _BUILTINS[name]


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Derivation:
    """Tree of consecutions; ``certificate`` is the context member for El and
    a ``(schema id, substitution items)`` pair for Ax."""

    rule: str
    conclusion: Consecution
    premises: Tuple["Derivation", ...] = ()
    certificate: object = None


class DerivationError(ValueError):
    def __init__(self, path: Tuple[int, ...], reason: str):
        loc = "root" if not path else "premises " + ".".join(map(str, path))
        super().__init__(f"{loc}: {reason}")
        self.path = path
        self.reason = reason


def match_axiom(spec: CalculusSpec, phi: Formula):
    """First schema (in listed order) with a substitution mapping it onto
    ``phi``; the substitution on the schema's atoms is unique when it exists."""
    for sid, schema in spec.schema_table():
        subst = _match(schema, phi, {})
        if subst is not None:
            return sid, subst
    return None


def _match(schema: Formula, phi: Formula, subst: dict):
    if isinstance(schema, Atom):
        bound = subst.get(schema.index)
        if bound is None:
            subst = dict(subst)
            subst[schema.index] = phi
            return subst
        return subst if bound == phi else None
    if type(schema) is not type(phi):
        return None
    for name in schema._fields:  # operands match, any other field is equal
        mine, theirs = getattr(schema, name), getattr(phi, name)
        if name in schema._children:
            subst = _match(mine, theirs, subst)
            if subst is None:
                return None
        elif mine != theirs:
            return None
    return subst


def _box_for(dialect: str):
    return Nabla if dialect == "nabla" else Box


def check_derivation(spec: CalculusSpec, d: Derivation, _path: Tuple[int, ...] = ()) -> None:
    """Raise ``DerivationError`` at the first node that is not a legal rule
    application; succeed silently otherwise."""
    for i, premise in enumerate(d.premises):
        check_derivation(spec, premise, _path + (i,))

    def fail(reason: str):
        raise DerivationError(_path, reason)

    concl = d.conclusion
    if d.rule not in spec.rules:
        fail(f"rule {d.rule} is not part of calculus {spec.name}")
    for f in set(concl.context) | {concl.conclusion}:
        if not in_dialect(f, spec.dialect):
            fail(f"formula {show(f)} is not in the {spec.dialect} dialect")

    if d.rule == "El":
        if d.premises:
            fail("El takes no premises")
        if d.certificate != concl.conclusion:
            fail("El certificate must equal the conclusion formula")
        if concl.conclusion not in concl.context:
            fail("El conclusion formula is not a context member")
    elif d.rule == "Ax":
        if d.premises:
            fail("Ax takes no premises")
        cert = d.certificate  # (schema id, ((atom index, formula), ...))
        if not (isinstance(cert, tuple) and len(cert) == 2 and isinstance(cert[1], tuple)
                and all(isinstance(item, tuple) and len(item) == 2 and type(item[0]) is int
                        and isinstance(item[1], Formula) for item in cert[1])):
            fail("Ax certificate must be (schema id, substitution)")
        sid, items = cert
        try:
            schema = spec.schema(sid)
        except KeyError as exc:
            fail(str(exc))
        if substitute(schema, dict(items)) != concl.conclusion:
            fail(f"certificate for schema {sid} does not produce the conclusion")
    elif d.rule == "MP":
        if len(d.premises) != 2:
            fail("MP takes exactly two premises")
        minor, major = (p.conclusion for p in d.premises)
        if minor.context != concl.context or major.context != concl.context:
            fail("MP premises must share the conclusion context")
        if major.conclusion != Implies(minor.conclusion, concl.conclusion):
            fail("MP premises do not compose to the conclusion")
    elif d.rule in ("MonBox", "MonDia"):
        if len(d.premises) != 1:
            fail(f"{d.rule} takes exactly one premise")
        prem = d.premises[0].conclusion
        if prem.context != frozenset():
            fail(f"{d.rule} premise context must be empty")
        if not isinstance(prem.conclusion, Implies):
            fail(f"{d.rule} premise must be an implication")
        op = _box_for(spec.dialect) if d.rule == "MonBox" else Dia
        expected = Implies(op(prem.conclusion.left), op(prem.conclusion.right))
        if concl.conclusion != expected:
            fail(f"{d.rule} conclusion must be {show(expected)}")
    elif d.rule in ("NecN", "NecE"):
        if len(d.premises) != 1:
            fail(f"{d.rule} takes exactly one premise")
        prem = d.premises[0].conclusion
        if prem.context != frozenset():
            fail(f"{d.rule} premise context must be empty")
        j = d.rule[-1]
        if concl.conclusion != BiBox(j, prem.conclusion):
            fail(f"{d.rule} conclusion must box the premise")
    else:
        fail(f"unknown rule {d.rule}")


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def el(member: Formula, context) -> Derivation:
    context = frozenset(context)
    return Derivation("El", Consecution(context, member), (), member)


def ax(spec: CalculusSpec, schema_id: str, subst: Mapping[int, Formula],
       context=frozenset()) -> Derivation:
    items = tuple(sorted(subst.items()))
    formula = substitute(spec.schema(schema_id), dict(items))
    return Derivation("Ax", Consecution(frozenset(context), formula),
                      (), (schema_id, items))


def mp(minor: Derivation, major: Derivation) -> Derivation:
    target = major.conclusion.conclusion
    if not (isinstance(target, Implies)
            and target.left == minor.conclusion.conclusion):
        raise DerivationError((), "mp: major premise does not match minor")
    return Derivation("MP", Consecution(minor.conclusion.context, target.right),
                      (minor, major))


def mon(rule: str, spec: CalculusSpec, premise: Derivation, context=frozenset()) -> Derivation:
    prem = premise.conclusion.conclusion
    op = _box_for(spec.dialect) if rule == "MonBox" else Dia
    formula = Implies(op(prem.left), op(prem.right))
    return Derivation(rule, Consecution(frozenset(context), formula), (premise,))


def nec(j: str, premise: Derivation, context=frozenset()) -> Derivation:
    formula = BiBox(j, premise.conclusion.conclusion)
    return Derivation(f"Nec{j}", Consecution(frozenset(context), formula), (premise,))


def weaken(d: Derivation, context) -> Derivation:
    """Replace the context throughout; premises of empty-context rules keep
    their empty context.  Only widening is admissible."""
    context = frozenset(context)
    if not d.conclusion.context <= context:
        raise DerivationError((), "weaken: new context must be a superset")
    return _reclothe(d, context)


def _reclothe(d: Derivation, context) -> Derivation:
    concl = Consecution(context, d.conclusion.conclusion)
    if d.rule in ("MonBox", "MonDia", "NecN", "NecE"):
        return Derivation(d.rule, concl, d.premises, d.certificate)
    premises = tuple(_reclothe(p, context) for p in d.premises)
    return Derivation(d.rule, concl, premises, d.certificate)


# ---------------------------------------------------------------------------
# Deduction theorem
# ---------------------------------------------------------------------------

def deduce(spec: CalculusSpec, d: Derivation, phi: Formula) -> Derivation:
    """From a derivation of ``Gamma, phi |- psi`` build one of
    ``Gamma |- phi -> psi`` (standard rule-by-rule transformation)."""
    check_derivation(spec, d)
    gamma = d.conclusion.context - {phi}
    return _deduce(spec, d, phi, gamma)


def _uses_hypothesis(d: Derivation, phi: Formula) -> bool:
    if d.rule == "El":
        return d.certificate == phi
    if d.rule == "MP":
        return any(_uses_hypothesis(p, phi) for p in d.premises)
    return False  # Ax has no premises; Mon/Nec premises have empty contexts


def _deduce(spec, d, phi, gamma) -> Derivation:
    psi = d.conclusion.conclusion
    if d.rule == "El" and psi == phi:
        return ax(spec, "id", {0: phi}, gamma)
    if not _uses_hypothesis(d, phi):
        # the hypothesis is unused: replay under the smaller context
        return mp(_reclothe(d, gamma), ax(spec, "K", {0: psi, 1: phi}, gamma))
    if d.rule == "MP":
        minor, major = d.premises
        chi = minor.conclusion.conclusion
        e_minor = _deduce(spec, minor, phi, gamma)
        e_major = _deduce(spec, major, phi, gamma)
        s_axiom = ax(spec, "S", {0: phi, 1: chi, 2: psi}, gamma)
        return mp(e_minor, mp(e_major, s_axiom))
    raise DerivationError((), f"cannot deduce over rule {d.rule}")


# ---------------------------------------------------------------------------
# Derived-rule macros for the bimodal calculus
# ---------------------------------------------------------------------------

IK2 = _BUILTINS["IK2"]


def _expect_empty_premise(premise: Derivation) -> None:
    check_derivation(IK2, premise)
    if premise.conclusion.context != frozenset():
        raise DerivationError((), "macro premise must have an empty context")


def _syllogism(a: Formula, b: Formula, c: Formula, context=frozenset()) -> Derivation:
    """Hypothetical syllogism ``(b -> c) -> ((a -> b) -> (a -> c))``, derived
    from the base schemas via the deduction theorem."""
    ab, bc = Implies(a, b), Implies(b, c)
    ctx = frozenset({bc, ab, a})
    conclusion = mp(mp(el(a, ctx), el(ab, ctx)), el(bc, ctx))
    out = deduce(IK2, deduce(IK2, deduce(IK2, conclusion, a), ab), bc)
    return weaken(out, context)


def macro_mon(j: str, kind: str, premise: Derivation, context=frozenset()) -> Derivation:
    """Monotonicity for an indexed box or diamond from an implication premise."""
    _expect_empty_premise(premise)
    concl = premise.conclusion.conclusion
    if not isinstance(concl, Implies):
        raise DerivationError((), "macro_mon premise must prove an implication")
    sid = f"k-box-{j}" if kind == "box" else f"k-dia-{j}"
    boxed = nec(j, premise, context)
    k_axiom = ax(IK2, sid, {0: concl.left, 1: concl.right}, context)
    return mp(boxed, k_axiom)


def macro_str(j: str, premise: Derivation, context=frozenset()) -> Derivation:
    """From an inconsistent conjunction derive the box-diamond strength rule:
    empty-context ``phi & psi -> F`` yields ``Box_j phi & Dia_j psi -> F``."""
    _expect_empty_premise(premise)
    concl = premise.conclusion.conclusion
    if not (isinstance(concl, Implies) and concl.right == FALSUM
            and isinstance(concl.left, And)):
        raise DerivationError((), "macro_str premise must prove phi & psi -> F")
    phi, psi = concl.left.left, concl.left.right
    curried = _curry_refutation(premise, phi, psi)
    boxed = nec(j, curried)
    step = mp(boxed, ax(IK2, f"k-box-{j}", {0: phi, 1: neg(psi)}))
    k_dia = ax(IK2, f"k-dia-{j}", {0: psi, 1: FALSUM})
    chain = _syllogism(BiBox(j, phi), BiBox(j, neg(psi)),
                       Implies(BiDia(j, psi), BiDia(j, FALSUM)))
    to_dia = mp(step, mp(k_dia, chain))
    # discharge the diamond-falsum with the null axiom
    bj, dj = BiBox(j, phi), BiDia(j, psi)
    hyp = to_dia.conclusion.conclusion
    ctx = frozenset({hyp, bj, dj})
    bot = mp(mp(el(dj, ctx), mp(el(bj, ctx), el(hyp, ctx))),
             ax(IK2, f"n-dia-{j}", {}, ctx))
    glue = deduce(IK2, deduce(IK2, deduce(IK2, bot, dj), bj), hyp)
    curried_goal = mp(to_dia, glue)
    return weaken(_uncurry_refutation(curried_goal, bj, dj), context)


def _curry_refutation(premise: Derivation, phi: Formula, psi: Formula) -> Derivation:
    """From the empty context and ``phi & psi -> F``, prove ``phi -> (psi -> F)``.

    The glue lemma is deduced over its own hypothesis, so the premise enters
    exactly once and derivation sizes stay linear under composition.
    """
    hyp = premise.conclusion.conclusion
    ctx = frozenset({hyp, phi, psi})
    pair = mp(el(psi, ctx), mp(el(phi, ctx),
                               ax(IK2, "and-intro", {0: phi, 1: psi}, ctx)))
    bot = mp(pair, el(hyp, ctx))
    glue = deduce(IK2, deduce(IK2, deduce(IK2, bot, psi), phi), hyp)
    return mp(premise, glue)


def _uncurry_refutation(curried: Derivation, a: Formula, b: Formula) -> Derivation:
    """From empty-context ``a -> (b -> F)`` prove ``a & b -> F``."""
    hyp = curried.conclusion.conclusion
    conj = And(a, b)
    ctx = frozenset({hyp, conj})
    both = el(conj, ctx)
    da = mp(both, ax(IK2, "and-elim-1", {0: a, 1: b}, ctx))
    db = mp(both, ax(IK2, "and-elim-2", {0: a, 1: b}, ctx))
    bot = mp(db, mp(da, el(hyp, ctx)))
    glue = deduce(IK2, deduce(IK2, bot, conj), hyp)
    return mp(curried, glue)


def _commute_refutation(d: Derivation) -> Derivation:
    """Swap the conjuncts of an empty-context ``A & B -> F``."""
    hyp = d.conclusion.conclusion
    a, b = hyp.left.left, hyp.left.right
    swapped = And(b, a)
    ctx = frozenset({hyp, swapped})
    both = el(swapped, ctx)
    db = mp(both, ax(IK2, "and-elim-1", {0: b, 1: a}, ctx))
    da = mp(both, ax(IK2, "and-elim-2", {0: b, 1: a}, ctx))
    rebuilt = mp(db, mp(da, ax(IK2, "and-intro", {0: a, 1: b}, ctx)))
    bot = mp(rebuilt, el(hyp, ctx))
    glue = deduce(IK2, deduce(IK2, bot, swapped), hyp)
    return mp(d, glue)


# ---------------------------------------------------------------------------
# Compiling the monotone calculus into the bimodal one
# ---------------------------------------------------------------------------

IM_CALC = _BUILTINS["IM_Calc"]


def derive_contradiction_pair(chi: Formula) -> Derivation:
    """Empty-context ``chi & ~chi -> F`` over the bimodal dialect."""
    conj = And(chi, neg(chi))
    ctx = frozenset({conj})
    both = el(conj, ctx)
    left = mp(both, ax(IK2, "and-elim-1", {0: chi, 1: neg(chi)}, ctx))
    right = mp(both, ax(IK2, "and-elim-2", {0: chi, 1: neg(chi)}, ctx))
    return deduce(IK2, mp(left, right), conj)


def derive_translated_neg_a(chi: Formula, context=frozenset()) -> Derivation:
    """Bimodal derivation of the translated box-diamond contradiction axiom
    instantiated with the (already translated) formula ``chi``."""
    inner = macro_str("E", derive_contradiction_pair(chi))
    outer = macro_str("N", _commute_refutation(inner))
    return weaken(_commute_refutation(outer), context)


def derive_translated_i_dia(psi: Formula, context=frozenset()) -> Derivation:
    """Bimodal derivation of the translated diamond-interaction axiom
    instantiated with the (already translated) formula ``psi``."""
    dia_e = BiDia("E", psi)
    goal = BiBox("N", dia_e)
    antecedent = Implies(BiDia("N", BiBox("E", TRUE)), goal)
    ca = frozenset({antecedent})

    truth = ax(IK2, "id", {0: FALSUM})  # |- T
    boxed_truth = nec("E", truth)
    to_boxed = mp(boxed_truth, ax(IK2, "K", {0: BiBox("E", TRUE), 1: TRUE}))
    lift = macro_mon("N", "dia", to_boxed, ca)
    chain = _syllogism(BiDia("N", TRUE), BiDia("N", BiBox("E", TRUE)), goal, ca)
    to_goal = mp(lift, mp(el(antecedent, ca), chain))
    interaction = ax(IK2, "i-diabox-N", {0: TRUE, 1: dia_e}, ca)
    boxed_impl = mp(to_goal, interaction)

    drop_ctx = frozenset({Implies(TRUE, dia_e)})
    drop = deduce(IK2, mp(weaken(truth, drop_ctx), el(Implies(TRUE, dia_e), drop_ctx)),
                  Implies(TRUE, dia_e))
    collapse = macro_mon("N", "box", drop, ca)
    result = deduce(IK2, mp(boxed_impl, collapse), antecedent)
    return weaken(result, context)


def compile_proof(d: Derivation) -> Derivation:
    """Translate a checked monotone-calculus derivation into a checked
    bimodal derivation of the translated consecution."""
    check_derivation(IM_CALC, d)
    return _compile(d)


_BASE_IDS = frozenset(sid for sid, _ in BASE_SCHEMAS)


def _compile(d: Derivation) -> Derivation:
    ctx = frozenset(translate_bimodal(f) for f in d.conclusion.context)
    if d.rule == "El":
        return el(translate_bimodal(d.conclusion.conclusion), ctx)
    if d.rule == "Ax":
        sid, items = d.certificate
        subst = {i: translate_bimodal(f) for i, f in items}
        if sid in _BASE_IDS:
            return ax(IK2, sid, subst, ctx)
        if sid == "neg-a":
            return derive_translated_neg_a(subst.get(0, Atom(0)), ctx)
        if sid == "i-dia":
            return derive_translated_i_dia(subst.get(0, Atom(0)), ctx)
        raise DerivationError((), f"cannot compile axiom {sid}")
    if d.rule == "MP":
        minor, major = d.premises
        return mp(_compile(minor), _compile(major))
    if d.rule == "MonBox":
        inner = macro_mon("E", "box", _compile(d.premises[0]))
        return macro_mon("N", "dia", inner, ctx)
    if d.rule == "MonDia":
        inner = macro_mon("E", "dia", _compile(d.premises[0]))
        return macro_mon("N", "box", inner, ctx)
    raise DerivationError((), f"cannot compile rule {d.rule}")
