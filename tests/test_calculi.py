from dataclasses import replace

import pytest

from imodal.calculi import (BASE_SCHEMAS, CalculusSpec, Derivation,
                            DerivationError, I_DIA, IK2, IM_CALC, NEG_A, ax,
                            builtin_calculus, check_derivation, compile_proof,
                            deduce, derive_contradiction_pair,
                            derive_translated_i_dia, derive_translated_neg_a,
                            el, macro_mon, macro_str, match_axiom, mon, mp, nec,
                            weaken)
from imodal.search import NoneWithinBounds, SearchBounds, find_countermodel
from imodal.syntax import (Atom, BiBox, Implies, consecution, parse, show,
                           substitute, translate_bimodal)

B = lambda s: parse(s, "bimodal")


def build_corpus():
    """Derivations covering every rule and both modal axiom schemas."""
    imc = builtin_calculus("IM_Calc")
    corpus = []
    for sub in (Atom(0), parse("p0 | p1"), parse("[]p0"), parse("~p0"), parse("<>p1")):
        corpus.append(ax(imc, "neg-a", {0: sub}))
        corpus.append(ax(imc, "i-dia", {0: sub}, [parse("p2")]))
    corpus.append(ax(imc, "K", {0: parse("[]p0"), 1: parse("<>p1")}))
    corpus.append(ax(imc, "S", {0: Atom(0), 1: Atom(1), 2: Atom(2)}))
    corpus.append(ax(imc, "ex-falso", {0: parse("<>p0")}, [parse("p1")]))
    corpus.append(el(parse("[]p0"), [parse("[]p0"), parse("p1")]))
    corpus.append(el(parse("<>p0 -> p1"), [parse("<>p0 -> p1")]))
    ctx = [parse("p0"), parse("p0 -> p1"), parse("p1 -> <>p2")]
    chain1 = mp(el(parse("p0"), ctx), el(parse("p0 -> p1"), ctx))
    chain2 = mp(chain1, el(parse("p1 -> <>p2"), ctx))
    corpus.extend([chain1, chain2])
    lemma = ax(imc, "and-elim-1", {0: Atom(0), 1: Atom(1)})
    corpus.append(mon("MonBox", imc, lemma))
    corpus.append(mon("MonDia", imc, lemma, [parse("p2")]))
    grow = ax(imc, "or-intro-1", {0: Atom(0), 1: Atom(1)})
    corpus.append(mon("MonBox", imc, grow, [parse("[]p0")]))
    corpus.append(mon("MonDia", imc, ax(imc, "id", {0: parse("<>p0")})))
    corpus.append(deduce(imc, chain2, parse("p0")))
    corpus.append(deduce(imc, chain1, parse("p0 -> p1")))
    # modus ponens из an axiom and a monotonicity output
    boxed = mon("MonBox", imc, grow)
    k_step = ax(imc, "K", {0: boxed.conclusion.conclusion, 1: parse("p2")})
    corpus.append(mp(boxed, k_step))
    corpus.append(ax(imc, "and-intro", {0: parse("[]p0"), 1: parse("<>p1")}))
    corpus.append(mp(el(parse("F"), [parse("F")]),
                     ax(imc, "ex-falso", {0: parse("[]p2")}, [parse("F")])))
    return corpus


class TestBuiltins:
    def test_wm(self):
        spec = builtin_calculus("WM")
        assert [sid for sid, _ in spec.axioms] == ["neg-a"]
        assert spec.rules == {"El", "Ax", "MP", "MonBox", "MonDia"}

    def test_im_calc_extends_wm(self):
        spec = builtin_calculus("IM_Calc")
        assert [sid for sid, _ in spec.axioms] == ["neg-a", "i-dia"]
        assert spec.schema("i-dia") == I_DIA

    def test_single_modality(self):
        spec = builtin_calculus("iM")
        assert spec.dialect == "nabla"
        assert "MonDia" not in spec.rules
        assert spec.axioms == ()

    def test_ghc0(self):
        assert builtin_calculus("ghc0").axioms == ()

    def test_bimodal(self):
        spec = builtin_calculus("IK2")
        assert len(spec.axioms) == 10  # five schemas per index
        assert spec.rules == {"El", "Ax", "MP", "NecN", "NecE"}

    def test_unknown(self):
        with pytest.raises(KeyError):
            builtin_calculus("nope")

    def test_base_has_ten_schemas(self):
        assert len(BASE_SCHEMAS) == 10


class TestMatchAxiom:
    def test_modal_axiom_instance(self):
        got = match_axiom(IM_CALC, parse("([](p1 | p2) & <>~(p1 | p2)) -> F"))
        assert got == ("neg-a", {0: parse("p1 | p2")})

    def test_base_schema(self):
        got = match_axiom(IM_CALC, parse("p0 -> p0"))
        assert got is not None and got[0] == "id"

    def test_no_match(self):
        assert match_axiom(IM_CALC, parse("[]p0 -> p0")) is None

    def test_first_listed_schema_wins(self):
        # an instance of K is found as K even though other schemas could match
        got = match_axiom(IM_CALC, parse("p0 -> p1 -> p0"))
        assert got[0] == "K"

    @pytest.mark.parametrize("name", ["ghc0", "WM", "IM_Calc", "iM", "IK2"])
    def test_every_schema_round_trips(self, name):
        spec = builtin_calculus(name)
        fills = {"modal": ["[]p3 -> <>p4", "<>~p5", "p6 & []F"],
                 "nabla": ["nabla p3 -> p4", "~nabla p5", "p6 & nabla F"],
                 "bimodal": ["[N]p3 -> <E>p4", "<N>~p5", "p6 & [E]F"]}[spec.dialect]
        renamed = {i: Atom(i + 3) for i in range(3)}
        filled = {i: parse(f, spec.dialect) for i, f in enumerate(fills)}
        for sid, schema in spec.schema_table():
            for subst in (renamed, filled):
                instance = substitute(schema, subst)
                got_sid, got = match_axiom(spec, instance)
                assert substitute(spec.schema(got_sid), got) is instance
            assert match_axiom(spec, substitute(schema, renamed))[0] == sid

    def test_bimodal_index_is_compared(self):
        instance = substitute(IK2.schema("k-box-N"), {0: B("<E>p0"), 1: B("[N]p1")})
        assert match_axiom(IK2, instance) == ("k-box-N", {0: B("<E>p0"), 1: B("[N]p1")})
        only_e = CalculusSpec("E-only", "bimodal", (("k-box-E", IK2.schema("k-box-E")),),
                              IK2.rules)
        assert match_axiom(only_e, instance) is None


class TestCheckDerivation:
    def test_element(self):
        check_derivation(IM_CALC, el(parse("p0"), [parse("p0")]))

    def test_element_requires_membership(self):
        bad = el(parse("p0"), [parse("p1")])
        with pytest.raises(DerivationError):
            check_derivation(IM_CALC, bad)

    def test_monotonicity_requires_empty_context(self):
        premise = el(parse("p0 -> p1"), [parse("p0 -> p1")])
        bad = Derivation("MonBox", consecution([], parse("[]p0 -> []p1")), (premise,))
        with pytest.raises(DerivationError) as err:
            check_derivation(IM_CALC, bad)
        assert "empty" in str(err.value)

    def test_modus_ponens(self):
        ctx = [parse("p0"), parse("p0 -> p1")]
        d = mp(el(parse("p0"), ctx), el(parse("p0 -> p1"), ctx))
        check_derivation(IM_CALC, d)

    def test_modus_ponens_context_mismatch(self):
        minor = el(parse("p0"), [parse("p0")])
        major = el(parse("p0 -> p1"), [parse("p0 -> p1")])
        bad = Derivation("MP", consecution([parse("p0")], parse("p1")),
                         (minor, major))
        with pytest.raises(DerivationError):
            check_derivation(IM_CALC, bad)

    def test_bad_certificate(self):
        bad = Derivation("Ax", consecution([], parse("p0 -> p1")),
                         (), ("id", ((0, parse("p0")),)))
        with pytest.raises(DerivationError) as err:
            check_derivation(IM_CALC, bad)
        assert "certificate" in str(err.value)

    def test_error_path_points_into_tree(self):
        good = el(parse("p0"), [parse("p0"), parse("p0 -> p1")])
        bad_minor = el(parse("p2"), [parse("p0"), parse("p0 -> p1")])
        major = el(parse("p0 -> p1"), [parse("p0"), parse("p0 -> p1")])
        bad = Derivation("MP", consecution([parse("p0"), parse("p0 -> p1")],
                                           parse("p1")), (bad_minor, major))
        with pytest.raises(DerivationError) as err:
            check_derivation(IM_CALC, bad)
        assert err.value.path == (0,)

    def test_wrong_dialect_rejected(self):
        with pytest.raises(DerivationError):
            check_derivation(IM_CALC, el(B("[N]p0"), [B("[N]p0")]))

    def test_calculus_monotonicity(self):
        # every derivation over the weaker calculus checks unchanged over the
        # stronger one: the schema set only grows
        wm = builtin_calculus("WM")
        d = mp(ax(wm, "neg-a", {0: Atom(0)}, [parse("p1")]),
               ax(wm, "K", {0: substitute(NEG_A, {0: Atom(0)}), 1: parse("p2")},
                  [parse("p1")]))
        check_derivation(wm, d)
        check_derivation(IM_CALC, d)


# one valid derivation per rule; each rejection below breaks one of them in
# one place
_P0, _ID = parse("p0"), parse("p0 -> p0")
_CTX = [_P0, parse("p0 -> p1")]
EL_OK = el(_P0, [_P0])
AX_OK = ax(IM_CALC, "id", {0: _P0})
MP_OK = mp(el(_P0, _CTX), el(_CTX[1], _CTX))
MON_OK = mon("MonBox", IM_CALC, AX_OK)
NEC_OK = nec("N", ax(IK2, "id", {0: _P0}))
PAIR = mp(AX_OK, mp(AX_OK, ax(IM_CALC, "and-intro", {0: _ID, 1: _ID})))  # (p0 -> p0) & (p0 -> p0)
VALID = {"El": (IM_CALC, EL_OK), "Ax": (IM_CALC, AX_OK), "MP": (IM_CALC, MP_OK),
         "MonBox": (IM_CALC, MON_OK), "NecN": (IK2, NEC_OK), "pair": (IM_CALC, PAIR)}

# case: (calculus, derivation, reason, path of the broken node)
REJECTIONS = {
    "outside-calculus": (IM_CALC, nec("N", AX_OK),
                         "rule NecN is not part of calculus IM_Calc", ()),
    "unknown-rule": (CalculusSpec("cut", "modal", (), frozenset({"Cut"})),
                     Derivation("Cut", consecution([], _ID)), "unknown rule Cut", ()),
    "El-premises": (IM_CALC, replace(EL_OK, premises=(EL_OK,)), "El takes no premises", ()),
    "El-certificate": (IM_CALC, replace(MP_OK, premises=(
        replace(MP_OK.premises[0], certificate=_CTX[1]), MP_OK.premises[1])),
        "El certificate must equal the conclusion formula", (0,)),
    "Ax-premises": (IM_CALC, replace(AX_OK, premises=(EL_OK,)), "Ax takes no premises", ()),
    "Ax-certificate": (IM_CALC, replace(MON_OK, premises=(replace(AX_OK, certificate="id"),)),
                       "Ax certificate must be (schema id, substitution)", (0,)),
    "Ax-subst-not-items": (IM_CALC, replace(AX_OK, certificate=("id", 5)),
                           "Ax certificate must be (schema id, substitution)", ()),
    "Ax-subst-item-arity": (IM_CALC, replace(MON_OK, premises=(
        replace(AX_OK, certificate=("id", ((0,),))),)),
        "Ax certificate must be (schema id, substitution)", (0,)),
    "Ax-subst-not-formula": (IM_CALC, replace(AX_OK, certificate=("id", ((0, "p0"),))),
                             "Ax certificate must be (schema id, substitution)", ()),
    # a derivation document keeps substitution keys as atom indices only
    "Ax-subst-not-atom-index": (IM_CALC, replace(PAIR, premises=(
        replace(AX_OK, certificate=("id", (("x", _P0),))), PAIR.premises[1])),
        "Ax certificate must be (schema id, substitution)", (0,)),
    "MP-arity": (IM_CALC, replace(MP_OK, premises=MP_OK.premises[:1]),
                 "MP takes exactly two premises", ()),
    "MP-compose": (IM_CALC, replace(MP_OK, premises=MP_OK.premises[::-1]),
                   "MP premises do not compose to the conclusion", ()),
    "Mon-arity": (IM_CALC, replace(MON_OK, premises=()), "MonBox takes exactly one premise", ()),
    "Mon-implication": (IM_CALC, replace(MON_OK, premises=(PAIR,)),
                        "MonBox premise must be an implication", ()),
    "Mon-conclusion": (IM_CALC, replace(MON_OK, conclusion=consecution([], parse("<>p0 -> <>p0"))),
                       "MonBox conclusion must be []p0 -> []p0", ()),
    "Nec-arity": (IK2, replace(NEC_OK, premises=()), "NecN takes exactly one premise", ()),
    "Nec-context": (IK2, replace(NEC_OK, premises=(el(_ID, [_ID]),)),
                    "NecN premise context must be empty", ()),
    "Nec-conclusion": (IK2, replace(NEC_OK, conclusion=consecution([], BiBox("E", _ID))),
                       "NecN conclusion must box the premise", ()),
}


class TestCheckDerivationRejections:
    @pytest.mark.parametrize("rule", sorted(VALID))
    def test_unbroken(self, rule):
        check_derivation(*VALID[rule])

    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_reason_and_path(self, case):
        spec, d, reason, path = REJECTIONS[case]
        with pytest.raises(DerivationError) as err:
            check_derivation(spec, d)
        assert (err.value.reason, err.value.path) == (reason, path)


class TestDeduce:
    def test_element_leaf(self):
        d = deduce(IM_CALC, el(parse("p0"), [parse("p0")]), parse("p0"))
        check_derivation(IM_CALC, d)
        assert d.conclusion == consecution([], parse("p0 -> p0"))

    def test_axiom_leaf(self):
        start = ax(IM_CALC, "neg-a", {0: Atom(1)}, [parse("p0")])
        d = deduce(IM_CALC, start, parse("p0"))
        check_derivation(IM_CALC, d)
        assert d.conclusion.context == frozenset()
        assert d.conclusion.conclusion == Implies(parse("p0"),
                                                  start.conclusion.conclusion)

    def test_modus_ponens_node(self):
        ctx = [parse("p0"), parse("p0 -> p1")]
        chain = mp(el(parse("p0"), ctx), el(parse("p0 -> p1"), ctx))
        d = deduce(IM_CALC, chain, parse("p0"))
        check_derivation(IM_CALC, d)
        assert d.conclusion == consecution([parse("p0 -> p1")], parse("p0 -> p1"))

    def test_monotonicity_node(self):
        lemma = ax(IM_CALC, "id", {0: Atom(0)})
        boxed = mon("MonBox", IM_CALC, lemma, [parse("p2")])
        d = deduce(IM_CALC, boxed, parse("p2"))
        check_derivation(IM_CALC, d)
        assert d.conclusion.context == frozenset()

    def test_round_trip(self):
        # reapplying the hypothesis through modus ponens recovers a proof of
        # the original consecution
        ctx = [parse("p0"), parse("p0 -> p1")]
        chain = mp(el(parse("p0"), ctx), el(parse("p0 -> p1"), ctx))
        d = deduce(IM_CALC, chain, parse("p0"))
        widened = weaken(d, frozenset(ctx))
        restored = mp(el(parse("p0"), ctx), widened)
        check_derivation(IM_CALC, restored)
        assert restored.conclusion == chain.conclusion

    def test_rejects_invalid_input(self):
        bad = el(parse("p0"), [parse("p1")])
        with pytest.raises(DerivationError):
            deduce(IM_CALC, bad, parse("p1"))

    def test_outputs_recheck_over_corpus(self):
        for d in build_corpus():
            hyp = parse("p0 & p1")
            out = deduce(IM_CALC, d, hyp)
            check_derivation(IM_CALC, out)
            assert out.conclusion.conclusion == Implies(hyp, d.conclusion.conclusion)


class TestMacros:
    def test_mon_dia(self):
        lemma = ax(IK2, "or-intro-1", {0: Atom(0), 1: Atom(1)})
        out = macro_mon("N", "dia", lemma, [B("p2")])
        check_derivation(IK2, out)
        assert out.conclusion.conclusion == B("<N>p0 -> <N>(p0 | p1)")

    def test_mon_box(self):
        lemma = ax(IK2, "and-elim-2", {0: Atom(0), 1: Atom(1)})
        out = macro_mon("E", "box", lemma)
        check_derivation(IK2, out)
        assert out.conclusion.conclusion == B("[E](p0 & p1) -> [E]p1")

    def test_str(self):
        premise = derive_contradiction_pair(B("p0"))
        out = macro_str("E", premise, [B("p1")])
        check_derivation(IK2, out)
        assert out.conclusion.conclusion == B("[E]p0 & <E>~p0 -> F")

    def test_str_rejects_bad_premise(self):
        with pytest.raises(DerivationError):
            macro_str("N", ax(IK2, "id", {0: Atom(0)}))

    def test_mon_rejects_nonempty_context(self):
        premise = el(B("p0 -> p1"), [B("p0 -> p1")])
        with pytest.raises(DerivationError):
            macro_mon("N", "box", premise)


class TestTranslatedAxioms:
    def test_neg_a(self):
        chi = translate_bimodal(parse("p0 | p1"))
        d = derive_translated_neg_a(chi)
        check_derivation(IK2, d)
        expected = translate_bimodal(substitute(NEG_A, {0: parse("p0 | p1")}))
        assert d.conclusion == consecution([], expected)

    def test_i_dia(self):
        psi = translate_bimodal(Atom(0))
        d = derive_translated_i_dia(psi)
        check_derivation(IK2, d)
        assert show(d.conclusion.conclusion) == "(<N>[E]T -> [N]<E>p0) -> [N]<E>p0"


class TestCompile:
    def test_element_leaf(self):
        d = el(parse("[]p0"), [parse("[]p0")])
        out = compile_proof(d)
        check_derivation(IK2, out)
        assert out.rule == "El"
        assert out.conclusion.conclusion == B("<N>[E]p0")

    def test_interaction_axiom_leaf(self):
        d = ax(IM_CALC, "i-dia", {0: Atom(0)})
        out = compile_proof(d)
        check_derivation(IK2, out)
        assert out.conclusion.conclusion == B("(<N>[E]T -> [N]<E>p0) -> [N]<E>p0")

    def test_corpus(self):
        corpus = build_corpus()
        assert len(corpus) >= 20
        for d in corpus:
            check_derivation(IM_CALC, d)
            out = compile_proof(d)
            check_derivation(IK2, out)
            assert out.conclusion.conclusion == \
                translate_bimodal(d.conclusion.conclusion)
            assert out.conclusion.context == \
                frozenset(translate_bimodal(f) for f in d.conclusion.context)

    def test_rejects_unchecked_input(self):
        with pytest.raises(DerivationError):
            compile_proof(el(parse("p0"), []))


class TestSoundnessBridge:
    def test_corpus_consecutions_have_no_countermodels(self):
        bounds = SearchBounds(2, 1, 1)
        seen = set()
        for d in build_corpus():
            consec = d.conclusion
            key = (consec.context, consec.conclusion)
            if key in seen:
                continue
            seen.add(key)
            result = find_countermodel(consec, "inm", bounds)
            assert isinstance(result, NoneWithinBounds), show(consec.conclusion)
