import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imodal.syntax import (And, Atom, BI_INDICES, BiBox, BiDia, Box, DIALECTS,
                           Dia, FALSUM, FormulaSyntaxError, Implies, MAX_DEPTH,
                           Nabla, Or, TRUE, embed_box, embed_dia, in_dialect,
                           modal_depth, neg, parse, show, substitute,
                           translate_bimodal)

P0, P1, P2 = Atom(0), Atom(1), Atom(2)


class TestParse:
    def test_interaction_axiom(self):
        assert parse("([]T -> <>p0) -> <>p0") == \
            Implies(Implies(Box(TRUE), Dia(P0)), Dia(P0))

    def test_atom(self):
        assert parse("p0") == P0

    def test_implication_right_associative(self):
        assert parse("p0 -> p1 -> p2") == Implies(P0, Implies(P1, P2))

    def test_precedence(self):
        assert parse("p0 & p1 | p2") == Or(And(P0, P1), P2)
        assert parse("~p0 & p1") == And(neg(P0), P1)
        assert parse("[]p0 & p1") == And(Box(P0), P1)
        assert parse("p0 | p1 -> p2") == Implies(Or(P0, P1), P2)

    def test_sugar(self):
        assert parse("T") == Implies(FALSUM, FALSUM)
        assert parse("~p0") == Implies(P0, FALSUM)

    def test_utf_synonyms(self):
        assert parse("□◇p0 → ⊥") == Implies(Box(Dia(P0)), FALSUM)
        assert parse("▽ p0", "nabla") == Nabla(P0)

    def test_dialects(self):
        assert parse("nabla p0", "nabla") == Nabla(P0)
        assert parse("[N]p0 & <E>p1", "bimodal") == And(BiBox("N", P0), BiDia("E", P1))
        with pytest.raises(FormulaSyntaxError):
            parse("nabla p0", "modal")
        with pytest.raises(FormulaSyntaxError):
            parse("[]p0", "bimodal")

    def test_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("p0 & (p1 | ")
        assert err.value.position == len("p0 & (p1 | ")
        with pytest.raises(FormulaSyntaxError):
            parse("p0 q1")

    @pytest.mark.parametrize("unit", ["~", "[]", "(", "p0 & ", "p0 -> "])
    def test_nesting_limit(self, unit):
        deep = unit * (MAX_DEPTH + 1) + "p0" + ")" * unit.count("(") * (MAX_DEPTH + 1)
        with pytest.raises(FormulaSyntaxError) as err:
            parse(deep)
        assert "nested more than" in str(err.value)
        assert 0 < err.value.position < len(deep)
        at_limit = unit * MAX_DEPTH + "p0" + ")" * unit.count("(") * MAX_DEPTH
        assert parse(show(parse(at_limit))) == parse(at_limit)


class TestShow:
    def test_examples(self):
        assert show(Implies(Box(TRUE), Dia(P0))) == "[]T -> <>p0"
        assert show(Atom(3)) == "p3"
        assert show(And(Box(P0), Dia(neg(P0)))) == "[]p0 & <>~p0"

    def test_minimal_parentheses(self):
        assert show(parse("(p0 | p1) & p2")) == "(p0 | p1) & p2"
        assert show(parse("p0 -> (p1 -> p2)")) == "p0 -> p1 -> p2"
        assert show(parse("(p0 -> p1) -> p2")) == "(p0 -> p1) -> p2"
        assert show(parse("[](p0 & p1)")) == "[](p0 & p1)"

    def test_round_trip_random(self):
        rng = random.Random(99)
        from imodal.search import random_formula
        for dialect in ("modal", "nabla"):
            for _ in range(250):
                phi = random_formula(rng, 6, 3, dialect)
                assert parse(show(phi), dialect) == phi
        for _ in range(250):
            phi = translate_bimodal(random_formula(rng, 3, 3, "modal"))
            assert parse(show(phi), "bimodal") == phi


def formulas(dialect: str):
    """Formulas of one dialect, built from their constructors."""
    leaves = st.one_of(st.builds(Atom, st.integers(0, 12)), st.just(FALSUM))

    def extend(sub):
        binary = [st.builds(c, sub, sub) for c in (And, Or, Implies)]
        if dialect == "modal":
            unary = [st.builds(Box, sub), st.builds(Dia, sub)]
        elif dialect == "nabla":
            unary = [st.builds(Nabla, sub)]
        else:
            unary = [st.builds(c, st.sampled_from(BI_INDICES), sub) for c in (BiBox, BiDia)]
        return st.one_of(*binary, *unary)

    return st.recursive(leaves, extend, max_leaves=24)


@pytest.mark.parametrize("dialect", DIALECTS)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_show_parse_round_trip(dialect, data):
    phi = data.draw(formulas(dialect))
    assert parse(show(phi), dialect) == phi


class TestSubstitute:
    def test_neg_a_instance(self):
        from imodal.calculi import NEG_A
        instance = substitute(NEG_A, {0: Or(P1, P2)})
        assert instance == parse("([](p1 | p2) & <>~(p1 | p2)) -> F")

    def test_identity(self):
        from imodal.calculi import I_DIA
        assert substitute(I_DIA, {0: P0}) == parse("([]T -> <>p0) -> <>p0")

    def test_simultaneous(self):
        assert substitute(parse("p0 -> p1"), {0: FALSUM, 1: P0}) == parse("F -> p0")

    def test_commutes_with_translation(self, rng):
        from imodal.search import random_formula
        for _ in range(100):
            schema = random_formula(rng, 2, 3)
            images = {i: random_formula(rng, 2, 2) for i in range(3)}
            lhs = translate_bimodal(substitute(schema, images))
            rhs = substitute(translate_bimodal(schema),
                             {i: translate_bimodal(f) for i, f in images.items()})
            assert lhs == rhs


class TestTranslations:
    def test_embed_box(self):
        assert embed_box(Nabla(And(P0, P1))) == Box(And(P0, P1))
        assert embed_box(P0) == P0

    def test_embed_dia(self):
        phi = parse("(~nabla F -> nabla T) -> nabla T", "nabla")
        assert embed_dia(phi) == parse("(~<>F -> <>T) -> <>T")

    def test_embeddings_agree_without_modalities(self, rng):
        from imodal.search import random_formula
        for _ in range(100):
            phi = random_formula(rng, 2, 3, "nabla")
            if in_dialect(phi, "modal"):  # no nabla occurs
                assert embed_box(phi) == embed_dia(phi)

    def test_bimodal(self):
        assert translate_bimodal(parse("([]F -> <>T) -> <>T")) == \
            parse("(<N>[E]F -> [N]<E>T) -> [N]<E>T", "bimodal")
        assert translate_bimodal(P0) == P0
        assert translate_bimodal(parse("[]<>p0")) == \
            parse("<N>[E][N]<E>p0", "bimodal")


class TestModalDepth:
    @pytest.mark.parametrize("text,depth", [
        ("p0 & p1", 0),
        ("[](p0 -> <>p1)", 3),
        ("([]T -> <>p0) -> <>p0", 3),
        ("T", 0),
        ("~p0", 1),
    ])
    def test_depth(self, text, depth):
        assert modal_depth(parse(text)) == depth
