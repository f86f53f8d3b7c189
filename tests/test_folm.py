import pickle
import random

import pytest

from imodal.folm import (FOMStructure, IFOMStructure, PredP, SortMismatchError,
                         UnboundVariableError, Var, classical_bullet,
                         classical_circle, eval_fo_classical, eval_fo_kripke,
                         eval_modal_ifom, free_vars, show_fo,
                         standard_translation, validate_fom, validate_ifom,
                         well_sorted)
from imodal.models import NbhdModel, bullet, eval_classical, eval_inm
from imodal.syntax import DIALECTS, FALSUM, And, in_dialect, parse

from generators import random_formula, random_ifom, random_poset

X = Var("s", "x")


class TestStandardTranslation:
    def test_diamond_shape(self):
        st = standard_translation(parse("<>p0"), X)
        assert show_fo(st) == "forall a0:n. (x N a0 -> exists y0:s. (a0 E y0 & P0(y0)))"

    def test_box_shape(self):
        st = standard_translation(parse("[]p0"), X)
        assert show_fo(st) == "exists a0:n. (x N a0 & forall y0:s. (a0 E y0 -> P0(y0)))"

    def test_atomic(self):
        assert show_fo(standard_translation(parse("p1"), X)) == "P1(x)"

    def test_falsum_is_primitive(self):
        assert standard_translation(parse("F"), X) is FALSUM

    def test_translation_is_interned(self):
        phi = parse("[]p0 -> <>(p1 | F)")
        st = standard_translation(phi, X)
        assert standard_translation(phi, X) is st
        assert pickle.loads(pickle.dumps(st)) is st

    def test_in_no_dialect(self):
        st = standard_translation(parse("<>p0"), X)
        assert not any(in_dialect(f, d) for f in (st, PredP(0, X), And(PredP(0, X), FALSUM))
                       for d in DIALECTS)

    def test_operands_must_be_formulas(self):
        with pytest.raises(TypeError, match="not a formula"):
            And(PredP(0, X), "x")

    def test_sort_preservation(self, rng):
        for _ in range(150):
            phi = random_formula(rng, 3, 2)
            st = standard_translation(phi, X)
            assert well_sorted(st)
            assert free_vars(st) <= {X}


def _two_point():
    return FOMStructure(frozenset({"d", "e"}), frozenset({"a"}),
                        frozenset({("d", "a")}), frozenset({("a", "e")}),
                        {0: frozenset({"e"})})


class TestClassicalEvaluation:
    def test_falsum(self):
        assert not eval_fo_classical(_two_point(), FALSUM, {})

    def test_vacuous_diamond(self):
        m = FOMStructure(frozenset({"d"}), frozenset(), frozenset(), frozenset(), {})
        assert eval_fo_classical(m, standard_translation(parse("<>p0"), X), {X: "d"})

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_fo_classical(_two_point(), standard_translation(parse("p0"), X), {})

    def test_sort_mismatch(self):
        bad = Var("n", "x")
        with pytest.raises(SortMismatchError):
            eval_fo_classical(_two_point(), standard_translation(parse("p0"), X),
                              {X: "a"})
        with pytest.raises(SortMismatchError):
            standard_translation(parse("p0"), bad)

    def test_agrees_with_direct_modal_truth(self, rng):
        # the translation route and the neighbourhood route coincide classically
        for _ in range(60):
            n = rng.randint(1, 3)
            worlds = frozenset(range(n))
            subsets = [frozenset(j for j in range(n) if m >> j & 1)
                       for m in range(1 << n)]
            nf = {w: frozenset(rng.sample(subsets, rng.randint(0, 2)))
                  for w in worlds}
            val = {0: frozenset(w for w in worlds if rng.random() < 0.5),
                   1: frozenset(w for w in worlds if rng.random() < 0.5)}
            model = NbhdModel(worlds, nf, val)
            fo = classical_circle(model)
            for _ in range(8):
                phi = random_formula(rng, 2, 2)
                for w in worlds:
                    direct = eval_classical(model, w, phi)
                    st = standard_translation(phi, X)
                    assert direct == eval_fo_classical(fo, st, {X: w})


class TestKripkeEvaluation:
    def test_example_structure(self, ifom_example):
        st = standard_translation(parse("<>p0"), X)
        assert eval_fo_kripke(ifom_example, "w1", st, {X: "d1"})

    def test_falsum(self, ifom_example):
        assert not eval_fo_kripke(ifom_example, "w1", FALSUM, {})

    def test_monotone(self, rng):
        # truth persists along the order for all sampled inputs
        for _ in range(25):
            s = random_ifom(rng, 3, 2, 2, 1)
            for _ in range(6):
                phi = random_formula(rng, 3, 1)
                st = standard_translation(phi, X)
                for w in s.worlds:
                    for d in s.interp[w].states:
                        if eval_fo_kripke(s, w, st, {X: d}):
                            for (a, b) in s.leq:
                                if a == w:
                                    assert eval_fo_kripke(s, b, st, {X: d})


class TestPairEvaluation:
    def test_example(self, ifom_example):
        assert eval_modal_ifom(ifom_example, "w1", "d1", parse("<>p0"))

    def test_falsum(self, ifom_example):
        assert not eval_modal_ifom(ifom_example, "w1", "d1", parse("F"))

    def test_agreement_with_translation_route(self, rng):
        for _ in range(30):
            s = random_ifom(rng, 3, 2, 2, 1)
            for _ in range(6):
                phi = random_formula(rng, 3, 1)
                st = standard_translation(phi, X)
                for w in s.worlds:
                    for d in s.interp[w].states:
                        assert eval_modal_ifom(s, w, d, phi) == \
                            eval_fo_kripke(s, w, st, {X: d})


def _arbitrary_ifom(rng) -> IFOMStructure:
    """Structures that need not grow along the order: each world draws its
    states, neighbourhoods, relations and predicates afresh, and the
    relations and predicates may name elements absent at that world."""
    states, nbhds = ["d0", "d1", "d2"], ["n0", "n1"]
    n = rng.randint(1, 3)
    leq = random_poset(rng, n)
    interp = {}
    for w in range(n):
        here = frozenset(x for x in states if rng.random() < 0.6) or frozenset(["d0"])
        interp[w] = FOMStructure(
            here, frozenset(a for a in nbhds if rng.random() < 0.6),
            frozenset((x, a) for x in states for a in nbhds if rng.random() < 0.5),
            frozenset((a, x) for a in nbhds for x in states if rng.random() < 0.5),
            {0: frozenset(x for x in states if rng.random() < 0.4)})
    return IFOMStructure(frozenset(range(n)), leq, interp)


class TestNonGrowingStructures:
    def test_direct_evaluation_agrees_with_bullet(self):
        # the points above (w, d) are the (v, d) with d a state at v, and a
        # neighbourhood counts at v only while it is one there, N-related to d
        rng = random.Random(31)
        for _ in range(150):
            s = _arbitrary_ifom(rng)
            image = bullet(s)
            for _ in range(4):
                phi = random_formula(rng, 3, 1)
                for w in s.worlds:
                    for d in s.interp[w].states:
                        assert eval_modal_ifom(s, w, d, phi) == eval_inm(image, (w, d), phi)


class TestClassicalMaps:
    def test_single_world_empty_neighbourhood(self):
        m = NbhdModel(frozenset({"w"}), {"w": frozenset({frozenset()})}, {})
        back = classical_bullet(classical_circle(m))
        assert eval_classical(back, "w", parse("[]F"))

    def test_empty_gamma_gives_empty_relation(self):
        m = NbhdModel(frozenset({"w", "v"}), {"w": frozenset(), "v": frozenset()}, {})
        fo = classical_circle(m)
        assert fo.relN == frozenset() and fo.nbhds == frozenset()

    def test_truth_preserved_across_circle(self, rng):
        for _ in range(40):
            n = rng.randint(1, 3)
            worlds = frozenset(range(n))
            subsets = [frozenset(j for j in range(n) if m >> j & 1)
                       for m in range(1 << n)]
            nf = {w: frozenset(rng.sample(subsets, rng.randint(0, 2)))
                  for w in worlds}
            val = {0: frozenset(w for w in worlds if rng.random() < 0.5)}
            model = NbhdModel(worlds, nf, val)
            back = classical_bullet(classical_circle(model))
            for _ in range(6):
                phi = random_formula(rng, 2, 1)
                for w in worlds:
                    assert eval_classical(model, w, phi) == eval_classical(back, w, phi)


class TestValidation:
    def test_ifom_example_valid(self, ifom_example):
        assert validate_ifom(ifom_example) == []

    def test_monotone_growth_violation_reported(self, ifom_example):
        shrunk = dict(ifom_example.interp)
        shrunk["w3"] = FOMStructure(frozenset({"d1"}), frozenset(), frozenset(),
                                    frozenset(), {})
        from imodal.folm import IFOMStructure
        bad = IFOMStructure(ifom_example.worlds, ifom_example.leq, shrunk)
        assert any(v[0] == "non-monotone-growth" or v[:1] == ("at-world",)
                   for v in validate_ifom(bad))

    def test_fom_requires_states(self):
        bad = FOMStructure(frozenset(), frozenset(), frozenset(), frozenset(), {})
        assert ("empty-states",) in validate_fom(bad)
