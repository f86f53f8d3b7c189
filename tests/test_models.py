import pytest

from imodal.models import (KINDS, CNModel, IK2Model, INModel, NbhdModel,
                           check_full, check_ik2_frame, check_inm,
                           eval_classical, eval_cnm, eval_ik2, eval_inm,
                           find_isomorphism, is_isomorphism,
                           truth_set_classical, truth_set_cnm, truth_set_ik2,
                           truth_set_inm, validate_ik2, validate_inm)
from imodal.orders import successors
from imodal.search import SearchBounds, enumerate_models
from imodal.syntax import (And, Atom, BiBox, BiDia, Box, Dia, Falsum, Implies,
                           Nabla, Or, parse, substitute, translate_bimodal)

from generators import _random_upset, random_cnm, random_formula, random_inm, random_poset

B = lambda s: parse(s, "bimodal")
N = lambda s: parse(s, "nabla")


class TestClassical:
    def test_vacuous_diamond(self):
        m = NbhdModel(frozenset({"w"}), {"w": frozenset()}, {})
        assert eval_classical(m, "w", parse("<>p0"))

    def test_empty_neighbourhood_boxes_falsum(self):
        m = NbhdModel(frozenset({"w"}), {"w": frozenset({frozenset()})}, {})
        assert eval_classical(m, "w", parse("[]F"))

    def test_material_implication(self):
        m = NbhdModel(frozenset({"w"}), {"w": frozenset()}, {0: frozenset()})
        assert eval_classical(m, "w", parse("p0 -> p1"))


class TestINM:
    def test_one_point(self, one_point_inm):
        assert eval_inm(one_point_inm, "w", parse("[]p0 & <>p0"))

    def test_box_bot_counterexample(self, box_bot_inm):
        assert not eval_inm(box_bot_inm, "w", parse("([]F -> <>T) -> <>T"))
        assert eval_inm(box_bot_inm, "w", parse("[]F -> <>T"))
        assert not eval_inm(box_bot_inm, "w", parse("<>T"))

    def test_interaction_axiom_valid(self, rng):
        phi = parse("([]T -> <>p0) -> <>p0")
        for _ in range(150):
            m = random_inm(rng, SearchBounds(4, 2, 1))
            assert truth_set_inm(m, phi) == m.worlds

    def test_unknown_world(self, one_point_inm):
        from imodal.models import ModelError
        with pytest.raises(ModelError):
            eval_inm(one_point_inm, "zz", parse("p0"))

    def test_persistence(self, rng):
        for _ in range(60):
            m = random_inm(rng, SearchBounds(3, 2, 1))
            for _ in range(5):
                phi = random_formula(rng, 3, 1)
                t = truth_set_inm(m, phi)
                for (a, b) in m.leq:
                    assert not (a in t and b not in t)

    def test_monotone_operators(self, rng):
        # a subset in truth sets is preserved by both modalities
        for _ in range(60):
            m = random_inm(rng, SearchBounds(3, 2, 2))
            phi = random_formula(rng, 2, 1)
            psi = Or(phi, random_formula(rng, 2, 2))
            assert truth_set_inm(m, phi) <= truth_set_inm(m, psi)
            assert truth_set_inm(m, Box(phi)) <= truth_set_inm(m, Box(psi))
            assert truth_set_inm(m, Dia(phi)) <= truth_set_inm(m, Dia(psi))


def _naive(m, w, phi, order, modal):
    """Literal world-at-a-time transcription of the clauses every kind shares:
    atoms, the connectives and implication along ``order``; ``modal(w, phi)``
    decides the kind's modal nodes.  With the per-kind clauses below, an
    independent oracle for the truth-set evaluators."""
    if isinstance(phi, Atom):
        return w in m.val.get(phi.index, frozenset())
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, And):
        return _naive(m, w, phi.left, order, modal) and _naive(m, w, phi.right, order, modal)
    if isinstance(phi, Or):
        return _naive(m, w, phi.left, order, modal) or _naive(m, w, phi.right, order, modal)
    if isinstance(phi, Implies):
        return all((not _naive(m, v, phi.left, order, modal))
                   or _naive(m, v, phi.right, order, modal)
                   for v in successors(m.worlds, order, w))
    return modal(w, phi)


def _naive_inm(m, w, phi):
    def modal(w, phi):
        up = successors(m.worlds, m.leq, w)
        if isinstance(phi, Box):
            return any(w in a and all(_naive_inm(m, x, phi.sub)
                                      for v in up if v in a for x in a[v])
                       for a in m.nbhds.values())
        return all(any(_naive_inm(m, x, phi.sub) for x in a[v])
                   for v in up for a in m.nbhds.values() if v in a)
    return _naive(m, w, phi, m.leq, modal)


def _naive_cnm(m, w, phi):
    def modal(w, phi):
        up = successors(m.worlds, m.preceq, w)
        if isinstance(phi, (Box, Nabla)):
            # at every successor some member of gamma lies inside the truth set
            return all(any(all(_naive_cnm(m, x, phi.sub) for x in a)
                           for a in m.gamma.get(v, ()))
                       for v in up)
        # at every successor every member of gamma meets the truth set
        return all(any(_naive_cnm(m, x, phi.sub) for x in a)
                   for v in up for a in m.gamma.get(v, ()))
    return _naive(m, w, phi, m.preceq, modal)


def _naive_ik2(m, w, phi):
    def modal(w, phi):
        rel = m.relN if phi.index == "N" else m.relE
        if isinstance(phi, BiBox):
            return all(_naive_ik2(m, u, phi.sub)
                       for v in successors(m.worlds, m.leq, w)
                       for u in m.worlds if (v, u) in rel)
        return any(_naive_ik2(m, u, phi.sub) for u in m.worlds if (w, u) in rel)
    return _naive(m, w, phi, m.leq, modal)


def _naive_classical(m, w, phi):
    def modal(w, phi):
        family = m.nf.get(w, ())
        if isinstance(phi, Box):
            return any(all(_naive_classical(m, x, phi.sub) for x in a) for a in family)
        return all(any(_naive_classical(m, x, phi.sub) for x in a) for a in family)
    return _naive(m, w, phi, frozenset((v, v) for v in m.worlds), modal)


def _subset(rng, worlds, p=0.5):
    return frozenset(w for w in worlds if rng.random() < p)


def _random_classical(rng, bounds):
    worlds = frozenset(range(rng.randint(1, bounds.max_worlds)))
    nf = {w: frozenset(_subset(rng, worlds) for _ in range(rng.randint(0, bounds.max_nbhds)))
          for w in worlds}
    return NbhdModel(worlds, nf, {i: _subset(rng, worlds) for i in range(bounds.max_atoms)})


def _random_ik2(rng, bounds):
    """A poset with arbitrary relations: the clauses do not need the frame
    conditions, and the oracle does not assume them."""
    n = rng.randint(1, bounds.max_worlds)
    worlds = frozenset(range(n))
    leq = random_poset(rng, n)
    pairs = [(a, b) for a in worlds for b in worlds]
    return IK2Model(worlds, leq, _subset(rng, pairs, 0.3), _subset(rng, pairs, 0.3),
                    {i: _random_upset(rng, worlds, leq) for i in range(bounds.max_atoms)})


ORACLES = {  # kind -> (random model, truth set, oracle)
    "inm": (random_inm, truth_set_inm, _naive_inm),
    "cnm": (random_cnm, truth_set_cnm, _naive_cnm),
    "ik2": (_random_ik2, truth_set_ik2, _naive_ik2),
    "classical": (_random_classical, truth_set_classical, _naive_classical),
}


def _random_bimodal(rng, depth, atoms):
    """A random bimodal formula: the translation of a modal one, with each
    index swapped at random."""
    def swap(f):
        if isinstance(f, (BiBox, BiDia)):
            return type(f)(rng.choice("NE"), swap(f.sub))
        if isinstance(f, (And, Or, Implies)):
            return type(f)(swap(f.left), swap(f.right))
        return f
    return swap(translate_bimodal(random_formula(rng, depth, atoms)))


def _random_of(rng, dialect, depth, atoms):
    if dialect == "bimodal":
        return _random_bimodal(rng, depth, atoms)
    return random_formula(rng, depth, atoms, dialect)


class TestNaiveOracle:
    def test_truth_sets_agree_with_direct_quantifiers(self, rng):
        for _ in range(120):
            m = random_inm(rng, SearchBounds(4, 2, 2))
            for _ in range(5):
                phi = random_formula(rng, 3, 2)
                for w in m.worlds:
                    assert _naive_inm(m, w, phi) == eval_inm(m, w, phi)

    @pytest.mark.parametrize("kind", ORACLES)
    def test_every_kind_agrees_with_its_oracle(self, rng, kind):
        model, truth_set, naive = ORACLES[kind]
        for _ in range(80):
            m = model(rng, SearchBounds(4, 3, 2))
            memo = {}
            for _ in range(5):
                phi = _random_of(rng, rng.choice(KINDS[kind].dialects), 3, 2)
                t = truth_set(m, phi, memo)
                assert t == frozenset(w for w in m.worlds if naive(m, w, phi))

    @pytest.mark.parametrize("kind", ORACLES)
    def test_shared_memo_equals_fresh_memos(self, rng, kind):
        # 72 instances that hold at some worlds and fail at others
        from imodal.calculi import I_DIA, NEG_A
        model, truth_set, _ = ORACLES[kind]
        schemas = [parse("[]p0 -> p0"), parse("~~p0 -> <>p0"), NEG_A, I_DIA]
        subs = [random_formula(rng, 2, 2) for _ in range(18)]
        instances = [substitute(s, {0: x}) for s in schemas for x in subs]
        if kind == "ik2":
            instances = [translate_bimodal(f) for f in instances]
        assert len(instances) == 72
        for _ in range(30):
            m = model(rng, SearchBounds(4, 3, 2))
            memo = {}
            shared = [truth_set(m, f, memo) for f in instances]
            assert shared == [truth_set(m, f) for f in instances]


class TestCNM:
    def test_wm_counterexample(self, wm_model):
        assert not eval_cnm(wm_model, "w", parse("[]T"))
        assert not eval_cnm(wm_model, "v", parse("[]T"))
        assert eval_cnm(wm_model, "w", parse("[]T -> <>p0"))
        assert not eval_cnm(wm_model, "w", parse("<>p0"))
        assert not eval_cnm(wm_model, "w", parse("([]T -> <>p0) -> <>p0"))

    def test_nabla_counterexample(self, nabla_model):
        assert not eval_cnm(nabla_model, "w", N("nabla T"))
        assert eval_cnm(nabla_model, "v", N("nabla F"))
        assert not eval_cnm(nabla_model, "w", N("~nabla F"))
        assert eval_cnm(nabla_model, "w", N("~nabla F -> nabla T"))
        assert not eval_cnm(nabla_model, "w", N("(~nabla F -> nabla T) -> nabla T"))

    def test_ex_falso(self, wm_model):
        for w in wm_model.worlds:
            assert eval_cnm(wm_model, w, parse("F -> p0"))


class TestIK2:
    def test_final_counterexample(self, ik2_model):
        big = B("(<N>[E]F -> [N]<E>T) -> [N]<E>T")
        assert not eval_ik2(ik2_model, "w", big)
        assert eval_ik2(ik2_model, "v", B("[N]<E>T"))
        assert not eval_ik2(ik2_model, "w", B("[N]<E>T"))
        assert eval_ik2(ik2_model, "w", B("<N>[E]F -> [N]<E>T"))

    def test_diamond_falsum_never_holds(self, ik2_model):
        for w in ik2_model.worlds:
            assert not eval_ik2(ik2_model, w, B("<N>F"))
            assert not eval_ik2(ik2_model, w, B("<E>F"))

    def test_frame_conditions(self, ik2_model):
        assert check_ik2_frame(ik2_model).ok
        assert validate_ik2(ik2_model) == []

    def test_identity_order_any_relations_pass(self):
        from imodal.models import IK2Model
        worlds = frozenset({0, 1})
        m = IK2Model(worlds, frozenset({(0, 0), (1, 1)}),
                     frozenset({(0, 1)}), frozenset({(1, 0), (1, 1)}), {})
        assert check_ik2_frame(m).ok


class TestCheckers:
    def test_figure1_coherent(self, figure1_frame):
        assert check_inm(figure1_frame, "coherent").ok

    def test_one_point_all_levels(self, one_point_inm):
        for level in ("basic", "coherent", "cartesian"):
            assert check_inm(one_point_inm, level).ok

    def test_coherence_violation_witnessed(self):
        # value shrinks along the order: the forward condition fails
        m = INModel(frozenset({0, 1}), frozenset({(0, 0), (1, 1), (0, 1)}),
                    {"a": {0: frozenset({0}), 1: frozenset()}}, {})
        report = check_inm(m, "coherent")
        assert not report.ok
        assert any(w[0] == "N1" for w in report.witnesses)

    def test_basic_violations(self):
        m = INModel(frozenset({0, 1}), frozenset({(0, 0), (1, 1), (0, 1)}),
                    {"a": {0: frozenset({0})}},  # domain not an upset
                    {0: frozenset({0})})         # valuation not an upset
        violations = validate_inm(m)
        assert ("domain-not-an-upset", "a") in violations
        assert ("valuation-not-an-upset", 0) in violations

    def test_unknown_level_raises_on_any_model(self, one_point_inm):
        invalid = INModel(frozenset({0, 1}), frozenset({(0, 0), (1, 1), (0, 1)}),
                          {"a": {0: frozenset({0})}}, {})  # domain not an upset
        assert validate_inm(invalid)
        for m in (one_point_inm, invalid):
            with pytest.raises(ValueError, match="unknown check level 'bogus'"):
                check_inm(m, "bogus")

    def test_check_full(self, wm_model):
        assert not check_full(wm_model)
        empty = CNModel(frozenset({"w"}), frozenset({("w", "w")}),
                        {"w": frozenset()}, {})
        assert check_full(empty)

    def test_report_shape(self, figure1_frame):
        report = check_inm(figure1_frame, "coherent")
        payload = report.to_json()
        assert payload["check"] == "inm-coherent"
        assert payload["status"] == "pass"
        assert payload["witnesses"] == []


class TestAxiomSoundness:
    def test_enumerated_models(self):
        from imodal.calculi import NEG_A, I_DIA
        subs = [Atom(0), parse("[]p0"), parse("<>~p0"), parse("F")]
        instances = [substitute(s, {0: f}) for s in (NEG_A, I_DIA) for f in subs]
        count = 0
        for m in enumerate_models("inm", SearchBounds(2, 1, 1)):
            count += 1
            memo = {}
            for inst in instances:
                assert truth_set_inm(m, inst, memo) == m.worlds
        assert count > 100

    def test_random_models(self, rng):
        from imodal.calculi import NEG_A, I_DIA
        subs = [Atom(0), parse("[]p1"), parse("~<>p0")]
        instances = [substitute(s, {0: f}) for s in (NEG_A, I_DIA) for f in subs]
        for _ in range(300):
            m = random_inm(rng, SearchBounds(4, 2, 2))
            memo = {}
            for inst in instances:
                assert truth_set_inm(m, inst, memo) == m.worlds


class TestIsomorphism:
    def test_identity(self, figure1_frame):
        result = find_isomorphism(figure1_frame, figure1_frame)
        assert result is not None
        alpha, nu = result
        assert is_isomorphism(figure1_frame, figure1_frame, alpha, nu)

    def test_relabelled_copy(self, figure1_frame):
        relabel = {w: w.upper() for w in figure1_frame.worlds}
        copy = INModel(
            frozenset(relabel.values()),
            frozenset((relabel[a], relabel[b]) for (a, b) in figure1_frame.leq),
            {"b": {relabel[w]: frozenset(relabel[v] for v in value)
                   for w, value in figure1_frame.nbhds["a"].items()}},
            {})
        result = find_isomorphism(figure1_frame, copy)
        assert result is not None
        alpha, nu = result
        assert is_isomorphism(figure1_frame, copy, alpha, nu)
        assert nu == {"a": "b"}

    def test_cardinality_obstruction(self, figure1_frame, one_point_inm):
        assert find_isomorphism(figure1_frame, one_point_inm) is None

    def test_non_isomorphic_same_size(self, one_point_inm):
        other = INModel(frozenset({"w"}), frozenset({("w", "w")}),
                        {"a": {"w": frozenset()}}, {0: frozenset({"w"})})
        assert find_isomorphism(one_point_inm, other) is None

    def test_truth_invariant_under_isomorphism(self, rng):
        for _ in range(20):
            m = random_inm(rng, SearchBounds(3, 2, 1))
            relabel = {w: ("copy", w) for w in m.worlds}
            copy = INModel(
                frozenset(relabel.values()),
                frozenset((relabel[a], relabel[b]) for (a, b) in m.leq),
                {name: {relabel[w]: frozenset(relabel[v] for v in value)
                        for w, value in fn.items()}
                 for name, fn in m.nbhds.items()},
                {i: frozenset(relabel[w] for w in ext) for i, ext in m.val.items()})
            result = find_isomorphism(m, copy)
            assert result is not None
            alpha, _ = result
            for _ in range(5):
                phi = random_formula(rng, 2, 1)
                for w in m.worlds:
                    assert eval_inm(m, w, phi) == eval_inm(copy, alpha[w], phi)
