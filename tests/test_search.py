import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import imodal
from imodal import docio
from imodal.models import (check_full, check_ik2_frame, check_inm, eval_cnm,
                           eval_inm, validate_cnm, validate_inm)
from imodal.folm import eval_modal_ifom, validate_ifom
from imodal.search import (CounterexampleFound, NoneWithinBounds, SearchBounds,
                           enumerate_models, find_countermodel,
                           random_cnm, random_coherent_inm,
                           random_formula, random_ifom, random_inm,
                           strict_posets, sweep_inm_validity, upsets_of_poset)
from imodal.syntax import (FALSUM, Atom, Box, Dia, Implies, consecution, parse,
                           substitute)

SRC = os.path.dirname(os.path.dirname(imodal.__file__))


def _run_python(code: str, **env) -> str:
    """Run ``code`` in a fresh interpreter on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": SRC, **env}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.strip()


# Per kind: bounds, stream length, and the sha256 of the stream's canonical
# documents, recorded before the kind table and the shared upset generator
# replaced the per-kind enumeration code.
STREAM_DIGESTS = {
    "ik2": ((2, 0, 2), 4841,
            "29558491fbcb6bfe2990249da2e056b8e7df964ba4062c7f9975d8dd65301007"),
    "inm": ((2, 2, 1), 2014,
            "eb738c9487c06fc6bff15bca1a736f3c91348773c76aebbe260e84d1c35a0058"),
    "cnm": ((2, 1, 1), 306,
            "a35482c2b7cfd2847e389d5fd575e2ab828ee3ef29477dbad7fecb2991207b18"),
    "classical": ((2, 2, 1), 470,
                  "1b7f0623ab3822656b48901dfceb2ec592c90bb9b9efc646ad29bef9eba234e7"),
    "ifom": ((2, 1, 1), 9434,
             "55ac83a25674a95d752add9d76e34b85d3034823918c87b1379430e5ba22dc61"),
}


class TestEnumeration:
    def test_single_world_count(self):
        models = list(enumerate_models("inm", SearchBounds(1, 0, 1)))
        assert len(models) == 2

    def test_models_are_valid(self):
        for m in enumerate_models("inm", SearchBounds(2, 1, 1)):
            assert validate_inm(m) == []

    def test_cartesian_filter(self):
        for m in enumerate_models("inm", SearchBounds(2, 1, 0, require_cartesian=True)):
            assert check_inm(m, "cartesian").ok

    def test_coherent_filter(self):
        seen = 0
        for m in enumerate_models("inm", SearchBounds(2, 1, 0, require_coherent=True)):
            seen += 1
            assert check_inm(m, "coherent").ok
        assert seen

    def test_ik2_filter(self):
        for m in enumerate_models("ik2", SearchBounds(2, 0, 1)):
            assert check_ik2_frame(m).ok

    def test_full_filter(self):
        for m in enumerate_models("cnm", SearchBounds(2, 1, 0, require_full=True)):
            assert check_full(m)

    def test_cnm_models_are_valid(self):
        count = 0
        for m in enumerate_models("cnm", SearchBounds(2, 1, 1)):
            count += 1
            assert validate_cnm(m) == []
        assert count

    def test_ifom_models_are_valid(self):
        count = 0
        for m in enumerate_models("ifom", SearchBounds(1, 1, 1)):
            count += 1
            assert validate_ifom(m) == []
        assert count

    def test_restartable_and_deterministic(self):
        bounds = SearchBounds(2, 1, 1)
        first = list(enumerate_models("inm", bounds))
        second = list(enumerate_models("inm", bounds))
        assert first == second

    @pytest.mark.parametrize("kind", sorted(STREAM_DIGESTS))
    def test_enumeration_order_is_pinned(self, kind):
        bounds, count, digest = STREAM_DIGESTS[kind]
        docs = [docio.model_to_doc(m) for m in enumerate_models(kind, SearchBounds(*bounds))]
        assert len(docs) == count
        assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == digest

    def test_posets_are_transitive(self):
        for strict in strict_posets(3):
            for (a, b) in strict:
                for (b2, c) in strict:
                    if b2 == b:
                        assert (a, c) in strict

    def test_upsets_of_poset(self):
        leq = frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)})
        ups = upsets_of_poset(3, leq)
        assert frozenset({0, 1, 2}) in ups
        assert all(not (0 in u and (1 not in u or 2 not in u)) for u in ups)
        assert len(ups) == 5

    def test_upsets_of_preorder(self):
        # 0 and 1 are equivalent, both below 2: an upset holding either holds both
        rel = frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2), (1, 2)})
        assert upsets_of_poset(3, rel) == [frozenset(), frozenset({2}),
                                           frozenset({0, 1, 2})]


class TestFindCountermodel:
    def test_two_world_counterexample(self):
        phi = parse("([]F -> <>T) -> <>T")
        result = find_countermodel(consecution([], phi), "inm", SearchBounds(2, 2, 0))
        assert isinstance(result, CounterexampleFound)
        assert len(result.model.worlds) <= 2
        assert not eval_inm(result.model, result.world, phi)

    def test_cnm_counterexample(self):
        phi = parse("([]T -> <>p0) -> <>p0")
        result = find_countermodel(consecution([], phi), "cnm", SearchBounds(2, 1, 1))
        assert isinstance(result, CounterexampleFound)
        assert len(result.model.worlds) <= 2
        assert not eval_cnm(result.model, result.world, phi)

    def test_atom_refuted_by_one_world(self):
        result = find_countermodel(consecution([], parse("p0")), "inm",
                                   SearchBounds(1, 0, 1))
        assert isinstance(result, CounterexampleFound)
        assert len(result.model.worlds) == 1

    def test_valid_formula_unrefuted(self):
        phi = parse("([]T -> <>p0) -> <>p0")
        result = find_countermodel(consecution([], phi), "inm", SearchBounds(2, 2, 1))
        assert isinstance(result, NoneWithinBounds)
        assert not result.timed_out
        assert result.examined > 1000

    def test_timeout_flag(self):
        phi = parse("([]T -> <>p0) -> <>p0")
        result = find_countermodel(consecution([], phi), "inm",
                                   SearchBounds(4, 3, 1), timeout_ms=400)
        assert isinstance(result, NoneWithinBounds)
        assert result.timed_out

    def test_context_constrains_search(self):
        result = find_countermodel(
            consecution([parse("p0")], parse("p0")), "inm", SearchBounds(2, 1, 1))
        assert isinstance(result, NoneWithinBounds)

    def test_dialect_mismatch(self):
        with pytest.raises(ValueError):
            find_countermodel(consecution([], parse("[N]p0", "bimodal")), "inm",
                              SearchBounds(1, 0, 1))

    def test_determinism(self):
        phi = parse("<>p0 -> []p0")
        bounds = SearchBounds(2, 1, 1)
        a = find_countermodel(consecution([], phi), "inm", bounds)
        b = find_countermodel(consecution([], phi), "inm", bounds)
        assert isinstance(a, CounterexampleFound)
        assert (a.model, a.world, a.index) == (b.model, b.world, b.index)

    def test_more_than_one_worker_rejected(self):
        with pytest.raises(ValueError):
            find_countermodel(consecution([], parse("p0")), "inm",
                              SearchBounds(1, 0, 1), workers=2)

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            find_countermodel(consecution([], parse("p0")), "inm",
                              SearchBounds(1, 0, 1), timeout_ms=-5)

    def test_ifom_kind(self):
        result = find_countermodel(consecution([], parse("p0")), "ifom",
                                   SearchBounds(1, 1, 1))
        assert isinstance(result, CounterexampleFound)

    def test_ifom_matches_pointwise_scan(self):
        # seed 22 gives two exhausted searches, a hit at stream index 1 and
        # one at index 7913
        rng = random.Random(22)
        bounds = SearchBounds(2, 1, 1)
        hits = 0
        for _ in range(4):
            consec = consecution([random_formula(rng, 2, 1)], random_formula(rng, 3, 1))
            result = find_countermodel(consec, "ifom", bounds)
            reference = _pointwise_ifom_scan(consec, bounds)
            if reference is None:
                assert isinstance(result, NoneWithinBounds) and result.examined == 9434
            else:
                hits += 1
                assert (result.model, result.world, result.index) == reference
        assert hits == 2

    def test_classical_monotone_box_small(self):
        phi = parse("[](p0 & p1) -> []p0")
        result = find_countermodel(consecution([], phi), "classical",
                                   SearchBounds(2, 2, 2))
        assert isinstance(result, NoneWithinBounds)


def _pointwise_ifom_scan(consec, bounds):
    """Reference for the ifom search: ``eval_modal_ifom`` at every (world,
    state) point of every streamed structure, points in label order; returns
    ``(structure, point, stream index)`` of the first violation, or None."""
    for index, s in enumerate(enumerate_models("ifom", bounds)):
        for point in sorted(((w, x) for w in s.worlds for x in s.interp[w].states),
                            key=str):
            if all(eval_modal_ifom(s, *point, g) for g in consec.context) \
                    and not eval_modal_ifom(s, *point, consec.conclusion):
                return s, point, index
    return None


class TestOracle:
    """``find_countermodel`` as a bounded consequence oracle."""

    def test_element_unrefuted(self):
        assert isinstance(find_countermodel(consecution([parse("p0")], parse("p0")),
                                            "inm", SearchBounds(2, 1, 1)),
                          NoneWithinBounds)

    def test_atom_refuted(self):
        result = find_countermodel(consecution([], parse("p0")), "inm",
                                   SearchBounds(1, 0, 1))
        assert isinstance(result, CounterexampleFound)

    def test_box_does_not_force_diamond(self):
        # A neighbourhood with an empty value witnesses the box and refutes
        # the diamond, so the consequence is refutable at one world.
        result = find_countermodel(consecution([parse("[]p0")], parse("<>p0")), "inm",
                                   SearchBounds(3, 2, 1))
        assert isinstance(result, CounterexampleFound)
        assert eval_inm(result.model, result.world, parse("[]p0"))
        assert not eval_inm(result.model, result.world, parse("<>p0"))


class TestRandomGenerators:
    def test_inm_valid(self, rng):
        for _ in range(100):
            assert validate_inm(random_inm(rng, SearchBounds(4, 2, 2))) == []

    def test_coherent_generator(self, rng):
        for _ in range(60):
            m = random_coherent_inm(rng, SearchBounds(3, 2, 1))
            assert check_inm(m, "coherent").ok

    def test_cnm_valid(self, rng):
        for _ in range(100):
            assert validate_cnm(random_cnm(rng, SearchBounds(3, 2, 1))) == []

    def test_ifom_independent_of_string_hashing(self):
        code = ("import hashlib, random\n"
                "from imodal.search import random_ifom\n"
                "def canon(s):\n"
                "    return (sorted(s.worlds), sorted(s.leq), [\n"
                "        (w, sorted(m.states), sorted(m.nbhds), sorted(m.relN),\n"
                "         sorted(m.relE), sorted((i, sorted(p)) for i, p in m.preds.items()))\n"
                "        for w, m in sorted(s.interp.items())])\n"
                "rng = random.Random(7)\n"
                "draws = [canon(random_ifom(rng, 3, 2, 2, 1)) for _ in range(50)]\n"
                "print(hashlib.sha256(repr(draws).encode()).hexdigest())\n")
        digests = {_run_python(code, PYTHONHASHSEED=seed) for seed in ("1", "3")}
        assert len(digests) == 1

    def test_ifom_valid(self, rng):
        for _ in range(100):
            assert validate_ifom(random_ifom(rng, 4, 3, 2, 2)) == []

    def test_formula_depth_budget(self, rng):
        from imodal.syntax import modal_depth
        for _ in range(200):
            assert modal_depth(random_formula(rng, 3, 2)) <= 3


def _sweep_batch(atom_count: int) -> list:
    """Seeded random formulas of modal depth up to three, instances of
    ``neg-a`` and ``i-dia`` with nested modal substituents, and a few
    nested validities and non-theorems."""
    from imodal.calculi import NEG_A, I_DIA
    rng = random.Random(11)
    formulas = [random_formula(rng, 3, atom_count) for _ in range(40)]
    substituents = [Atom(0), FALSUM, Box(Atom(0)), Dia(Atom(0)), Box(Dia(Atom(0))),
                    Dia(Implies(Atom(0), FALSUM)), Implies(Box(Atom(0)), Dia(Atom(0)))]
    formulas += [substitute(schema, {0: x})
                 for schema in (NEG_A, I_DIA) for x in substituents]
    formulas += [parse(t) for t in ("[](p0 & p0) -> []p0", "[]<>p0 -> [](<>p0 | F)",
                                    "<>[]p0 -> []p0", "[][]p0 -> []p0",
                                    "~~<>p0 -> <>p0", "([]F -> <>T) -> <>T",
                                    # refuted only by two distinct neighbourhoods
                                    "([]p0 & []~p0) -> []F")]
    return formulas


class TestSweep:
    def test_matches_streaming_reference(self):
        # the larger spaces take every stride-th formula: the streaming
        # reference needs about a second per valid formula there
        for bounds, stride in [(SearchBounds(2, 0, 1), 1), (SearchBounds(2, 1, 1), 1),
                               (SearchBounds(2, 2, 1), 1), (SearchBounds(2, 2, 2), 3),
                               (SearchBounds(3, 1, 1), 5)]:
            formulas = _sweep_batch(bounds.max_atoms)[::stride]
            verdicts = sweep_inm_validity(formulas, bounds)
            assert any(v is None for v in verdicts), bounds
            assert any(v is not None for v in verdicts), bounds
            for phi, witness in zip(formulas, verdicts):
                reference = find_countermodel(consecution([], phi), "inm", bounds)
                assert (witness is None) == isinstance(reference, NoneWithinBounds), \
                    (bounds, str(phi))
                if witness is not None:
                    model, world = witness
                    assert validate_inm(model) == []
                    assert not eval_inm(model, world, phi)
                    assert len(model.nbhds) <= bounds.max_nbhds
                    assert len(model.worlds) <= bounds.max_worlds

    def test_no_neighbourhood_witness(self):
        # <>F holds just where no neighbourhood reaches, so the first witness
        # is a model without neighbourhoods
        [(model, world)] = sweep_inm_validity([parse("<>F -> F")], SearchBounds(1, 2, 0))
        assert model.nbhds == {}
        assert not eval_inm(model, world, parse("<>F -> F"))

    def test_rejects_large_neighbourhood_bounds(self):
        with pytest.raises(ValueError):
            sweep_inm_validity([parse("p0")], SearchBounds(1, 3, 1))

    def test_import_leaves_numpy_out(self):
        loaded = _run_python("import sys, imodal, imodal.cli, imodal.search; "
                             "print([m in sys.modules for m in "
                             "('numpy', 'concurrent.futures', 'multiprocessing')])")
        assert loaded == "[False, False, False]"


@pytest.mark.slow
class TestClassicalSanity:
    def test_monotone_box_has_no_countermodel(self):
        # material-box monotonicity over the full classical space
        phi = parse("[](p0 & p1) -> []p0")
        result = find_countermodel(consecution([], phi), "classical",
                                   SearchBounds(3, 3, 2))
        assert isinstance(result, NoneWithinBounds)
        assert not result.timed_out
