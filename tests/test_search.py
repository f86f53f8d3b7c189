import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

import imodal
from imodal import docio, search
from imodal.models import (KINDS, INModel, _bits, _truth_set, check_full, check_ik2_frame,
                           check_inm, eval_cnm, eval_inm, validate_cnm, validate_inm)
from imodal.folm import FOMStructure, eval_modal_ifom, validate_ifom
from imodal.search import (CounterexampleFound, NoneWithinBounds, SearchBounds,
                           enumerate_models, find_countermodel,
                           sweep_inm_validity, upsets_of_poset, _ifom_model,
                           _columns, _inm_columns, _orders, _repeat, _space,
                           _subsets, _supersets, _union_below)
from imodal.syntax import (FALSUM, Atom, Box, Dia, Implies, consecution, parse,
                           substitute, translate_bimodal)

from generators import random_cnm, random_coherent_inm, random_formula, random_ifom, random_inm

SRC = os.path.dirname(os.path.dirname(imodal.__file__))


def _run_python(code: str, **env) -> str:
    """Run ``code`` in a fresh interpreter on this checkout's sources, with
    the test helpers (``generators``) importable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.path.dirname(__file__)]), **env}
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

# The same for filtered streams, recorded while the filters still ran on
# every model.  Since then the Cartesian and full filters run once per frame,
# and coherence is checked on the columns of each order's candidates.
FILTERED_STREAM_DIGESTS = {
    "inm-coherent": ("inm", SearchBounds(3, 1, 1, require_coherent=True), 13124,
                     "96951fb4ee356fea0f357ed117074e4da71554a184e11c237c8dc6af943979e6"),
    "inm-cartesian": ("inm", SearchBounds(2, 2, 1, require_cartesian=True), 565,
                      "8c07a7183178387333be85c05eac8fe368c46de10b56c38b85c5878335421e2e"),
    "cnm-full": ("cnm", SearchBounds(2, 2, 1, require_full=True), 1360,
                 "a290ea6f216fd8fe619b41bb247b66e1ae76c1fe18918159631f6298ead80cbe"),
}


# every require_* filter a kind does not have: inm has coherent and
# cartesian, cnm has full, and the other kinds have none
FOREIGN_FILTERS = ([("inm", "full"), ("cnm", "coherent"), ("cnm", "cartesian")]
                   + [(kind, flag) for kind in ("ik2", "ifom", "classical")
                      for flag in ("coherent", "cartesian", "full")])


def _stream_digest(kind: str, bounds: SearchBounds):
    docs = [docio.model_to_doc(m) for m in enumerate_models(kind, bounds)]
    return len(docs), hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


# 4-world orders, by their strict pairs, for the checks that cannot afford
# all 40: the candidates of an order are 70,000 to 84,000
FOUR_WORLD_ORDERS = {
    name: frozenset((w, w) for w in range(4)) | frozenset(pairs) for name, pairs in {
        "antichain": [],
        "chain": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        "diamond": [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)],
        "fork": [(0, 1), (0, 2), (0, 3)],
        "join": [(0, 3), (1, 3), (2, 3)],
    }.items()}


def _reference_inm_candidates(n: int, leq, upsets, require_coherent: bool) -> list:
    """The reference for the inm candidates: every neighbourhood on the
    order ``leq`` as a tuple ``(sorted domain, values)``, domain by domain in
    ``upsets`` order, the values in the bitmask order of ``_subsets``; with
    ``require_coherent``, only those that pass N1 and N2, checked one
    candidate at a time."""
    subsets = _subsets(range(n))
    cands = [(dom, values) for dom in map(sorted, upsets)
             for values in itertools.product(subsets, repeat=len(dom))]
    if not require_coherent:
        return cands
    # as bitmasks over the worlds: the successors of each world, the worlds
    # with a successor in each set, and the successors of the members of it
    up = [_bits(v for v in range(n) if (w, v) in leq) for w in range(n)]
    down = [_bits(v for v in range(n) if up[v] & b) for b in range(1 << n)]
    ups = [functools.reduce(lambda x, y: x | y, (up[v] for v in s), 0) for s in subsets]

    def coherent(dom, values) -> bool:
        a = {w: _bits(value) for w, value in zip(dom, values)}
        for w, value in a.items():
            reach = 0  # the union of the values at the successors of w
            for wp, later in a.items():
                if up[w] >> wp & 1:
                    if value & ~down[later]:
                        return False  # N1: a member of a(w) is below none of a(w')
                    reach |= later
            if ups[value] & ~reach:
                return False  # N2: an up-move from a(w) is matched at no w' >= w
        return True

    return [(dom, values) for dom, values in cands if coherent(dom, values)]


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

    @pytest.mark.parametrize("kind, flag", FOREIGN_FILTERS)
    def test_foreign_filter_rejected(self, kind, flag):
        bounds = SearchBounds(1, 0, 0, **{f"require_{flag}": True})
        with pytest.raises(ValueError, match=f"require_{flag} does not apply to {kind}"):
            next(enumerate_models(kind, bounds))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind 'bogus'"):
            next(enumerate_models("bogus", SearchBounds(1, 0, 0)))

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
        assert _stream_digest(kind, SearchBounds(*bounds)) == (count, digest)

    @pytest.mark.parametrize("name", sorted(FILTERED_STREAM_DIGESTS))
    def test_filtered_enumeration_order_is_pinned(self, name):
        kind, bounds, count, digest = FILTERED_STREAM_DIGESTS[name]
        assert _stream_digest(kind, bounds) == (count, digest)

    def test_posets_are_transitive(self):
        # the labelled posets whose strict pairs point up number 1, 2, 7, 40
        for n, count in enumerate([1, 2, 7, 40], 1):
            orders = list(_orders("inm", n))
            assert len(orders) == len(set(orders)) == count
            for leq in orders:
                assert all((i, i) in leq for i in range(n))
                assert all(a <= b for (a, b) in leq)
                assert all((a, c) in leq for (a, b) in leq for (b2, c) in leq if b2 == b)

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

    def test_coherent_candidates_match_check_inm(self):
        # the coherent candidates against check_inm on the one-neighbourhood
        # model of each candidate: every candidate of every order on 1 to 3
        # worlds, and every 23rd candidate of the 4-world orders, where
        # check_inm's 0.1 ms a model would take most of a minute for all 373,000
        checked = 0
        for n, leq, stride in ([(n, leq, 1) for n in range(1, 4) for leq in _orders("inm", n)]
                               + [(4, leq, 23) for leq in FOUR_WORLD_ORDERS.values()]):
            upsets = upsets_of_poset(n, leq)
            coherent = {(tuple(dom), values)
                        for dom, values in _inm_columns(n, leq, upsets, True)[1]()}
            for dom, values in _inm_columns(n, leq, upsets, False)[1]()[::stride]:
                model = INModel(frozenset(range(n)), leq, {"a0": dict(zip(dom, values))}, {})
                assert ((tuple(dom), values) in coherent) == check_inm(model, "coherent").ok
                checked += 1
        assert checked == 4576 + 16204

    @pytest.mark.parametrize("n, leq", [
        pytest.param(n, leq, id=f"{n}:" + ",".join(f"{v}<{w}" for v, w in sorted(leq) if v != w))
        for n in range(1, 4) for leq in _orders("inm", n)] + [
        pytest.param(4, leq, id=name) for name, leq in FOUR_WORLD_ORDERS.items()])
    def test_candidate_columns_match_the_reference(self, n, leq):
        # the kept candidates against those built and checked one at a time,
        # and the columns against the reference's per-candidate masks
        upsets = upsets_of_poset(n, leq)
        for coherent in (False, True):
            count, candidates, columns = _inm_columns(n, leq, upsets, coherent)
            reference = _reference_inm_candidates(n, leq, upsets, coherent)
            assert count == len(reference) and candidates() == reference
            masks = [sum(1 << w | _bits(value) << n + w * n for w, value in zip(dom, values))
                     for dom, values in reference]
            assert columns == _columns(masks, n + n * n)

    @pytest.mark.parametrize("bounds", [(2, 2, 1), (3, 1, 1)])
    def test_coherent_stream_is_the_stream_filtered_by_check_inm(self, bounds):
        coherent = [m for m in enumerate_models("inm", SearchBounds(*bounds))
                    if check_inm(m, "coherent").ok]
        assert list(enumerate_models("inm", SearchBounds(*bounds, require_coherent=True))) \
            == coherent
        assert list(enumerate_models("inm", SearchBounds(*bounds, require_coherent=True,
                                                         require_cartesian=True))) \
            == [m for m in coherent if check_inm(m, "cartesian").ok]

    @pytest.mark.parametrize("bounds", [(2, 1, 1), (3, 0, 0), (1, 2, 2)])
    def test_ifom_frames_match_the_reference(self, bounds):
        # the structures, and the keys that the batches give each of them
        bounds = SearchBounds(*bounds)
        for n in range(1, bounds.max_worlds + 1):
            for leq in _orders("ifom", n):
                space = _space("ifom", bounds, n, leq)
                for frame, keys, (reference, reference_keys) in zip(
                        space.frames(), _batch_keys(space.batches(1 << 12), 1 << 12),
                        _ifom_reference_frames(bounds, n, leq), strict=True):
                    assert docio.model_to_doc(frame({})) == docio.model_to_doc(reference({}))
                    assert collections.Counter(keys) \
                        == collections.Counter(itertools.chain.from_iterable(reference_keys))


def _reference_image_keys(at: int, states, nbhds, relN, relE) -> tuple:
    """The ``batch_inm`` keys of the pairs of one world in the ``bullet``
    image, whose pair with state ``x`` is the point ``at + x``."""
    keys = []
    for a in sorted(nbhds):
        for x in sorted(states):
            if (x, a) in relN:
                keys.append((a, at + x))
                keys.extend((a, at + x, at + y) for y in sorted(states) if (a, y) in relE)
    return tuple(keys)


def _ifom_reference_frames(bounds: SearchBounds, n: int, leq):
    """The reference for the ifom space: the structures of its frames and the
    keys of its batches, built by a recursion that rebuilds a world's options
    at each visit."""
    state_pool = tuple(range(bounds.max_worlds))
    nbhd_pool = tuple(range(bounds.max_nbhds))
    atoms = range(bounds.max_atoms)
    worlds = frozenset(range(n))

    def go(w: int, interp: dict, keys: tuple):
        if w == n:
            yield functools.partial(_ifom_model, worlds, leq, dict(interp)), keys
            return
        at = w * len(state_pool)
        base = _union_below(interp, leq, w, bounds.max_atoms)
        for states in _supersets(base.states, state_pool):
            if not states:
                continue
            absent = tuple(("absent", at + x) for x in state_pool if x not in states)
            for nbhds in _supersets(base.nbhds, nbhd_pool):
                rn_pool = [(x, a) for x in sorted(states) for a in sorted(nbhds)]
                re_pool = [(a, x) for a in sorted(nbhds) for x in sorted(states)]
                for relN in _supersets(base.relN, rn_pool):
                    for relE in _supersets(base.relE, re_pool):
                        image = absent + _reference_image_keys(at, states, nbhds, relN, relE)
                        for pred_sets in itertools.product(
                                *(_supersets(base.preds[i], sorted(states)) for i in atoms)):
                            interp[w] = FOMStructure(
                                states, nbhds, relN, relE,
                                {i: pred_sets[i] for i in atoms})
                            yield from go(w + 1, interp, keys + (image, tuple(
                                ("atom", i, at + x) for i in atoms for x in sorted(pred_sets[i]))))
                            del interp[w]

    yield from go(0, {}, ())


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
        # the space is far too large to finish: the 4-world antichain alone
        # has C(83521, 3) frames with three neighbourhoods, so the result
        # comes back in time only if each batch is small
        phi = parse("([]T -> <>p0) -> <>p0")
        start = time.monotonic()
        result = find_countermodel(consecution([], phi), "inm",
                                   SearchBounds(4, 3, 1), timeout_ms=400)
        assert time.monotonic() - start < 2.0
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

    @pytest.mark.parametrize("kind, flag", FOREIGN_FILTERS)
    def test_foreign_filter_rejected(self, kind, flag):
        bounds = SearchBounds(1, 0, 1, **{f"require_{flag}": True})
        with pytest.raises(ValueError, match=f"require_{flag} does not apply to {kind}"):
            find_countermodel(consecution([], parse("p0")), kind, bounds)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind 'bogus'"):
            find_countermodel(consecution([], parse("p0")), "bogus", SearchBounds(1, 0, 1))

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

    def test_hit_is_rechecked(self, monkeypatch):
        # a batch hit that the kind's single-model evaluator does not confirm
        # is an error, not a result
        monkeypatch.setitem(KINDS, "inm",
                            dataclasses.replace(KINDS["inm"], holds=lambda m, w, phi: True))
        with pytest.raises(RuntimeError):
            find_countermodel(consecution([], parse("p0")), "inm", SearchBounds(1, 0, 1))

    def test_classical_monotone_box_small(self):
        phi = parse("[](p0 & p1) -> []p0")
        result = find_countermodel(consecution([], phi), "classical",
                                   SearchBounds(2, 2, 2))
        assert isinstance(result, NoneWithinBounds)


def _stream_hit(consec, kind, bounds):
    """The one-model-at-a-time reference for ``find_countermodel``: walk
    ``enumerate_models`` and evaluate each model with its kind's single-model
    clauses.  Returns ``(model, point, index)`` for the first model with a
    point where the context holds and the conclusion fails, the least such
    point by label; otherwise the number of models in the stream."""
    context = sorted(consec.context, key=str)
    count = 0
    for index, m in enumerate(enumerate_models(kind, bounds)):
        points, up, val, modal = KINDS[kind].clauses(m)
        memo = {}
        good = (1 << len(points)) - 1
        for g in context:
            good &= _truth_set(up, val, modal, g, memo)
        bad = good & ~_truth_set(up, val, modal, consec.conclusion, memo)
        if bad:
            return m, points[(bad & -bad).bit_length() - 1], index
        count += 1
    return count


# Per kind, the bounds of the property below: every filter, and for each
# kind a space of a few hundred to a few thousand models.
PROPERTY_BOUNDS = {
    "inm": [SearchBounds(2, 2, 1), SearchBounds(2, 2, 1, require_coherent=True),
            SearchBounds(2, 2, 1, require_cartesian=True), SearchBounds(3, 1, 1)],
    "cnm": [SearchBounds(2, 1, 2), SearchBounds(2, 2, 1, require_full=True)],
    "ik2": [SearchBounds(2, 0, 1)],
    "classical": [SearchBounds(2, 2, 1), SearchBounds(3, 1, 2)],
    "ifom": [SearchBounds(2, 1, 0), SearchBounds(2, 1, 1)],
}


# Hand-picked consecutions, as (kind, bounds, context, conclusion): first
# hits deep in the stream, some in a later batch of their order, and the
# persistence of the modalities, which a clause that skipped the successors
# of a point would break.
CHOSEN_CASES = [
    ("inm", SearchBounds(2, 1, 1), ["[]p0"], "~~[]p0"),
    ("inm", SearchBounds(2, 1, 1), ["<>p0"], "~~<>p0"),
    ("cnm", SearchBounds(2, 1, 1), ["[]p0"], "~~[]p0"),
    ("cnm", SearchBounds(2, 1, 1), ["<>p0"], "~~<>p0"),
    ("ik2", SearchBounds(2, 0, 1), ["[N]p0", "<E>p0"], "~~([N]p0 & <E>p0)"),
    ("inm", SearchBounds(3, 1, 1), [], "~p0 | ~~p0"),  # index 13915
    ("inm", SearchBounds(2, 2, 1, require_coherent=True), [], "([]F -> <>T) -> <>T"),
    ("inm", SearchBounds(2, 2, 1, require_cartesian=True), [], "([]F -> <>T) -> <>T"),
    ("inm", SearchBounds(2, 2, 1), ["[]p0", "[]~p0"], "[]F"),
    ("cnm", SearchBounds(2, 2, 1, require_full=True), ["nabla T"], "nabla p0 | nabla ~p0"),
    ("classical", SearchBounds(3, 1, 2), [], "[]p0 -> [](p0 & p1) | []p1"),
    ("ik2", SearchBounds(2, 0, 1), ["<E>T"], "[E]p0 | <E>~p0"),
    ("ifom", SearchBounds(2, 1, 1), [], "p0 | ~p0"),  # index 7833
    ("ifom", SearchBounds(2, 1, 0), [], "[]F | <>T"),
]


def _random_consecution(rng, kind, atoms):
    """A random consecution of ``kind``'s dialects: zero to two context
    formulas and a conclusion."""
    def draw(depth):
        if kind == "ik2":
            return translate_bimodal(random_formula(rng, depth, atoms))
        dialect = rng.choice(["modal", "nabla"]) if kind == "cnm" else "modal"
        return random_formula(rng, depth, atoms, dialect)
    return consecution([draw(2) for _ in range(rng.randrange(3))], draw(3))


def _read_consecution(kind: str, context: list, conclusion: str):
    """A consecution from the texts of its formulas, in ``kind``'s dialects."""
    def read(text):
        return parse(text, "bimodal" if kind == "ik2" else
                     "nabla" if "nabla" in text else "modal")
    return consecution(map(read, context), read(conclusion))


class TestBatchAgainstStream:
    @pytest.mark.parametrize("kind", sorted(PROPERTY_BOUNDS))
    def test_find_countermodel_matches_the_stream(self, kind):
        # with seed 5 the random cases give every kind both hits and
        # exhausted searches
        rng = random.Random(5)
        cases = [(bounds, _random_consecution(rng, kind, bounds.max_atoms))
                 for bounds in PROPERTY_BOUNDS[kind]
                 for _ in range(8 if bounds.max_worlds == 2 else 3)]
        cases += [(bounds, _read_consecution(kind, context, conclusion))
                  for case_kind, bounds, context, conclusion in CHOSEN_CASES
                  if case_kind == kind]
        outcomes = set()
        for bounds, consec in cases:
            result = find_countermodel(consec, kind, bounds)
            reference = _stream_hit(consec, kind, bounds)
            if isinstance(reference, int):
                outcomes.add("exhausted")
                assert isinstance(result, NoneWithinBounds), (bounds, consec)
                assert result.examined == reference and not result.timed_out
            else:
                outcomes.add("hit")
                assert isinstance(result, CounterexampleFound), (bounds, consec)
                assert (result.model, result.world, result.index) == reference
        assert outcomes == {"hit", "exhausted"}


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
                "from generators import random_ifom\n"
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

    @pytest.mark.parametrize("dialect", ["bimodal", "bogus"])
    def test_formula_dialect_rejected(self, rng, dialect):
        # bimodal formulas come from translating modal draws
        with pytest.raises(ValueError, match=f"modal or nabla dialect, not {dialect!r}"):
            random_formula(rng, 3, 2, dialect)


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


def _search_hit(phi, bounds):
    """The streaming reference's hit for ``phi`` over inm as ``(model,
    world)``, or None when it exhausts the bounds."""
    reference = _stream_hit(consecution([], phi), "inm", bounds)
    return None if isinstance(reference, int) else reference[:2]


class TestSweep:
    def test_matches_streaming_reference(self):
        # the larger spaces take every stride-th formula: the streaming
        # reference needs about a second per valid formula there
        for bounds, stride in [(SearchBounds(2, 0, 1), 1), (SearchBounds(2, 1, 1), 1),
                               (SearchBounds(2, 2, 1), 1), (SearchBounds(2, 2, 2), 3),
                               (SearchBounds(3, 1, 1), 5), (SearchBounds(2, 3, 1), 6),
                               (SearchBounds(2, 2, 1, require_coherent=True), 2),
                               (SearchBounds(2, 1, 1, require_cartesian=True), 1)]:
            formulas = _sweep_batch(bounds.max_atoms)[::stride]
            verdicts = sweep_inm_validity(formulas, bounds)
            assert any(v is None for v in verdicts), bounds
            assert any(v is not None for v in verdicts), bounds
            for phi, witness in zip(formulas, verdicts):
                assert witness == _search_hit(phi, bounds), (bounds, str(phi))
                if witness is not None:
                    model, world = witness
                    assert validate_inm(model) == []
                    assert not eval_inm(model, world, phi)
                    assert len(model.nbhds) <= bounds.max_nbhds
                    assert len(model.worlds) <= bounds.max_worlds

    @pytest.mark.parametrize("level", ["coherent", "cartesian"])
    def test_witnesses_pass_the_filters(self, level):
        # the filters once went unread here: at (2, 1, 1) the witness for
        # ([]F -> <>T) -> <>T was neither coherent nor Cartesian
        bounds = SearchBounds(2, 1, 1, **{f"require_{level}": True})
        witnesses = [v for v in sweep_inm_validity(_sweep_batch(1), bounds) if v]
        assert witnesses
        for model, _ in witnesses:
            assert check_inm(model, level).ok

    def test_full_filter_rejected(self):
        with pytest.raises(ValueError, match="require_full does not apply to inm"):
            sweep_inm_validity([parse("p0")], SearchBounds(1, 0, 1, require_full=True))

    def test_no_neighbourhood_witness(self):
        # <>F holds just where no neighbourhood reaches, so the first witness
        # is a model without neighbourhoods
        [(model, world)] = sweep_inm_validity([parse("<>F -> F")], SearchBounds(1, 2, 0))
        assert model.nbhds == {}
        assert not eval_inm(model, world, parse("<>F -> F"))

    def test_dialect_mismatch_fails_before_enumeration(self, monkeypatch):
        def no_orders(kind, n):
            raise AssertionError("enumeration started")
        monkeypatch.setattr(search, "_orders", no_orders)
        with pytest.raises(ValueError, match="formula dialect does not match model kind 'inm'"):
            sweep_inm_validity([parse("p0"), parse("[N]p0", "bimodal")], SearchBounds(1, 1, 1))

    def test_three_neighbourhoods(self):
        # no limit on the neighbourhood count: at (1, 3, 1) too the sweep
        # returns the search's hits
        formulas = _sweep_batch(1)
        bounds = SearchBounds(1, 3, 1)
        verdicts = sweep_inm_validity(formulas, bounds)
        assert verdicts == [_search_hit(phi, bounds) for phi in formulas]

    def test_import_leaves_numpy_out(self):
        loaded = _run_python("import sys, imodal, imodal.cli, imodal.search; "
                             "print([m in sys.modules for m in "
                             "('numpy', 'concurrent.futures', 'multiprocessing')])")
        assert loaded == "[False, False, False]"


def _frame_facts(model: INModel) -> set:
    """The ``batch_inm`` keys of a model's neighbourhoods, slot ``s`` being
    the neighbourhood ``as``."""
    return {fact for name, a in model.nbhds.items()
            for s in [int(name[1:])]
            for fact in [(s, w) for w in a] + [(s, w, u) for w, value in a.items() for u in value]}


def _ifom_facts(structure, max_worlds: int) -> set:
    """The keys of an ifom structure: the ``batch_inm`` keys of its
    ``bullet`` image, the grid points it lacks and where its atoms hold, the
    pair of world ``w`` and state ``x`` being point ``w * max_worlds + x``."""
    facts = set()
    for w, m in structure.interp.items():
        at = w * max_worlds
        facts |= {("absent", at + x) for x in range(max_worlds) if x not in m.states}
        facts |= {(a, at + x) for x, a in m.relN}
        facts |= {(a, at + x, at + y) for x, a in m.relN for b, y in m.relE if b == a}
        facts |= {("atom", i, at + x) for i, ext in m.preds.items() for x in ext}
    return facts


# Per kind, the keys of its batch clause that a frame's model has.
MODEL_FACTS = {
    "classical": lambda m, bounds: {(w, tuple(sorted(s))) for w, fam in m.nf.items()
                                    for s in fam},
    "cnm": lambda m, bounds: {(w, tuple(sorted(s))) for w, fam in m.gamma.items()
                              for s in fam},
    "ik2": lambda m, bounds: {(j, y, z) for j, rel in (("N", m.relN), ("E", m.relE))
                              for y, z in rel},
    "ifom": lambda m, bounds: _ifom_facts(m, bounds.max_worlds),
}


def _batch_keys(batches, width: int):
    """Per frame of batches of at most ``width`` frames, the keys whose
    predicate has its bit."""
    for size, preds in batches:
        assert 0 < size <= width
        keys = [set() for _ in range(size)]
        for key, bits in preds.items():
            assert 0 < bits < 1 << size
            for f, bit in enumerate(reversed(bin(bits)[2:])):
                if bit == "1":
                    keys[f].add(key)
        yield from keys


class TestRuns:
    @pytest.mark.parametrize("coherent", [False, True])
    def test_run_predicates_are_the_facts_of_the_frames(self, coherent):
        # every order of 1 to 3 worlds with up to two neighbourhoods, in
        # batches that split runs (7 frames) and that join them; a 3-world
        # order has up to 266,086 frames with two neighbourhoods, so only
        # the first 3,000 of each order are compared there, while (3, 1)
        # and (2, 2) are compared whole, down to the short runs at the end
        compared = 0
        for bounds in [SearchBounds(3, 1, 0, require_coherent=coherent),
                       SearchBounds(2, 2, 0, require_coherent=coherent),
                       SearchBounds(3, 2, 0, require_coherent=coherent)]:
            for width in (7, 1 << 12):
                for n in range(1, bounds.max_worlds + 1):
                    for leq in _orders("inm", n):
                        space = _space("inm", bounds, n, leq)
                        pairs = itertools.zip_longest(space.frames(),
                                                      _batch_keys(space.batches(width), width))
                        for frame, keys in itertools.islice(pairs, 3000):
                            assert _frame_facts(frame({})) == keys
                            compared += 1
        assert compared == (53432 if not coherent else 47872)

    @pytest.mark.parametrize("kind, bounds, limit, count", [
        ("classical", (2, 2, 0), None, 122),
        ("classical", (3, 2, 0), None, 1979),
        ("cnm", (2, 2, 0), None, 488),
        ("cnm", (3, 1, 0), None, 21244),
        ("ik2", (2, 0, 0), None, 341),
        ("ik2", (3, 0, 0), 3000, 21341),
        ("ifom", (2, 1, 1), None, 9434),
        ("ifom", (1, 2, 1), None, 50),
    ], ids=str)
    def test_product_and_run_predicates_are_the_facts_of_the_frames(self, kind, bounds,
                                                                     limit, count):
        bounds = SearchBounds(*bounds)
        # every order, in batches that split a product or run (7 frames) and
        # that join them; the 3-world ik2 orders have up to 262,144 frames,
        # so only the first 3,000 of each order are compared there, and the
        # other bounds are compared whole
        for width in (7, 1 << 12):
            compared = 0
            for n in range(1, bounds.max_worlds + 1):
                for leq in _orders(kind, n):
                    space = _space(kind, bounds, n, leq)
                    pairs = itertools.zip_longest(space.frames(),
                                                  _batch_keys(space.batches(width), width))
                    for frame, keys in itertools.islice(pairs, limit):
                        assert MODEL_FACTS[kind](frame({}), bounds) == keys
                        compared += 1
            assert compared == count


def test_repeat_is_the_product_with_the_repunit():
    for count in range(71):
        for bits, width in [(0, 3), (1, 1), (0b101, 3), (0b1011, 6), ((1 << 70) - 3, 70)]:
            repunit = sum(1 << k * width for k in range(count))
            assert _repeat(bits, width, count) == bits * repunit


# The bounds of the batch-boundary property: without a filter, and with
# each inm filter, which reads the frames alongside the batches.
BOUNDARY_CASES = [
    SearchBounds(2, 2, 1),
    SearchBounds(3, 1, 1, require_coherent=True),
    SearchBounds(2, 1, 1, require_cartesian=True),
]


# Per kind but inm, the bounds and consecutions of the batch-boundary
# property: hits in later batches of their orders, and exhausted searches.
# The cnm bounds have the full filter, which reads the frames alongside the
# batches; the classical ones have 64 valuations, so that at 8 models a
# batch every batch is one frame.
KIND_BOUNDARY_CASES = {
    "classical": (SearchBounds(3, 1, 2), [([], "[]p0 -> p0"),  # index 8
                                          ([], "[]p0 -> [](p0 & p1) | []p1"),
                                          ([], "[](p0 & p1) -> []p0"),
                                          (["<>p0"], "[]p1 -> p1")]),
    "cnm": (SearchBounds(2, 2, 1, require_full=True), [([], "~~<>p0 -> <>p0"),  # index 530
                                                       ([], "~p0 | ~~p0"),
                                                       (["nabla T"], "nabla p0 | nabla ~p0")]),
    "ik2": (SearchBounds(2, 0, 1), [([], "[E]p0 | <E>~p0"),  # index 1035
                                    (["<N>p0"], "~~[N]p0 -> [N]p0"),
                                    ([], "~p0 | ~~p0")]),
    "ifom": (SearchBounds(2, 1, 1), [([], "p0 | ~p0"),  # index 7833
                                     (["<>p0"], "~~<>p0 -> <>p0"),
                                     ([], "~p0 | ~~p0")]),
}


class TestBatchBoundaries:
    @pytest.mark.parametrize("bounds", BOUNDARY_CASES, ids=str)
    def test_tiny_batches_give_the_same_results(self, bounds, monkeypatch):
        # the last three are refuted deep in the stream, at index 8,863,
        # 131 and 118 with (3, 1, 1) coherent
        formulas = _sweep_batch(1)[::5] + [parse(t) for t in (
            "~p0 | ~~p0", "~~<>p0 -> <>p0", "~~[]p0 -> []p0")]
        consecs = [consecution([], phi) for phi in formulas]
        consecs += [consecution([parse("[]p0")], parse("<>p0")),
                    consecution([parse("<>p0")], parse("~~<>p0"))]
        def results():
            out = []
            for consec in consecs:
                r = find_countermodel(consec, "inm", bounds)
                out.append((r.model, r.world, r.index) if isinstance(r, CounterexampleFound)
                           else (r.examined, r.timed_out))
            return out, sweep_inm_validity(formulas, bounds)
        default = results()
        # at most 8 models a batch: runs split, a batch holds one to four
        # frames, and the deep hits land in later batches of their orders
        monkeypatch.setattr(search, "_BATCH_MODELS", 8)
        assert results() == default
        found, sweep = default
        assert any(len(r) == 3 and r[2] > 8 for r in found)
        assert any(len(r) == 2 for r in found)
        assert any(v is None for v in sweep) and any(v is not None for v in sweep)

    @pytest.mark.parametrize("kind", sorted(KIND_BOUNDARY_CASES))
    def test_tiny_batches_give_the_same_hits(self, kind, monkeypatch):
        bounds, cases = KIND_BOUNDARY_CASES[kind]
        consecs = [_read_consecution(kind, context, conclusion)
                   for context, conclusion in cases]
        def results():
            out = []
            for consec in consecs:
                r = find_countermodel(consec, kind, bounds)
                out.append((r.model, r.world, r.index) if isinstance(r, CounterexampleFound)
                           else (r.examined, r.timed_out))
            return out
        default = results()
        monkeypatch.setattr(search, "_BATCH_MODELS", 8)
        assert results() == default
        assert any(len(r) == 3 and r[2] > 8 for r in default)
        assert any(len(r) == 2 for r in default)


class TestLargeSearches:
    """Exhaustive searches at the CLI's default bounds and at four inm
    worlds, a hit deep in the ifom stream and hits on a 4-world inm order:
    their model counts and hit indices pin the stream."""

    def test_cnm_monotone_box_is_exhausted(self):
        result = find_countermodel(consecution([], parse("[](p0 & p1) -> []p0")), "cnm",
                                   SearchBounds(3, 2, 1))
        assert isinstance(result, NoneWithinBounds) and not result.timed_out
        assert result.examined == 6_586_350

    def test_ik2_translated_box_is_exhausted(self):
        phi = translate_bimodal(parse("[](p0 & p0) -> []p0"))
        result = find_countermodel(consecution([], phi), "ik2", SearchBounds(3, 0, 1))
        assert isinstance(result, NoneWithinBounds) and not result.timed_out
        assert result.examined == 2_989_565

    @pytest.mark.parametrize("coherent, examined", [(False, 27_057_220), (True, 5_002_846)])
    def test_inm_i_dia_is_exhausted_on_four_worlds(self, coherent, examined):
        # the counts of bench/reference.py's count_inm(4, 1, 1, coherent)
        result = find_countermodel(consecution([], parse("([]T -> <>p0) -> <>p0")), "inm",
                                   SearchBounds(4, 1, 1, require_coherent=coherent))
        assert isinstance(result, NoneWithinBounds) and not result.timed_out
        assert result.examined == examined

    @pytest.mark.parametrize("coherent, index", [(False, 52_304), (True, 39_002)])
    def test_inm_four_way_split_is_refuted_on_four_worlds(self, coherent, index):
        # a value meeting four pairwise disjoint sets needs four worlds, so
        # the first hit lies on the first 4-world order, the antichain
        bounds = SearchBounds(4, 1, 1, require_coherent=coherent)
        result = find_countermodel(consecution([], parse(
            "~([]T & <>(p0 & []p0) & <>(p0 & ~[]p0) & <>(~p0 & []p0) & <>(~p0 & ~[]p0))")),
            "inm", bounds)
        assert isinstance(result, CounterexampleFound)
        assert result.index == index and len(result.model.worlds) == 4
        assert result.model == next(itertools.islice(enumerate_models("inm", bounds),
                                                     index, None))

    def test_ifom_excluded_middle_is_refuted_deep_in_the_stream(self):
        result = find_countermodel(consecution([], parse("p0 | ~p0")), "ifom",
                                   SearchBounds(2, 2, 1))
        assert isinstance(result, CounterexampleFound)
        assert result.index == 1_578_793
        assert not eval_modal_ifom(result.model, *result.world, parse("p0 | ~p0"))


class TestClassicalSanity:
    def test_monotone_box_has_no_countermodel(self):
        # material-box monotonicity over the full classical space
        phi = parse("[](p0 & p1) -> []p0")
        result = find_countermodel(consecution([], phi), "classical",
                                   SearchBounds(3, 3, 2))
        assert isinstance(result, NoneWithinBounds)
        assert not result.timed_out
