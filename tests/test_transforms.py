import pickle
import random

import pytest

from imodal.folm import eval_modal_ifom, validate_ifom
from imodal.models import (INModel, check_full, check_ik2_frame, check_inm,
                           eval_cnm, eval_ik2, eval_inm, find_isomorphism,
                           nbhd_relation)
from imodal.orders import equivalence_classes
from imodal.search import SearchBounds
from imodal.syntax import parse, show, translate_bimodal
from imodal.transforms import (Path, TransformError, TruncationBudget, bullet,
                               circle, coherent_completion, fullify, hat,
                               leq_ur, star, unravel)

from generators import random_cnm, random_coherent_inm, random_formula, random_ifom, random_inm

REFL2 = frozenset({("w", "w"), ("v", "v"), ("w", "v")})


def chain2(nbhds, val=None):
    return INModel(frozenset({"w", "v"}), REFL2, nbhds, val or {})


# Slow references for the unravelling and the completion: the path order as
# first written, with four sub-paths per comparison, the unravelling built
# from its definition, and the completion that closes lifted sets upward.

def _split(p):
    k = 0
    while k < len(p.labels) and p.labels[k] is None:
        k += 1
    return k


def _leq_ur_reference(m, p, q):
    def parts(r):
        k = _split(r)
        return Path(r.worlds[:k + 1], r.labels[:k]), Path(r.worlds[k:], r.labels[k:])

    (po, pn), (qo, qn) = parts(p), parts(q)
    if pn.labels != qn.labels:
        return False
    if qo.worlds[:len(po.worlds)] != po.worlds:
        return False
    if len(qo.worlds) == len(po.worlds):
        return pn.worlds == qn.worlds
    return all((x, y) in m.leq for x, y in zip(pn.worlds, qn.worlds))


def _unravel_reference(m, source, limit):
    """Every order path of at most ``limit`` steps from ``source``, each
    followed by every neighbourhood path of at most ``limit`` steps, ordered
    by comparing all pairs."""
    def extend(p, left, steps):
        yield p
        if left:
            for label, v in steps(p.last):
                yield from extend(p.step(label, v), left - 1, steps)

    def order_steps(x):
        return [(None, v) for v in m.worlds if (x, v) in m.leq]

    def nbhd_steps(x):
        return [(name, y) for name, a in m.nbhds.items() for y in a.get(x, ())]

    paths = [r for o in extend(Path((source,), ()), limit, order_steps)
             for r in extend(o, limit, nbhd_steps)]
    assert len(paths) == len(set(paths))
    leq = frozenset((p, q) for p in paths for q in paths if _leq_ur_reference(m, p, q))
    nbhds = {(name, p): {q: frozenset(q.step(name, x) for x in a[q.last]
                                      if len(q.labels) - _split(q) < limit)
                         for q in paths if (p, q) in leq}
             for p in paths for name, a in m.nbhds.items() if p.last in a}
    val = {i: frozenset(p for p in paths if p.last in ext) for i, ext in m.val.items()}
    return INModel(frozenset(paths), leq, nbhds, val)


def _unravelling_size(m, source, budget):
    """The number of worlds of the truncated unravelling, counted without
    building a path: order paths of at most ``budget`` steps, each followed by
    neighbourhood paths of at most ``budget`` steps."""
    def nbhd_paths(x, left):
        return 1 + sum(nbhd_paths(y, left - 1) for a in m.nbhds.values()
                       if left and x in a for y in a[x])

    def order_paths(x, left):
        return nbhd_paths(x, budget) + sum(order_paths(v, left - 1) for v in m.worlds
                                           if left and (x, v) in m.leq)

    return order_paths(source, budget)


def _coherent_completion_reference(m, k):
    maximal = {w for w in m.worlds
               if not any((w, v) in m.leq and v != w for v in m.worlds)}
    worlds = frozenset((w, n) for w in m.worlds
                       for n in (range(k + 1) if w in maximal else (0,)))
    leq = frozenset(((w, n), (v, mm)) for (w, n) in worlds for (v, mm) in worlds
                    if (w, v) in m.leq and n <= mm)

    def lift(value_set):
        return frozenset(p for p in worlds if p[0] in value_set)

    def up_closure(subset):
        return frozenset(q for q in worlds if any((p, q) in leq for p in subset))

    nbhds = {}
    for name, a in m.nbhds.items():
        for base in worlds:
            v = base[0]
            if v in a:
                upper = up_closure(frozenset().union(
                    *(lift(a[u]) for u in a if (v, u) in m.leq)))
                nbhds[(name,) + base] = {p: lift(a[v]) if p == base else upper
                                         for p in worlds if (base, p) in leq}
    val = {i: lift(ext) for i, ext in m.val.items()}
    return INModel(worlds, leq, nbhds, val)


def _same_model(a, b):
    return (a.worlds, a.leq, a.nbhds, a.val) == (b.worlds, b.leq, b.nbhds, b.val)


class TestPath:
    def test_accessors(self):
        p = Path(("w", "v", "u"), (None, "a"))
        assert p.worlds[0] == "w" and p.last == "u" and p.length == 2
        assert p.worlds[:p.split + 1] == ("w", "v")
        assert p.worlds[p.split:] == ("v", "u")
        assert p.is_unravelling

    def test_split_is_derived(self):
        p = Path(("w", "v", "v", "u"), (None, None, "a"))
        assert p.split == 2 and Path(("w",), ()).split == 0
        assert str(p) == "Path(worlds=('w', 'v', 'v', 'u'), labels=(None, None, 'a'))"
        with pytest.raises(TypeError):
            Path(("w",), (), split=0)
        # a path whose split were wrong would still print, compare and hash
        # as the path it is; a pickle round trip restores the split
        q = Path(p.worlds, p.labels)
        object.__setattr__(q, "split", 0)
        assert str(q) == str(p) and q == p and hash(q) == hash(p)
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back.split == 2 and str(back) == str(p)

    def test_not_unravelling(self):
        p = Path(("w", "v", "u"), ("a", None))
        assert not p.is_unravelling

    def test_validity(self, figure1_frame):
        def path_valid(m, p):
            return all((w, v) in m.leq if label is None else v in m.nbhds.get(label, {}).get(w, ())
                       for label, w, v in zip(p.labels, p.worlds, p.worlds[1:]))

        assert path_valid(figure1_frame, Path(("w", "v", "u"), (None, "a")))
        assert not path_valid(figure1_frame, Path(("w", "u"), (None,)))
        assert not path_valid(figure1_frame, Path(("w", "v"), ("a",)))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            TruncationBudget(0, 3)


class TestUnravellingOrder:
    def test_documented_path_relations(self, figure1_frame):
        p1 = Path(("w", "v", "u", "s"), (None, "a", "a"))
        p2 = Path(("w", "v", "t", "x"), (None, "a", "a"))
        p3 = Path(("w", "v", "v", "u", "s"), (None, None, "a", "a"))
        assert leq_ur(figure1_frame, p1, p3)
        assert not leq_ur(figure1_frame, p1, p2)
        assert leq_ur(figure1_frame, p1, p1)

    def test_extension_with_pointwise_moves(self, figure1_frame):
        p1 = Path(("w", "v", "u", "s"), (None, "a", "a"))
        p3_moved = Path(("w", "v", "v", "t", "x"), (None, None, "a", "a"))
        assert leq_ur(figure1_frame, p1, p3_moved)

    @pytest.mark.parametrize("budget", [1, 2, 3, 4])
    def test_matches_sub_path_reference(self, budget):
        rng = random.Random(2800 + budget)
        for _ in range(12):
            m = random_coherent_inm(rng, SearchBounds(3, 2, 1))
            for w in sorted(m.worlds):
                u = unravel(m, w, TruncationBudget(1, budget))
                paths = sorted(u.worlds, key=str)[:60]
                for p in paths:
                    for q in paths:
                        assert leq_ur(m, p, q) == _leq_ur_reference(m, p, q), (p, q)

    def test_rejects_non_unravelling_paths(self, figure1_frame):
        mixed = Path(("v", "u", "t"), ("a", None))
        with pytest.raises(ValueError):
            leq_ur(figure1_frame, mixed, mixed)


class TestUnravel:
    def test_trivial(self):
        m = INModel(frozenset({"w"}), frozenset({("w", "w")}), {}, {})
        u = unravel(m, "w", TruncationBudget(1, 1))
        # only the empty path and its reflexive order extension
        assert Path(("w",), ()) in u.worlds
        assert all(p.last == "w" for p in u.worlds)

    def test_requires_coherent(self):
        bad = chain2({"a": {"w": frozenset({"w"}), "v": frozenset()}})
        with pytest.raises(TransformError):
            unravel(bad, "w", TruncationBudget(1, 2))

    def test_structure_items(self, rng):
        # over truncated unravellings: order parts coincide exactly on
        # membership-equivalent paths, the unravelling order preserves the
        # neighbourhood-part length, and equal-length comparable paths are equal
        for _ in range(25):
            m = random_coherent_inm(rng, SearchBounds(3, 1, 1))
            u = unravel(m, min(m.worlds), TruncationBudget(1, 4))
            uf_r = equivalence_classes(u.worlds, nbhd_relation(u))
            uf_leq = equivalence_classes(u.worlds, u.leq)
            paths = sorted(u.worlds, key=str)
            for p in paths:
                for q in paths:
                    if uf_leq.same(p, q):
                        assert p.length - p.split == q.length - q.split
                    if (p, q) in u.leq and p.length == q.length:
                        assert p == q
                    assert uf_r.same(p, q) == (p.worlds[:p.split + 1] == q.worlds[:q.split + 1])

    def test_equivalence_closure_of_order_merges_histories(self):
        # Documented divergence: the closure of the unravelling order can relate
        # distinct equal-length paths through a longer common extension, so the
        # truncated unravelling need not pass the cartesian check.
        m = INModel(frozenset({0, 1}), frozenset({(0, 0), (1, 1), (0, 1)}),
                    {"a": {0: frozenset({0, 1}), 1: frozenset({1})}}, {})
        assert check_inm(m, "coherent").ok
        u = unravel(m, 0, TruncationBudget(1, 2))
        r1 = Path((0, 0), ("a",))
        r2 = Path((0, 1), ("a",))
        top = Path((0, 1, 1), (None, "a"))
        assert leq_ur(m, r1, top) and leq_ur(m, r2, top)
        uf_leq = equivalence_classes(u.worlds, u.leq)
        assert uf_leq.same(r1, r2) and r1 != r2
        assert not check_inm(u, "cartesian").ok

    @pytest.mark.parametrize("budget", [1, 2, 3, 4])
    def test_matches_reference(self, budget):
        # the reference compares all pairs of paths, so it skips the few
        # unravellings of more than 300 paths
        rng = random.Random(2810 + budget)
        for _ in range(12):
            m = random_coherent_inm(rng, SearchBounds(3, 2, 1))
            for w in sorted(m.worlds):
                u = unravel(m, w, TruncationBudget(1, budget))
                assert len(u.worlds) == _unravelling_size(m, w, budget)
                if len(u.worlds) <= 300:
                    assert _same_model(u, _unravel_reference(m, w, budget))

    def test_figure1_world_counts(self, figure1_frame):
        # from w, b + 1 order paths of at most b steps end at w and b(b+1)/2
        # at v; w heads one neighbourhood path, v three at b = 1 and five after
        assert [len(unravel(figure1_frame, "w", TruncationBudget(1, b)).worlds)
                for b in (1, 2, 3)] == [2 + 3, 3 + 3 * 5, 4 + 6 * 5]
        assert all(_unravelling_size(figure1_frame, "w", b) == len(
            unravel(figure1_frame, "w", TruncationBudget(1, b)).worlds) for b in (1, 2, 3, 4))

    @pytest.mark.xfail(strict=True, reason="the longest pure-order path loses the "
                       "strict successors of its last world at every budget")
    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 6])
    def test_truncation_keeps_root_verdicts(self, budget):
        m = INModel(frozenset({0, 1}), frozenset({(0, 0), (1, 1), (0, 1)}), {},
                    {0: frozenset({1})})
        phi = parse("~p0 -> p0 & p0")
        assert eval_inm(m, 0, phi)
        u = unravel(m, 0, TruncationBudget(1, budget))
        assert eval_inm(u, Path((0,), ()), phi)

    def test_truth_at_root_small_budgets(self, rng):
        for _ in range(15):
            m = random_coherent_inm(rng, SearchBounds(2, 1, 1))
            root_world = min(m.worlds)
            u = unravel(m, root_world, TruncationBudget(1, 4))
            root = Path((root_world,), ())
            for _ in range(4):
                phi = random_formula(rng, 2, 1)
                assert eval_inm(u, root, phi) == eval_inm(m, root_world, phi)


class TestCoherentCompletion:
    def test_chain_shape(self):
        m = chain2({"a": {"w": frozenset({"w"}), "v": frozenset({"v"})}})
        c = coherent_completion(m, TruncationBudget(2, 1))
        assert c.worlds == {("w", 0), ("v", 0), ("v", 1), ("v", 2)}

    def test_forward_condition_everywhere(self, rng):
        for _ in range(25):
            m = random_inm(rng, SearchBounds(3, 2, 1))
            c = coherent_completion(m, TruncationBudget(2, 1))
            assert check_inm(c, "basic").ok
            n1 = [w for w in check_inm(c, "coherent").witnesses if w[0] == "N1"]
            assert n1 == []

    def test_truth_agreement(self, rng):
        for _ in range(25):
            m = random_inm(rng, SearchBounds(3, 2, 1))
            c = coherent_completion(m, TruncationBudget(4, 1))
            for _ in range(5):
                phi = random_formula(rng, 2, 1)
                for w in m.worlds:
                    assert eval_inm(c, (w, 0), phi) == eval_inm(m, w, phi), show(phi)


    def test_matches_up_closure_reference(self):
        rng = random.Random(2830)
        for _ in range(60):
            m = random_inm(rng, SearchBounds(3, 2, 1))
            for k in (1, 2, 3):
                assert _same_model(coherent_completion(m, TruncationBudget(k, 1)),
                                   _coherent_completion_reference(m, k))


class TestBullet:
    def test_example_structure(self, ifom_example):
        b = bullet(ifom_example)
        assert ("w1", "d1") in b.worlds and ("w1", "d2") in b.worlds
        assert eval_inm(b, ("w1", "d1"), parse("<>p0"))

    def test_trivial(self):
        from imodal.folm import FOMStructure, IFOMStructure
        s = IFOMStructure(frozenset({"w"}), frozenset({("w", "w")}),
                          {"w": FOMStructure(frozenset({"d"}), frozenset(),
                                             frozenset(), frozenset(), {})})
        b = bullet(s)
        assert b.worlds == {("w", "d")} and b.nbhds == {}

    def test_images_are_coherent_cartesian(self, rng):
        for _ in range(30):
            s = random_ifom(rng, 3, 2, 2, 1)
            b = bullet(s)
            assert check_inm(b, "coherent").ok
            assert check_inm(b, "cartesian").ok

    def test_agreement_with_pair_semantics(self, rng):
        for _ in range(20):
            s = random_ifom(rng, 3, 2, 2, 1)
            b = bullet(s)
            for _ in range(5):
                phi = random_formula(rng, 3, 1)
                for w in s.worlds:
                    for x in s.interp[w].states:
                        assert eval_modal_ifom(s, w, x, phi) == eval_inm(b, (w, x), phi)


class TestCircle:
    def test_one_point(self, one_point_inm):
        fo = circle(one_point_inm)
        level = fo.interp["w"]
        assert level.relN == {("w", "a")} and level.relE == {("a", "w")}

    def test_round_trip_isomorphism(self, rng):
        for _ in range(25):
            s = random_ifom(rng, 3, 2, 2, 1)
            b = bullet(s)
            back = bullet(circle(b))
            assert find_isomorphism(b, back) is not None

    def test_rejects_non_cartesian(self):
        # membership-equivalent worlds with different values under one
        # neighbourhood violate the per-neighbourhood condition
        worlds = frozenset({0, 1})
        leq = frozenset({(0, 0), (1, 1)})
        m = INModel(worlds, leq,
                    {"a": {0: frozenset({1}), 1: frozenset({0, 1})}}, {})
        assert check_inm(m, "coherent").ok
        assert not check_inm(m, "cartesian").ok
        with pytest.raises(TransformError):
            circle(m)

    def test_output_is_valid_structure(self, rng):
        for _ in range(15):
            b = bullet(random_ifom(rng, 3, 2, 2, 1))
            assert validate_ifom(circle(b)) == []


class TestHat:
    def test_example(self):
        m = chain2({"a": {"w": frozenset({"w"}), "v": frozenset({"v"})}})
        h = hat(m)
        assert len(h.worlds) == 3

    def test_no_neighbourhoods(self):
        m = INModel(frozenset({"w"}), frozenset({("w", "w")}), {}, {})
        h = hat(m)
        assert len(h.worlds) == 1
        assert list(h.gamma.values()) == [frozenset()]

    def test_truth_and_fullness(self, rng):
        for _ in range(25):
            m = random_inm(rng, SearchBounds(3, 2, 1))
            h = hat(m)
            assert check_full(h)
            for _ in range(5):
                phi = random_formula(rng, 3, 1)
                for (w, sigma) in h.worlds:
                    assert eval_cnm(h, (w, sigma), phi) == eval_inm(m, w, phi)


class TestFullify:
    def test_clause(self, wm_model):
        out = fullify(wm_model)
        assert out.gamma["w"] == frozenset()
        assert check_full(out)

    def test_fixpoint(self, rng):
        m = fullify(random_cnm(rng, SearchBounds(3, 2, 1)))
        again = fullify(m)
        assert again.gamma == m.gamma

    def test_preserves_single_modality_truth(self, rng):
        for _ in range(30):
            m = random_cnm(rng, SearchBounds(3, 2, 1))
            out = fullify(m)
            assert check_full(out)
            for _ in range(5):
                phi = random_formula(rng, 3, 1, dialect="nabla")
                for w in m.worlds:
                    assert eval_cnm(m, w, phi) == eval_cnm(out, w, phi)


class TestStar:
    def test_example(self):
        m = chain2({"a": {"w": frozenset({"w"}), "v": frozenset({"v"})}})
        out = star(m)
        assert len(out.worlds) == 4
        assert out.relN == {("w", ("@nbhd", "a", "w")), ("v", ("@nbhd", "a", "v"))}
        assert out.relE == {(("@nbhd", "a", "w"), "w"), (("@nbhd", "a", "v"), "v")}
        assert check_ik2_frame(out).ok

    def test_empty(self):
        m = INModel(frozenset({"w"}), frozenset({("w", "w")}), {}, {})
        out = star(m)
        assert out.worlds == {"w"}
        assert out.relN == frozenset() and out.relE == frozenset()

    def test_requires_coherent(self):
        bad = chain2({"a": {"w": frozenset({"w"}), "v": frozenset()}})
        with pytest.raises(TransformError):
            star(bad)

    def test_truth_via_translation(self, rng):
        for _ in range(25):
            m = random_coherent_inm(rng, SearchBounds(3, 2, 1))
            out = star(m)
            assert check_ik2_frame(out).ok
            for _ in range(5):
                phi = random_formula(rng, 2, 1)
                for w in m.worlds:
                    assert eval_inm(m, w, phi) == \
                        eval_ik2(out, w, translate_bimodal(phi))

