"""Bounded enumeration of finite models, countermodel search for consecutions,
seeded random model generators, and an exhaustive validity sweep.

Enumeration is deterministic and restartable.  The stream runs by world
count, then order, then frame, then valuation.  Worlds are labelled
``0..n-1``, and partial orders are those whose strict pairs point up the
integer order (every finite poset has such a labelling, so the searched space
is exhaustive up to isomorphism).  Valuations range over the upsets of the
order (partial or pre-).  The filters of the bounds read only the frame, so
they run once per frame.  Formulas are evaluated through the clauses of the
kind table ``models.KINDS``, one truth set per formula and model.
``find_countermodel`` scans the stream of ``enumerate_models`` in one process
and returns the first hit; its ``index`` is the model's position in that
stream.

The bit-sliced sweep (``sweep_inm_validity``) checks a batch of formulas for
validity over every intuitionistic neighbourhood model within bounds, at any
neighbourhood bound.  On each order it evaluates all of the stream's frames
at once: a truth value is one Python int per world, with one bit per frame.
For each formula it returns the stream's first hit, the same as
``find_countermodel``, re-checks it with ``eval_inm``, and is cross-checked
against that reference in the test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import models
from .folm import FOMStructure, IFOMStructure
from .models import (CNModel, IK2Model, INModel, NbhdModel, _truth_set,
                     check_ik2_frame, check_full, check_inm, eval_inm)
from .orders import is_transitive, is_upward_closed, reflexive_transitive_closure
from .syntax import (And, Atom, Box, Consecution, Dia, FALSUM, Falsum, Formula,
                     Implies, Nabla, Or, in_dialect)

KINDS = tuple(models.KINDS)


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int
    max_nbhds: int
    max_atoms: int
    require_coherent: bool = False
    require_cartesian: bool = False
    require_full: bool = False

    def __post_init__(self):
        if self.max_worlds < 1 or self.max_nbhds < 0 or self.max_atoms < 0:
            raise ValueError("bounds must be positive (neighbourhoods/atoms may be zero)")


@dataclass
class CounterexampleFound:
    model: object
    world: object
    index: int  # position of the model in the stream of enumerate_models


@dataclass
class NoneWithinBounds:
    examined: int
    elapsed: float
    timed_out: bool = False


# ---------------------------------------------------------------------------
# Orders, upsets and frames
# ---------------------------------------------------------------------------

def _orders(kind: str, n: int) -> Iterator[frozenset]:
    """The orders on 0..n-1 that the frames of ``kind`` sit on, as reflexive
    relations in the bitmask order of their other pairs: the identity for
    classical, every preorder for cnm, and otherwise the partial orders whose
    strict pairs point up the integer order."""
    if kind == "classical":
        pairs = []
    elif kind == "cnm":
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    identity = frozenset((i, i) for i in range(n))
    for extra in _subsets(pairs):
        if is_transitive(leq := identity | extra):
            yield leq


def upsets_of_poset(n: int, leq) -> list:
    """The subsets of 0..n-1 closed upward along ``leq`` (a partial order or a
    preorder), smallest first."""
    return sorted((s for s in _subsets(range(n)) if is_upward_closed(range(n), leq, s)),
                  key=lambda s: (len(s), tuple(sorted(s))))


def _subsets(items: Sequence) -> list:
    """Every subset of ``items``, in the bitmask order of their positions."""
    return [frozenset(x for k, x in enumerate(items) if m >> k & 1)
            for m in range(1 << len(items))]


# Each frame generator takes the bounds, the world count, the order and the
# sets that atoms range over, and yields the frames on that order in stream
# order, each as a function from a valuation to a model.

def _inm_candidates(n: int, upsets) -> list:
    """Every neighbourhood: an upset domain with a value at each of its worlds."""
    return [(dom, values) for dom in map(sorted, upsets)
            for values in itertools.product(_subsets(range(n)), repeat=len(dom))]


def _inm_frames(bounds: SearchBounds, n: int, leq, upsets) -> Iterator:
    worlds = frozenset(range(n))
    cands = _inm_candidates(n, upsets)
    for k in range(bounds.max_nbhds + 1):
        for combo in itertools.combinations(cands, k):
            yield functools.partial(INModel, worlds, leq,
                                    {f"a{i}": dict(zip(*c)) for i, c in enumerate(combo)})


def _classical_frames(bounds: SearchBounds, n: int, leq, subsets) -> Iterator:
    worlds = frozenset(range(n))
    for k in range(bounds.max_nbhds + 1):
        for pool in itertools.combinations(subsets, k):
            choices = [frozenset(sel) for r in range(k + 1)
                       for sel in itertools.combinations(pool, r)]
            for nf in itertools.product(choices, repeat=n):
                yield functools.partial(NbhdModel, worlds, dict(enumerate(nf)))


def _cnm_frames(bounds: SearchBounds, n: int, rel, upsets) -> Iterator:
    worlds = frozenset(range(n))
    per_world = [frozenset(sel) for r in range(bounds.max_nbhds + 1)
                 for sel in itertools.combinations(_subsets(range(n)), r)]
    for gamma in itertools.product(per_world, repeat=n):
        yield functools.partial(CNModel, worlds, rel, dict(enumerate(gamma)))


def _ik2_frames(bounds: SearchBounds, n: int, leq, upsets) -> Iterator:
    worlds = frozenset(range(n))
    # the frame conditions constrain N and E separately, so the pairs
    # that pass are the products of the relations that pass alone
    rels = [r for r in _subsets([(i, j) for i in range(n) for j in range(n)])
            if check_ik2_frame(IK2Model(worlds, leq, r, frozenset(), {})).ok]
    for relN, relE in itertools.product(rels, repeat=2):
        yield functools.partial(IK2Model, worlds, leq, relN, relE)


_FRAMES = {"inm": _inm_frames, "classical": _classical_frames,
           "cnm": _cnm_frames, "ik2": _ik2_frames}


def _filters(kind: str, bounds: SearchBounds) -> list:
    """The checks that ``bounds`` asks of the models of ``kind``.  They read
    only the frame, so each runs once per frame, on its model with an empty
    valuation."""
    checks = {"inm": [(bounds.require_coherent, lambda m: check_inm(m, "coherent").ok),
                      (bounds.require_cartesian, lambda m: check_inm(m, "cartesian").ok)],
              "cnm": [(bounds.require_full, check_full)]}
    return [check for wanted, check in checks.get(kind, []) if wanted]


def _supersets(base: frozenset, pool: Sequence) -> list:
    extra = [x for x in pool if x not in base]
    return [base | frozenset(sel) for r in range(len(extra) + 1)
            for sel in itertools.combinations(extra, r)]


def _union_below(interp: dict, leq, w: int, atoms: int) -> FOMStructure:
    """The union of the structures at the worlds below ``w`` among 0..w-1."""
    lows = [interp[v] for v in range(w) if (v, w) in leq]
    return FOMStructure(
        frozenset().union(*(m.states for m in lows)),
        frozenset().union(*(m.nbhds for m in lows)),
        frozenset().union(*(m.relN for m in lows)),
        frozenset().union(*(m.relE for m in lows)),
        {i: frozenset().union(*(m.preds.get(i, frozenset()) for m in lows))
         for i in range(atoms)})


def _ifom_structures(bounds: SearchBounds, n: int, leq) -> Iterator:
    """The growing structures on the order ``leq``: each world's structure
    contains the union of those below it."""
    state_pool = tuple(range(bounds.max_worlds))
    nbhd_pool = tuple(range(bounds.max_nbhds))
    atoms = range(bounds.max_atoms)

    def go(w: int, interp: dict):
        if w == n:
            yield IFOMStructure(frozenset(range(n)), leq, dict(interp))
            return
        base = _union_below(interp, leq, w, bounds.max_atoms)
        for states in _supersets(base.states, state_pool):
            if not states:
                continue
            for nbhds in _supersets(base.nbhds, nbhd_pool):
                rn_pool = [(x, a) for x in sorted(states) for a in sorted(nbhds)]
                re_pool = [(a, x) for a in sorted(nbhds) for x in sorted(states)]
                for relN in _supersets(base.relN, rn_pool):
                    for relE in _supersets(base.relE, re_pool):
                        for pred_sets in itertools.product(
                                *(_supersets(base.preds[i], sorted(states)) for i in atoms)):
                            interp[w] = FOMStructure(
                                states, nbhds, relN, relE,
                                {i: pred_sets[i] for i in atoms})
                            yield from go(w + 1, interp)
                            del interp[w]

    yield from go(0, {})


def enumerate_models(kind: str, bounds: SearchBounds) -> Iterator:
    """Deterministic, restartable stream of all models of ``kind`` within the
    bounds: by world count, then order, then frame, then valuation."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    filters = _filters(kind, bounds)
    for n in range(1, bounds.max_worlds + 1):
        for leq in _orders(kind, n):
            if kind == "ifom":
                yield from _ifom_structures(bounds, n, leq)
                continue
            # classical valuations are all subsets, in bitmask order
            sets = _subsets(range(n)) if kind == "classical" else upsets_of_poset(n, leq)
            for frame in _FRAMES[kind](bounds, n, leq, sets):
                if all(check(frame({})) for check in filters):
                    for vals in itertools.product(sets, repeat=bounds.max_atoms):
                        yield frame(dict(enumerate(vals)))


# ---------------------------------------------------------------------------
# Countermodel search
# ---------------------------------------------------------------------------

def _violating_world(kind: str, model, consec: Consecution):
    """Least point (by label) satisfying the context but not the conclusion;
    the points of an ifom structure are its (world, state) pairs."""
    up, val, modal = models.KINDS[kind].clauses(model)
    memo: dict = {}
    good = frozenset(up)
    for g in sorted(consec.context, key=str):
        good = good & _truth_set(up, val, modal, g, memo)
        if not good:
            return None
    bad = good - _truth_set(up, val, modal, consec.conclusion, memo)
    return min(bad, key=str) if bad else None


def _check_dialect(kind: str, consec: Consecution) -> None:
    dialects = models.KINDS[kind].dialects
    for f in set(consec.context) | {consec.conclusion}:
        if not any(in_dialect(f, d) for d in dialects):
            raise ValueError(f"formula dialect does not match model kind {kind!r}")


def find_countermodel(consec: Consecution, kind: str, bounds: SearchBounds,
                      timeout_ms: Optional[int] = None, workers: int = 1):
    """The first model of ``enumerate_models`` with a point where the whole
    context holds and the conclusion fails, and the least such point by label;
    ``NoneWithinBounds`` otherwise.  ``timeout_ms`` must not be negative.

    The search runs in this process.  ``workers`` accepts only 1; it is kept
    for callers that still pass it and goes once the benchmark drops it."""
    if workers != 1:
        raise ValueError(f"the search runs in one process; workers={workers!r}")
    if timeout_ms is not None and timeout_ms < 0:
        raise ValueError(f"the timeout must not be negative, got {timeout_ms} ms")
    _check_dialect(kind, consec)
    start = time.monotonic()
    deadline = None if timeout_ms is None else start + timeout_ms / 1000.0
    examined = 0
    for m in enumerate_models(kind, bounds):
        examined += 1
        if deadline is not None and examined % 256 == 0 and time.monotonic() > deadline:
            return NoneWithinBounds(examined, time.monotonic() - start, True)
        point = _violating_world(kind, m, consec)
        if point is not None:
            return CounterexampleFound(m, point, examined - 1)
    return NoneWithinBounds(examined, time.monotonic() - start)


# ---------------------------------------------------------------------------
# Random model generators (seeded)
# ---------------------------------------------------------------------------

def random_poset(rng, n: int, edge_prob: float = 0.4) -> frozenset:
    strict = {(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < edge_prob}
    return reflexive_transitive_closure(range(n), strict)


def _random_upset(rng, worlds, leq) -> frozenset:
    seed = {w for w in worlds if rng.random() < 0.4}
    return frozenset(v for v in worlds if any((w, v) in leq for w in seed))


def random_inm(rng, bounds: SearchBounds) -> INModel:
    n = rng.randint(1, bounds.max_worlds)
    worlds = frozenset(range(n))
    leq = random_poset(rng, n)
    nbhds = {}
    for i in range(rng.randint(0, bounds.max_nbhds)):
        dom = _random_upset(rng, worlds, leq)
        nbhds[f"a{i}"] = {w: frozenset(v for v in worlds if rng.random() < 0.5)
                          for w in dom}
    val = {i: _random_upset(rng, worlds, leq) for i in range(bounds.max_atoms)}
    return INModel(worlds, leq, nbhds, val)


def random_coherent_inm(rng, bounds: SearchBounds, attempts: int = 40) -> INModel:
    """Rejection-sample coherent models, falling back to a constructive family
    (increasing upset-valued neighbourhoods are always coherent)."""
    for _ in range(attempts):
        m = random_inm(rng, bounds)
        if check_inm(m, "coherent").ok:
            return m
    n = rng.randint(1, bounds.max_worlds)
    worlds = frozenset(range(n))
    leq = random_poset(rng, n)
    nbhds = {}
    for i in range(rng.randint(0, bounds.max_nbhds)):
        dom = _random_upset(rng, worlds, leq)
        base = {w: _random_upset(rng, worlds, leq) for w in dom}
        # close values upward along the order so both coherence conditions hold
        values = {w: frozenset().union(base[w],
                                       *(base[v] for v in dom if (v, w) in leq))
                  for w in dom}
        nbhds[f"a{i}"] = values
    val = {i: _random_upset(rng, worlds, leq) for i in range(bounds.max_atoms)}
    m = INModel(worlds, leq, nbhds, val)
    if not check_inm(m, "coherent").ok:
        raise RuntimeError("the constructive fallback built an incoherent model")
    return m


def random_cnm(rng, bounds: SearchBounds) -> CNModel:
    n = rng.randint(1, bounds.max_worlds)
    worlds = frozenset(range(n))
    extra = {(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < 0.3}
    rel = reflexive_transitive_closure(range(n), extra)
    gamma = {w: frozenset(frozenset(v for v in worlds if rng.random() < 0.5)
                          for _ in range(rng.randint(0, bounds.max_nbhds)))
             for w in worlds}
    val = {i: _random_upset(rng, worlds, rel) for i in range(bounds.max_atoms)}
    return CNModel(worlds, rel, gamma, val)


def random_ifom(rng, max_worlds: int = 4, max_states: int = 3,
                max_nbhds: int = 2, max_atoms: int = 2) -> IFOMStructure:
    n = rng.randint(1, max_worlds)
    leq = random_poset(rng, n)
    order = list(range(n))
    interp = {}
    for w in order:
        base = _union_below(interp, leq, w, max_atoms)
        states, nbhds = set(base.states), set(base.nbhds)
        relN, relE = set(base.relN), set(base.relE)
        preds = {i: set(p) for i, p in base.preds.items()}
        for d in range(max_states):
            if f"d{d}" not in states and rng.random() < 0.5:
                states.add(f"d{d}")
        if not states:
            states.add("d0")
        for a in range(max_nbhds):
            if f"n{a}" not in nbhds and rng.random() < 0.4:
                nbhds.add(f"n{a}")
        # sorted, so that the draws do not depend on string hashing
        for x in sorted(states):
            for a in sorted(nbhds):
                if rng.random() < 0.4:
                    relN.add((x, a))
                if rng.random() < 0.4:
                    relE.add((a, x))
        for i in range(max_atoms):
            for x in sorted(states):
                if rng.random() < 0.3:
                    preds[i].add(x)
        interp[w] = FOMStructure(frozenset(states), frozenset(nbhds),
                                 frozenset(relN), frozenset(relE),
                                 {i: frozenset(preds[i]) for i in range(max_atoms)})
    return IFOMStructure(frozenset(order), leq, interp)


def random_formula(rng, max_depth: int, atom_count: int = 2,
                   dialect: str = "modal", max_nodes: int = 24) -> Formula:
    """Random formula whose modal depth (modalities and implications) stays
    within ``max_depth``; a node budget keeps trees finite."""
    modal_ops = {"modal": [Box, Dia], "nabla": [Nabla]}.get(dialect, [Box, Dia])
    remaining = [max_nodes]

    def go(budget: int) -> Formula:
        remaining[0] -= 1
        choices = ["atom", "atom", "falsum", "and", "or"]
        if budget > 0:
            choices += ["implies", "modal", "modal"]
        pick = rng.choice(choices) if remaining[0] > 0 else rng.choice(["atom", "falsum"])
        if pick == "atom":
            return Atom(rng.randrange(atom_count)) if atom_count else FALSUM
        if pick == "falsum":
            return FALSUM
        if pick == "and":
            return And(go(budget), go(budget))
        if pick == "or":
            return Or(go(budget), go(budget))
        if pick == "implies":
            return Implies(go(budget - 1), go(budget - 1))
        return rng.choice(modal_ops)(go(budget - 1))

    return go(max_depth)


# ---------------------------------------------------------------------------
# Bit-sliced exhaustive validity sweep (intuitionistic neighbourhood models)
# ---------------------------------------------------------------------------

def sweep_inm_validity(formulas: Sequence[Formula], bounds: SearchBounds):
    """For each formula, ``find_countermodel``'s hit for it over the
    intuitionistic neighbourhood models within the bounds: ``None`` when the
    formula holds at every world of every model, else the first model of the
    stream with a failing world and the least such world, re-checked with
    ``eval_inm``.

    The frames on one order form a batch, in stream order: every
    ``k``-combination of the candidate neighbourhoods, for ``k`` from 0 to
    ``max_nbhds``, one bit per frame.  A truth value is a list of one int per
    world whose bit ``b`` says whether the formula holds there on frame ``b``.
    The filters of the bounds run once per frame and mask the batch.  The hit
    on an order is its least failing frame, with the first valuation on
    which that frame fails.
    """
    results: list = [None] * len(formulas)
    pending = set(range(len(formulas)))
    filters = _filters("inm", bounds)
    for n in range(1, bounds.max_worlds + 1):
        for leq in _orders("inm", n):
            if not pending:
                return results
            _sweep_order(formulas, bounds, filters, n, leq, results, pending)
    return results


def _slot_vector(pred: int, count: int, max_k: int, slot: int) -> int:
    """Spread a bit vector over ``count`` candidates to the batch of their
    combinations of 0 to ``max_k`` candidates, by size and then in
    ``itertools.combinations`` order: bit ``b`` of the result is the bit of
    the ``slot``-th candidate of the ``b``-th combination, and 0 where that
    combination has no ``slot``-th candidate."""
    def spread(bits: str, k: int, slot: int) -> str:
        if k == 1:
            return bits
        # the combinations that start with candidate i are i followed by
        # each (k-1)-combination of the candidates after it
        heads = range(len(bits) - k + 1)
        if slot == 0:
            return "".join(bits[i] * math.comb(len(bits) - i - 1, k - 1) for i in heads)
        return "".join(spread(bits[i + 1:], k - 1, slot - 1) for i in heads)

    bits = format(pred, f"0{count}b")[::-1]
    batch = "".join(spread(bits, k, slot) if k > slot else "0" * math.comb(count, k)
                    for k in range(max_k + 1))
    return int(batch[::-1], 2)


def _meet(vectors: list) -> int:
    return functools.reduce(operator.and_, vectors)


def _join(vectors: list) -> int:
    return functools.reduce(operator.or_, vectors, 0)


def _sweep_order(formulas, bounds, filters, n, leq, results, pending):
    worlds = range(n)
    up = [[v for v in worlds if (w, v) in leq] for w in worlds]
    upsets = upsets_of_poset(n, leq)
    cands = _inm_candidates(n, upsets)
    full = (1 << sum(math.comb(len(cands), k) for k in range(bounds.max_nbhds + 1))) - 1
    frames = functools.partial(_inm_frames, bounds, n, leq, upsets)
    live = full if not filters else int("".join(
        "1" if all(check(frame({})) for check in filters) else "0"
        for frame in frames())[::-1], 2)
    if not live:
        return

    # per-candidate predicates: v in the domain, u in the value at v
    dom = [0] * n
    val = [[0] * n for _ in worlds]
    for c, (dom_t, values) in enumerate(cands):
        for v, value in zip(dom_t, values):
            dom[v] |= 1 << c
            for u in value:
                val[v][u] |= 1 << c

    def spread(pred: int, slot: int) -> int:
        return _slot_vector(pred, len(cands), bounds.max_nbhds, slot)

    slots = [([spread(d, s) for d in dom], [[spread(x, s) for x in row] for row in val])
             for s in range(bounds.max_nbhds)]

    def ev(phi, atoms, memo):
        r = memo.get(phi)
        if r is not None:
            return r
        if isinstance(phi, Atom):
            r = atoms[phi.index] if phi.index < len(atoms) else [0] * n
        elif isinstance(phi, Falsum):
            r = [0] * n
        elif isinstance(phi, (And, Or, Implies)):
            x = ev(phi.left, atoms, memo)
            y = ev(phi.right, atoms, memo)
            if isinstance(phi, And):
                r = [a & b for a, b in zip(x, y)]
            elif isinstance(phi, Or):
                r = [a | b for a, b in zip(x, y)]
            else:
                imp = [(full ^ a) | b for a, b in zip(x, y)]
                r = [_meet([imp[v] for v in up[w]]) for w in worlds]
        elif isinstance(phi, Box):
            # one neighbourhood whose values stay inside t at all successors
            t = ev(phi.sub, atoms, memo)
            out = [full ^ a for a in t]
            r = [0] * n
            for dom_s, val_s in slots:
                miss = [_join([val_s[v][u] & out[u] for u in worlds]) for v in worlds]
                for w in worlds:
                    r[w] |= dom_s[w] & ~_join([miss[v] for v in up[w]])
        elif isinstance(phi, Dia):
            # fails at and below every world where some value misses t
            t = ev(phi.sub, atoms, memo)
            bad = [0] * n
            for dom_s, val_s in slots:
                for v in worlds:
                    bad[v] |= dom_s[v] & ~_join([val_s[v][u] & t[u] for u in worlds])
            r = [full & ~_join([bad[v] for v in up[w]]) for w in worlds]
        else:
            raise TypeError(f"not a modal-dialect formula: {phi!r}")
        memo[phi] = r
        return r

    hits: dict = {}  # formula -> (least failing frame, first valuation, world)
    for vals in itertools.product(upsets, repeat=bounds.max_atoms):
        atoms = [[full if w in ext else 0 for w in worlds] for ext in vals]
        memo: dict = {}
        for fi in sorted(pending):
            t = ev(formulas[fi], atoms, memo)
            failing = live & ~_meet(t)
            if not failing:
                continue
            b = (failing & -failing).bit_length() - 1
            if fi not in hits or b < hits[fi][0]:
                world = min((w for w in worlds if not t[w] >> b & 1), key=str)
                hits[fi] = (b, vals, world)
    for fi, (b, vals, world) in hits.items():
        frame = next(itertools.islice(frames(), b, None))
        model = frame(dict(enumerate(vals)))
        if eval_inm(model, world, formulas[fi]):
            raise RuntimeError(f"sweep witness for {formulas[fi]} does not re-check")
        results[fi] = (model, world)
        pending.discard(fi)
