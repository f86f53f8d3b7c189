"""Bounded enumeration of finite models, countermodel search for consecutions,
seeded random model generators, and an exhaustive validity sweep.

Enumeration is deterministic and restartable: worlds are labelled ``0..n-1``,
partial orders are generated as transitive strict relations compatible with
the integer order (every finite poset has such a labelling, so the searched
space is exhaustive up to isomorphism), upsets are the upward-closed subsets
of the order (partial or pre-), and neighbourhood value maps are enumerated
pointwise.  Formulas are evaluated through the kind table ``models.KINDS``.
``find_countermodel`` returns the first hit in enumeration order; with
several workers the space is partitioned by cell and the globally least hit
is reported, so outcomes do not depend on the worker count.

The bit-sliced sweep (``sweep_inm_validity``) checks a batch of formulas for
validity over every intuitionistic neighbourhood model within bounds.  For
each poset and valuation it evaluates all models with up to two
neighbourhoods at once: a truth value is one Python int per world, with one
bit per model.  It is an optimized equivalent of running
``find_countermodel`` per formula, re-checks every witness with
``eval_inm``, and is cross-checked against that reference in the test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import models
from .folm import FOMStructure, IFOMStructure
from .models import (CNModel, IK2Model, INModel, NbhdModel, check_ik2_frame,
                     check_full, check_inm, eval_inm)
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
    index: tuple  # (cell index, offset within cell); worker-count independent


@dataclass
class NoneWithinBounds:
    examined: int
    elapsed: float
    timed_out: bool = False


# ---------------------------------------------------------------------------
# Frames: posets and upsets
# ---------------------------------------------------------------------------

def strict_posets(n: int) -> list:
    """Transitive strict relations on 0..n-1 with edges pointing up the
    integer order, in bitmask order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for mask in range(1 << len(pairs)):
        strict = frozenset(pairs[k] for k in range(len(pairs)) if mask >> k & 1)
        if is_transitive(strict):
            out.append(strict)
    return out


def reflexive(n: int, strict) -> frozenset:
    return frozenset((i, i) for i in range(n)) | strict


def upsets_of_poset(n: int, leq) -> list:
    """The subsets of 0..n-1 closed upward along ``leq`` (a partial order or a
    preorder), smallest first."""
    return sorted((s for s in _subsets(n) if is_upward_closed(range(n), leq, s)),
                  key=lambda s: (len(s), tuple(sorted(s))))


def _subsets(n: int) -> list:
    return [frozenset(j for j in range(n) if m >> j & 1) for m in range(1 << n)]


# ---------------------------------------------------------------------------
# Enumeration cells (the unit of worker partitioning)
# ---------------------------------------------------------------------------

def _cells(kind: str, bounds: SearchBounds) -> list:
    if kind == "classical":
        return [(n, None) for n in range(1, bounds.max_worlds + 1)]
    if kind == "cnm":
        out = []
        for n in range(1, bounds.max_worlds + 1):
            offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
            for mask in range(1 << len(offdiag)):
                extra = frozenset(offdiag[k] for k in range(len(offdiag)) if mask >> k & 1)
                if is_transitive(reflexive(n, extra)):
                    out.append((n, extra))
        return out
    out = []
    for n in range(1, bounds.max_worlds + 1):
        out.extend((n, strict) for strict in strict_posets(n))
    return out


def _inm_candidates(n: int, leq, upsets) -> list:
    subsets = _subsets(n)
    cands = []
    for dom in upsets:
        dom_t = tuple(sorted(dom))
        for values in itertools.product(subsets, repeat=len(dom_t)):
            cands.append((dom_t, values))
    return cands


def _models_in_cell(kind: str, bounds: SearchBounds, cell) -> Iterator:
    n, extra = cell
    if kind == "inm":
        leq = reflexive(n, extra)
        upsets = upsets_of_poset(n, leq)
        cands = _inm_candidates(n, leq, upsets)
        worlds = frozenset(range(n))
        for k in range(bounds.max_nbhds + 1):
            for combo in itertools.combinations(range(len(cands)), k):
                nbhds = {f"a{i}": dict(zip(cands[c][0], cands[c][1]))
                         for i, c in enumerate(combo)}
                for vals in itertools.product(upsets, repeat=bounds.max_atoms):
                    m = INModel(worlds, leq, nbhds,
                                {i: vals[i] for i in range(bounds.max_atoms)})
                    if bounds.require_coherent and not check_inm(m, "coherent").ok:
                        continue
                    if bounds.require_cartesian and not check_inm(m, "cartesian").ok:
                        continue
                    yield m
    elif kind == "classical":
        subsets = _subsets(n)
        worlds = frozenset(range(n))
        for k in range(bounds.max_nbhds + 1):
            for pool in itertools.combinations(range(len(subsets)), k):
                pool_sets = [subsets[i] for i in pool]
                pool_choices = [frozenset(sel) for r in range(len(pool_sets) + 1)
                                for sel in itertools.combinations(pool_sets, r)]
                for nf_choice in itertools.product(pool_choices, repeat=n):
                    for vals in itertools.product(subsets, repeat=bounds.max_atoms):
                        yield NbhdModel(worlds, dict(enumerate(nf_choice)),
                                        {i: vals[i] for i in range(bounds.max_atoms)})
    elif kind == "cnm":
        rel = reflexive(n, extra)
        worlds = frozenset(range(n))
        upsets = upsets_of_poset(n, rel)
        subsets = _subsets(n)
        per_world = [frozenset(sel) for r in range(bounds.max_nbhds + 1)
                     for sel in itertools.combinations(subsets, r)]
        for gamma_choice in itertools.product(per_world, repeat=n):
            for vals in itertools.product(upsets, repeat=bounds.max_atoms):
                m = CNModel(worlds, rel, dict(enumerate(gamma_choice)),
                            {i: vals[i] for i in range(bounds.max_atoms)})
                if bounds.require_full and not check_full(m):
                    continue
                yield m
    elif kind == "ik2":
        leq = reflexive(n, extra)
        worlds = frozenset(range(n))
        upsets = upsets_of_poset(n, leq)
        all_pairs = [(i, j) for i in range(n) for j in range(n)]
        rels = [frozenset(all_pairs[k] for k in range(len(all_pairs)) if mask >> k & 1)
                for mask in range(1 << len(all_pairs))]
        # the frame conditions constrain N and E separately, so the pairs
        # that pass are the products of the relations that pass alone
        rels = [r for r in rels
                if check_ik2_frame(IK2Model(worlds, leq, r, frozenset(), {})).ok]
        for relN, relE in itertools.product(rels, repeat=2):
            for vals in itertools.product(upsets, repeat=bounds.max_atoms):
                yield IK2Model(worlds, leq, relN, relE,
                               {i: vals[i] for i in range(bounds.max_atoms)})
    elif kind == "ifom":
        yield from _ifom_in_cell(bounds, n, extra)
    else:
        raise ValueError(f"unknown model kind {kind!r}")


def _supersets(base: frozenset, pool: Sequence) -> list:
    extra = [x for x in pool if x not in base]
    return [base | frozenset(sel) for r in range(len(extra) + 1)
            for sel in itertools.combinations(extra, r)]


def _ifom_in_cell(bounds: SearchBounds, n: int, strict) -> Iterator:
    leq = reflexive(n, strict)
    state_pool = tuple(range(bounds.max_worlds))
    nbhd_pool = tuple(range(bounds.max_nbhds))
    atoms = range(bounds.max_atoms)

    def below(w):
        return [v for v in range(w) if (v, w) in leq]

    def go(w: int, interp: dict):
        if w == n:
            yield IFOMStructure(frozenset(range(n)), leq, dict(interp))
            return
        lows = [interp[v] for v in below(w)]
        base_s = frozenset().union(*(m.states for m in lows)) if lows else frozenset()
        base_n = frozenset().union(*(m.nbhds for m in lows)) if lows else frozenset()
        base_rn = frozenset().union(*(m.relN for m in lows)) if lows else frozenset()
        base_re = frozenset().union(*(m.relE for m in lows)) if lows else frozenset()
        base_p = {i: (frozenset().union(*(m.preds.get(i, frozenset()) for m in lows))
                      if lows else frozenset()) for i in atoms}
        for states in _supersets(base_s, state_pool):
            if not states:
                continue
            for nbhds in _supersets(base_n, nbhd_pool):
                rn_pool = [(x, a) for x in sorted(states) for a in sorted(nbhds)]
                re_pool = [(a, x) for a in sorted(nbhds) for x in sorted(states)]
                for relN in _supersets(base_rn, rn_pool):
                    for relE in _supersets(base_re, re_pool):
                        for pred_sets in itertools.product(
                                *(_supersets(base_p[i], sorted(states)) for i in atoms)):
                            interp[w] = FOMStructure(
                                states, nbhds, relN, relE,
                                {i: pred_sets[i] for i in atoms})
                            yield from go(w + 1, interp)
                            del interp[w]

    yield from go(0, {})


def enumerate_models(kind: str, bounds: SearchBounds) -> Iterator:
    """Deterministic, restartable stream of all models of ``kind`` within the
    bounds."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    for cell in _cells(kind, bounds):
        yield from _models_in_cell(kind, bounds, cell)


# ---------------------------------------------------------------------------
# Countermodel search
# ---------------------------------------------------------------------------

def _violating_world(kind: str, model, consec: Consecution):
    """Least point (by label) satisfying the context but not the conclusion."""
    spec = models.KINDS[kind]
    if spec.truth_set is None:  # ifom: the points are (world, state) pairs
        pairs = sorted(((w, x) for w in model.worlds for x in model.interp[w].states),
                       key=str)
        for point in pairs:
            if all(spec.holds(model, point, g) for g in consec.context) \
                    and not spec.holds(model, point, consec.conclusion):
                return point
        return None
    memo: dict = {}
    good = model.worlds
    for g in sorted(consec.context, key=str):
        good = good & spec.truth_set(model, g, memo)
        if not good:
            return None
    bad = good - spec.truth_set(model, consec.conclusion, memo)
    return min(bad, key=str) if bad else None


def _check_dialect(kind: str, consec: Consecution) -> None:
    dialects = models.KINDS[kind].dialects
    for f in set(consec.context) | {consec.conclusion}:
        if not any(in_dialect(f, d) for d in dialects):
            raise ValueError(f"formula dialect does not match model kind {kind!r}")


def _scan_cells(args):
    kind, bounds, cells, consec, deadline = args
    examined = 0
    for cell_index, cell in cells:
        base = 0
        for m in _models_in_cell(kind, bounds, cell):
            examined += 1
            base += 1
            if deadline is not None and examined % 256 == 0 and time.monotonic() > deadline:
                return examined, None, True
            world = _violating_world(kind, m, consec)
            if world is not None:
                return examined, (cell_index, base - 1, m, world), False
    return examined, None, False


def find_countermodel(consec: Consecution, kind: str, bounds: SearchBounds,
                      timeout_ms: Optional[int] = None, workers: int = 1):
    """First model and world (in enumeration order) where the whole context
    holds and the conclusion fails; ``NoneWithinBounds`` otherwise."""
    _check_dialect(kind, consec)
    start = time.monotonic()
    deadline = None if timeout_ms is None else start + timeout_ms / 1000.0
    cells = list(enumerate(_cells(kind, bounds)))
    examined = 0
    timed_out = False
    if workers <= 1:
        examined, hit, timed_out = _scan_cells((kind, bounds, cells, consec, deadline))
        if hit is not None:
            cell_index, offset, model, world = hit
            return CounterexampleFound(model, world, (cell_index, offset))
        return NoneWithinBounds(examined, time.monotonic() - start, timed_out)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for wave_start in range(0, len(cells), workers):
            wave = cells[wave_start:wave_start + workers]
            jobs = [pool.submit(_scan_cells, (kind, bounds, [c], consec, deadline))
                    for c in wave]
            hits = []
            for job in jobs:
                got, hit, t_out = job.result()
                examined += got
                timed_out = timed_out or t_out
                if hit is not None:
                    hits.append(hit)
            if hits:
                cell_index, offset, model, world = min(hits, key=lambda h: (h[0], h[1]))
                return CounterexampleFound(model, world, (cell_index, offset))
            if timed_out:
                break
    return NoneWithinBounds(examined, time.monotonic() - start, timed_out)


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
    val = {}
    for i in range(bounds.max_atoms):
        seed = {w for w in worlds if rng.random() < 0.4}
        val[i] = frozenset(v for v in worlds if any((w, v) in rel for w in seed))
    return CNModel(worlds, rel, gamma, val)


def random_ifom(rng, max_worlds: int = 4, max_states: int = 3,
                max_nbhds: int = 2, max_atoms: int = 2) -> IFOMStructure:
    n = rng.randint(1, max_worlds)
    leq = random_poset(rng, n)
    order = list(range(n))
    interp = {}
    for w in order:
        lows = [interp[v] for v in range(w) if (v, w) in leq]
        states = set().union(*(m.states for m in lows)) if lows else set()
        nbhds = set().union(*(m.nbhds for m in lows)) if lows else set()
        relN = set().union(*(m.relN for m in lows)) if lows else set()
        relE = set().union(*(m.relE for m in lows)) if lows else set()
        preds = {i: set().union(*(m.preds.get(i, frozenset()) for m in lows))
                 if lows else set() for i in range(max_atoms)}
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
    """For each formula, scan every intuitionistic neighbourhood model within
    the bounds (neighbourhood count at most two) and report ``None`` when the
    formula holds at every world of every model, else a witness
    ``(model, world)`` that ``eval_inm`` has re-checked.

    Within one poset and valuation, the models form a batch: every multiset
    of ``max_nbhds`` candidate neighbourhoods, in
    ``combinations_with_replacement`` order.  Candidate 0 has an empty domain
    and stands for "no neighbourhood", so one batch covers every count from 0
    to ``max_nbhds``.  A truth value is a list of one int per world whose bit
    ``b`` says whether the formula holds there in model ``b`` of the batch.
    """
    if bounds.max_nbhds > 2:
        raise ValueError("the bit-sliced sweep supports at most two neighbourhoods")
    results: list = [None] * len(formulas)
    pending = set(range(len(formulas)))
    for n in range(1, bounds.max_worlds + 1):
        for strict in strict_posets(n):
            if not pending:
                return results
            _sweep_cell(formulas, bounds, n, strict, results, pending)
    return results


def _slot_vector(pred: int, count: int, k: int, slot: int) -> int:
    """Spread a bit vector over ``count`` candidates to the batch of
    ``k``-multisets of them (``k`` at most two): bit ``b`` of the result is
    the bit of the ``slot``-th candidate of the ``b``-th multiset."""
    if k == 1:
        return pred
    bits = format(pred, f"0{count}b")[::-1]
    # the multisets that start with candidate i are (i, i), (i, i+1), ...
    if slot == 0:
        spread = "".join(bits[i] * (count - i) for i in range(count))
    else:
        spread = "".join(bits[i:] for i in range(count))
    return int(spread[::-1], 2)


def _meet(vectors: list) -> int:
    return functools.reduce(operator.and_, vectors)


def _join(vectors: list) -> int:
    return functools.reduce(operator.or_, vectors, 0)


def _sweep_cell(formulas, bounds, n, strict, results, pending):
    leq = reflexive(n, strict)
    worlds = range(n)
    up = [[v for v in worlds if (w, v) in leq] for w in worlds]
    upsets = upsets_of_poset(n, leq)
    cands = _inm_candidates(n, leq, upsets)  # cands[0] has the empty domain
    k = bounds.max_nbhds
    batch = math.comb(len(cands) + k - 1, k)
    full = (1 << batch) - 1

    # per-candidate predicates: v in the domain, u in the value at v
    dom = [0] * n
    val = [[0] * n for _ in worlds]
    for c, (dom_t, values) in enumerate(cands):
        for v, value in zip(dom_t, values):
            dom[v] |= 1 << c
            for u in value:
                val[v][u] |= 1 << c
    slots = [([_slot_vector(d, len(cands), k, s) for d in dom],
              [[_slot_vector(x, len(cands), k, s) for x in row] for row in val])
             for s in range(k)]

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

    for vals in itertools.product(upsets, repeat=bounds.max_atoms):
        atoms = [[full if w in ext else 0 for w in worlds] for ext in vals]
        memo: dict = {}
        for fi in sorted(pending):
            phi = formulas[fi]
            t = ev(phi, atoms, memo)
            failing = full ^ _meet(t)
            if not failing:
                continue
            b = (failing & -failing).bit_length() - 1
            world = next(w for w in worlds if not t[w] >> b & 1)
            combo = next(itertools.islice(
                itertools.combinations_with_replacement(range(len(cands)), k), b, None))
            nbhds = {f"a{i}": dict(zip(*cands[c]))
                     for i, c in enumerate(sorted(set(combo) - {0}))}
            model = INModel(frozenset(worlds), leq, nbhds, dict(enumerate(vals)))
            if eval_inm(model, world, phi):
                raise RuntimeError(f"sweep witness for {phi} does not re-check")
            results[fi] = (model, world)
            pending.discard(fi)
