"""Bounded enumeration of finite models, countermodel search for consecutions,
seeded random model generators, and an exhaustive validity sweep.

Enumeration is deterministic and restartable.  The stream runs by world
count, then order, then frame, then valuation.  Worlds are labelled
``0..n-1``, and partial orders are those whose strict pairs point up the
integer order (every finite poset has such a labelling, so the searched space
is exhaustive up to isomorphism).  Valuations range over the upsets of the
order (partial or pre-).  The filters of the bounds read only the frame.
Coherence reads one neighbourhood at a time, so it is checked once per
candidate neighbourhood on each order, and only coherent candidates make
frames.  The Cartesian and full filters read every neighbourhood of a frame
(r-equivalence, propagation along the preorder), so they run once per frame.

``find_countermodel`` and ``sweep_inm_validity`` share one scan, in one
process, which returns each of a list of consecutions' first hit in stream
order.  It evaluates the stream in bit-sliced batches.  A batch is a run of
the frames of one order times all of the order's valuations, one bit per
model: with ``F`` frames, model ``(f, v)`` is bit ``v * F + f``.  A truth
value is one Python int per point.  The facts of a frame (a
neighbourhood's value at a world, a relation pair, ...) are keys, and each
key has an ``F``-bit int of the batch's frames that have it, which is
repeated once per valuation to widen it to the batch; the kind's batch
clause in ``models.KINDS`` reads them.  The inm frames are the
combinations of the candidate neighbourhoods, which come in runs that
differ only in their last candidate, so their ints are built per run; the
frames of the other kinds name their keys one by one.  The lowest failing
frame, found by folding the valuation blocks with OR, then its first
failing valuation, is the stream's first hit, so its ``index`` is the
model's position in the stream.  A batch holds at most ``_BATCH_MODELS``
models (or one frame's valuations, if more), and the deadline is looked at
between batches.  A hit model is rebuilt by walking the order's frames
again, and re-checked with the kind's single-model evaluator.  An ifom
structure has no valuation: its points are a grid of (world, state) pairs
with a key for each pair it lacks, and its atoms are keys too.

The validity sweep is the scan's many-formula case: each formula is a
consecution with an empty context, the formulas share each batch's
evaluation, and each one leaves the scan at its first hit.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import models
from .folm import FOMStructure, IFOMStructure
from .models import (CNModel, IK2Model, INModel, NbhdModel, _batch_truth_set,
                     check_ik2_frame, check_inm)
from .orders import is_transitive, is_upward_closed, reflexive_transitive_closure
from .syntax import (And, Atom, Box, Consecution, Dia, FALSUM, Formula, Implies,
                     Nabla, Or, in_dialect)

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


# Each frame generator but inm's takes the bounds, the world count, the
# order and the sets that atoms range over, and yields the frames on that
# order in stream order.  A frame is a pair: a function from a valuation to
# a model, and the keys of the facts of the frame that the kind's batch
# clause reads (see ``models.batch_<kind>``), over the indices of the
# points, in groups that the generator builds once and shares between
# frames.  The inm frames name no keys: see ``_inm_batches``.

def _inm_candidates(n: int, leq, upsets, require_coherent: bool) -> list:
    """Every neighbourhood on the order ``leq``: an upset domain with a value
    at each of its worlds.  With ``require_coherent``, only the coherent ones:
    conditions N1 and N2 each read one neighbourhood, so a frame is coherent
    exactly when each of its neighbourhoods is, and the combinations of the
    coherent candidates are the coherent frames, in stream order."""
    subsets = _subsets(range(n))
    cands = [(dom, values) for dom in map(sorted, upsets)
             for values in itertools.product(subsets, repeat=len(dom))]
    if not require_coherent:
        return cands
    # as bitmasks over the worlds: the successors of each world, the worlds
    # with a successor in each set, and the successors of the members of it
    up = [models._bits(v for v in range(n) if (w, v) in leq) for w in range(n)]
    down = [models._bits(v for v in range(n) if up[v] & b) for b in range(1 << n)]
    ups = [functools.reduce(operator.or_, (up[v] for v in s), 0) for s in subsets]

    def coherent(dom, values) -> bool:
        a = {w: models._bits(value) for w, value in zip(dom, values)}
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


def _inm_frames(n: int, leq, cands: list, max_nbhds: int) -> Iterator:
    """The frames on the order ``leq``, as functions from a valuation to a
    model: the combinations of at most ``max_nbhds`` of the candidates, by
    size, in ``itertools.combinations`` order."""
    worlds = frozenset(range(n))
    for k in range(max_nbhds + 1):
        for combo in itertools.combinations(cands, k):
            yield functools.partial(INModel, worlds, leq, {f"a{i}": dict(zip(*cand))
                                                           for i, cand in enumerate(combo)})


def _inm_batches(n: int, cands: list, max_nbhds: int, width: int) -> Iterator:
    """The predicates of the frames of ``_inm_frames``, in batches of at most
    ``width`` frames, as ``(frame count, predicates)``; the key ``(s, w)``
    says that ``w`` is in the domain of the neighbourhood in slot ``s``, and
    ``(s, w, u)`` that ``u`` is in its value at ``w``.

    The combinations of ``k`` candidates come in runs: a prefix of ``k - 1``
    candidates, then each candidate ``lo..C-1`` after the prefix in the last
    slot.  Over a run, a fact of a prefix slot is all ones or zero, and a
    fact of the last slot is its column over the candidates shifted down by
    ``lo``.  A run longer than what is left of a batch is split."""
    # fact w: w is in the domain; fact n + w * n + u: u is in the value at
    # w.  The columns are read off the binary strings of the candidates'
    # fact masks, in linear time (a 4-world order has 83,521 candidates).
    facts = n + n * n
    keys = [[(s, w) for w in range(n)] + [(s, w, u) for w in range(n) for u in range(n)]
            for s in range(max_nbhds)]
    masks = [sum(1 << w | models._bits(value) << n + w * n for w, value in zip(dom, values))
             for dom, values in cands]
    rows = [format(mask, f"0{facts}b") for mask in masks]
    columns = [int("".join(bits)[::-1], 2) for bits in zip(*rows)][::-1]
    count = len(cands)
    preds: dict = {}
    size = 1  # the empty combination comes first, and has no facts
    for k in range(1, max_nbhds + 1):
        last = [(key, column) for key, column in zip(keys[k - 1], columns) if column]
        for prefix in itertools.combinations(range(count), k - 1):
            fixed = [keys[s][i] for s, c in enumerate(prefix)
                     for i in range(facts) if masks[c] >> i & 1]
            lo = prefix[-1] + 1 if prefix else 0
            while lo < count:
                if size == width:
                    yield size, preds
                    preds, size = {}, 0
                run = min(count - lo, width - size)
                ones = (1 << run) - 1
                for key in fixed:
                    preds[key] = preds.get(key, 0) | ones << size
                for key, column in last:
                    if column := column >> lo & ones:
                        preds[key] = preds.get(key, 0) | column << size
                size += run
                lo += run
    yield size, preds


def _keyed_batches(frames: Iterator, width: int) -> Iterator:
    """The predicates of frames that name their keys, in batches of at most
    ``width`` frames, as ``(frame count, predicates)``."""
    while True:
        preds: dict = {}
        size = 0
        for f, (_, keys) in enumerate(itertools.islice(frames, width)):
            size = f + 1
            for group in keys:
                for key in group:
                    preds[key] = preds.get(key, 0) | 1 << f
        if not size:
            return
        yield size, preds


def _family_frames(make, choices: list, n: int) -> Iterator:
    """The frames that give each world one family of ``choices``, with the
    keys ``(w, s)`` for each set ``s`` of the family of ``w``."""
    keys = [[tuple((w, tuple(sorted(a))) for a in fam) for fam in choices] for w in range(n)]
    for picks in itertools.product(range(len(choices)), repeat=n):
        yield (functools.partial(make, dict(enumerate(choices[c] for c in picks))),
               [keys[w][c] for w, c in enumerate(picks)])


def _classical_frames(bounds: SearchBounds, n: int, leq, subsets) -> Iterator:
    make = functools.partial(NbhdModel, frozenset(range(n)))
    for k in range(bounds.max_nbhds + 1):
        for pool in itertools.combinations(subsets, k):
            choices = [frozenset(sel) for r in range(k + 1)
                       for sel in itertools.combinations(pool, r)]
            yield from _family_frames(make, choices, n)


def _cnm_frames(bounds: SearchBounds, n: int, rel, upsets) -> Iterator:
    per_world = [frozenset(sel) for r in range(bounds.max_nbhds + 1)
                 for sel in itertools.combinations(_subsets(range(n)), r)]
    yield from _family_frames(functools.partial(CNModel, frozenset(range(n)), rel),
                              per_world, n)


def _ik2_frames(bounds: SearchBounds, n: int, leq, upsets) -> Iterator:
    worlds = frozenset(range(n))
    # the frame conditions constrain N and E separately, so the pairs
    # that pass are the products of the relations that pass alone
    rels = [r for r in _subsets([(i, j) for i in range(n) for j in range(n)])
            if check_ik2_frame(IK2Model(worlds, leq, r, frozenset(), {})).ok]
    keys = {j: [tuple((j, a, b) for a, b in r) for r in rels] for j in "NE"}
    for relN, relE in itertools.product(range(len(rels)), repeat=2):
        yield (functools.partial(IK2Model, worlds, leq, rels[relN], rels[relE]),
               (keys["N"][relN], keys["E"][relE]))


_FRAMES = {"classical": _classical_frames, "cnm": _cnm_frames, "ik2": _ik2_frames}


def _filters(kind: str, bounds: SearchBounds) -> list:
    """The per-frame checks that ``bounds`` asks of the models of ``kind``.
    Each ``require_*`` filter must name a level of the kind's checks in
    ``models.KINDS`` (coherent and cartesian for inm, full for cnm); any
    other raises ``ValueError``.  The checks read only the frame, so each
    runs once per frame, on its model with an empty valuation.  The Cartesian
    and full conditions read every neighbourhood of a frame (r-equivalence,
    propagation along the preorder), so they are here; coherence reads one
    neighbourhood at a time and is checked once per candidate by
    ``_inm_candidates``.  An unknown kind raises ``ValueError``."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    checks = models.KINDS[kind].checks
    wanted = [level for level in ("coherent", "cartesian", "full")
              if getattr(bounds, f"require_{level}")]
    for level in wanted:
        if level not in checks:
            raise ValueError(f"require_{level} does not apply to {kind} models")
    return [lambda m, check=checks[level]: check(m).ok
            for level in wanted if level != "coherent"]


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


def _image_keys(at: int, states, nbhds, relN, relE) -> tuple:
    """The ``batch_inm`` keys of the pairs of one world in the ``bullet``
    image, whose pair with state ``x`` is the point ``at + x``."""
    keys = []
    for a in sorted(nbhds):
        for x in sorted(states):
            if (x, a) in relN:
                keys.append((a, at + x))
                keys.extend((a, at + x, at + y) for y in sorted(states) if (a, y) in relE)
    return tuple(keys)


def _ifom_frames(bounds: SearchBounds, n: int, leq) -> Iterator:
    """The growing structures on the order ``leq``: each world's structure
    contains the union of those below it.  A structure has no valuation; its
    points are those of a grid of (world, state) pairs, the pair ``(w, x)``
    at index ``w * max_worlds + x``, and its keys are those of its ``bullet``
    image, ``("absent", p)`` for the grid points that are not its points and
    ``("atom", i, p)`` for the points where atom ``i`` holds.

    A world's options depend only on its base, the union of the structures
    below it, so they are built once per base and reused while the base
    stays the same: on the antichain every world has the empty base.  Only
    the latest base of each world is kept, which bounds the memory."""
    state_pool = tuple(range(bounds.max_worlds))
    nbhd_pool = tuple(range(bounds.max_nbhds))
    atoms = range(bounds.max_atoms)
    worlds = frozenset(range(n))

    def options(w: int, base: FOMStructure) -> list:
        """World ``w``'s structures over ``base``, each with its keys."""
        at = w * len(state_pool)
        out = []
        for states in _supersets(base.states, state_pool):
            if not states:
                continue
            absent = tuple(("absent", at + x) for x in state_pool if x not in states)
            for nbhds in _supersets(base.nbhds, nbhd_pool):
                rn_pool = [(x, a) for x in sorted(states) for a in sorted(nbhds)]
                re_pool = [(a, x) for a in sorted(nbhds) for x in sorted(states)]
                for relN in _supersets(base.relN, rn_pool):
                    for relE in _supersets(base.relE, re_pool):
                        image = absent + _image_keys(at, states, nbhds, relN, relE)
                        for pred_sets in itertools.product(
                                *(_supersets(base.preds[i], sorted(states)) for i in atoms)):
                            out.append((FOMStructure(states, nbhds, relN, relE,
                                                     dict(zip(atoms, pred_sets))),
                                        image + tuple(("atom", i, at + x) for i in atoms
                                                      for x in sorted(pred_sets[i]))))
        return out

    latest: list = [(None, [])] * n  # per world: its latest base and options

    def go(w: int, interp: dict, keys: tuple):
        if w == n:
            yield functools.partial(_ifom_model, worlds, leq, dict(interp)), keys
            return
        base = _union_below(interp, leq, w, bounds.max_atoms)
        if latest[w][0] != base:
            latest[w] = (base, options(w, base))
        for structure, group in latest[w][1]:
            interp[w] = structure
            yield from go(w + 1, interp, keys + (group,))

    yield from go(0, {}, ())


def _ifom_model(worlds, leq, interp, val) -> IFOMStructure:
    """A growing structure; it has no valuation, so ``val`` is empty."""
    return IFOMStructure(worlds, leq, interp)


# The models of one kind on one order: their points (labels, by index), the
# up-set of each point (indices), the valuations in stream order (a tuple of
# sets per atom), a function that yields the frames (functions from a
# valuation to a model), and one that yields their predicates in batches of
# at most a given number of frames.
_Space = collections.namedtuple("_Space", "points up valuations frames batches")


def _space(kind: str, bounds: SearchBounds, n: int, leq) -> _Space:
    if kind == "ifom":
        points = [(w, x) for w in range(n) for x in range(bounds.max_worlds)]
        up = [[v * bounds.max_worlds + x for v in range(n) if (w, v) in leq] for w, x in points]
        valuations = [()]
        keyed = functools.partial(_ifom_frames, bounds, n, leq)
    else:
        # classical valuations are all subsets, in bitmask order
        sets = _subsets(range(n)) if kind == "classical" else upsets_of_poset(n, leq)
        points, up = list(range(n)), [[v for v in range(n) if (w, v) in leq] for w in range(n)]
        valuations = list(itertools.product(sets, repeat=bounds.max_atoms))
        if kind == "inm":
            cands = _inm_candidates(n, leq, sets, bounds.require_coherent)
            return _Space(points, up, valuations,
                          functools.partial(_inm_frames, n, leq, cands, bounds.max_nbhds),
                          functools.partial(_inm_batches, n, cands, bounds.max_nbhds))
        keyed = functools.partial(_FRAMES[kind], bounds, n, leq, sets)
    return _Space(points, up, valuations, lambda: (frame for frame, _ in keyed()),
                  lambda width: _keyed_batches(keyed(), width))


def enumerate_models(kind: str, bounds: SearchBounds) -> Iterator:
    """Deterministic, restartable stream of all models of ``kind`` within the
    bounds: by world count, then order, then frame, then valuation."""
    filters = _filters(kind, bounds)
    for n in range(1, bounds.max_worlds + 1):
        for leq in _orders(kind, n):
            space = _space(kind, bounds, n, leq)
            for frame in space.frames():
                if all(check(frame({})) for check in filters):
                    for vals in space.valuations:
                        yield frame(dict(enumerate(vals)))


# ---------------------------------------------------------------------------
# Countermodel search and the validity sweep
# ---------------------------------------------------------------------------

# The most models one batch of the scan holds, unless one frame alone has
# more valuations.  It bounds a batch's memory and the time between two
# looks at the deadline.
_BATCH_MODELS = 1 << 17


def _valuation_atoms(valuations: list, frames: int, n: int) -> dict:
    """Each atom's truth value over a batch of ``frames`` frames times the
    ``valuations``: one block of ``frames`` bits per valuation."""
    atoms: dict = {}
    block = (1 << frames) - 1
    for vals in valuations:
        for i, ext in enumerate(vals):
            vec = atoms.setdefault(i, [0] * n)
            for w in ext:
                vec[w] |= block
        block <<= frames
    return atoms


def _repeat(bits: int, width: int, count: int) -> int:
    """``count`` copies of the ``width``-bit ``bits`` end to end, by doubling,
    which costs far less than a multiplication by the repunit on long ints."""
    out = done = 0
    while count:
        if count & 1:
            out |= bits << done
            done += width
        bits |= bits << width
        width *= 2
        count >>= 1
    return out


def _scan_batch(kind: str, space: _Space, size: int, live: int, preds: dict, atoms: dict):
    """The batch of ``size`` frames of one order times the order's
    valuations: bit ``v * size + f`` is frame ``f`` under valuation ``v``, so
    a frame predicate widens to the batch by repeating it.  ``live``
    masks the frames that pass the filters.  Returns a function from a
    context and a conclusion to ``(frame offset, valuation index, point)``
    of the first failing model in stream order, or None; its calls share
    the truth values of the formulas they evaluate."""
    n, valuations = len(space.points), len(space.valuations)
    full = (1 << size * valuations) - 1
    preds = {key: _repeat(frames, size, valuations) for key, frames in preds.items()}
    live = _repeat(live, size, valuations)
    present = [live & (full ^ preds.pop(("absent", p), 0)) for p in range(n)]
    atoms = dict(atoms)  # empty for ifom, whose atoms are keys
    for key in [key for key in preds if key[0] == "atom"]:
        atoms.setdefault(key[1], [0] * n)[key[2]] |= preds.pop(key)
    up = space.up
    modal = models.KINDS[kind].batch(preds, up, full)
    memo: dict = {}

    def first_failure(context, conclusion):
        good = present
        for g in context:
            good = [a & b for a, b in zip(good, _batch_truth_set(up, atoms, full, modal, g, memo))]
            if not any(good):
                return None
        bad = [a & (full ^ b) for a, b in
               zip(good, _batch_truth_set(up, atoms, full, modal, conclusion, memo))]
        failing = functools.reduce(operator.or_, bad)
        if not failing:
            return None
        # the least failing frame, then its first failing valuation
        folded = 0
        for v in range(valuations):
            folded |= failing >> v * size
        f = (folded & -folded).bit_length() - 1
        v = next(v for v in range(valuations) if failing >> (v * size + f) & 1)
        bit = v * size + f
        return f, v, min((space.points[p] for p in range(n) if bad[p] >> bit & 1), key=str)

    return first_failure


def _scan(kind: str, bounds: SearchBounds, consecs: Sequence[Consecution],
          deadline: Optional[float] = None):
    """The first model of ``enumerate_models`` for each consecution with a
    point where its whole context holds and its conclusion fails, and the
    least such point by label, as ``(model, point, index)``, or None.
    Returns those, the number of models examined, and whether the deadline
    (a ``time.monotonic`` value) passed before the stream ended.

    The models of one order are evaluated in batches of at most
    ``_BATCH_MODELS`` (see ``_scan_batch``), each consecution until its
    first hit.  The filters read the order's frames alongside the batches.
    A hit is rebuilt by walking the order's frames again to it, and
    re-checked with the kind's single-model evaluator."""
    filters = _filters(kind, bounds)
    for f in {f for c in consecs for f in c.context | {c.conclusion}}:
        if not any(in_dialect(f, d) for d in models.KINDS[kind].dialects):
            raise ValueError(f"formula dialect does not match model kind {kind!r}")
    pending = [(i, sorted(c.context, key=str), c.conclusion) for i, c in enumerate(consecs)]
    hits: list = [None] * len(consecs)
    examined = 0
    for n in range(1, bounds.max_worlds + 1):
        for leq in _orders(kind, n):
            space = _space(kind, bounds, n, leq)
            valuations = len(space.valuations)
            atoms_for = functools.lru_cache(maxsize=2)(
                functools.partial(_valuation_atoms, space.valuations, n=len(space.points)))
            frames = space.frames()  # what the filters read, batch by batch
            first = 0  # the batch's first frame among the order's frames
            for size, preds in space.batches(max(1, _BATCH_MODELS // valuations)):
                live = (1 << size) - 1
                if filters:
                    live = models._bits(f for f, frame in enumerate(itertools.islice(frames, size))
                                        if all(check(frame({})) for check in filters))
                if live:
                    first_failure = _scan_batch(kind, space, size, live, preds, atoms_for(size))
                    for i, context, conclusion in pending:
                        if (hit := first_failure(context, conclusion)) is not None:
                            f, v, point = hit
                            index = examined + (live & (1 << f) - 1).bit_count() * valuations + v
                            frame = next(itertools.islice(space.frames(), first + f, None))
                            model = frame(dict(enumerate(space.valuations[v])))
                            _recheck(kind, model, point, context, conclusion, index)
                            hits[i] = (model, point, index)
                    pending = [query for query in pending if hits[query[0]] is None]
                examined += live.bit_count() * valuations
                first += size
                if not pending:
                    return hits, examined, False
                if deadline is not None and time.monotonic() > deadline:
                    return hits, examined, True
    return hits, examined, False


def _recheck(kind: str, model, point, context, conclusion, index: int) -> None:
    holds = models.KINDS[kind].holds
    if not all(holds(model, point, g) for g in context) or holds(model, point, conclusion):
        raise RuntimeError(f"the {kind} model at stream index {index} does not "
                           f"re-check as a countermodel at {point!r}")


def find_countermodel(consec: Consecution, kind: str, bounds: SearchBounds,
                      timeout_ms: Optional[int] = None, workers: int = 1):
    """The first model of ``enumerate_models`` with a point where the whole
    context holds and the conclusion fails, and the least such point by label;
    ``NoneWithinBounds`` otherwise.  ``timeout_ms`` must not be negative; the
    deadline is looked at between batches (see ``_scan``).  The search runs
    in this process.  ``workers`` accepts only 1; it is kept for callers
    that still pass it and goes once the benchmark drops it."""
    if workers != 1:
        raise ValueError(f"the search runs in one process; workers={workers!r}")
    if timeout_ms is not None and timeout_ms < 0:
        raise ValueError(f"the timeout must not be negative, got {timeout_ms} ms")
    start = time.monotonic()
    deadline = None if timeout_ms is None else start + timeout_ms / 1000.0
    [hit], examined, timed_out = _scan(kind, bounds, [consec], deadline)
    if hit is not None:
        return CounterexampleFound(*hit)
    return NoneWithinBounds(examined, time.monotonic() - start, timed_out)


def sweep_inm_validity(formulas: Sequence[Formula], bounds: SearchBounds):
    """For each formula, ``find_countermodel``'s hit for it over the
    intuitionistic neighbourhood models within the bounds, as ``(model,
    world)``: ``None`` when the formula holds at every world of every model,
    else the first model of the stream with a failing world and the least
    such world, re-checked with the single-model evaluator.

    The formulas are consecutions with an empty context in one ``_scan``:
    each batch evaluates those without a hit yet, sharing subformulas."""
    hits, _, _ = _scan("inm", bounds, [Consecution(frozenset(), phi) for phi in formulas])
    return [None if hit is None else hit[:2] for hit in hits]


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
    """Random formula of the ``modal`` or ``nabla`` dialect whose modal depth
    (modalities and implications) stays within ``max_depth``; a node budget
    keeps trees finite."""
    modal_ops = {"modal": [Box, Dia], "nabla": [Nabla]}.get(dialect)
    if modal_ops is None:
        raise ValueError(f"random formulas are drawn in the modal or nabla dialect, "
                         f"not {dialect!r}")
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

