"""Bounded enumeration of finite models, countermodel search for consecutions
and an exhaustive validity sweep.

Enumeration is deterministic and restartable.  The stream runs by world
count, then order, then frame, then valuation.  Worlds are labelled
``0..n-1``, and partial orders are those whose strict pairs point up the
integer order (every finite poset has such a labelling, so the searched space
is exhaustive up to isomorphism).  Valuations range over the upsets of the
order (partial or pre-).  The filters of the bounds read only the frame:
coherence, which reads one neighbourhood at a time, is checked on all of an
order's candidate neighbourhoods at once, bitwise over their columns, and the
Cartesian and full filters once per frame.

``find_countermodel`` and ``sweep_inm_validity`` share one scan, which
returns each of a list of consecutions' first hit in stream order.  It
evaluates one order's frames times all of its valuations in bit-sliced
batches, model ``(f, v)`` of ``F`` frames at bit ``v * F + f``; a truth
value is one Python int per point.  A fact of a frame (a neighbourhood's
value at a world, a relation pair, ...) is a key with an ``F``-bit int of
the frames that have it, repeated once per valuation, which the kind's batch
clause in ``models.KINDS`` reads.  These ints are built from columns over
runs of frames, never frame by frame: classical, cnm and ik2 frames are
products of per-slot choices, inm frames are combinations of candidate
neighbourhoods, which come in runs that share all but the last and whose
columns follow from the candidates' mixed-radix numbering, no candidate
being built, and ifom frames fix every world but the last.  The lowest
failing frame, then its first failing valuation, is the first hit, so its
``index`` is the model's position in the stream.  A batch holds at most
``_BATCH_MODELS`` models (or one frame's valuations, if more), and the
deadline is looked at between batches.  A hit model is rebuilt by walking
the order's frames again, and re-checked with the kind's single-model
evaluator.  An ifom structure has no valuation: its points are a grid of
(world, state) pairs with a key for each pair it lacks, and its atoms are
keys too.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import models
from .folm import FOMStructure, IFOMStructure
from .models import (CNModel, IK2Model, INModel, NbhdModel, _batch_truth_set,
                     check_ik2_frame)
from .orders import is_transitive, is_upward_closed
from .syntax import Consecution, Formula, in_dialect

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


# ``_SPACES[kind](bounds, n, order, sets)``, given the sets that atoms range
# over, returns two functions of no argument: one yields the frames on the
# order (functions from a valuation to a model), which define the stream,
# and one their runs, ``(lo, hi, fixed, columns)``: frames ``lo..hi-1`` of a
# sequence, the keys that hold at all of them, and ``(key, column)`` pairs, a
# column having the bit of each frame with the key.  The keys are the facts
# that the kind's batch clause reads (``models.batch_<kind>``).

def _columns(masks: list, facts: int) -> list:
    """Per fact of the ``facts``-bit masks of a list of choices, the column
    with the bit of each choice that has it, read off the masks' binary
    strings in linear time; OR-ing one bit per choice is quadratic."""
    rows = [format(mask, f"0{facts}b") for mask in masks]
    return [int("".join(bits)[::-1], 2) for bits in zip(*rows)][::-1]


def _key_columns(groups: list) -> list:
    """The ``(key, column)`` pairs of a list of choices, each a group of
    distinct keys: bit ``c`` of a key's column says that choice ``c`` has it."""
    index: dict = {}
    masks = [models._bits(index.setdefault(key, len(index)) for key in group)
             for group in groups]
    return list(zip(index, _columns(masks, len(index))))


def _product(slots: list) -> tuple:
    """The run of the frames that take one choice per slot, the last slot
    varying fastest; a slot is a list of choices, each a group of distinct
    keys.  A key's column over its slot spreads by a Kronecker product: each
    bit becomes a block of the later slots' combinations, repeated once per
    combination of the earlier slots."""
    frames = math.prod(map(len, slots))
    inner, outer, columns = frames, 1, []
    for groups in slots:
        inner //= len(groups)
        for key, column in _key_columns(groups):
            spread = int("".join(bit * inner for bit in format(column, "b")), 2)
            columns.append((key, _repeat(spread, len(groups) * inner, outer)))
        outer *= len(groups)
    return 0, frames, (), columns


def _run_batches(runs: Iterator, width: int) -> Iterator:
    """The predicates of the frames of ``runs``, in batches of at most
    ``width`` frames, as ``(frame count, predicates)``.  Over a run, a fixed
    key is all ones and a column is shifted down to the run's first frame; a
    run longer than what is left of a batch is split, and runs are joined."""
    preds, size = {}, 0
    for lo, hi, fixed, columns in runs:
        while lo < hi:
            if size == width:
                yield size, preds
                preds, size = {}, 0
            run = min(hi - lo, width - size)
            ones = (1 << run) - 1
            for key in fixed:
                preds[key] = preds.get(key, 0) | ones << size
            for key, column in columns:
                if column := column >> lo & ones:
                    preds[key] = preds.get(key, 0) | column << size
            size += run
            lo += run
    yield size, preds


# '0' and '1' as the bytes 0 and 1, selectors for ``itertools.compress``
_BITS = bytes.maketrans(b"01", b"\0\1")


def _inm_columns(n: int, leq, upsets, require_coherent: bool) -> tuple:
    """Every neighbourhood on the order ``leq`` (an upset domain with a value
    at each of its worlds) as columns, never one candidate at a time.  Domain
    by domain in ``upsets`` order, a domain ``dom`` of ``d`` worlds has
    ``2^(n*d)`` candidates, candidate ``i`` having the value mask at
    ``dom[j]`` in digit ``j`` (base ``2^n``, most significant first), so the
    fact that ``u`` is in the value at ``dom[j]`` is bit ``n*(d-1-j)+u`` of
    ``i``: its column is a repeated block of zeros then ones, and the fact
    that ``w`` is in the domain is all ones, each offset by the candidates of
    the earlier domains.  Returns the number of candidates kept, a function
    that lists them as ``(sorted domain, values)`` for a walk over the
    frames, and their columns, per fact of ``_inm_space``.

    With ``require_coherent``, only the coherent candidates are kept:
    conditions N1 and N2 each read one neighbourhood, so a frame is coherent
    exactly when each of its neighbourhoods is, and the combinations of the
    coherent candidates are the coherent frames, in stream order.  Both are
    checked on all candidates at once, bitwise over the columns."""
    subsets = _subsets(range(n))
    doms = [sorted(dom) for dom in upsets]
    indom, val, total = [0] * n, [[0] * n for _ in range(n)], 0
    for dom in doms:
        size = 1 << n * len(dom)
        for j, w in enumerate(dom):
            indom[w] |= ((1 << size) - 1) << total
            for u in range(n):
                half = 1 << n * (len(dom) - 1 - j) + u  # the bit's place value
                block = ((1 << half) - 1) << half  # half zeros, then half ones
                val[w][u] |= _repeat(block, 2 * half, size // half // 2) << total
        total += size
    bad = 0  # the candidates that fail N1 or N2
    for w, x in itertools.product(range(n), repeat=2) if require_coherent else ():
        if w != x and (w, x) in leq:
            # N1: u is in the value at w and below nothing in the value at x
            # (x is in every domain that w is in, domains being upsets)
            for u in range(n):
                above = functools.reduce(operator.or_, (val[x][v] for v in range(n)
                                                        if (u, v) in leq))
                bad |= val[w][u] & ~above
        # N2: x is above a member of the value at w and in the value at no
        # world above w
        below = functools.reduce(operator.or_, (val[w][u] for u in range(n) if (u, x) in leq))
        reach = functools.reduce(operator.or_, (val[v][x] for v in range(n) if (w, v) in leq))
        bad |= below & ~reach
    columns, keep = indom + [column for row in val for column in row], None
    if bad:
        keep = format(((1 << total) - 1) & ~bad, f"0{total}b")[::-1].encode().translate(_BITS)
        columns = [int("".join(itertools.compress(format(column, f"0{total}b")[::-1], keep))[::-1]
                       or "0", 2) for column in columns]

    def candidates() -> list:
        every = ((dom, values) for dom in doms
                 for values in itertools.product(subsets, repeat=len(dom)))
        return list(every if keep is None else itertools.compress(every, keep))

    return total if keep is None else keep.count(1), candidates, columns


def _inm_space(bounds: SearchBounds, n: int, leq, upsets) -> tuple:
    """The combinations of at most ``max_nbhds`` of the candidates, by size,
    in ``itertools.combinations`` order, with the keys ``(s, w)``: ``w`` is in
    the domain of the neighbourhood in slot ``s``, and ``(s, w, u)``: ``u`` is
    in its value at ``w``.  A run is a prefix of ``k - 1`` candidates, whose
    keys hold over the run, then each candidate ``lo..C-1`` after it.  The
    candidates are listed only for a walk over the frames, and for the
    prefixes of two or more neighbourhoods."""
    count, candidates, columns = _inm_columns(n, leq, upsets, bounds.require_coherent)
    worlds = frozenset(range(n))

    def frames():
        cands = candidates()
        for k in range(bounds.max_nbhds + 1):
            for combo in itertools.combinations(cands, k):
                yield functools.partial(INModel, worlds, leq, {
                    f"a{i}": dict(zip(*cand)) for i, cand in enumerate(combo)})

    def runs():
        keys = [[(s, w) for w in range(n)] + [(s, w, u) for w in range(n) for u in range(n)]
                for s in range(bounds.max_nbhds)]
        cands = candidates() if bounds.max_nbhds > 1 else []
        yield 0, 1, (), ()  # the empty combination, which has no facts
        for k in range(1, bounds.max_nbhds + 1):
            last = [(key, column) for key, column in zip(keys[k - 1], columns) if column]
            for prefix in itertools.combinations(range(count), k - 1):
                fixed = []
                for s, c in enumerate(prefix):
                    dom, values = cands[c]
                    fixed += [(s, w) for w in dom]
                    fixed += [(s, w, u) for w, value in zip(dom, values) for u in sorted(value)]
                yield prefix[-1] + 1 if prefix else 0, count, fixed, last

    return frames, runs


def _family_space(make, pools: list, n: int) -> tuple:
    """The frames that give each world one family of a pool's choices, pool
    by pool, each pool a run; the key ``(w, s)`` says that the set ``s`` is
    in the family of ``w``."""
    return (lambda: (functools.partial(make, dict(enumerate(picks))) for choices in pools
                     for picks in itertools.product(choices, repeat=n)),
            lambda: (_product([[[(w, tuple(sorted(a))) for a in fam] for fam in choices]
                               for w in range(n)]) for choices in pools))


def _classical_space(bounds: SearchBounds, n: int, leq, subsets) -> tuple:
    return _family_space(functools.partial(NbhdModel, frozenset(range(n))), [
        [frozenset(sel) for r in range(k + 1) for sel in itertools.combinations(pool, r)]
        for k in range(bounds.max_nbhds + 1) for pool in itertools.combinations(subsets, k)], n)


def _cnm_space(bounds: SearchBounds, n: int, rel, upsets) -> tuple:
    return _family_space(functools.partial(CNModel, frozenset(range(n)), rel), [
        [frozenset(sel) for r in range(bounds.max_nbhds + 1)
         for sel in itertools.combinations(_subsets(range(n)), r)]], n)


@functools.lru_cache(maxsize=16)
def _ik2_relations(n: int, leq: frozenset) -> tuple:
    """The relations on 0..n-1 that pass the ik2 frame conditions over ``leq``,
    which constrain N and E separately: the frames are the pairs of these."""
    worlds = frozenset(range(n))
    return tuple(r for r in _subsets([(i, j) for i in range(n) for j in range(n)])
                 if check_ik2_frame(IK2Model(worlds, leq, r, frozenset(), {})).ok)


def _ik2_space(bounds: SearchBounds, n: int, leq, upsets) -> tuple:
    worlds, rels = frozenset(range(n)), _ik2_relations(n, leq)
    return ((lambda: (functools.partial(IK2Model, worlds, leq, relN, relE)
                      for relN, relE in itertools.product(rels, repeat=2))),
            lambda: [_product([[[(j, *pair) for pair in r] for r in rels] for j in "NE"])])


def _filters(kind: str, bounds: SearchBounds) -> list:
    """The per-frame checks that ``bounds`` asks of the models of ``kind``.
    Each ``require_*`` filter must name a level of the kind's checks in
    ``models.KINDS`` (coherent and cartesian for inm, full for cnm); any
    other raises ``ValueError``.  The checks read only the frame, so each
    runs once per frame, on its model with an empty valuation.  The Cartesian
    and full conditions read every neighbourhood of a frame (r-equivalence,
    propagation along the preorder), so they are here; coherence reads one
    neighbourhood at a time and is checked on the candidates' columns by
    ``_inm_columns``.  An unknown kind raises ``ValueError``."""
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


def _ifom_space(bounds: SearchBounds, n: int, leq, sets) -> tuple:
    """The growing structures on the order ``leq``: each world's structure
    contains the union of those below it, so the structures of the worlds
    before the last fix the last one's options, which make a run.  A
    structure has no valuation; its points are a grid of (world, state)
    pairs, the pair ``(w, x)`` at index ``w * max_worlds + x``, and its keys
    are those of its ``bullet`` image, ``("absent", p)`` for the grid points
    that are not its points and ``("atom", i, p)`` for the points where atom
    ``i`` holds.  A world's options depend only on its base, the union of the
    structures below it, so they are built once per base and reused while
    the base stays the same; only the latest base of each world is kept."""
    pool, atoms, worlds = range(bounds.max_worlds), range(bounds.max_atoms), frozenset(range(n))

    def options(w: int, base: FOMStructure) -> tuple:
        """World ``w``'s structures over ``base``, and the keys of each."""
        at = w * bounds.max_worlds
        structures, groups = [], []
        for states in _supersets(base.states, pool):
            if not states:
                continue
            absent = tuple(("absent", at + x) for x in pool if x not in states)
            for nbhds in _supersets(base.nbhds, range(bounds.max_nbhds)):
                rn_pool = [(x, a) for x in sorted(states) for a in sorted(nbhds)]
                re_pool = [(a, x) for a in sorted(nbhds) for x in sorted(states)]
                for relN in _supersets(base.relN, rn_pool):
                    for relE in _supersets(base.relE, re_pool):
                        image = absent + tuple((a, at + x) for x, a in relN) + tuple(
                            (a, at + x, at + y) for x, a in relN for b, y in relE if b == a)
                        for pred_sets in itertools.product(
                                *(_supersets(base.preds[i], sorted(states)) for i in atoms)):
                            structures.append(FOMStructure(states, nbhds, relN, relE,
                                                           dict(zip(atoms, pred_sets))))
                            groups.append(image + tuple(("atom", i, at + x) for i in atoms
                                                        for x in sorted(pred_sets[i])))
        return structures, groups

    def runs():
        # per run, the structures of the worlds before the last (a dict that
        # the next run changes), the last one's options and the run
        latest: list = [(None,)] * n  # per world: its latest base, options, keys

        def go(w: int, interp: dict, fixed: tuple):
            base = _union_below(interp, leq, w, bounds.max_atoms)
            if latest[w][0] != base:
                structures, groups = options(w, base)
                latest[w] = (base, structures, groups if w < n - 1 else _key_columns(groups))
            _, structures, keys = latest[w]
            if w == n - 1:
                yield interp, structures, (0, len(structures), fixed, keys)
                return
            for structure, group in zip(structures, keys):
                interp[w] = structure
                yield from go(w + 1, interp, fixed + group)
        return go(0, {}, ())

    def frames():
        for interp, structures, _ in runs():
            for structure in structures:
                yield functools.partial(_ifom_model, worlds, leq, {**interp, n - 1: structure})

    return frames, lambda: (run for _, _, run in runs())


def _ifom_model(worlds, leq, interp, val) -> IFOMStructure:
    """A growing structure; it has no valuation, so ``val`` is empty."""
    return IFOMStructure(worlds, leq, interp)


_SPACES = {"inm": _inm_space, "classical": _classical_space, "cnm": _cnm_space,
           "ik2": _ik2_space, "ifom": _ifom_space}

# The models of one kind on one order: their points (labels, by index), the
# up-set of each point (indices), the valuations in stream order (a tuple of
# sets per atom), a function that yields the frames, and one that yields
# their predicates in batches of at most a given number of frames.
_Space = collections.namedtuple("_Space", "points up valuations frames batches")


def _space(kind: str, bounds: SearchBounds, n: int, leq) -> _Space:
    if kind == "ifom":
        points = [(w, x) for w in range(n) for x in range(bounds.max_worlds)]
        up = [[v * bounds.max_worlds + x for v in range(n) if (w, v) in leq] for w, x in points]
        sets, valuations = None, [()]
    else:
        # classical valuations are all subsets, in bitmask order
        sets = _subsets(range(n)) if kind == "classical" else upsets_of_poset(n, leq)
        points, up = list(range(n)), [[v for v in range(n) if (w, v) in leq] for w in range(n)]
        valuations = list(itertools.product(sets, repeat=bounds.max_atoms))
    frames, runs = _SPACES[kind](bounds, n, leq, sets)
    return _Space(points, up, valuations, frames, lambda width: _run_batches(runs(), width))


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
        if count := count >> 1:  # no doubling after the last copy
            bits |= bits << width
            width *= 2
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

