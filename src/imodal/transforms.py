"""Model-to-model constructions with their truth-preservation contracts.

The two inherently infinite constructions (coherent completion and
unravelling) are depth-truncated: the completion caps the number of copies of
maximal worlds, the unravelling caps path length.  Truncated outputs are valid
models, but truncation can change verdicts: ``unravel`` has a known
counterexample at every budget (see its docstring).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .folm import FOMStructure, IFOMStructure
from .models import (CNModel, IK2Model, INModel, bullet, check_inm,  # noqa: F401
                     leq_equivalence, r_equivalence)
from .orders import successors


class TransformError(ValueError):
    def __init__(self, message: str, witnesses=()):
        super().__init__(message if not witnesses
                         else f"{message}; first witness: {witnesses[0]}")
        self.witnesses = list(witnesses)


@dataclass(frozen=True)
class TruncationBudget:
    """Finite stand-in for the unbounded copy indices and path lengths."""

    coh_levels: int
    unravel_len: int

    def __post_init__(self):
        if self.coh_levels < 1 or self.unravel_len < 1:
            raise ValueError("truncation budgets must be at least 1")


def _require(m: INModel, level: str, operation: str) -> None:
    report = check_inm(m, level)
    if not report.ok:
        raise TransformError(f"{operation} requires a {level} model", report.witnesses)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

ORDER_STEP = None  # label marking an order step; neighbourhood names otherwise


@dataclass(frozen=True)
class Path:
    """Alternating world/step sequence; ``labels[i]`` is ``None`` for an order
    step and a neighbourhood name for a neighbourhood step.  ``split`` is the
    number of leading order steps, derived once; ``str``, ``==`` and ``hash``
    ignore it."""

    worlds: tuple
    labels: tuple
    split: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.worlds) != len(self.labels) + 1:
            raise ValueError("path must have one more world than steps")
        k = 0
        while k < len(self.labels) and self.labels[k] is ORDER_STEP:
            k += 1
        object.__setattr__(self, "split", k)

    @property
    def last(self):
        return self.worlds[-1]

    @property
    def length(self) -> int:
        return len(self.labels)

    @property
    def is_unravelling(self) -> bool:
        return all(lab is not ORDER_STEP for lab in self.labels[self.split:])

    def step(self, label, world) -> "Path":
        return Path(self.worlds + (world,), self.labels + (label,))


def leq_ur(m: INModel, p: Path, q: Path) -> bool:
    """The unravelling order, read from the two paths' splits.

    Requires equal neighbourhood-label sequences, that q's order part extend
    p's, and equal-length order paths between corresponding neighbourhood-part
    worlds.  Because the base order is reflexive and transitive, an order path
    of exact length L from x to y exists iff x = y (L = 0) or x <= y (L >= 1),
    so the witness search reduces to this closed form.
    """
    if not (p.is_unravelling and q.is_unravelling):
        raise ValueError("the unravelling order compares unravelling paths only")
    i, j = p.split, q.split
    if i > j or p.labels[i:] != q.labels[j:] or q.worlds[:i + 1] != p.worlds[:i + 1]:
        return False
    if i == j:
        return p.worlds[i:] == q.worlds[j:]
    return all((x, y) in m.leq for x, y in zip(p.worlds[i:], q.worlds[j:]))


def unravel(m: INModel, source, budget: TruncationBudget) -> INModel:
    """Unravelling from ``source``, truncated to paths whose order part and
    neighbourhood part each stay within the budget.

    Worlds are the unravelling paths; a neighbourhood is indexed by a base
    path and a neighbourhood of the base model, defined on the path's
    unravelling-order successors.  Reflexive order steps produce genuinely new
    paths, which are never merged.

    The two path parts are bounded separately (rather than by total length)
    because appending a neighbourhood member never extends the order part:
    with a total-length cutoff, maximal pure-order paths carry emptied
    neighbourhood values that falsify every diamond all the way down at the
    root, for every budget.  With the per-part cutoff, the emptied values sit
    at neighbourhood depth equal to the budget.

    Root verdicts still need not stabilize, because the longest pure-order
    path keeps its last world's valuation but loses that world's strict
    successors.  On worlds {0, 1} with 0 <= 1, no neighbourhoods and ``p0``
    true at 1 only, ``~p0 -> p0 & p0`` holds at 0, but fails at the root for
    every budget from 1 to 6: the path (0, 0, ..., 0) is maximal there.
    """
    _require(m, "coherent", "unravel")
    if source not in m.worlds:
        raise TransformError(f"unknown source world {source!r}")
    limit = budget.unravel_len
    nbhd_names = sorted(m.nbhds, key=str)
    world_order = sorted(m.worlds, key=str)

    paths = []
    frontier = [Path((source,), ())]
    while frontier:
        paths.extend(frontier)
        new = []
        for p in frontier:
            nbhd_len = p.length - p.split
            if nbhd_len == 0 and p.split < limit:
                for v in world_order:
                    if (p.last, v) in m.leq:
                        new.append(p.step(ORDER_STEP, v))
            if nbhd_len < limit:
                for name in nbhd_names:
                    a = m.nbhds[name]
                    if p.last in a:
                        for x in sorted(a[p.last], key=str):
                            new.append(p.step(name, x))
        frontier = new

    # group by neighbourhood labels: the unravelling order never crosses groups
    by_labels: dict = {}
    for p in paths:
        by_labels.setdefault(p.labels[p.split:], []).append(p)
    succ = {}
    for group in by_labels.values():
        for p in group:
            succ[p] = frozenset(q for q in group if leq_ur(m, p, q))
    leq = frozenset((p, q) for p in paths for q in succ[p])

    nbhds = {}
    for p in paths:
        for name in nbhd_names:
            a = m.nbhds[name]
            if p.last not in a:
                continue
            fn = {}
            for q in succ[p]:
                fn[q] = frozenset(q.step(name, x) for x in a[q.last]
                                  if q.length - q.split < limit)
            nbhds[(name, p)] = fn

    val = {i: frozenset(p for p in paths if p.last in ext)
           for i, ext in m.val.items()}
    return INModel(worlds=frozenset(paths), leq=leq, nbhds=nbhds, val=val)


# ---------------------------------------------------------------------------
# Coherent completion (truncated)
# ---------------------------------------------------------------------------

def coherent_completion(m: INModel, budget: TruncationBudget) -> INModel:
    """Copy maximal worlds along a chain of indices up to the budget.

    The output satisfies N1 everywhere; N2 holds wherever the required
    successor copy exists within the budget.
    """
    _require(m, "basic", "coherent_completion")
    k = budget.coh_levels
    maximal = {w for w in m.worlds
               if not any((w, v) in m.leq and v != w for v in m.worlds)}
    worlds = frozenset((w, n) for w in m.worlds
                       for n in (range(k + 1) if w in maximal else (0,)))
    leq = frozenset(((w, n), (v, mm)) for (w, n) in worlds for (v, mm) in worlds
                    if (w, v) in m.leq and n <= mm)

    def lift(value_set) -> frozenset:
        return frozenset(p for p in worlds if p[0] in value_set)

    nbhds = {}
    for name in sorted(m.nbhds, key=str):
        a = m.nbhds[name]
        for base in worlds:
            v, _ = base
            if v not in a:
                continue
            # every world has a copy 0, so the up-closure of a lifted set is
            # the lift of the base up-closure of the set
            upper = lift({y for u in a if (v, u) in m.leq for x in a[u]
                          for y in m.worlds if (x, y) in m.leq})
            fn = {}
            for p in worlds:
                if (base, p) not in leq:
                    continue
                fn[p] = lift(a[v]) if p == base else upper
            nbhds[(name,) + base] = fn

    val = {i: lift(ext) for i, ext in m.val.items()}
    return INModel(worlds=worlds, leq=leq, nbhds=nbhds, val=val)


# ---------------------------------------------------------------------------
# Between IFOM structures and intuitionistic neighbourhood models
# (``bullet`` lives in ``models``, whose ifom clauses read it)
# ---------------------------------------------------------------------------

def circle(m: INModel) -> IFOMStructure:
    """Quotient a coherent Cartesian model into an IFOM structure: worlds are
    classes of the neighbourhood-membership equivalence, states are classes of
    the order equivalence reachable through the world's class."""
    _require(m, "coherent", "circle")
    _require(m, "cartesian", "circle")
    r_eq = r_equivalence(m)
    leq_eq = leq_equivalence(m)

    def rep(uf, w):
        cls = [v for v in m.worlds if uf.same(v, w)]
        return min(cls, key=str)

    r_rep = {w: rep(r_eq, w) for w in m.worlds}
    t_rep = {w: rep(leq_eq, w) for w in m.worlds}
    bar_worlds = frozenset(r_rep.values())
    r_class = {b: frozenset(w for w in m.worlds if r_rep[w] == b) for b in bar_worlds}
    triv = frozenset(name for name, a in m.nbhds.items() if not a)

    bar_leq = frozenset(
        (b, c) for b in bar_worlds for c in bar_worlds
        if any((u, vp) in m.leq for u in r_class[b] for vp in r_class[c]))

    interp = {}
    atoms = sorted(m.val)
    for b in bar_worlds:
        members = r_class[b]
        states = frozenset(t_rep[w] for w in members)
        nbhds = frozenset(name for name, a in m.nbhds.items()
                          if any(x in a for x in members)) | triv

        def witnesses(x_rep):
            return [w for w in members if t_rep[w] == x_rep]

        relN = frozenset(
            (x, name) for x in states for name in nbhds
            if all(w in m.nbhds[name] for w in witnesses(x)))
        relE = frozenset(
            (name, t_rep[z]) for name in nbhds
            if name in m.nbhds
            for y in members if y in m.nbhds[name]
            for z in m.nbhds[name][y])
        preds = {i: frozenset(x for x in states
                              if all(w in m.val.get(i, frozenset())
                                     for w in witnesses(x)))
                 for i in atoms}
        interp[b] = FOMStructure(states=states, nbhds=nbhds,
                                 relN=relN, relE=relE, preds=preds)
    return IFOMStructure(worlds=bar_worlds, leq=bar_leq, interp=interp)


# ---------------------------------------------------------------------------
# Constructive and birelational images
# ---------------------------------------------------------------------------

def hat(m: INModel) -> CNModel:
    """Worlds are pairs of a base world and one choice of neighbourhood values
    obtainable by sampling each neighbourhood at some order successor.

    Gamma returns the chosen value sets lifted to the copied worlds (a base
    member contributes all of its copies).  Extensional duplicates collapse.
    """
    _require(m, "basic", "hat")
    up = {w: sorted(successors(m.worlds, m.leq, w), key=str) for w in m.worlds}
    choices = {}
    for w in sorted(m.worlds, key=str):
        names = sorted((name for name, a in m.nbhds.items() if w in a), key=str)
        sigmas = set()
        for picks in itertools.product(up[w], repeat=len(names)):
            sigmas.add(frozenset(m.nbhds[name][pick]
                                 for name, pick in zip(names, picks)))
        choices[w] = sigmas
    worlds = frozenset((w, sigma) for w, sigmas in choices.items() for sigma in sigmas)
    preceq = frozenset((p, q) for p in worlds for q in worlds
                       if (p[0], q[0]) in m.leq)

    def lift(base_set) -> frozenset:
        return frozenset(p for p in worlds if p[0] in base_set)

    gamma = {p: frozenset(lift(b) for b in p[1]) for p in worlds}
    val = {i: lift(ext) for i, ext in m.val.items()}
    return CNModel(worlds=worlds, preceq=preceq, gamma=gamma, val=val)


def fullify(m: CNModel) -> CNModel:
    """Empty out gamma below any successor with empty gamma; preserves the
    truth of all single-modality formulas."""
    gamma = {}
    for w in m.worlds:
        if all(m.gamma.get(v, frozenset())
               for v in successors(m.worlds, m.preceq, w)):
            gamma[w] = m.gamma.get(w, frozenset())
        else:
            gamma[w] = frozenset()
    return CNModel(worlds=m.worlds, preceq=m.preceq, gamma=gamma, val=m.val)


_NB_TAG = "@nbhd"


def star(m: INModel) -> IK2Model:
    """Adjoin one world per (neighbourhood, domain world) pair; the first
    relation points to the pair, the second returns to the members."""
    _require(m, "coherent", "star")
    pairs = [( _NB_TAG, name, w) for name in sorted(m.nbhds, key=str)
             for w in sorted(m.nbhds[name], key=str)]
    clash = m.worlds & set(pairs)
    if clash:
        raise TransformError("world names collide with neighbourhood pairs",
                             sorted(clash, key=str))
    worlds = frozenset(m.worlds) | frozenset(pairs)
    leq = set(m.leq)
    for (_, name, w) in pairs:
        for (_, name2, v) in pairs:
            if name == name2 and (w, v) in m.leq:
                leq.add(((_NB_TAG, name, w), (_NB_TAG, name2, v)))
    relN = frozenset((w, (_NB_TAG, name, w)) for (_, name, w) in pairs)
    relE = frozenset(((_NB_TAG, name, w), v)
                     for (_, name, w) in pairs for v in m.nbhds[name][w])
    return IK2Model(worlds=worlds, leq=frozenset(leq),
                    relN=relN, relE=relE, val=dict(m.val))
