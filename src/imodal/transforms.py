"""Model-to-model constructions with their truth-preservation contracts.

The two inherently infinite constructions (coherent completion and
unravelling) are depth-truncated: the completion caps the number of copies of
maximal worlds, the unravelling caps path length.  Truncated outputs are valid
models; the lost structure only affects coherence at the frontier, which the
consumers' stabilization checks account for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .folm import FOMStructure, IFOMStructure
from .models import (CNModel, IK2Model, INModel, check_inm, leq_equivalence,
                     r_equivalence)
from .orders import order_height as _order_height
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


def order_height(m) -> int:
    rel = m.leq if hasattr(m, "leq") else m.preceq
    return _order_height(m.worlds, rel)


def default_budget(formula_depth: int, height: int) -> TruncationBudget:
    """Empirically sufficient defaults at desk scale; callers may override and
    the acceptance suite asserts stabilization rather than trusting these."""
    return TruncationBudget(coh_levels=formula_depth + 2,
                            unravel_len=max(1, 2 * formula_depth * (height + 1)))


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
    step and a neighbourhood name for a neighbourhood step."""

    worlds: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.worlds) != len(self.labels) + 1:
            raise ValueError("path must have one more world than steps")

    @property
    def first(self):
        return self.worlds[0]

    @property
    def last(self):
        return self.worlds[-1]

    @property
    def length(self) -> int:
        return len(self.labels)

    def _split(self) -> int:
        k = 0
        while k < len(self.labels) and self.labels[k] is ORDER_STEP:
            k += 1
        return k

    @property
    def is_unravelling(self) -> bool:
        k = self._split()
        return all(lab is not ORDER_STEP for lab in self.labels[k:])

    @property
    def order_part(self) -> "Path":
        k = self._split()
        return Path(self.worlds[:k + 1], self.labels[:k])

    @property
    def nbhd_part(self) -> "Path":
        k = self._split()
        return Path(self.worlds[k:], self.labels[k:])

    def step(self, label, world) -> "Path":
        return Path(self.worlds + (world,), self.labels + (label,))


def path_valid(m: INModel, p: Path) -> bool:
    for i, label in enumerate(p.labels):
        w, v = p.worlds[i], p.worlds[i + 1]
        if label is ORDER_STEP:
            if (w, v) not in m.leq:
                return False
        else:
            a = m.nbhds.get(label)
            if a is None or w not in a or v not in a[w]:
                return False
    return True


def leq_ur(m: INModel, p: Path, q: Path) -> bool:
    """The unravelling order.

    Requires equal neighbourhood-label sequences, that q's order part extend
    p's, and equal-length order paths between corresponding neighbourhood-part
    worlds.  Because the base order is reflexive and transitive, an order path
    of exact length L from x to y exists iff x = y (L = 0) or x <= y (L >= 1),
    so the witness search reduces to this closed form.
    """
    if not (p.is_unravelling and q.is_unravelling):
        raise ValueError("the unravelling order compares unravelling paths only")
    return _leq_ur(m, p, q)


def _leq_ur(m: INModel, p: Path, q: Path) -> bool:
    pn, qn = p.nbhd_part, q.nbhd_part
    if pn.labels != qn.labels:
        return False
    po, qo = p.order_part, q.order_part
    if qo.worlds[:len(po.worlds)] != po.worlds:
        return False
    extension = len(qo.worlds) - len(po.worlds)
    if extension == 0:
        return pn.worlds == qn.worlds
    return all((x, y) in m.leq for x, y in zip(pn.worlds, qn.worlds))


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
    at neighbourhood depth equal to the budget and root verdicts of formulas
    below that depth stabilize.
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
            nbhd_len = p.nbhd_part.length
            if nbhd_len == 0 and p.order_part.length < limit:
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
        by_labels.setdefault(p.nbhd_part.labels, []).append(p)
    succ = {}
    for group in by_labels.values():
        for p in group:
            succ[p] = frozenset(q for q in group if _leq_ur(m, p, q))
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
                                  if q.nbhd_part.length < limit)
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

    def up_closure(subset) -> frozenset:
        return frozenset(q for q in worlds if any((p, q) in leq for p in subset))

    nbhds = {}
    for name in sorted(m.nbhds, key=str):
        a = m.nbhds[name]
        for base in worlds:
            v, _ = base
            if v not in a:
                continue
            upper = up_closure(frozenset().union(
                *(lift(a[u]) for u in a if (v, u) in m.leq)) or frozenset())
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
# ---------------------------------------------------------------------------

def bullet(s: IFOMStructure) -> INModel:
    """Pairs (world, state) ordered by the world order with equal states; one
    neighbourhood per element of the neighbourhood sort."""
    worlds = frozenset((w, x) for w in s.worlds for x in s.interp[w].states)
    leq = frozenset(((w, x), (v, y)) for (w, x) in worlds for (v, y) in worlds
                    if (w, v) in s.leq and x == y)
    all_nbhds = sorted({a for w in s.worlds for a in s.interp[w].nbhds}, key=str)
    nbhds = {}
    for a in all_nbhds:
        fn = {}
        for (w, x) in worlds:
            iw = s.interp[w]
            if a in iw.nbhds and (x, a) in iw.relN:
                fn[(w, x)] = frozenset((w, y) for y in iw.states if (a, y) in iw.relE)
        nbhds[a] = fn
    atoms = {i for w in s.worlds for i in s.interp[w].preds}
    val = {i: frozenset((w, x) for (w, x) in worlds
                        if x in s.interp[w].preds.get(i, frozenset()))
           for i in atoms}
    return INModel(worlds=worlds, leq=leq, nbhds=nbhds, val=val)


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
