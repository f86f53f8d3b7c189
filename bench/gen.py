"""Seeded input generators for the benchmark.

Every input is drawn from a ``random.Random`` the caller seeds, and built
directly as the program's public types (formula ASTs, ``INModel``,
``CNModel``, ``IK2Model``, ``NbhdModel``, ``IFOMStructure``), so changes to
``imodal.search.random_*`` cannot change the work.  Iteration is always over
sorted or integer-indexed collections, so the same seed gives the same inputs
under every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import checkout  # noqa: F401  (puts the checkout's src first on the path)
from imodal.folm import FOMStructure, IFOMStructure
from imodal.models import CNModel, IK2Model, INModel, NbhdModel
from imodal.syntax import (FALSUM, And, Atom, BiBox, BiDia, Box, Dia, Implies,
                           Nabla, Or)

import reference as ref

_MODAL_OPS = {
    "modal": (Box, Dia),
    "nabla": (Nabla,),
    "bimodal": (lambda f: BiBox("N", f), lambda f: BiDia("N", f),
                lambda f: BiBox("E", f), lambda f: BiDia("E", f)),
}


def formula(rng, depth: int, atoms: int, dialect: str = "modal", max_nodes: int = 20):
    """A formula whose modal depth (modalities and implications) is at most
    ``depth``; a node budget keeps it small."""
    ops = _MODAL_OPS[dialect]
    budget = [max_nodes]

    def go(d):
        budget[0] -= 1
        kinds = ["atom", "atom", "falsum", "and", "or"]
        if d > 0:
            kinds += ["implies", "modal", "modal"]
        pick = rng.choice(kinds) if budget[0] > 0 else rng.choice(["atom", "falsum"])
        if pick == "atom":
            return Atom(rng.randrange(atoms)) if atoms else FALSUM
        if pick == "falsum":
            return FALSUM
        if pick == "and":
            return And(go(d), go(d))
        if pick == "or":
            return Or(go(d), go(d))
        if pick == "implies":
            return Implies(go(d - 1), go(d - 1))
        return rng.choice(ops)(go(d - 1))

    return go(depth)


def poset(rng, n: int, p: float = 0.4) -> frozenset:
    strict = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return ref.closure(range(n), strict)


def preorder(rng, n: int, p: float = 0.3) -> frozenset:
    extra = {(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p}
    return ref.closure(range(n), extra)


def upset(rng, n: int, rel, p: float = 0.4) -> frozenset:
    seeds = [w for w in range(n) if rng.random() < p]
    return frozenset(v for v in range(n) if any((w, v) in rel for w in seeds))


def subset(rng, n: int, p: float = 0.5) -> frozenset:
    return frozenset(v for v in range(n) if rng.random() < p)


def inm(rng, max_worlds: int, max_nbhds: int, max_atoms: int) -> INModel:
    return inm_sized(rng, rng.randint(1, max_worlds), rng.randint(0, max_nbhds), max_atoms)


def inm_sized(rng, n: int, k: int, atoms: int) -> INModel:
    """A random model with ``n`` worlds and ``k`` neighbourhoods."""
    leq = poset(rng, n)
    nbhds = {}
    for i in range(k):
        dom = sorted(upset(rng, n, leq))
        nbhds[f"a{i}"] = {w: subset(rng, n) for w in dom}
    val = {i: upset(rng, n, leq) for i in range(atoms)}
    return INModel(frozenset(range(n)), leq, nbhds, val)


def coherent_inm(rng, max_worlds: int, max_nbhds: int, max_atoms: int,
                 attempts: int = 40) -> INModel:
    """Rejection-sample coherent models with the reference check; fall back
    to upset values that grow along the order, which are always coherent."""
    for _ in range(attempts):
        m = inm(rng, max_worlds, max_nbhds, max_atoms)
        if all(ref.coherent(m, a) for a in m.nbhds.values()):
            return m
    n = rng.randint(1, max_worlds)
    leq = poset(rng, n)
    nbhds = {}
    for i in range(rng.randint(0, max_nbhds)):
        dom = sorted(upset(rng, n, leq))
        base = {w: upset(rng, n, leq) for w in dom}
        nbhds[f"a{i}"] = {w: frozenset().union(*(base[v] for v in dom if (v, w) in leq))
                          for w in dom}
    return INModel(frozenset(range(n)), leq, nbhds,
                   {i: upset(rng, n, leq) for i in range(max_atoms)})


def cnm(rng, max_worlds: int, max_nbhds: int, max_atoms: int) -> CNModel:
    n = rng.randint(1, max_worlds)
    rel = preorder(rng, n)
    gamma = {w: frozenset(subset(rng, n) for _ in range(rng.randint(0, max_nbhds)))
             for w in range(n)}
    return CNModel(frozenset(range(n)), rel, gamma,
                   {i: upset(rng, n, rel) for i in range(max_atoms)})


def classical(rng, max_worlds: int, max_nbhds: int, max_atoms: int) -> NbhdModel:
    n = rng.randint(1, max_worlds)
    nf = {w: frozenset(subset(rng, n) for _ in range(rng.randint(0, max_nbhds)))
          for w in range(n)}
    return NbhdModel(frozenset(range(n)), nf,
                     {i: subset(rng, n) for i in range(max_atoms)})


def ik2(rng, max_worlds: int, max_atoms: int, attempts: int = 30) -> IK2Model:
    """Each relation is rejection-sampled until it is confluent with the
    order (the empty relation always is)."""
    n = rng.randint(1, max_worlds)
    leq = poset(rng, n)

    def relation():
        for _ in range(attempts):
            rel = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.3}
            if ref.ik2_confluent(range(n), leq, rel):
                return frozenset(rel)
        return frozenset()

    relN, relE = relation(), relation()
    return IK2Model(frozenset(range(n)), leq, relN, relE,
                    {i: upset(rng, n, leq) for i in range(max_atoms)})


def ifom(rng, max_worlds: int, max_states: int, max_nbhds: int,
         max_atoms: int) -> IFOMStructure:
    """A poset of worlds with classical two-sorted structures that grow along
    the order: each world starts from the union of the structures below it."""
    n = rng.randint(1, max_worlds)
    leq = poset(rng, n)
    interp = {}
    for w in range(n):
        lows = [interp[v] for v in range(w) if (v, w) in leq]
        states = set().union(*(s.states for s in lows))
        nbhds = set().union(*(s.nbhds for s in lows))
        relN = set().union(*(s.relN for s in lows))
        relE = set().union(*(s.relE for s in lows))
        preds = {i: set().union(*(s.preds.get(i, ()) for s in lows)) for i in range(max_atoms)}
        for d in range(max_states):
            if rng.random() < 0.5:
                states.add(f"d{d}")
        if not states:
            states.add("d0")
        for a in range(max_nbhds):
            if rng.random() < 0.4:
                nbhds.add(f"n{a}")
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
        interp[w] = FOMStructure(frozenset(states), frozenset(nbhds), frozenset(relN),
                                 frozenset(relE), {i: frozenset(p) for i, p in preds.items()})
    return IFOMStructure(frozenset(range(n)), leq, interp)


def cartesian_inm(s: IFOMStructure) -> INModel:
    """The coherent Cartesian neighbourhood model of a growing structure:
    worlds are (world, state) pairs ordered by the world order with the state
    fixed, and each element ``a`` of the neighbourhood sort is a neighbourhood
    defined where the state is N-related to it, with the E-image as value."""
    worlds = frozenset((w, x) for w in s.worlds for x in s.interp[w].states)
    leq = frozenset(((w, x), (v, y)) for (w, x) in worlds for (v, y) in worlds
                    if x == y and (w, v) in s.leq)
    names = sorted({a for w in s.worlds for a in s.interp[w].nbhds})
    nbhds = {a: {(w, x): frozenset((w, y) for y in s.interp[w].states
                                   if (a, y) in s.interp[w].relE)
                 for (w, x) in worlds if (x, a) in s.interp[w].relN}
             for a in names}
    atoms = sorted({i for w in s.worlds for i in s.interp[w].preds})
    val = {i: frozenset((w, x) for (w, x) in worlds if x in s.interp[w].preds.get(i, ()))
           for i in atoms}
    return INModel(worlds, leq, nbhds, val)
