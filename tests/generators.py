"""Seeded random generators of models, ifom structures and formulas, for the
tests.  Each draws only from the ``random.Random`` it is given, so a seed
fixes its output (``test_generators.py`` pins the draws)."""

from imodal.folm import FOMStructure, IFOMStructure
from imodal.models import CNModel, INModel, check_inm
from imodal.orders import reflexive_transitive_closure
from imodal.search import SearchBounds, _union_below
from imodal.syntax import And, Atom, Box, Dia, FALSUM, Formula, Implies, Nabla, Or


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

