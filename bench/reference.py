"""Reference semantics for the benchmark, written independently of imodal.

Every clause is transcribed world by world from the paper's definitions,
without memoisation and without calling any imodal function: the models are
read only through their public fields (``worlds``, ``leq``, ``nbhds``, ...),
and formulas only through their AST classes.  The benchmark uses it outside
its timed phase to re-check a seeded sample of program verdicts and every
countermodel or sweep witness the program reports.

It also counts the bounded search spaces on its own:

* ``inm``: over each naturally labelled order on ``n`` worlds,
  ``sum_k C(C_n, k)`` neighbourhood choices times ``#upsets ** atoms``, where
  ``C_n = sum over upsets U of 2 ** (n * |U|)`` counts the partial functions
  with upset domain.  That is 26,426 at (3, 1, 1) and 8,642,338 at (3, 2, 1).
* ``classical``, ``cnm`` and ``ik2`` by the analogous products.

Run ``python3 bench/reference.py`` for the self-test, which compares the
reference with the program on the shipped documents and on seeded random
models of every kind, and the counts with drained enumerations.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from types import SimpleNamespace

import checkout  # noqa: F401  (puts the checkout's src first on the path)
from imodal.syntax import (And, Atom, BiBox, BiDia, Box, Dia, Falsum, Implies,
                           Nabla, Or)


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------

def up(worlds, rel, w):
    return [v for v in worlds if (w, v) in rel]


def closure(worlds, pairs) -> frozenset:
    """Reflexive-transitive closure by repeated composition (Warshall)."""
    ws = list(worlds)
    rel = {(w, w) for w in ws} | set(pairs)
    for k in ws:
        for i in ws:
            if (i, k) in rel:
                for j in ws:
                    if (k, j) in rel:
                        rel.add((i, j))
    return frozenset(rel)


def is_upset(worlds, rel, subset) -> bool:
    return all(v in subset for w in subset for v in worlds if (w, v) in rel)


def natural_orders(n: int) -> list:
    """Strict orders on 0..n-1 whose edges point up the integer order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for picks in itertools.product((False, True), repeat=len(pairs)):
        strict = {p for p, keep in zip(pairs, picks) if keep}
        if all((a, c) in strict for (a, b) in strict for (b2, c) in strict if b == b2):
            out.append(frozenset(strict) | {(i, i) for i in range(n)})
    return out


def preorders(n: int) -> list:
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for picks in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, keep in zip(pairs, picks) if keep} | {(i, i) for i in range(n)}
        if all((a, c) in rel for (a, b) in rel for (b2, c) in rel if b == b2):
            out.append(frozenset(rel))
    return out


def upsets(n: int, rel) -> list:
    ws = range(n)
    return [frozenset(s) for r in range(n + 1) for s in itertools.combinations(ws, r)
            if is_upset(ws, rel, set(s))]


# ---------------------------------------------------------------------------
# Truth, world by world
# ---------------------------------------------------------------------------

def _prop(holds, m, w, f, rel, val):
    """Atoms and connectives over an intuitionistic frame; ``None`` for a
    modal formula."""
    if isinstance(f, Atom):
        return w in val.get(f.index, ())
    if isinstance(f, Falsum):
        return False
    if isinstance(f, And):
        return holds(m, w, f.left) and holds(m, w, f.right)
    if isinstance(f, Or):
        return holds(m, w, f.left) or holds(m, w, f.right)
    if isinstance(f, Implies):
        return all(not holds(m, v, f.left) or holds(m, v, f.right)
                   for v in up(m.worlds, rel, w))
    return None


def holds_inm(m, w, f) -> bool:
    r = _prop(holds_inm, m, w, f, m.leq, m.val)
    if r is not None:
        return r
    succ = up(m.worlds, m.leq, w)
    if isinstance(f, Box):
        # some neighbourhood defined at w keeps its values inside the truth
        # set at every successor
        return any(w in a and all(holds_inm(m, u, f.sub)
                                  for v in succ if v in a for u in a[v])
                   for a in m.nbhds.values())
    if isinstance(f, Dia):
        # every neighbourhood at every successor meets the truth set
        return all(any(holds_inm(m, u, f.sub) for u in a[v])
                   for v in succ for a in m.nbhds.values() if v in a)
    raise TypeError(f"not a modal-dialect formula: {f!r}")


def holds_cnm(m, w, f) -> bool:
    r = _prop(holds_cnm, m, w, f, m.preceq, m.val)
    if r is not None:
        return r
    succ = up(m.worlds, m.preceq, w)
    if isinstance(f, (Box, Nabla)):
        return all(any(all(holds_cnm(m, u, f.sub) for u in a) for a in m.gamma.get(v, ()))
                   for v in succ)
    if isinstance(f, Dia):
        return all(any(holds_cnm(m, u, f.sub) for u in a)
                   for v in succ for a in m.gamma.get(v, ()))
    raise TypeError(f"not a box/diamond/nabla formula: {f!r}")


def holds_ik2(m, w, f) -> bool:
    r = _prop(holds_ik2, m, w, f, m.leq, m.val)
    if r is not None:
        return r
    rel = m.relN if getattr(f, "index", None) == "N" else m.relE
    if isinstance(f, BiBox):
        return all(holds_ik2(m, z, f.sub)
                   for y in up(m.worlds, m.leq, w) for z in m.worlds if (y, z) in rel)
    if isinstance(f, BiDia):
        return any(holds_ik2(m, y, f.sub) for y in m.worlds if (w, y) in rel)
    raise TypeError(f"not a bimodal formula: {f!r}")


def holds_classical(m, w, f) -> bool:
    if isinstance(f, Implies):
        return not holds_classical(m, w, f.left) or holds_classical(m, w, f.right)
    r = _prop(holds_classical, m, w, f, frozenset(), m.val)
    if r is not None:
        return r
    fam = m.nf.get(w, ())
    if isinstance(f, Box):
        return any(all(holds_classical(m, u, f.sub) for u in a) for a in fam)
    if isinstance(f, Dia):
        return all(any(holds_classical(m, u, f.sub) for u in a) for a in fam)
    raise TypeError(f"not a modal-dialect formula: {f!r}")


def holds_ifom(s, point, f) -> bool:
    """Direct clauses on pairs (world, state) of a growing structure."""
    w, d = point
    m = s.interp[w]
    succ = up(s.worlds, s.leq, w)
    if isinstance(f, Atom):
        return d in m.preds.get(f.index, ())
    if isinstance(f, Falsum):
        return False
    if isinstance(f, And):
        return holds_ifom(s, point, f.left) and holds_ifom(s, point, f.right)
    if isinstance(f, Or):
        return holds_ifom(s, point, f.left) or holds_ifom(s, point, f.right)
    if isinstance(f, Implies):
        return all(not holds_ifom(s, (v, d), f.left) or holds_ifom(s, (v, d), f.right)
                   for v in succ)
    if isinstance(f, Box):
        return any((d, a) in m.relN
                   and all(holds_ifom(s, (v, x), f.sub)
                           for v in succ for x in s.interp[v].states
                           if (a, x) in s.interp[v].relE)
                   for a in m.nbhds)
    if isinstance(f, Dia):
        return all(any((a, y) in s.interp[v].relE and holds_ifom(s, (v, y), f.sub)
                       for y in s.interp[v].states)
                   for v in succ for a in s.interp[v].nbhds
                   if (d, a) in s.interp[v].relN)
    raise TypeError(f"not a modal-dialect formula: {f!r}")


HOLDS = {"inm": holds_inm, "cnm": holds_cnm, "ik2": holds_ik2,
         "classical": holds_classical, "ifom": holds_ifom}


def points(kind, m) -> list:
    if kind == "ifom":
        return [(w, x) for w in m.worlds for x in m.interp[w].states]
    return list(m.worlds)


def truth_set(kind, m, f) -> frozenset:
    holds = HOLDS[kind]
    return frozenset(p for p in points(kind, m) if holds(m, p, f))


def refutes(kind, m, point, context, conclusion) -> bool:
    """The point satisfies every context formula and falsifies the conclusion."""
    holds = HOLDS[kind]
    return all(holds(m, point, g) for g in context) and not holds(m, point, conclusion)


# ---------------------------------------------------------------------------
# Syntax helpers
# ---------------------------------------------------------------------------

def translate(f):
    """Box to <N>[E], diamond to [N]<E>, homomorphically elsewhere."""
    if isinstance(f, (Atom, Falsum)):
        return f
    if isinstance(f, (And, Or, Implies)):
        return type(f)(translate(f.left), translate(f.right))
    if isinstance(f, Box):
        return BiDia("N", BiBox("E", translate(f.sub)))
    if isinstance(f, Dia):
        return BiBox("N", BiDia("E", translate(f.sub)))
    raise TypeError(f"not a modal-dialect formula: {f!r}")


def dag_size(f, seen=None) -> int:
    """Distinct subformulas: the nodes a memoised evaluator visits."""
    seen = set() if seen is None else seen
    if f in seen:
        return 0
    seen.add(f)
    if isinstance(f, (Atom, Falsum)):
        return 1
    if isinstance(f, (And, Or, Implies)):
        return 1 + dag_size(f.left, seen) + dag_size(f.right, seen)
    return 1 + dag_size(f.sub, seen)


def modal_depth(f) -> int:
    """Nesting of modalities and implications; ``F -> F`` costs nothing."""
    if isinstance(f, Implies) and isinstance(f.left, Falsum) and isinstance(f.right, Falsum):
        return 0
    if isinstance(f, (Atom, Falsum)):
        return 0
    if isinstance(f, (And, Or)):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, Implies):
        return 1 + max(modal_depth(f.left), modal_depth(f.right))
    return 1 + modal_depth(f.sub)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

def coherent(m, a) -> bool:
    """Conditions N1 and N2 for one neighbourhood ``a`` (a dict)."""
    for w in a:
        succ = up(m.worlds, m.leq, w)
        for wp in succ:
            if wp in a and not all(any((v, vp) in m.leq for vp in a[wp]) for v in a[w]):
                return False
        for v in a[w]:
            for vp in up(m.worlds, m.leq, v):
                if not any(wp in a and vp in a[wp] for wp in succ):
                    return False
    return True


def ik2_confluent(worlds, leq, rel) -> bool:
    """Forward and backward confluence of one relation with the order."""
    for (w, u) in rel:
        for v in up(worlds, leq, w):
            if not any((v, x) in rel and (u, x) in leq for x in worlds):
                return False
        for x in up(worlds, leq, u):
            if not any((w, v) in leq and (v, x) in rel for v in worlds):
                return False
    return True


def is_isomorphism(m, m2, alpha, nu) -> bool:
    """The world map ``alpha`` and neighbourhood map ``nu`` are bijections
    that preserve and reflect the order, domains, values and valuation."""
    if set(alpha) != set(m.worlds) or len(set(alpha.values())) != len(alpha) \
            or set(alpha.values()) != set(m2.worlds):
        return False
    if set(nu) != set(m.nbhds) or set(nu.values()) != set(m2.nbhds) \
            or len(set(nu.values())) != len(nu):
        return False
    for w in m.worlds:
        for v in m.worlds:
            if ((w, v) in m.leq) != ((alpha[w], alpha[v]) in m2.leq):
                return False
    for name, a in m.nbhds.items():
        b = m2.nbhds[nu[name]]
        if {alpha[w] for w in a} != set(b):
            return False
        for w in a:
            if {alpha[v] for v in a[w]} != set(b[alpha[w]]):
                return False
    for i in set(m.val) | set(m2.val):
        if {alpha[w] for w in m.val.get(i, ())} != set(m2.val.get(i, ())):
            return False
    return True


# ---------------------------------------------------------------------------
# Counts of the bounded spaces
# ---------------------------------------------------------------------------

def _partial_functions(n, rel):
    """Candidate neighbourhoods: an upset domain and any value per point."""
    for dom in upsets(n, rel):
        dom = sorted(dom)
        for values in itertools.product(range(1 << n), repeat=len(dom)):
            yield {w: frozenset(v for v in range(n) if values[k] >> v & 1)
                   for k, w in enumerate(dom)}


def count_inm(max_worlds, max_nbhds, max_atoms, require_coherent=False) -> int:
    total = 0
    for n in range(1, max_worlds + 1):
        for rel in natural_orders(n):
            ups = len(upsets(n, rel))
            if require_coherent:
                frame = SimpleNamespace(worlds=range(n), leq=rel)
                c = sum(1 for a in _partial_functions(n, rel) if coherent(frame, a))
            else:
                c = sum(2 ** (n * len(u)) for u in upsets(n, rel))
            total += sum(math.comb(c, k) for k in range(max_nbhds + 1)) * ups ** max_atoms
    return total


def count_classical(max_worlds, max_pool, max_atoms) -> int:
    """A pool of at most ``max_pool`` distinct subsets, then any sub-family
    of the pool at each world."""
    total = 0
    for n in range(1, max_worlds + 1):
        subsets = 1 << n
        total += sum(math.comb(subsets, k) * (1 << k) ** n
                     for k in range(max_pool + 1)) * subsets ** max_atoms
    return total


def count_cnm(max_worlds, max_nbhds, max_atoms) -> int:
    total = 0
    for n in range(1, max_worlds + 1):
        per_world = sum(math.comb(1 << n, r) for r in range(max_nbhds + 1))
        for rel in preorders(n):
            total += per_world ** n * len(upsets(n, rel)) ** max_atoms
    return total


def count_ik2(max_worlds, max_atoms) -> int:
    total = 0
    for n in range(1, max_worlds + 1):
        pairs = [(i, j) for i in range(n) for j in range(n)]
        for rel in natural_orders(n):
            good = sum(1 for picks in itertools.product((False, True), repeat=len(pairs))
                       if ik2_confluent(range(n), rel,
                                        {p for p, keep in zip(pairs, picks) if keep}))
            total += good * good * len(upsets(n, rel)) ** max_atoms
    return total


def count_space(kind, bounds):
    """Size of the bounded space, or ``None`` for kinds not counted here."""
    b = bounds
    if kind == "inm" and not b.require_cartesian:
        return count_inm(b.max_worlds, b.max_nbhds, b.max_atoms, b.require_coherent)
    if kind == "classical":
        return count_classical(b.max_worlds, b.max_nbhds, b.max_atoms)
    if kind == "cnm" and not b.require_full:
        return count_cnm(b.max_worlds, b.max_nbhds, b.max_atoms)
    if kind == "ik2":
        return count_ik2(b.max_worlds, b.max_atoms)
    return None


# ---------------------------------------------------------------------------
# Documents, read without imodal.docio
# ---------------------------------------------------------------------------

def model_from_json(doc):
    """Build the program's model types from a model document."""
    from imodal.folm import FOMStructure, IFOMStructure
    from imodal.models import CNModel, IK2Model, INModel, NbhdModel
    kind = doc["kind"]
    worlds = frozenset(doc["worlds"])
    val = {int(i): frozenset(ws) for i, ws in doc.get("valuation", {}).items()}

    def rel(key):
        return closure(worlds, {tuple(p) for p in doc.get(key, [])})

    def family(w):
        return frozenset(frozenset(a) for a in doc.get("gamma", {}).get(w, []))

    if kind == "inm":
        nbhds = {name: {w: frozenset(v) for w, v in fn.items()}
                 for name, fn in doc.get("neighbourhoods", {}).items()}
        return kind, INModel(worlds, rel("order"), nbhds, val)
    if kind == "cnm":
        return kind, CNModel(worlds, rel("preorder"), {w: family(w) for w in worlds}, val)
    if kind == "classical":
        return kind, NbhdModel(worlds, {w: family(w) for w in worlds}, val)
    if kind == "ik2":
        return kind, IK2Model(worlds, rel("order"),
                              frozenset(map(tuple, doc.get("relN", []))),
                              frozenset(map(tuple, doc.get("relE", []))), val)
    interp = {}
    for w in worlds:
        r = doc["interpretation"][w]
        interp[w] = FOMStructure(frozenset(r["states"]), frozenset(r.get("nbhds", [])),
                                 frozenset(map(tuple, r.get("N", []))),
                                 frozenset(map(tuple, r.get("E", []))),
                                 {int(i): frozenset(xs) for i, xs in r.get("preds", {}).items()})
    return kind, IFOMStructure(worlds, rel("order"), interp)


def model_to_json(kind, m) -> dict:
    """Document for an ``inm``, ``cnm`` or ``ifom`` model; worlds are
    written as strings."""
    doc = {"kind": kind, "worlds": sorted(str(w) for w in m.worlds)}
    rel = m.preceq if kind == "cnm" else m.leq
    doc["preorder" if kind == "cnm" else "order"] = sorted(
        [str(a), str(b)] for (a, b) in rel if a != b)
    if kind == "ifom":
        doc["interpretation"] = {
            str(w): {"states": sorted(s.states), "nbhds": sorted(s.nbhds),
                     "N": sorted(map(list, s.relN)), "E": sorted(map(list, s.relE)),
                     "preds": {str(i): sorted(xs) for i, xs in s.preds.items()}}
            for w, s in m.interp.items()}
        return doc
    if kind == "inm":
        doc["neighbourhoods"] = {name: {str(w): sorted(str(v) for v in value)
                                        for w, value in fn.items()}
                                 for name, fn in m.nbhds.items()}
    else:
        doc["gamma"] = {str(w): sorted(sorted(str(v) for v in a) for a in m.gamma.get(w, ()))
                        for w in m.worlds}
    doc["valuation"] = {str(i): sorted(str(w) for w in ext) for i, ext in m.val.items()}
    return doc


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def self_test(seed: int = 1) -> list:
    """Compare the reference with the program; returns a list of problems."""
    import random

    import gen
    from imodal import folm, models, search

    problems = []
    program = {
        "inm": lambda m, p, f: models.eval_inm(m, p, f),
        "cnm": lambda m, p, f: models.eval_cnm(m, p, f),
        "ik2": lambda m, p, f: models.eval_ik2(m, p, f),
        "classical": lambda m, p, f: models.eval_classical(m, p, f),
        "ifom": lambda m, p, f: folm.eval_modal_ifom(m, p[0], p[1], f),
    }

    def compare(kind, m, formulas, where):
        for f in formulas:
            for p in points(kind, m):
                if HOLDS[kind](m, p, f) != program[kind](m, p, f):
                    problems.append(f"{where}: {kind} disagrees at {p!r}")
                    return

    rng = random.Random(seed)
    data = os.path.join(checkout.ROOT, "src", "imodal", "data")
    shipped = 0
    for name in sorted(os.listdir(data)):
        with open(os.path.join(data, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if "kind" not in doc:
            continue
        kind, m = model_from_json(doc)
        dialect = {"ik2": "bimodal"}.get(kind, "modal")
        formulas = [gen.formula(rng, 3, 2, dialect) for _ in range(40)]
        if kind == "cnm":
            formulas += [gen.formula(rng, 3, 2, "nabla") for _ in range(20)]
        compare(kind, m, formulas, name)
        shipped += 1
    if shipped < 6:
        problems.append(f"only {shipped} shipped model documents found")

    makers = {
        "inm": lambda: gen.inm(rng, 4, 3, 2),
        "cnm": lambda: gen.cnm(rng, 3, 2, 2),
        "ik2": lambda: gen.ik2(rng, 3, 2),
        "classical": lambda: gen.classical(rng, 3, 3, 2),
        "ifom": lambda: gen.ifom(rng, 3, 2, 2, 2),
    }
    for kind, make in makers.items():
        dialect = {"ik2": "bimodal"}.get(kind, "modal")
        for i in range(40):
            m = make()
            formulas = [gen.formula(rng, 3, 2, dialect) for _ in range(4)]
            if kind == "cnm":
                formulas.append(gen.formula(rng, 3, 2, "nabla"))
            compare(kind, m, formulas, f"random {kind} #{i}")
            if kind == "inm" and all(coherent(m, a) for a in m.nbhds.values()) \
                    != models.check_inm(m, "coherent").ok:
                problems.append(f"random inm #{i}: coherence verdicts differ")
            if kind == "ik2" and models.check_ik2_frame(m).witnesses:
                problems.append(f"random ik2 #{i}: generator made a non-confluent frame")

    bounds = [("inm", search.SearchBounds(3, 1, 1)),
              ("inm", search.SearchBounds(3, 1, 1, require_coherent=True)),
              ("inm", search.SearchBounds(2, 2, 1)),
              ("classical", search.SearchBounds(2, 2, 1)),
              ("cnm", search.SearchBounds(2, 1, 1)),
              ("ik2", search.SearchBounds(2, 0, 1))]
    for kind, b in bounds:
        drained = sum(1 for _ in search.enumerate_models(kind, b))
        if drained != count_space(kind, b):
            problems.append(f"{kind} {b}: enumeration gives {drained}, "
                            f"the reference count {count_space(kind, b)}")
    for b, expected in (((3, 1, 1), 26426), ((3, 2, 1), 8642338)):
        if count_inm(*b) != expected:
            problems.append(f"inm count at {b} is {count_inm(*b)}, not {expected}")
    return problems


def main() -> int:
    problems = self_test()
    for p in problems:
        print("FAIL", p)
    print("reference self-test:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
