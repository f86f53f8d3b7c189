"""The model kinds with their evaluators and structural checkers: classical
neighbourhood models, intuitionistic neighbourhood models with partial-function
neighbourhoods, constructive neighbourhood models, birelational bimodal
models and intuitionistic first-order structures, plus the coherence /
Cartesian / fullness / frame-condition checks and isomorphism search.

Every kind is intuitionistic at its base: one shared core (``_truth_set``)
evaluates atoms, the connectives and implication along the kind's order (the
identity for classical models, which makes implication material), and each
kind supplies only its modal clauses.  Truth sets are int bitmasks over the
points of a model numbered in label order (``sorted(points, key=str)``), so
the connectives are bitwise operations, and implication holds at the points
whose up-set mask misses ``left & ~right``.  ``clauses_<kind>(m)`` returns
``(points, up, val, modal)``: ``points`` in label order, ``up`` the up-set
mask of each point, ``val`` the mask of each atom index, and ``modal(f, t)``
decides a modal node ``f`` whose body holds exactly on the mask ``t``,
returning ``(exists, found)``.  An existential clause (``exists`` true) holds
exactly at the point indices that key ``found``, each mapped to its witness;
a universal one fails exactly at the points whose up-set meets those keys,
each mapped to what refutes the clause there.  Named witnesses (neighbourhood
names, worlds) are the least by label; the unnamed neighbourhoods of
classical and constructive models map to ``None``.  The points of a model
are its worlds, except that the points of a first-order structure are its
(world, state) pairs: its clauses are those of its neighbourhood-model image
``bullet``, whose worlds are exactly those pairs.  ``eval --trace`` reads
these clauses for every kind, and search re-checks its hits with them; the
search itself evaluates many models at once through each kind's batch
clause ``batch_<kind>`` and ``_batch_truth_set``, the same core over one
int per point with one bit per model.  Truth sets are computed
bottom-up with a memo keyed on the (hash-consed) subformulas, so repeated
subformulas cost nothing; ``truth_set_<kind>`` turns the mask into a
frozenset of points, and a memo that a caller shares across calls on one
model also keeps that model's clauses, so they are built once.  Models are
immutable after construction; validation never repairs, it reports
witnesses.  ``KINDS`` at the end of the module holds, per kind, the model
class, dialects, evaluator, clauses, batch clause, validator and check
levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import or_
from typing import Callable, Mapping

from .folm import IFOMStructure, eval_modal_ifom, validate_ifom
from .orders import (equivalence_classes, is_partial_order, is_preorder,
                     is_upward_closed, successors)
from .syntax import (Atom, And, BiBox, BiDia, Box, Dia, Falsum, Formula,
                     Implies, Nabla, Or)


class ModelError(ValueError):
    pass


@dataclass
class CheckReport:
    """Machine-readable checker outcome; violations are data, not errors."""

    check: str
    witnesses: list = field(default_factory=list)

    @property
    def status(self) -> str:
        return "pass" if not self.witnesses else "fail"

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def to_json(self) -> dict:
        return {"check": self.check, "status": self.status,
                "witnesses": [list(map(str, w)) for w in self.witnesses]}


# ---------------------------------------------------------------------------
# Model kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NbhdModel:
    worlds: frozenset
    nf: Mapping  # world -> frozenset of frozensets of worlds
    val: Mapping  # atom index -> frozenset of worlds


@dataclass(frozen=True)
class INModel:
    """Poset plus a set of named partial-function neighbourhoods.

    ``nbhds`` maps a neighbourhood name to a finite map from worlds to value
    sets; the key set of that map is the neighbourhood's domain and must be an
    upset.  Names carry identity: two extensionally equal neighbourhoods may
    coexist under different names.
    """

    worlds: frozenset
    leq: frozenset
    nbhds: Mapping  # name -> {world: frozenset of worlds}
    val: Mapping


@dataclass(frozen=True)
class CNModel:
    worlds: frozenset
    preceq: frozenset  # reflexive and transitive; antisymmetry not required
    gamma: Mapping     # world -> frozenset of frozensets of worlds
    val: Mapping


@dataclass(frozen=True)
class IK2Model:
    worlds: frozenset
    leq: frozenset
    relN: frozenset
    relE: frozenset
    val: Mapping


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _valuation_violations(worlds, rel, val) -> list:
    out = []
    for i, ext in val.items():
        if not ext <= worlds:
            out.append(("valuation-out-of-domain", i))
        elif not is_upward_closed(worlds, rel, ext):
            out.append(("valuation-not-an-upset", i))
    return out


def validate_nbhd(m: NbhdModel) -> list:
    out = []
    for w, fam in m.nf.items():
        if w not in m.worlds:
            out.append(("nf-unknown-world", w))
        for a in fam:
            if not a <= m.worlds:
                out.append(("nf-value-out-of-domain", w, tuple(sorted(a - m.worlds, key=str))))
    return out + _valuation_violations(m.worlds, frozenset(), m.val)  # no order


def validate_inm(m: INModel) -> list:
    """Type invariants: partial order, upset domains, upset valuation."""
    out = []
    if not is_partial_order(m.worlds, m.leq):
        out.append(("not-a-partial-order",))
        return out
    for name, a in m.nbhds.items():
        dom = frozenset(a)
        if not dom <= m.worlds:
            out.append(("domain-unknown-world", name))
            continue
        if not is_upward_closed(m.worlds, m.leq, dom):
            out.append(("domain-not-an-upset", name))
        for w, value in a.items():
            if not value <= m.worlds:
                out.append(("value-out-of-domain", name, w))
    return out + _valuation_violations(m.worlds, m.leq, m.val)


def validate_cnm(m: CNModel) -> list:
    out = []
    if not is_preorder(m.worlds, m.preceq):
        out.append(("not-a-preorder",))
        return out
    for w, fam in m.gamma.items():
        if w not in m.worlds:
            out.append(("gamma-unknown-world", w))
        for a in fam:
            if not a <= m.worlds:
                out.append(("gamma-value-out-of-domain", w))
    return out + _valuation_violations(m.worlds, m.preceq, m.val)


def validate_ik2(m: IK2Model) -> list:
    out = []
    if not is_partial_order(m.worlds, m.leq):
        out.append(("not-a-partial-order",))
        return out
    for rel, tag in ((m.relN, "relN"), (m.relE, "relE")):
        for (a, b) in rel:
            if a not in m.worlds or b not in m.worlds:
                out.append((f"{tag}-unknown-world", a, b))
    out.extend(_valuation_violations(m.worlds, m.leq, m.val))
    out.extend(check_ik2_frame(m).witnesses)
    return out


# ---------------------------------------------------------------------------
# Evaluation (truth sets)
# ---------------------------------------------------------------------------

def _numbered(points):
    """The points in label order, and the bit of each."""
    pts = sorted(points, key=str)
    return pts, {p: 1 << i for i, p in enumerate(pts)}


def _mask(bit, points) -> int:
    """The mask of the set ``points``; what is not a numbered point is left out."""
    return sum(map(bit.get, points, repeat(0)))


def _bits(indices) -> int:
    """The mask with the bits of the given distinct point indices set."""
    return sum(map((1).__lshift__, indices))


def _ups(pts, bit, rel) -> list:
    """The up-set mask of each point along ``rel``."""
    up = dict.fromkeys(pts, 0)
    for a, b in rel:
        if a in up:
            up[a] |= bit.get(b, 0)
    return list(up.values())


def _valuation(bit, val) -> dict:
    return {i: _mask(bit, ext) for i, ext in val.items()}


def _avoiding(up, bad: int) -> int:
    """The points none of whose successors lie in ``bad``."""
    out, bit = 0, 1
    for u in up:
        if not u & bad:
            out |= bit
        bit <<= 1
    return out


def _truth_set(up, val, modal, phi: Formula, memo: dict) -> int:
    """The intuitionistic core that every kind shares: atoms, falsum, the
    connectives, and implication along the order given by ``up`` (the
    up-set mask of each point).  ``modal(f, t)`` is the kind's clause for a
    modal node ``f`` whose body has the truth set ``t``; the kinds differ
    only in that function.  Truth sets are masks over the numbered points."""
    result = memo.get(phi)
    if result is not None:
        return result
    kind = type(phi)
    if kind is Atom:
        result = val.get(phi.index, 0)
    elif kind is Falsum:
        result = 0
    elif kind is And or kind is Or or kind is Implies:
        x = _truth_set(up, val, modal, phi.left, memo)
        y = _truth_set(up, val, modal, phi.right, memo)
        if kind is And:
            result = x & y
        elif kind is Or:
            result = x | y
        else:
            result = _avoiding(up, x & ~y)
    else:
        exists, found = modal(phi, _truth_set(up, val, modal, phi.sub, memo))
        result = _bits(found) if exists else _avoiding(up, _bits(found))
    memo[phi] = result
    return result


def _members(bit, pts, families) -> list:
    """``(index, mask)`` for each set in the family of each point."""
    return [(i, _mask(bit, a)) for i, w in enumerate(pts) for a in families.get(w, ())]


def clauses_classical(m: NbhdModel):
    pts, bit = _numbered(m.worlds)
    members = _members(bit, pts, m.nf)

    def modal(f, t):
        if isinstance(f, Box):
            return True, {w: None for w, a in members if not a & ~t}
        if isinstance(f, Dia):
            return False, {w: None for w, a in members if not a & t}
        raise TypeError(f"not a modal-dialect formula: {f!r}")

    # every world sees only itself, so implication is material
    return pts, list(bit.values()), _valuation(bit, m.val), modal


def clauses_inm(m: INModel):
    pts, bit = _numbered(m.worlds)
    index = {p: i for i, p in enumerate(pts)}
    up = _ups(pts, bit, m.leq)
    # in reverse label order, so that the least name is the witness
    named = [(name, [(index[w], _mask(bit, value)) for w, value in a.items() if w in index])
             for name, a in sorted(m.nbhds.items(), key=lambda kv: str(kv[0]), reverse=True)]

    def modal(f, t):
        if isinstance(f, Box):
            # one neighbourhood whose values stay inside t at all successors
            found = {}
            for name, values in named:
                leaving = _bits(v for v, value in values if value & ~t)
                found.update((w, name) for w, _ in values if not up[w] & leaving)
            return True, found
        if isinstance(f, Dia):
            # fails wherever some successor has a neighbourhood missing t
            return False, {v: name for name, values in named
                           for v, value in values if not value & t}
        raise TypeError(f"not a modal-dialect formula: {f!r}")

    return pts, up, _valuation(bit, m.val), modal


def clauses_cnm(m: CNModel):
    """Constructive clauses; nabla is evaluated by the box clause."""
    pts, bit = _numbered(m.worlds)
    members = _members(bit, pts, m.gamma)

    def modal(f, t):
        if isinstance(f, (Box, Nabla)):
            inside = {w for w, a in members if not a & ~t}
            return False, {w: None for w in range(len(pts)) if w not in inside}
        if isinstance(f, Dia):
            return False, {w: None for w, a in members if not a & t}
        raise TypeError(f"not a box/diamond/nabla formula: {f!r}")

    return pts, _ups(pts, bit, m.preceq), _valuation(bit, m.val), modal


def clauses_ik2(m: IK2Model):
    pts, bit = _numbered(m.worlds)
    index = {p: i for i, p in enumerate(pts)}
    # (from, to) index pairs in reverse order of their targets, so that the
    # least target is the witness
    rels = {j: sorted(((index[a], index[b]) for a, b in rel if a in index and b in index),
                      key=lambda pair: pair[1], reverse=True)
            for j, rel in (("N", m.relN), ("E", m.relE))}

    def modal(f, t):
        if isinstance(f, BiBox):
            # fails wherever some successor has an R_j-successor outside t
            return False, {y: pts[z] for y, z in rels[f.index] if not t >> z & 1}
        if isinstance(f, BiDia):
            return True, {w: pts[y] for w, y in rels[f.index] if t >> y & 1}
        raise TypeError(f"not a bimodal formula: {f!r}")

    return pts, _ups(pts, bit, m.leq), _valuation(bit, m.val), modal


def bullet(s: IFOMStructure) -> INModel:
    """Pairs (world, state) ordered by the world order with equal states; one
    neighbourhood per element of the neighbourhood sort.  Truth at a pair of
    ``s`` is truth at the same pair of the image."""
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


def clauses_ifom(s: IFOMStructure):
    """The clauses of ``bullet(s)``, whose worlds are the points of ``s``."""
    return clauses_inm(bullet(s))


def _evaluators(clauses):
    def truth_set(m, phi: Formula, memo: dict = None) -> frozenset:
        """The worlds of ``m`` where ``phi`` holds; a ``memo`` may be shared
        by calls on the same model, and then also keeps the model's clauses."""
        if memo is None:
            memo = {}
        kept = memo.get(clauses)
        if kept is None:
            kept = memo[clauses] = clauses(m)
        points, up, val, modal = kept
        t = _truth_set(up, val, modal, phi, memo)
        return frozenset(p for i, p in enumerate(points) if t >> i & 1)

    def holds(m, w, phi: Formula) -> bool:
        """Whether ``phi`` holds at world ``w`` of ``m``."""
        if w not in m.worlds:
            raise ModelError(f"unknown world {w!r}")
        points, up, val, modal = clauses(m)
        return bool(_truth_set(up, val, modal, phi, {}) >> points.index(w) & 1)
    return truth_set, holds


truth_set_classical, eval_classical = _evaluators(clauses_classical)
truth_set_inm, eval_inm = _evaluators(clauses_inm)
truth_set_cnm, eval_cnm = _evaluators(clauses_cnm)
truth_set_ik2, eval_ik2 = _evaluators(clauses_ik2)


# ---------------------------------------------------------------------------
# Batch evaluation (bit-sliced)
# ---------------------------------------------------------------------------
#
# A batch is many models of one kind on the same points and order, one bit
# per model: a truth value is a list of one int per point, whose bit b says
# whether the formula holds there in model b, and ``full`` has every model's
# bit.  What varies between the models is given as predicates: an int per
# fact of a frame, with the bit of each model where the fact holds, keyed by
# the fact.  ``batch_<kind>(preds, up, full)`` is the kind's modal clause
# over the points whose up-sets (lists of point indices) ``up`` gives, in
# the shape of ``clauses_<kind>``'s: ``modal(f, t)`` returns ``(exists,
# found)``, with ``found`` one int per point.  The single-model clauses above
# stay the reference that search re-checks its hits with.

def _avoiding_batch(up, full: int, bad) -> list:
    """``_avoiding`` over a batch: per point, the models where no point of its
    up-set (a list of point indices, the point itself among them) is bad."""
    return [full ^ reduce(or_, map(bad.__getitem__, ups)) for ups in up]


def _batch_truth_set(up, atoms, full, modal, phi: Formula, memo: dict) -> list:
    """``_truth_set`` over a batch: ``up`` lists the up-set of each point,
    ``atoms`` maps an atom index to its truth value, and implication and the
    universal clauses hold on the models where no successor is in the way."""
    result = memo.get(phi)
    if result is not None:
        return result
    kind = type(phi)
    if kind is Atom:
        result = atoms.get(phi.index) or [0] * len(up)
    elif kind is Falsum:
        result = [0] * len(up)
    elif kind is And or kind is Or or kind is Implies:
        x = _batch_truth_set(up, atoms, full, modal, phi.left, memo)
        y = _batch_truth_set(up, atoms, full, modal, phi.right, memo)
        if kind is And:
            result = [a & b for a, b in zip(x, y)]
        elif kind is Or:
            result = [a | b for a, b in zip(x, y)]
        else:
            result = _avoiding_batch(up, full, [a & (full ^ b) for a, b in zip(x, y)])
    else:
        exists, found = modal(phi, _batch_truth_set(up, atoms, full, modal, phi.sub, memo))
        result = found if exists else _avoiding_batch(up, full, found)
    memo[phi] = result
    return result


def _inside(preds, t, n: int) -> list:
    """Per point ``w``, the models where some set ``s`` of its family (the
    keys ``(w, s)`` of ``preds``) lies inside ``t``; with the complement of
    ``t``, where some set misses ``t``."""
    out = [0] * n
    for (w, s), m in preds.items():
        for u in s:
            m &= t[u]
        out[w] |= m
    return out


def batch_cnm(preds, up, full: int):
    """Keys ``(w, s)``: the set ``s`` is in gamma at ``w``.  Also the batch of
    the classical kind, whose keys say that ``s`` is a neighbourhood of
    ``w``: on the identity order, the only one a classical model has, the
    universal box here holds where the classical, existential box does."""
    n = len(up)

    def modal(f, t):
        if isinstance(f, (Box, Nabla)):
            return False, [full ^ x for x in _inside(preds, t, n)]
        if isinstance(f, Dia):
            return False, _inside(preds, [full ^ x for x in t], n)
        raise TypeError(f"not a box/diamond/nabla formula: {f!r}")
    return modal


def batch_inm(preds, up, full: int):
    """Keys ``(a, w)``: ``w`` is in the domain of neighbourhood ``a``;
    ``(a, w, u)``: ``u`` is in the value of ``a`` at ``w``."""
    n = len(up)
    slots: dict = {}
    for key, m in preds.items():
        dom, values = slots.setdefault(key[0], ([0] * n, []))
        if len(key) == 2:
            dom[key[1]] = m
        else:
            values.append((key[1], key[2], m))

    def modal(f, t):
        found = [0] * n
        if isinstance(f, Box):
            # one neighbourhood whose values stay inside t at all successors
            out = [full ^ x for x in t]
            for dom, values in slots.values():
                miss = [0] * n
                for v, u, m in values:
                    miss[v] |= m & out[u]
                for w, kept in enumerate(_avoiding_batch(up, full, miss)):
                    found[w] |= dom[w] & kept
            return True, found
        if isinstance(f, Dia):
            # fails wherever some successor has a neighbourhood missing t
            for dom, values in slots.values():
                meets = [0] * n
                for v, u, m in values:
                    meets[v] |= m & t[u]
                for v in range(n):
                    found[v] |= dom[v] & (full ^ meets[v])
            return False, found
        raise TypeError(f"not a modal-dialect formula: {f!r}")
    return modal


def batch_ik2(preds, up, full: int):
    """Keys ``(j, y, z)``: ``(y, z)`` is in the relation ``R_j``."""
    rels: dict = {"N": [], "E": []}
    for (j, y, z), m in preds.items():
        rels[j].append((y, z, m))
    n = len(up)

    def modal(f, t):
        found = [0] * n
        if isinstance(f, BiBox):
            # fails wherever some successor has an R_j-successor outside t
            out = [full ^ x for x in t]
            for y, z, m in rels[f.index]:
                found[y] |= m & out[z]
            return False, found
        if isinstance(f, BiDia):
            for w, y, m in rels[f.index]:
                found[w] |= m & t[y]
            return True, found
        raise TypeError(f"not a bimodal formula: {f!r}")
    return modal


# ---------------------------------------------------------------------------
# Relational structure of an INModel
# ---------------------------------------------------------------------------

def nbhd_relation(m: INModel) -> frozenset:
    """w R v iff v lies in some neighbourhood value at w."""
    return frozenset((w, v) for a in m.nbhds.values()
                     for w, value in a.items() for v in value)


def r_equivalence(m: INModel):
    return equivalence_classes(m.worlds, nbhd_relation(m))


def leq_equivalence(m: INModel):
    return equivalence_classes(m.worlds, m.leq)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def check_inm(m: INModel, level: str = "basic") -> CheckReport:
    """Check an INModel at one of the levels ``basic``, ``coherent``,
    ``cartesian``; every violation is reported as a witness tuple."""
    if level not in ("basic", "coherent", "cartesian"):
        raise ValueError(f"unknown check level {level!r}")
    basic = validate_inm(m)
    if basic or level == "basic":
        return CheckReport(f"inm-{level}", basic)
    if level == "coherent":
        return CheckReport("inm-coherent", _coherence_violations(m))
    return CheckReport("inm-cartesian", _cartesian_violations(m))


def _coherence_violations(m: INModel) -> list:
    out = []
    for name in sorted(m.nbhds, key=str):
        a = m.nbhds[name]
        for w in a:
            for wp in successors(m.worlds, m.leq, w):
                if wp not in a:
                    continue
                # N1: every member of a(w) has a >=-successor in a(w')
                for v in a[w]:
                    if not any((v, vp) in m.leq for vp in a[wp]):
                        out.append(("N1", name, w, wp, v))
            # N2: every up-move of a member is matched at some successor
            for v in a[w]:
                for vp in successors(m.worlds, m.leq, v):
                    if not any(wp in a and vp in a[wp]
                               for wp in successors(m.worlds, m.leq, w)):
                        out.append(("N2", name, w, v, vp))
    return sorted(out, key=str)


def _cartesian_violations(m: INModel) -> list:
    out = []
    r_eq = r_equivalence(m)
    leq_eq = leq_equivalence(m)
    ws = sorted(m.worlds, key=str)
    for i, w in enumerate(ws):
        for v in ws[i + 1:]:
            if r_eq.same(w, v) and leq_eq.same(w, v):
                out.append(("R~-cartesian", w, v))
    for name in sorted(m.nbhds, key=str):
        a = m.nbhds[name]
        dom = sorted(a, key=str)
        for i, w in enumerate(dom):
            for v in dom[i + 1:]:
                if r_eq.same(w, v) and a[w] != a[v]:
                    out.append(("N-cartesian", name, w, v))
    return sorted(out, key=str)


def check_full(m: CNModel) -> bool:
    """A constructive model is full when nonemptiness of gamma propagates up."""
    return all(not (m.gamma.get(w, frozenset()) and not m.gamma.get(v, frozenset()))
               for (w, v) in m.preceq)


def check_ik2_frame(m: IK2Model) -> CheckReport:
    out = []
    for rel, tag in ((m.relN, "N"), (m.relE, "E")):
        for (w, v) in m.leq:
            for (w2, u) in rel:
                if w2 != w:
                    continue
                # forward confluence: v reaches some x above u
                if not any((v, x) in rel and (u, x) in m.leq for x in m.worlds):
                    out.append((f"forward-{tag}", w, v, u))
        for (w, u) in rel:
            for x in successors(m.worlds, m.leq, u):
                # backward confluence: some v above w reaches x
                if not any((w, v) in m.leq and (v, x) in rel for v in m.worlds):
                    out.append((f"backward-{tag}", w, u, x))
    return CheckReport("ik2-frame", sorted(out, key=str))


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------

def _world_profile(m: INModel, w):
    indeg = sum(1 for (a, b) in m.leq if b == w)
    outdeg = sum(1 for (a, b) in m.leq if a == w)
    atoms_true = tuple(sorted(i for i, ext in m.val.items() if w in ext))
    dom_count = sum(1 for a in m.nbhds.values() if w in a)
    value_sizes = tuple(sorted(len(a[w]) for a in m.nbhds.values() if w in a))
    member_count = sum(1 for a in m.nbhds.values() for value in a.values() if w in value)
    return (indeg, outdeg, atoms_true, dom_count, value_sizes, member_count)


def _transport(m: INModel, alpha: Mapping, nu: Mapping) -> INModel:
    """The image of ``m`` under the world map ``alpha`` and the name map
    ``nu``, leaving out the atoms that hold nowhere."""
    return INModel(frozenset(alpha[w] for w in m.worlds),
                   frozenset((alpha[w], alpha[v]) for w, v in m.leq),
                   {nu[name]: {alpha[u]: frozenset(alpha[v] for v in value)
                               for u, value in a.items()} for name, a in m.nbhds.items()},
                   {i: frozenset(alpha[w] for w in ext) for i, ext in m.val.items() if ext})


def is_isomorphism(m: INModel, m2: INModel, alpha: Mapping, nu: Mapping) -> bool:
    """Whether ``alpha`` and ``nu`` are one-to-one on the worlds and names of
    ``m`` and carry ``m`` onto ``m2``."""
    if set(alpha) != set(m.worlds) or set(nu) != set(m.nbhds):
        return False
    if len(set(alpha.values())) < len(alpha) or len(set(nu.values())) < len(nu):
        return False
    return _transport(m, alpha, nu) == _transport(m2, {w: w for w in m2.worlds},
                                                  {name: name for name in m2.nbhds})


def find_isomorphism(m: INModel, m2: INModel):
    """Backtracking search for an isomorphism; returns ``(alpha, nu)`` maps or
    ``None``.  Prunes with degree/valuation profiles; worst case exponential,
    fine at desk scale."""
    if len(m.worlds) != len(m2.worlds) or len(m.nbhds) != len(m2.nbhds):
        return None
    prof1 = {w: _world_profile(m, w) for w in m.worlds}
    prof2 = {w: _world_profile(m2, w) for w in m2.worlds}
    if sorted(prof1.values()) != sorted(prof2.values()):
        return None
    by_profile: dict = {}
    for w in m2.worlds:
        by_profile.setdefault(prof2[w], []).append(w)
    # most-constrained-first: rare profiles get assigned early
    order = sorted(m.worlds, key=lambda w: (len(by_profile[prof1[w]]), str(w)))

    alpha: dict = {}
    used: set = set()

    def consistent(w, target) -> bool:
        for w0, t0 in alpha.items():
            if ((w0, w) in m.leq) != ((t0, target) in m2.leq):
                return False
            if ((w, w0) in m.leq) != ((target, t0) in m2.leq):
                return False
        return True

    def assign(k: int):
        if k == len(order):
            nu = _match_nbhds(m, m2, alpha)
            if nu is not None and is_isomorphism(m, m2, alpha, nu):
                return dict(alpha), nu
            return None
        w = order[k]
        for target in sorted(by_profile[prof1[w]], key=str):
            if target in used or not consistent(w, target):
                continue
            alpha[w] = target
            used.add(target)
            found = assign(k + 1)
            if found is not None:
                return found
            del alpha[w]
            used.discard(target)
        return None

    return assign(0)


def _match_nbhds(m: INModel, m2: INModel, alpha: Mapping):
    """Given a world bijection, pair each name of ``m``, in label order, with
    the least unpaired name of ``m2`` whose value map is its image; ``None``
    when some name has none."""
    image = _transport(m, alpha, {name: name for name in m.nbhds}).nbhds
    unpaired = sorted(m2.nbhds, key=str)
    nu: dict = {}
    for name in sorted(m.nbhds, key=str):
        partner = next((n2 for n2 in unpaired if m2.nbhds[n2] == image[name]), None)
        if partner is None:
            return None
        nu[name] = partner
        unpaired.remove(partner)
    return nu


# ---------------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """Everything the toolkit dispatches on per model kind."""

    model: type
    dialects: tuple
    holds: Callable      # (model, point, formula) -> bool
    clauses: Callable    # model -> (points, up, val, modal), over point indices
    batch: Callable      # (preds, up, full) -> modal, over a batch of models
    validate: Callable   # model -> list of violations
    checks: Mapping = field(default_factory=dict)  # level beyond basic -> CheckReport


def _check_full_report(m: CNModel) -> CheckReport:
    return CheckReport("cnm-full", [] if check_full(m) else [("not-full",)])


KINDS = {
    "inm": Kind(INModel, ("modal",), eval_inm, clauses_inm, batch_inm, validate_inm,
                {"coherent": lambda m: check_inm(m, "coherent"),
                 "cartesian": lambda m: check_inm(m, "cartesian")}),
    "cnm": Kind(CNModel, ("modal", "nabla"), eval_cnm, clauses_cnm, batch_cnm, validate_cnm,
                {"full": _check_full_report}),
    "ik2": Kind(IK2Model, ("bimodal",), eval_ik2, clauses_ik2, batch_ik2, validate_ik2,
                {"frame": check_ik2_frame}),
    # points are (world, state) pairs; holds is the direct evaluator, which
    # does not go through bullet
    "ifom": Kind(IFOMStructure, ("modal",),
                 lambda s, point, phi: eval_modal_ifom(s, point[0], point[1], phi),
                 clauses_ifom, batch_inm, validate_ifom),
    "classical": Kind(NbhdModel, ("modal",), eval_classical, clauses_classical,
                      batch_cnm, validate_nbhd),
}
