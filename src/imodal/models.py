"""The model kinds with their evaluators and structural checkers: classical
neighbourhood models, intuitionistic neighbourhood models with partial-function
neighbourhoods, constructive neighbourhood models, and birelational bimodal
models, plus the coherence / Cartesian / fullness / frame-condition checks and
isomorphism search.

Every kind is intuitionistic at its base: one shared core (``_truth_set``)
evaluates atoms, the connectives and implication along the kind's order (the
identity for classical models, which makes implication material), and each
kind supplies only its modal clauses.  Truth sets are computed bottom-up with
a per-call memo keyed on subformulas, so repeated subformulas cost nothing.
Models are immutable after construction; validation never repairs, it reports
witnesses.  ``KINDS`` at the end of the module holds, per kind, the model
class, dialects, evaluator, validator and check levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

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

def _ups(worlds, rel) -> dict:
    return {w: successors(worlds, rel, w) for w in worlds}


def _avoiding(up, bad) -> frozenset:
    """The worlds none of whose successors lie in ``bad``."""
    return frozenset(w for w, ups in up.items() if ups.isdisjoint(bad))


def _truth_set(up, val, modal, phi: Formula, memo: dict) -> frozenset:
    """The intuitionistic core that every kind shares: atoms, falsum, the
    connectives, and implication along the order given by ``up`` (world ->
    up-set).  ``modal(f, t)`` evaluates a modal node ``f`` whose body has the
    truth set ``t``; the kinds differ only in that function."""
    result = memo.get(phi)
    if result is not None:
        return result
    if isinstance(phi, Atom):
        result = frozenset(val.get(phi.index, frozenset()))
    elif isinstance(phi, Falsum):
        result = frozenset()
    elif isinstance(phi, (And, Or, Implies)):
        x = _truth_set(up, val, modal, phi.left, memo)
        y = _truth_set(up, val, modal, phi.right, memo)
        if isinstance(phi, And):
            result = x & y
        elif isinstance(phi, Or):
            result = x | y
        else:
            result = _avoiding(up, x - y)
    else:
        result = modal(phi, _truth_set(up, val, modal, phi.sub, memo))
    memo[phi] = result
    return result


def truth_set_classical(m: NbhdModel, phi: Formula, memo: dict = None) -> frozenset:
    def modal(f, t):
        if isinstance(f, Box):
            return frozenset(w for w in m.worlds
                             if any(a <= t for a in m.nf.get(w, frozenset())))
        if isinstance(f, Dia):
            return frozenset(w for w in m.worlds
                             if all(a & t for a in m.nf.get(w, frozenset())))
        raise TypeError(f"not a modal-dialect formula: {f!r}")

    # every world sees only itself, so implication is material
    up = {w: frozenset((w,)) for w in m.worlds}
    return _truth_set(up, m.val, modal, phi, {} if memo is None else memo)


def truth_set_inm(m: INModel, phi: Formula, memo: dict = None) -> frozenset:
    up = _ups(m.worlds, m.leq)

    def modal(f, t):
        if isinstance(f, Box):
            # one neighbourhood whose values stay inside t at all successors
            return frozenset(w for a in m.nbhds.values() for w in a
                             if all(a[v] <= t for v in up[w] if v in a))
        if isinstance(f, Dia):
            # fails wherever some successor has a neighbourhood missing t
            return _avoiding(up, {w for a in m.nbhds.values()
                                  for w, value in a.items() if not (value & t)})
        raise TypeError(f"not a modal-dialect formula: {f!r}")

    return _truth_set(up, m.val, modal, phi, {} if memo is None else memo)


def truth_set_cnm(m: CNModel, phi: Formula, memo: dict = None) -> frozenset:
    """Constructive clauses; nabla is evaluated by the box clause."""
    up = _ups(m.worlds, m.preceq)

    def modal(f, t):
        if isinstance(f, (Box, Nabla)):
            return _avoiding(up, {w for w in m.worlds
                                  if not any(a <= t for a in m.gamma.get(w, frozenset()))})
        if isinstance(f, Dia):
            return _avoiding(up, {w for w in m.worlds
                                  if any(not (a & t) for a in m.gamma.get(w, frozenset()))})
        raise TypeError(f"not a box/diamond/nabla formula: {f!r}")

    return _truth_set(up, m.val, modal, phi, {} if memo is None else memo)


def truth_set_ik2(m: IK2Model, phi: Formula, memo: dict = None) -> frozenset:
    up = _ups(m.worlds, m.leq)

    def modal(f, t):
        rel = m.relN if f.index == "N" else m.relE
        if isinstance(f, BiBox):
            return frozenset(w for w in m.worlds
                             if all(z in t for y in up[w]
                                    for z in m.worlds if (y, z) in rel))
        if isinstance(f, BiDia):
            return frozenset(w for w in m.worlds
                             if any((w, y) in rel and y in t for y in m.worlds))
        raise TypeError(f"not a bimodal formula: {f!r}")

    return _truth_set(up, m.val, modal, phi, {} if memo is None else memo)


def _evaluator(truth_set):
    def holds(m, w, phi: Formula) -> bool:
        """Whether ``phi`` holds at world ``w`` of ``m``."""
        if w not in m.worlds:
            raise ModelError(f"unknown world {w!r}")
        return w in truth_set(m, phi)
    return holds


eval_classical = _evaluator(truth_set_classical)
eval_inm = _evaluator(truth_set_inm)
eval_cnm = _evaluator(truth_set_cnm)
eval_ik2 = _evaluator(truth_set_ik2)


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
    if level == "basic":
        return CheckReport("inm-basic", validate_inm(m))
    basic = validate_inm(m)
    if basic:
        return CheckReport(f"inm-{level}", basic)
    if level == "coherent":
        return CheckReport("inm-coherent", _coherence_violations(m))
    if level == "cartesian":
        return CheckReport("inm-cartesian", _cartesian_violations(m))
    raise ValueError(f"unknown check level {level!r}")


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


def is_isomorphism(m: INModel, m2: INModel, alpha: Mapping, nu: Mapping) -> bool:
    """Verify the four isomorphism conditions on a candidate pair of maps."""
    if set(alpha) != set(m.worlds) or set(alpha.values()) != set(m2.worlds):
        return False
    if set(nu) != set(m.nbhds) or set(nu.values()) != set(m2.nbhds):
        return False
    for w in m.worlds:
        for v in m.worlds:
            if ((w, v) in m.leq) != ((alpha[w], alpha[v]) in m2.leq):
                return False
    for name, a in m.nbhds.items():
        b = m2.nbhds[nu[name]]
        for w in m.worlds:
            if (w in a) != (alpha[w] in b):
                return False
        for u in a:
            for w in m.worlds:
                if (w in a[u]) != (alpha[w] in b[alpha[u]]):
                    return False
    for i in set(m.val) | set(m2.val):
        ext, ext2 = m.val.get(i, frozenset()), m2.val.get(i, frozenset())
        for w in m.worlds:
            if (w in ext) != (alpha[w] in ext2):
                return False
    return True


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
    """Given a world bijection, match neighbourhoods by transported signature;
    equal-signature neighbourhoods are interchangeable."""

    def sig_of(a):
        return tuple(sorted(((alpha[u], tuple(sorted((alpha[v] for v in a[u]), key=str)))
                             for u in a), key=str))

    def sig_plain(b):
        return tuple(sorted(((u, tuple(sorted(b[u], key=str))) for u in b), key=str))

    groups1: dict = {}
    for name, a in m.nbhds.items():
        groups1.setdefault(sig_of(a), []).append(name)
    groups2: dict = {}
    for name, b in m2.nbhds.items():
        groups2.setdefault(sig_plain(b), []).append(name)
    if set(groups1) != set(groups2):
        return None
    nu: dict = {}
    for sig, names in groups1.items():
        partners = groups2[sig]
        if len(partners) != len(names):
            return None
        for n1, n2 in zip(sorted(names, key=str), sorted(partners, key=str)):
            nu[n1] = n2
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
    truth_set: Optional[Callable]  # (model, formula, memo); None: points are not worlds
    validate: Callable   # model -> list of violations
    checks: Mapping = field(default_factory=dict)  # level beyond basic -> CheckReport


def _check_full_report(m: CNModel) -> CheckReport:
    return CheckReport("cnm-full", [] if check_full(m) else [("not-full",)])


KINDS = {
    "inm": Kind(INModel, ("modal",), eval_inm, truth_set_inm, validate_inm,
                {"coherent": lambda m: check_inm(m, "coherent"),
                 "cartesian": lambda m: check_inm(m, "cartesian")}),
    "cnm": Kind(CNModel, ("modal", "nabla"), eval_cnm, truth_set_cnm, validate_cnm,
                {"full": _check_full_report}),
    "ik2": Kind(IK2Model, ("bimodal",), eval_ik2, truth_set_ik2, validate_ik2,
                {"frame": check_ik2_frame}),
    # ifom formulas are evaluated at (world, state) pairs
    "ifom": Kind(IFOMStructure, ("modal",),
                 lambda s, point, phi: eval_modal_ifom(s, point[0], point[1], phi),
                 None, validate_ifom),
    "classical": Kind(NbhdModel, ("modal",), eval_classical, truth_set_classical,
                      validate_nbhd),
}
