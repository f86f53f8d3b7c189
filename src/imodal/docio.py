"""JSON interchange for models and derivations.

One document format per model kind, tagged by ``kind``: worlds are string
labels, orders and relations are pair lists (reflexive-transitive closure is
taken on load), neighbourhoods map names to per-world value lists (the key set
is the domain), and valuations map atom indices (as strings) to world lists.
Loading validates with the kind's checker unless told otherwise.
"""

from __future__ import annotations

import json
from typing import Mapping

from . import calculi
from .folm import FOMStructure, IFOMStructure
from .models import CNModel, IK2Model, INModel, KINDS, NbhdModel
from .orders import reflexive_transitive_closure
from .syntax import Consecution, parse, show


class DocumentError(ValueError):
    pass


def _label(w) -> str:
    if isinstance(w, str):
        return w
    if isinstance(w, (int, bool)):
        return str(w)
    if isinstance(w, tuple):
        return "(" + ",".join(_label(x) for x in w) + ")"
    if isinstance(w, frozenset):
        return "{" + ",".join(sorted(_label(x) for x in w)) + "}"
    return str(w)


def _labelling(worlds) -> dict:
    labels = {w: _label(w) for w in worlds}
    if len(set(labels.values())) != len(labels):
        ordered = sorted(worlds, key=_label)
        labels = {w: f"w{i}" for i, w in enumerate(ordered)}
    return labels


def _pairs(rel, lab) -> list:
    return sorted([lab[a], lab[b]] for (a, b) in rel if a != b)


def _val_doc(val: Mapping, lab) -> dict:
    return {str(i): sorted(lab[w] for w in ext) for i, ext in sorted(val.items())}


def model_kind(model) -> str:
    return {spec.model: kind for kind, spec in KINDS.items()}[type(model)]


def model_to_doc(model) -> dict:
    kind = model_kind(model)
    if kind == "ifom":
        lab = _labelling(model.worlds)
        doc = {"kind": kind,
               "worlds": sorted(lab.values()),
               "order": _pairs(model.leq, lab),
               "interpretation": {}}
        for w in sorted(model.worlds, key=lambda x: lab[x]):
            m = model.interp[w]
            slab = {s: _label(s) for s in m.states}
            nlab = {a: _label(a) for a in m.nbhds}
            doc["interpretation"][lab[w]] = {
                "states": sorted(slab.values()),
                "nbhds": sorted(nlab.values()),
                "N": sorted([slab[x], nlab[a]] for (x, a) in m.relN),
                "E": sorted([nlab[a], slab[x]] for (a, x) in m.relE),
                "preds": {str(i): sorted(slab[x] for x in ext)
                          for i, ext in sorted(m.preds.items())},
            }
        return doc
    lab = _labelling(model.worlds)
    doc = {"kind": kind, "worlds": sorted(lab.values())}
    if kind == "classical":
        doc["gamma"] = {lab[w]: sorted(sorted(lab[v] for v in a)
                                       for a in model.nf.get(w, frozenset()))
                        for w in sorted(model.worlds, key=lambda x: lab[x])}
    elif kind == "inm":
        doc["order"] = _pairs(model.leq, lab)
        doc["neighbourhoods"] = {
            _label(name): {lab[w]: sorted(lab[v] for v in value)
                           for w, value in sorted(fn.items(), key=lambda kv: lab[kv[0]])}
            for name, fn in sorted(model.nbhds.items(), key=lambda kv: _label(kv[0]))}
    elif kind == "cnm":
        doc["preorder"] = _pairs(model.preceq, lab)
        doc["gamma"] = {lab[w]: sorted(sorted(lab[v] for v in a)
                                       for a in model.gamma.get(w, frozenset()))
                        for w in sorted(model.worlds, key=lambda x: lab[x])}
    elif kind == "ik2":
        doc["order"] = _pairs(model.leq, lab)
        doc["relN"] = sorted([lab[a], lab[b]] for (a, b) in model.relN)
        doc["relE"] = sorted([lab[a], lab[b]] for (a, b) in model.relE)
    doc["valuation"] = _val_doc(model.val, lab)
    return doc


def model_from_doc(doc: dict, validate: bool = True):
    if not isinstance(doc, dict):
        raise DocumentError(f"a model document is a JSON object, not {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown or missing model kind {kind!r}")
    try:
        model = _build_model(kind, doc)
    except KeyError as exc:
        raise DocumentError(f"missing field {exc}") from exc
    if validate:
        violations = KINDS[kind].validate(model)
        if violations:
            raise DocumentError(f"invalid {kind} document: {violations[:3]}")
    return model


def _build_model(kind: str, doc: dict):
    worlds = frozenset(doc["worlds"])

    def check_world(w):
        if w not in worlds:
            raise DocumentError(f"reference to unknown world {w!r}")
        return w

    def closure(pairs):
        for (a, b) in pairs:
            check_world(a)
            check_world(b)
        return reflexive_transitive_closure(worlds, {tuple(p) for p in pairs})

    def valuation():
        return {int(i): frozenset(check_world(w) for w in ws)
                for i, ws in doc.get("valuation", {}).items()}

    def gamma():
        fams = {check_world(w): fam for w, fam in doc.get("gamma", {}).items()}
        return {w: frozenset(frozenset(check_world(v) for v in a)
                             for a in fams.get(w, []))
                for w in worlds}

    if kind == "classical":
        return NbhdModel(worlds, gamma(), valuation())
    if kind == "inm":
        leq = closure(doc.get("order", []))
        nbhds = {name: {check_world(w): frozenset(check_world(v) for v in value)
                        for w, value in fn.items()}
                 for name, fn in doc.get("neighbourhoods", {}).items()}
        return INModel(worlds, leq, nbhds, valuation())
    if kind == "cnm":
        rel = closure(doc.get("preorder", doc.get("order", [])))
        return CNModel(worlds, rel, gamma(), valuation())
    if kind == "ik2":
        leq = closure(doc.get("order", []))
        relN = frozenset((check_world(a), check_world(b)) for a, b in doc.get("relN", []))
        relE = frozenset((check_world(a), check_world(b)) for a, b in doc.get("relE", []))
        return IK2Model(worlds, leq, relN, relE, valuation())
    # ifom
    leq = closure(doc.get("order", []))
    interp = {}
    for w in worlds:
        rec = doc["interpretation"][w]
        states = frozenset(rec["states"])
        nbhds = frozenset(rec.get("nbhds", []))
        relN = frozenset((x, a) for x, a in rec.get("N", []))
        relE = frozenset((a, x) for a, x in rec.get("E", []))
        preds = {int(i): frozenset(xs) for i, xs in rec.get("preds", {}).items()}
        interp[w] = FOMStructure(states, nbhds, relN, relE, preds)
    return IFOMStructure(worlds, leq, interp)


def read_model(path: str, validate: bool = True):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_doc(json.load(fh), validate=validate)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

def derivation_to_doc(d: calculi.Derivation) -> dict:
    doc = {"rule": d.rule,
           "conclusion": {"context": sorted(show(f) for f in d.conclusion.context),
                          "formula": show(d.conclusion.conclusion)},
           "premises": [derivation_to_doc(p) for p in d.premises]}
    if d.rule == "El":
        doc["certificate"] = {"member": show(d.certificate)}
    elif d.rule == "Ax":
        sid, items = d.certificate
        doc["certificate"] = {"schema": sid,
                              "subst": {str(i): show(f) for i, f in items}}
    return doc


def derivation_from_doc(doc: dict, dialect: str) -> calculi.Derivation:
    try:
        context = frozenset(parse(t, dialect) for t in doc["conclusion"]["context"])
        formula = parse(doc["conclusion"]["formula"], dialect)
        premises = tuple(derivation_from_doc(p, dialect) for p in doc.get("premises", []))
        rule = doc["rule"]
        certificate = None
        if rule == "El":
            certificate = parse(doc["certificate"]["member"], dialect)
        elif rule == "Ax":
            cert = doc["certificate"]
            certificate = (cert["schema"],
                           tuple(sorted((int(i), parse(t, dialect))
                                        for i, t in cert.get("subst", {}).items())))
        return calculi.Derivation(rule, Consecution(context, formula),
                                  premises, certificate)
    except KeyError as exc:
        raise DocumentError(f"missing derivation field {exc}") from exc


def read_derivation(path: str, dialect: str) -> calculi.Derivation:
    with open(path, "r", encoding="utf-8") as fh:
        return derivation_from_doc(json.load(fh), dialect)


def write_derivation(path: str, d: calculi.Derivation) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(derivation_to_doc(d), fh, indent=1)
        fh.write("\n")
