"""JSON interchange for models and derivations.

One document format per model kind, tagged by ``kind``: worlds are string
labels, orders and relations are pair lists (reflexive-transitive closure is
taken on load), neighbourhoods map names to per-world value lists (the key set
is the domain), and valuations map atom indices (as strings) to world lists.
Loading checks each field's JSON type, naming a mistyped or missing field by
its path, and validates with the kind's checker unless told otherwise.
"""

from __future__ import annotations

import json
from typing import Mapping

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


_JSON_TYPES = ((dict, "an object"), (list, "a list"), (str, "a string"),
               (bool, "a boolean"), ((int, float), "a number"), (type(None), "null"))


def _typed(value, typ, path: str):
    """``value`` if it has the JSON type ``typ`` (``dict``, ``list`` or
    ``str``), otherwise a ``DocumentError`` naming the field ``path``."""
    if not isinstance(value, typ):
        got = next(name for t, name in _JSON_TYPES if isinstance(value, t))
        raise DocumentError(f"{path}: expected {dict(_JSON_TYPES)[typ]}, got {got}")
    return value


def _get(rec: dict, key, typ, path: str):
    """The field ``key`` of ``rec``, named ``path``, checked by ``_typed``; a
    missing field raises ``KeyError(path)``, which the loaders report."""
    if key not in rec:
        raise KeyError(path)
    return _typed(rec[key], typ, path)


def _atom(key: str, path: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise DocumentError(f"{path} key {key!r} is not an atom index") from None


def model_from_doc(doc: dict, validate: bool = True):
    if not isinstance(doc, dict):
        raise DocumentError(f"a model document is a JSON object, not {type(doc).__name__}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
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
    """The model of a document whose every field has been type-checked;
    errors name the offending field by its path, such as ``gamma.w[0]``."""
    worlds = frozenset(_typed(w, str, f"worlds[{i}]")
                       for i, w in enumerate(_get(doc, "worlds", list, "worlds")))

    def world(w, path, known=worlds):  # known=None: an ifom state or neighbourhood
        _typed(w, str, path)
        if known is not None and w not in known:
            raise DocumentError(f"{path}: reference to unknown world {w!r}")
        return w

    def labels(items, path, known=worlds):
        return [world(x, f"{path}[{i}]", known) for i, x in enumerate(_typed(items, list, path))]

    def field(rec, prefix, key, typ):
        """An optional field, empty when absent."""
        return _typed(rec.get(key, typ()), typ, prefix + key)

    def pairs(rec, prefix, key, known=worlds):
        out = set()
        for i, p in enumerate(field(rec, prefix, key, list)):
            path = f"{prefix}{key}[{i}]"
            if len(_typed(p, list, path)) != 2:
                raise DocumentError(f"{path}: expected a pair, got {len(p)} items")
            out.add(tuple(labels(p, path, known)))
        return frozenset(out)

    def valuation(rec, prefix, key, known=worlds):
        return {_atom(i, prefix + key): frozenset(labels(ws, f"{prefix}{key}.{i}", known))
                for i, ws in field(rec, prefix, key, dict).items()}

    def gamma():
        fams = {world(w, "gamma"): [frozenset(labels(a, f"gamma.{w}[{i}]"))
                                    for i, a in enumerate(_typed(fam, list, f"gamma.{w}"))]
                for w, fam in field(doc, "", "gamma", dict).items()}
        return {w: frozenset(fams.get(w, ())) for w in worlds}

    if kind == "classical":
        return NbhdModel(worlds, gamma(), valuation(doc, "", "valuation"))
    order = "preorder" if kind == "cnm" and "preorder" in doc else "order"
    leq = reflexive_transitive_closure(worlds, pairs(doc, "", order))
    if kind == "inm":
        nbhds = {name: {world(w, f"neighbourhoods.{name}"):
                        frozenset(labels(value, f"neighbourhoods.{name}.{w}"))
                        for w, value in _typed(fn, dict, f"neighbourhoods.{name}").items()}
                 for name, fn in field(doc, "", "neighbourhoods", dict).items()}
        return INModel(worlds, leq, nbhds, valuation(doc, "", "valuation"))
    if kind == "cnm":
        return CNModel(worlds, leq, gamma(), valuation(doc, "", "valuation"))
    if kind == "ik2":
        return IK2Model(worlds, leq, pairs(doc, "", "relN"), pairs(doc, "", "relE"),
                        valuation(doc, "", "valuation"))
    records = _get(doc, "interpretation", dict, "interpretation")
    interp = {}
    for w in sorted(worlds, key=str):
        prefix = f"interpretation.{w}."
        rec = _get(records, w, dict, prefix[:-1])
        interp[w] = FOMStructure(
            frozenset(labels(_get(rec, "states", list, prefix + "states"),
                             prefix + "states", None)),
            frozenset(labels(rec.get("nbhds", []), prefix + "nbhds", None)),
            pairs(rec, prefix, "N", None), pairs(rec, prefix, "E", None),
            valuation(rec, prefix, "preds", None))
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
        return _derivation(doc, dialect, "")
    except KeyError as exc:
        raise DocumentError(f"missing derivation field {exc}") from exc


def _derivation(doc, dialect: str, prefix: str) -> calculi.Derivation:
    """The derivation of a type-checked document; ``prefix`` is the path of
    this node, such as ``premises[0].``."""
    from . import calculi

    def text(value, path):
        return parse(_typed(value, str, prefix + path), dialect)

    doc = _typed(doc, dict, prefix[:-1] or "derivation")
    concl = _get(doc, "conclusion", dict, prefix + "conclusion")
    context = frozenset(text(t, f"conclusion.context[{i}]") for i, t in enumerate(
        _get(concl, "context", list, prefix + "conclusion.context")))
    formula = parse(_get(concl, "formula", str, prefix + "conclusion.formula"), dialect)
    premises = tuple(_derivation(p, dialect, f"{prefix}premises[{i}].") for i, p in enumerate(
        _typed(doc.get("premises", []), list, prefix + "premises")))
    rule = _get(doc, "rule", str, prefix + "rule")
    certificate = None
    if rule in ("El", "Ax"):
        cert = _get(doc, "certificate", dict, prefix + "certificate")
    if rule == "El":
        certificate = parse(_get(cert, "member", str, prefix + "certificate.member"),
                            dialect)
    elif rule == "Ax":
        subst = _typed(cert.get("subst", {}), dict, prefix + "certificate.subst")
        subst = {_atom(i, prefix + "certificate.subst"): text(t, f"certificate.subst.{i}")
                 for i, t in subst.items()}
        certificate = (_get(cert, "schema", str, prefix + "certificate.schema"),
                       tuple(sorted(subst.items())))
    return calculi.Derivation(rule, Consecution(context, formula), premises, certificate)


def read_derivation(path: str, dialect: str) -> calculi.Derivation:
    with open(path, "r", encoding="utf-8") as fh:
        return derivation_from_doc(json.load(fh), dialect)
