"""Workload ``refute``: a fixed list of ``find_countermodel`` queries over all
five model kinds, with ``workers=1``.

Each query is one operation.  The seed only shuffles their order within a
round.  Theorems must exhaust their bounds with ``examined`` equal to the
reference count of the space; non-theorems must be refuted by a witness the
reference semantics re-checks.  See README.md for the reason of each
expected verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import reference as ref
from imodal.search import (CounterexampleFound, NoneWithinBounds, SearchBounds,
                           enumerate_models, find_countermodel)
from imodal.syntax import consecution, parse

ROUND_SECONDS = 12.0
NEG_A = "([]p0 & <>~p0) -> F"
I_DIA = "([]T -> <>p0) -> <>p0"
IK2_AXIOMS = [t.replace("j", j) for j in "NE" for t in (
    "[j](p0 -> p1) -> [j]p0 -> [j]p1",
    "[j](p0 -> p1) -> <j>p0 -> <j>p1",
    "~<j>F",
    "<j>(p0 | p1) -> <j>p0 | <j>p1",
    "(<j>p0 -> [j]p1) -> [j](p0 -> p1)")]

# (formula, dialect, kind, bounds, expected); "bimodal*" marks a modal
# formula put through the reference translation first.
_QUERIES = (
    [(f, "modal", "inm", (3, 1, 1, coh), "valid")
     for f in (NEG_A, I_DIA) for coh in (False, True)]
    + [(NEG_A, "modal", "cnm", (2, 2, 1, False), "valid")]
    + [(f, "bimodal", "ik2", (2, 0, 2, False), "valid") for f in IK2_AXIOMS]
    + [(f, "bimodal*", "ik2", (2, 0, 1, False), "valid") for f in (NEG_A, I_DIA)]
    + [("[](p0 & p1) -> []p0", "modal", "classical", (3, 1, 2, False), "valid"),
       ("nabla (p0 & p1) -> nabla p0", "nabla", "cnm", (2, 2, 2, False), "valid")]
    + [(f, "modal", "ifom", (2, 1, 1, False), "valid") for f in (NEG_A, I_DIA)]
    + [("([]F -> <>T) -> <>T", "modal", "inm", (3, 1, 1, False), "refuted"),
       ("p0 | ~p0", "modal", "inm", (3, 1, 1, False), "refuted"),
       (I_DIA, "modal", "cnm", (2, 1, 1, False), "refuted"),
       ("<>p0 -> []p0", "modal", "cnm", (2, 1, 1, False), "refuted"),
       ("[]p0 -> p0", "modal", "classical", (2, 1, 1, False), "refuted"),
       ("p0 | ~p0", "modal", "ifom", (2, 1, 1, False), "refuted")])

PROBE_QUERIES = (
    [(NEG_A, "modal", "inm", (2, 1, 1, False), "valid"),
     ("p0 | ~p0", "modal", "inm", (2, 1, 1, False), "refuted")])


@dataclass
class Query:
    text: str
    kind: str
    bounds: SearchBounds
    expected: str
    consec: object
    space: object  # reference count of the bounded space, or None


@dataclass
class State:
    queries: list
    order: random.Random
    results: list = field(default_factory=list)


def _formula(tr, text, dialect):
    if dialect == "bimodal*":
        return ref.translate(tr.call("syntax.parse", parse, text, "modal"))
    return tr.call("syntax.parse", parse, text, dialect)


def setup(seed: int, tr, probe: bool = False) -> State:
    spaces = {}
    queries = []
    for text, dialect, kind, b, expected in (PROBE_QUERIES if probe else _QUERIES):
        bounds = SearchBounds(*b[:3], require_coherent=b[3])
        if (kind, bounds) not in spaces:
            spaces[(kind, bounds)] = ref.count_space(kind, bounds)
        queries.append(Query(text, kind, bounds, expected,
                             consecution([], _formula(tr, text, dialect)),
                             spaces[(kind, bounds)]))
    return State(queries, random.Random(seed))


def rounds(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def run_round(st: State, ops, tr) -> None:
    order = list(range(len(st.queries)))
    st.order.shuffle(order)
    for k in order:
        ops.run("find", _find, st, st.queries[k], tr)


def _find(st, q, tr):
    result = tr.call("search.find", find_countermodel, q.consec, q.kind, q.bounds,
                     workers=1)
    if isinstance(result, NoneWithinBounds):
        tr.rename_last("search.find.exhaust")
        tr.count("search.find_examined", result.examined)
    else:
        tr.rename_last("search.find.hit")
    st.results.append((q, result))


def extra_probe(st: State, tr) -> None:
    """Drain ``enumerate_models`` for each kind and bounds of the queries,
    evaluating nothing: the enumeration layer ``find_countermodel`` hides."""
    if not tr.on:
        return
    done = set()
    for q in st.queries:
        if (q.kind, q.bounds) in done:
            continue
        done.add((q.kind, q.bounds))
        with tr.span("search.enum"):
            n = sum(1 for _ in enumerate_models(q.kind, q.bounds))
        tr.count("search.enum_models", n)
        if q.space is not None and n != q.space:
            st.results.append((q, f"enumeration gives {n} models, reference {q.space}"))


def verify(st: State) -> list:
    problems = []
    for q, result in st.results:
        where = f"{q.kind} {q.text} at {q.bounds}"
        if isinstance(result, str):
            problems.append(f"{where}: {result}")
        elif isinstance(result, NoneWithinBounds):
            if q.expected != "valid" or result.timed_out:
                problems.append(f"{where}: exhausted, expected {q.expected}")
            elif q.space is not None and result.examined != q.space:
                problems.append(f"{where}: examined {result.examined}, "
                                f"the reference counts {q.space}")
        elif isinstance(result, CounterexampleFound):
            if q.expected != "refuted":
                problems.append(f"{where}: refuted, expected {q.expected}")
            elif not ref.refutes(q.kind, result.model, result.world,
                                 q.consec.context, q.consec.conclusion):
                problems.append(f"{where}: the witness does not refute it")
        else:
            problems.append(f"{where}: unexpected result {result!r}")
    return problems

