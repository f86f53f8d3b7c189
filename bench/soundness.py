"""Workload ``soundness``: acceptance criterion 2 without its time budget.

One round is one ``sweep_inm_validity`` call over the 36 depth-one instances
of ``neg-a`` and ``i-dia`` plus four non-theorems at SearchBounds(3, 2, 1),
then 50 operations that each take 20 seeded random ``inm`` models, one of
every size from 1 to 5 worlds and 0 to 3 neighbourhoods (2 atoms), and
compute ``truth_set_inm`` of the 72 two-atom instances on each with one
shared memo, as the criterion does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import gen
import reference as ref
from imodal.models import truth_set_inm
from imodal.search import SearchBounds, sweep_inm_validity
from imodal.syntax import (FALSUM, And, Atom, Box, Dia, Implies, Or, parse,
                           substitute)

ROUND_SECONDS = 25.0
OPS = 50
SAMPLE = 60  # (model, instance) verdicts the reference re-checks per run
NEG_A = "([]p0 & <>~p0) -> F"
I_DIA = "([]T -> <>p0) -> <>p0"
NON_THEOREMS = ("p0 | ~p0", "([]F -> <>T) -> <>T", "[]p0 -> p0", "~~p0 -> p0")


def depth_one(atom_count: int) -> list:
    """Every formula over the atoms with tree size at most three and modal
    depth at most one: the instance family of criterion 2."""
    leaves = [Atom(i) for i in range(atom_count)] + [FALSUM]
    out = list(leaves)
    out += [op(leaf) for op in (Box, Dia) for leaf in leaves]
    out += [typ(a, b) for typ in (And, Or, Implies) for a in leaves for b in leaves]
    return [f for f in out if ref.modal_depth(f) <= 1]


@dataclass
class State:
    bounds: SearchBounds
    batch: list
    theorems: int
    instances: list
    models: list
    per_op: int
    space: int
    sample: set
    nodes: list
    seen: dict = field(default_factory=dict)
    sweeps: list = field(default_factory=list)


def setup(seed: int, tr, probe: bool = False) -> State:
    rng = random.Random(seed)
    bounds = SearchBounds(2, 2, 1) if probe else SearchBounds(3, 2, 1)
    schemas = [tr.call("syntax.parse", parse, t) for t in (NEG_A, I_DIA)]
    batch = [tr.call("syntax.substitute", substitute, s, {0: x})
             for s in schemas for x in depth_one(1)]
    theorems = len(batch)
    batch += [tr.call("syntax.parse", parse, t) for t in NON_THEOREMS]
    instances = [tr.call("syntax.substitute", substitute, s, {0: x})
                 for s in schemas for x in depth_one(2)]
    # An operation checks one model of every size (1 to 5 worlds, 0 to 3
    # neighbourhoods): criterion 2 draws sizes uniformly, and a whole set of
    # sizes per operation keeps the median and the tail from hinging on how
    # many of the costliest models a seed happens to draw.
    sizes = [(n, k) for n in range(1, 6) for k in range(4)]
    per_op = sizes[-2:] if probe else sizes
    models = [gen.inm_sized(rng, n, k, 2)
              for _ in range(1 if probe else OPS) for n, k in per_op]
    pairs = [(i, j) for i in range(len(models)) for j in range(len(instances))]
    sample = set(rng.sample(pairs, min(SAMPLE, len(pairs))))
    space = ref.count_inm(bounds.max_worlds, bounds.max_nbhds, bounds.max_atoms)
    return State(bounds, batch, theorems, instances, models, len(per_op), space, sample,
                 [ref.dag_size(f) for f in instances])


def rounds(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def run_round(st: State, ops, tr) -> None:
    ops.run("sweep", _sweep, st, ops, tr)
    for start in range(0, len(st.models), st.per_op):
        ops.run("models", _models, st, range(start, start + st.per_op), ops, tr)


def _sweep(st, ops, tr):
    verdicts = tr.call("search.sweep", sweep_inm_validity, st.batch, st.bounds)
    tr.count("search.sweep_models", st.space)
    st.sweeps.append(verdicts)


def _models(st, indices, ops, tr):
    for i in indices:
        m = st.models[i]
        memo = {}
        for j, inst in enumerate(st.instances):
            t = tr.call("models.eval_inm", truth_set_inm, m, inst, memo)
            if t != m.worlds:
                ops.check(False, f"instance {j} fails on random model {i}")
            if (i, j) in st.sample:
                st.seen[(i, j)] = t
        if tr.on:
            tr.count("models.eval_nodes", sum(st.nodes))


def verify(st: State) -> list:
    problems = []
    for verdicts in st.sweeps:
        for k, (f, v) in enumerate(zip(st.batch, verdicts)):
            if k < st.theorems:
                if v is not None:
                    problems.append(f"sweep refutes the theorem instance {k}")
            elif v is None:
                problems.append(f"sweep misses the non-theorem {NON_THEOREMS[k - st.theorems]}")
            elif ref.holds_inm(v[0], v[1], f):
                problems.append(f"sweep witness for {NON_THEOREMS[k - st.theorems]} "
                                "does not refute it")
    for (i, j), t in st.seen.items():
        if ref.truth_set("inm", st.models[i], st.instances[j]) != t:
            problems.append(f"truth set of instance {j} on model {i} differs from the reference")
    if len(st.seen) != len(st.sample):
        problems.append("not every sampled verdict was recorded")
    return problems
