"""Workload ``constructions``: seeded inputs put through each model
construction, each followed by its truth-preservation check over random
formulas, plus proof compilation and the deduction theorem over a seeded
corpus of derivations.  No bounded enumeration happens here.

The constructions are ``bullet`` (ifom to inm, against the direct ifom
clauses), ``circle`` then ``bullet`` with ``find_isomorphism`` back to a
coherent Cartesian input, ``hat``, ``fullify``, ``star`` (with
``translate_bimodal``), and ``coherent_completion`` and ``unravel`` at the
budgets of criterion 6; the proof work is ``compile_proof``, ``deduce`` and
``check_derivation``.  An operation is either a few inputs of every
construction or one derivation of every corpus shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import gen
import reference as ref
from imodal import calculi
from imodal.folm import eval_modal_ifom
from imodal.models import (check_full, check_ik2_frame, check_inm,
                           find_isomorphism, truth_set_cnm, truth_set_ik2,
                           truth_set_inm)
from imodal.syntax import Implies, parse, translate_bimodal
from imodal.transforms import (TruncationBudget, bullet, circle,
                               coherent_completion, fullify, hat, star, unravel)

ROUND_SECONDS = 20.0
# An operation is either PER_OP inputs of every construction or one
# derivation of every corpus shape: sums of many small pieces, so that the
# median and the tail of operation time do not hinge on single inputs.
CONSTRUCTIONS = ("bullet", "circle", "hat", "fullify", "star", "coh", "unravel")
PER_OP = 4
SHAPES = 6
CONSTRUCT_OPS = 330
PROOF_OPS = 110
MAX_PATHS = 150
SAMPLE = 3  # inputs per construction whose verdicts the reference re-checks


@dataclass
class State:
    inputs: list  # (construction or "proof", input, formulas)
    groups: list  # (operation kind, indices into inputs)
    hyps: list
    sample: set
    seen: list = field(default_factory=list)
    isos: list = field(default_factory=list)
    unravelled: list = field(default_factory=list)


def _corpus_item(rng, imc, shape):
    """One IM_Calc derivation of the given shape (0 to 5): an axiom
    instance, a rule application or a modus ponens chain, over random
    substituents."""
    sub = [gen.formula(rng, 1, 2, max_nodes=4) for _ in range(3)]
    if shape == 0:
        return calculi.ax(imc, "neg-a", {0: sub[0]})
    if shape == 1:
        return calculi.ax(imc, "i-dia", {0: sub[0]}, [sub[1]])
    if shape == 2:
        base = rng.choice(["K", "and-elim-1", "or-intro-1", "id"])
        lemma = calculi.ax(imc, base, {0: sub[0], 1: sub[1]})
        return calculi.mon(rng.choice(["MonBox", "MonDia"]), imc, lemma)
    if shape == 3:
        ctx = [sub[0], Implies(sub[0], sub[1])]
        return calculi.mp(calculi.el(sub[0], ctx), calculi.el(ctx[1], ctx))
    if shape == 4:
        return calculi.ax(imc, rng.choice(["S", "or-elim"]),
                          {0: sub[0], 1: sub[1], 2: sub[2]}, [sub[2]])
    lemma = calculi.ax(imc, "and-elim-2", {0: sub[0], 1: sub[1]})
    boxed = calculi.mon("MonBox", imc, lemma)
    k = calculi.ax(imc, "K", {0: boxed.conclusion.conclusion, 1: sub[2]})
    return calculi.mp(boxed, k)


def _paths(m, root, budget) -> int:
    """Number of worlds of the truncated unravelling from ``root``: order
    paths of at most ``budget`` steps, each followed by neighbourhood paths
    of at most ``budget`` steps."""
    ws = sorted(m.worlds)

    def nbhd_paths(x, left):
        return 1 + (0 if left == 0 else sum(
            nbhd_paths(y, left - 1) for a in m.nbhds.values() if x in a for y in a[x]))

    ends = {root: 1}
    total = 0
    for _ in range(budget + 1):
        total += sum(k * nbhd_paths(x, budget) for x, k in ends.items())
        nxt = {}
        for x, k in ends.items():
            for y in ws:
                if (x, y) in m.leq:
                    nxt[y] = nxt.get(y, 0) + k
        ends = nxt
    return total


def _small_unravelling(rng):
    """A coherent model (two or three worlds, one neighbourhood, as in
    criterion 6) and a formula of depth at most two whose larger unravelling budget
    gives at most MAX_PATHS paths.  The unravelling grows exponentially in
    the budget, and an uncapped draw makes one input in a few hundred run
    for seconds, which would make the workload's time depend on the seed."""
    while True:
        m = gen.coherent_inm(rng, rng.choice((2, 2, 3)), 1, 1)
        f = gen.formula(rng, 2, 1)
        if _paths(m, min(m.worlds), max(ref.modal_depth(f), 1) + 3) <= MAX_PATHS:
            return m, [f]


def _input(rng, kind):
    """One seeded input for ``kind`` and the formulas its check uses."""
    if kind == "bullet":
        return gen.ifom(rng, 3, 2, 2, 1), [gen.formula(rng, 3, 1) for _ in range(4)]
    if kind == "circle":
        return gen.cartesian_inm(gen.ifom(rng, 4, 3, 2, 1)), []
    if kind == "hat":
        return gen.inm(rng, 3, 2, 1), [gen.formula(rng, 3, 1) for _ in range(4)]
    if kind == "fullify":
        return gen.cnm(rng, 3, 2, 1), [gen.formula(rng, 3, 1, "nabla") for _ in range(6)]
    if kind == "star":
        return gen.coherent_inm(rng, 3, 2, 1), [gen.formula(rng, 3, 1) for _ in range(6)]
    if kind == "coh":
        return gen.coherent_inm(rng, rng.choice((2, 2, 3)), 1, 1), [gen.formula(rng, 2, 1)]
    return _small_unravelling(rng)


def setup(seed: int, tr, probe: bool = False) -> State:
    rng = random.Random(seed)
    imc = calculi.builtin_calculus("IM_Calc")
    hyps = [tr.call("syntax.parse", parse, t) for t in ("p0", "[]p0 & p1", "<>p2")]
    inputs, groups = [], []
    n_construct, n_proof = (1, 1) if probe else (CONSTRUCT_OPS, PROOF_OPS)
    for g in range(n_construct + n_proof):
        start = len(inputs)
        if (g == 1) if probe else (g % 4 == 3):
            inputs += [("proof", _corpus_item(rng, imc, shape), []) for shape in range(SHAPES)]
            groups.append(("proof", range(start, len(inputs))))
        else:
            inputs += [(kind, *_input(rng, kind)) for kind in CONSTRUCTIONS
                       for _ in range(PER_OP)]
            groups.append(("construct", range(start, len(inputs))))
    kinds = CONSTRUCTIONS + ("proof",)
    sample = {i for kind in kinds
              for i in rng.sample([k for k, x in enumerate(inputs) if x[0] == kind],
                                  1 if probe else SAMPLE)}
    return State(inputs, groups, hyps, sample)


def rounds(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def run_round(st: State, ops, tr) -> None:
    for kind, members in st.groups:
        ops.run(kind, _group, st, members, ops, tr)


def _group(st, members, ops, tr):
    for i in members:
        kind, item, fs = st.inputs[i]
        _OPS[kind](st, i, item, fs, ops, tr)


def _persistent(m, t, rel) -> bool:
    return all(b in t for (a, b) in rel if a in t)


def _nodes(tr, f, times=1):
    if tr.on:
        tr.count("models.eval_nodes", times * ref.dag_size(f))


def _inm(tr, m, f, ops):
    t = tr.call("models.eval_inm", truth_set_inm, m, f)
    _nodes(tr, f)
    ops.check(_persistent(m, t, m.leq), "an inm truth set is not an upset")
    return t


def _made(tr, name, fn, *args):
    result = tr.call("transforms." + name, fn, *args)
    tr.count("transforms.out_worlds", len(result.worlds))
    return result


def _op_bullet(st, i, s, fs, ops, tr):
    b = _made(tr, "bullet", bullet, s)
    for f in fs:
        t = _inm(tr, b, f, ops)
        for w in sorted(s.worlds):
            for x in sorted(s.interp[w].states):
                direct = tr.call("folm.eval", eval_modal_ifom, s, w, x, f)
                ops.check(direct == ((w, x) in t), "bullet changes a verdict")
                if i in st.sample:
                    st.seen.append(("ifom", s, (w, x), f, direct))
    return True


def _op_circle(st, i, m, fs, ops, tr):
    for level in ("coherent", "cartesian"):
        report = tr.call("models.check", check_inm, m, level)
        ops.check(report.ok, f"a Cartesian input fails the {level} check")
    back = _made(tr, "bullet", bullet, _made(tr, "circle", circle, m))
    iso = tr.call("models.iso", find_isomorphism, m, back)
    st.isos.append((m, back, iso))
    return True


def _op_hat(st, i, m, fs, ops, tr):
    h = _made(tr, "hat", hat, m)
    for f in fs:
        src = _inm(tr, m, f, ops)
        t = tr.call("models.eval_cnm", truth_set_cnm, h, f)
        _nodes(tr, f)
        ops.check(_persistent(h, t, h.preceq), "a cnm truth set is not an upset")
        ops.check(all((p in t) == (p[0] in src) for p in h.worlds), "hat changes a verdict")
        if i in st.sample:
            st.seen.append(("inm", m, None, f, src))
    return True


def _op_fullify(st, i, m, fs, ops, tr):
    full = _made(tr, "fullify", fullify, m)
    ops.check(tr.call("models.check", check_full, full), "fullify output is not full")
    for f in fs:
        a = tr.call("models.eval_cnm", truth_set_cnm, m, f)
        b = tr.call("models.eval_cnm", truth_set_cnm, full, f)
        _nodes(tr, f, 2)
        ops.check(a == b, "fullify changes a verdict")
        if i in st.sample:
            st.seen.append(("cnm", full, None, f, b))
    return True


def _op_star(st, i, m, fs, ops, tr):
    s = _made(tr, "star", star, m)
    ops.check(tr.call("models.check", check_ik2_frame, s).ok, "star output is not confluent")
    for f in fs:
        g = translate_bimodal(f)
        src = _inm(tr, m, f, ops)
        t = tr.call("models.eval_ik2", truth_set_ik2, s, g)
        _nodes(tr, g)
        ops.check(_persistent(s, t, s.leq), "an ik2 truth set is not an upset")
        ops.check(t & m.worlds == src, "star changes a verdict")
        if i in st.sample:
            st.seen.append(("ik2", s, None, g, t))
    return True


def _op_coh(st, i, m, fs, ops, tr):
    f = fs[0]
    d = max(ref.modal_depth(f), 1)
    src = _inm(tr, m, f, ops)
    for k in (d + 2, d + 3):
        c = _made(tr, "coh", coherent_completion, m, TruncationBudget(k, 1))
        t = _inm(tr, c, f, ops)
        ops.check(all(((w, 0) in t) == (w in src) for w in m.worlds),
                  "coherent completion changes a root verdict")
    return True


def _op_unravel(st, i, m, fs, ops, tr):
    f = fs[0]
    d = max(ref.modal_depth(f), 1)
    root = min(m.worlds)
    _inm(tr, m, f, ops)
    for length in (d + 2, d + 3):
        u = _made(tr, "unravel", unravel, m, root, TruncationBudget(1, length))
        st.unravelled.append((m, root, length, len(u.worlds)))
        _inm(tr, u, f, ops)
        # The root verdict is not compared with the source's: truncation
        # changes it on some inputs (see CHANGES.md), so the comparison
        # would fail on some seeds and not on others.
    return True


def _size(d) -> int:
    return 1 + sum(_size(p) for p in d.premises)


def _op_proof(st, i, d, fs, ops, tr):
    ik2 = calculi.builtin_calculus("IK2")
    imc = calculi.builtin_calculus("IM_Calc")
    out = tr.call("calculi.compile", calculi.compile_proof, d)
    ok = _checks(tr, ik2, out)
    ops.check(ok and out.conclusion.conclusion == ref.translate(d.conclusion.conclusion),
              "a compiled derivation does not re-check to the translated formula")
    for hyp in st.hyps:
        ded = tr.call("calculi.deduce", calculi.deduce, imc, d, hyp)
        ok = _checks(tr, imc, ded)
        ops.check(ok and ded.conclusion.conclusion == Implies(hyp, d.conclusion.conclusion),
                  "a deduced derivation does not re-check")
    return True


def _checks(tr, spec, d) -> bool:
    try:
        tr.call("calculi.check", calculi.check_derivation, spec, d)
    except calculi.DerivationError:
        return False
    if tr.on:
        tr.count("calculi.check_nodes", _size(d))
    return True


_OPS = {"bullet": _op_bullet, "circle": _op_circle, "hat": _op_hat,
        "fullify": _op_fullify, "star": _op_star, "coh": _op_coh,
        "unravel": _op_unravel, "proof": _op_proof}


def verify(st: State) -> list:
    problems = []
    for m, back, iso in st.isos:
        if iso is None or not ref.is_isomorphism(m, back, iso[0], iso[1]):
            problems.append("bullet(circle(m)) is not shown isomorphic to m")
    for kind, m, point, f, value in st.seen:
        if point is None:
            if ref.truth_set(kind, m, f) != value:
                problems.append(f"a {kind} truth set differs from the reference")
        elif ref.holds_ifom(m, point, f) != value:
            problems.append("an ifom verdict differs from the reference")
    if not st.seen:
        problems.append("no verdict was sampled for the reference")
    for m, root, length, size in st.unravelled:
        if size != _paths(m, root, length):
            problems.append(f"an unravelling has {size} paths, the reference counts "
                            f"{_paths(m, root, length)}")
    return problems

