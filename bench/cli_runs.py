"""Workload ``cli``: a fixed sequence of ``python -m imodal.cli`` processes,
run one at a time, on the shipped documents and on documents the benchmark
writes during set-up from the seed.

Each process is one operation, timed from start to exit, so it includes
interpreter and package start-up, ``docio``, and for ``search`` the process
pool of the default worker count.  Outputs are checked after the timed phase
against the reference semantics and the reference counts.

Two operations break the exit-code rule (2 for a parse or validation error)
and are counted as failed until the program is fixed: ``parse`` of 3,000
``~`` before ``p0`` dies with a ``RecursionError``, and ``check-model`` on a
document that is a JSON array dies with an ``AttributeError``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import checkout
import gen
import reference as ref
from imodal import docio
from imodal.syntax import Implies, parse, show

ROUND_SECONDS = 7.0
TIMEOUT = 120
DATA = os.path.join("src", "imodal", "data")
NEG_A = "([]p0 & <>~p0) -> F"
SEARCH_BOUNDS = (2, 1, 1)


@dataclass
class Command:
    kind: str  # operation kind; ``fault_*`` kinds are expected to fail
    argv: list
    check: object  # (returncode, stdout) -> problem text or None


@dataclass
class State:
    workdir: str
    commands: list
    docs: list
    runs: list = field(default_factory=list)


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return os.path.relpath(path, checkout.ROOT)


def _read(path):
    with open(os.path.join(checkout.ROOT, path), encoding="utf-8") as fh:
        return json.load(fh)


def _verdict_check(holds):
    def check(rc, out):
        payload = json.loads(out)
        if rc != (0 if holds else 1) or payload["value"] != holds:
            return f"exit {rc}, value {payload['value']}, reference {holds}"
        return None
    return check


def _derivation_doc(tr, d) -> dict:
    def fmt(f):
        return tr.call("syntax.show", show, f)

    doc = {"rule": d.rule,
           "conclusion": {"context": sorted(fmt(f) for f in d.conclusion.context),
                          "formula": fmt(d.conclusion.conclusion)},
           "premises": [_derivation_doc(tr, p) for p in d.premises]}
    if d.rule == "El":
        doc["certificate"] = {"member": fmt(d.certificate)}
    elif d.rule == "Ax":
        sid, items = d.certificate
        doc["certificate"] = {"schema": sid, "subst": {str(i): fmt(f) for i, f in items}}
    return doc


def setup(seed: int, tr, probe: bool = False) -> State:
    from imodal import calculi

    rng = random.Random(seed)
    os.makedirs(checkout.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=checkout.OUT)

    def path(name):
        return os.path.join(workdir, name)

    m_inm = gen.coherent_inm(rng, 3, 2, 1)
    m_coh = gen.coherent_inm(rng, 3, 1, 1)
    m_cnm = gen.cnm(rng, 3, 2, 1)
    s_ifom = gen.ifom(rng, 3, 2, 2, 1)
    inm_doc = _write(path("inm.json"), ref.model_to_json("inm", m_inm))
    coh_doc = _write(path("coh.json"), ref.model_to_json("inm", m_coh))
    cnm_doc = _write(path("cnm.json"), ref.model_to_json("cnm", m_cnm))
    ifom_doc = _write(path("ifom.json"), ref.model_to_json("ifom", s_ifom))
    array_doc = _write(path("array.json"), [{"kind": "inm", "worlds": ["w"]}])
    _, src_inm = ref.model_from_json(_read(inm_doc))
    _, src_coh = ref.model_from_json(_read(coh_doc))
    _, src_cnm = ref.model_from_json(_read(cnm_doc))
    _, src_ifom = ref.model_from_json(_read(ifom_doc))

    phi = gen.formula(rng, 3, 1)
    phi_cnm = gen.formula(rng, 3, 1, "nabla")
    phi_coh = gen.formula(rng, 2, 1)
    big = gen.formula(rng, 5, 3, max_nodes=40)
    text = {f: tr.call("syntax.show", show, f) for f in (phi, phi_cnm, phi_coh, big)}
    w_inm = rng.choice(sorted(src_inm.worlds))
    w_cnm = rng.choice(sorted(src_cnm.worlds))
    levels = max(ref.modal_depth(phi_coh), 1) + 2

    a, b = gen.formula(rng, 1, 2, max_nodes=4), gen.formula(rng, 1, 2, max_nodes=4)
    ctx = [a, Implies(a, b)]
    d = calculi.mp(calculi.el(a, ctx), calculi.el(ctx[1], ctx))
    deriv_doc = _write(path("deriv.json"), _derivation_doc(tr, d))
    ded_out = os.path.relpath(path("deduced.json"), checkout.ROOT)
    hat_out = os.path.relpath(path("hat.json"), checkout.ROOT)
    star_out = os.path.relpath(path("star.json"), checkout.ROOT)
    coh_out = os.path.relpath(path("coh-out.json"), checkout.ROOT)
    ik2_doc = os.path.join(DATA, "ik2_counterexample.json")
    _, src_ik2 = ref.model_from_json(_read(ik2_doc))
    examined = ref.count_inm(*SEARCH_BOUNDS)

    def check_parse(rc, out):
        got = parse(json.loads(out)["canonical"])
        return None if rc == 0 and got == big else "parse output does not re-parse to its input"

    def check_trace(rc, out):
        holds = ref.holds_inm(src_inm, w_inm, phi)
        lines = json.loads(out)["trace"]
        if not lines[0].endswith(": " + str(holds).lower()):
            return "the trace's first line does not give the reference verdict"
        return _verdict_check(holds)(rc, out)

    def check_coherent(rc, out):
        ok = all(ref.coherent(src_inm, fn) for fn in src_inm.nbhds.values())
        statuses = {r["status"] for r in json.loads(out)}
        return None if rc == 0 and ok and statuses == {"pass"} else "coherent model not passed"

    def check_ik2(rc, out):
        good = all(ref.ik2_confluent(src_ik2.worlds, src_ik2.leq, r)
                   for r in (src_ik2.relN, src_ik2.relE))
        return None if rc == (0 if good else 1) else f"exit {rc}, reference frame {good}"

    def check_translate(rc, out):
        got = parse(json.loads(out)["result"], "bimodal")
        return None if rc == 0 and got == ref.translate(phi) else "translation differs"

    def check_bullet(rc, out):
        _, m = ref.model_from_json(json.loads(out))
        for p in ref.points("ifom", src_ifom):
            if ref.holds_ifom(src_ifom, p, phi) != ref.holds_inm(m, f"({p[0]},{p[1]})", phi):
                return f"bullet changes the verdict at {p}"
        return None

    def check_hat(rc, out):
        _, m = ref.model_from_json(_read(hat_out))
        for w in m.worlds:
            base = w[1:w.index(",")]
            if ref.holds_cnm(m, w, phi) != ref.holds_inm(src_inm, base, phi):
                return f"hat changes the verdict at {w}"
        return None

    def check_star(rc, out):
        _, m = ref.model_from_json(_read(star_out))
        g = ref.translate(phi)
        for w in src_inm.worlds:
            if ref.holds_ik2(m, w, g) != ref.holds_inm(src_inm, w, phi):
                return f"star changes the verdict at {w}"
        return None

    def check_coh(rc, out):
        _, m = ref.model_from_json(_read(coh_out))
        for w in src_coh.worlds:
            if ref.holds_inm(m, f"({w},0)", phi_coh) != ref.holds_inm(src_coh, w, phi_coh):
                return f"coherent completion changes the verdict at {w}"
        return None

    def check_search(rc, out):
        payload = json.loads(out)
        if rc != 0 or payload["status"] != "none-within-bounds" \
                or payload["examined"] != examined:
            return f"search gives {payload}, the reference counts {examined}"
        return None

    def check_proof(rc, out):
        return None if rc == 0 and json.loads(out)["status"] == "ok" else "proof check failed"

    def check_deduce(rc, out):
        spec = calculi.builtin_calculus("IM_Calc")
        got = docio.read_derivation(os.path.join(checkout.ROOT, ded_out), "modal")
        try:
            calculi.check_derivation(spec, got)
        except calculi.DerivationError as exc:
            return f"deduced derivation does not check: {exc}"
        if rc != 0 or got.conclusion.conclusion != Implies(a, b):
            return "deduced derivation has the wrong conclusion"
        return None

    def check_reproduce(rc, out):
        payload = json.loads(out)
        ok = rc == 0 and payload["passed"] == payload["total"] and payload["total"] >= 14
        return None if ok else f"reproduce: {payload['passed']}/{payload['total']}"

    commands = [
        Command("cli.parse", ["parse", text[big], "--json"], check_parse),
        Command("cli.eval", ["eval", inm_doc, w_inm, text[phi], "--json"],
                _verdict_check(ref.holds_inm(src_inm, w_inm, phi))),
        Command("cli.eval", ["eval", cnm_doc, w_cnm, text[phi_cnm], "--json"],
                _verdict_check(ref.holds_cnm(src_cnm, w_cnm, phi_cnm))),
        Command("cli.eval_trace", ["eval", inm_doc, w_inm, text[phi], "--trace", "--json"],
                check_trace),
        Command("cli.check_model", ["check-model", inm_doc, "--level", "coherent", "--json"],
                check_coherent),
        Command("cli.check_model", ["check-model", ik2_doc, "--json"], check_ik2),
        Command("cli.translate", ["translate", "bimodal", text[phi], "--json"], check_translate),
        Command("cli.transform", ["transform", "bullet", ifom_doc, "--json"], check_bullet),
        Command("cli.transform", ["transform", "hat", inm_doc, "--out", hat_out, "--json"],
                check_hat),
        Command("cli.transform", ["transform", "star", inm_doc, "--out", star_out, "--json"],
                check_star),
        Command("cli.transform", ["transform", "coh", coh_doc, "--coh-levels", str(levels),
                                  "--out", coh_out, "--json"], check_coh),
        Command("cli.search", ["search", NEG_A, "--kind", "inm",
                               "--max-worlds", str(SEARCH_BOUNDS[0]),
                               "--max-nbhds", str(SEARCH_BOUNDS[1]),
                               "--max-atoms", str(SEARCH_BOUNDS[2]), "--json"], check_search),
        Command("cli.proof", ["proof", "check", os.path.join(DATA, "neg_a_translated.json"),
                              "--calculus", "IK2", "--json"], check_proof),
        Command("cli.proof", ["proof", "deduce", deriv_doc, "--calculus", "IM_Calc",
                              "--phi", tr.call("syntax.show", show, a), "--out", ded_out,
                              "--json"], check_deduce),
        Command("cli.reproduce", ["reproduce", "--json"], check_reproduce),
    ]
    if not probe:
        commands += [
            Command("fault_parse", ["parse", "~" * 3000 + "p0"], None),
            Command("fault_check_model", ["check-model", array_doc], None),
        ]
    docs = [inm_doc, coh_doc, cnm_doc, ifom_doc] + [
        os.path.join(DATA, n) for n in sorted(os.listdir(os.path.join(checkout.ROOT, DATA)))
        if not n.endswith("_translated.json")]
    return State(workdir, commands, docs)


def rounds(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def _spawn(argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=checkout.ROOT,
                          env=checkout.subprocess_env(), capture_output=True,
                          text=True, timeout=TIMEOUT)


def run_round(st: State, ops, tr) -> None:
    for c in st.commands:
        ops.run(c.kind, _run, st, c)


def _run(st, c):
    done = _spawn(["-m", "imodal.cli", *c.argv])
    st.runs.append((c, done.returncode, done.stdout, done.stderr))
    if c.kind.startswith("fault_"):
        # the exit-code rule: a parse or validation error exits 2, cleanly
        return done.returncode == 2 and "Traceback" not in done.stderr
    return True


def extra_probe(st: State, tr) -> None:
    """Traced runs only: the import cost of the CLI module in a fresh
    interpreter, and the document layer on the workload's documents."""
    if not tr.on:
        return
    bare, loaded = [], []
    for _ in range(5):
        for argv, out in ((["-c", "pass"], bare), (["-c", "import imodal.cli"], loaded)):
            start = perf_counter()
            _spawn(argv).check_returncode()
            out.append(perf_counter() - start)
    tr.count("cli.import_s", statistics.median(loaded) - statistics.median(bare))
    for doc in st.docs:
        model = tr.call("docio.read", docio.read_model, os.path.join(checkout.ROOT, doc))
        tr.call("docio.to_doc", docio.model_to_doc, model)


def verify(st: State) -> list:
    problems = []
    for c, rc, out, err in st.runs:
        if c.check is None:
            continue
        if "Traceback" in err:
            problems.append(f"{c.argv[0]} exits through a traceback")
            continue
        try:
            problem = c.check(rc, out)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem:
            problems.append(f"{' '.join(c.argv[:2])}: {problem}")
    return problems


def close(st: State) -> None:
    shutil.rmtree(st.workdir, ignore_errors=True)
