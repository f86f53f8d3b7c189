"""Command-line surface: parse, eval (with trace), check-model, translate,
transform, search, proof, and a reproduce command that replays the shipped
example documents.

Truth-valued commands exit 0 for true/pass, 1 for false/fail, and 2 on parse
or validation errors, so shell harnesses need no output parsing.  ``search``
is not truth-valued: it exits 0 whenever the search ran, whatever it found,
and 2 on an error.

``main`` is the one place where errors become exit 2.  Every error that the
package raises on bad input is a ``ValueError`` (``CliError`` too), as are JSON
and UTF-8 decoding errors; a file that cannot be read or written raises
``OSError``, and an over-deep document ``RecursionError``.  Any other
exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import syntax
from .syntax import parse, show


class CliError(ValueError):
    pass


def _parse_for_kind(text: str, kind: str):
    from . import models
    last = None
    for dialect in models.KINDS[kind].dialects:
        try:
            return parse(text, dialect)
        except syntax.FormulaSyntaxError as exc:
            last = exc
    raise CliError(f"cannot parse formula for {kind} model: {last}")


def _load_model(path: str, validate: bool = True):
    from . import docio
    try:
        model = docio.read_model(path, validate=validate)
    except (ValueError, OSError, RecursionError) as exc:
        raise CliError(f"cannot load model {path}: {exc}") from exc
    return docio.model_kind(model), model


def _write(path: str, doc, **layout) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, **layout)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Evaluation trace
# ---------------------------------------------------------------------------

def _note(exists, found, i, successors, points) -> str:
    """The trace note for a clause read as ``(exists, found)`` (see
    ``models``) at the point of index ``i``: whether it has a witness, or
    the first successor by label that refutes the clause, with what refutes
    it there."""
    if exists:
        if i not in found:
            return "no witness"
        return "witnessed" if found[i] is None else f"witnessed by {found[i]}"
    v = next((v for v in successors if v in found), None)
    if v is None:
        return "holds at every successor"
    return f"fails at successor [{points[v]}]" + ("" if found[v] is None else f": {found[v]}")


def trace_eval(kind, model, point, phi):
    """Clause-by-clause evaluation tree at the queried point, from one
    evaluation of ``phi`` by the kind's clauses.  Implications and modal
    clauses carry a note read from the clause that decided them; an
    implication that fails is traced at its first failing successor.  The
    points of an ifom structure are its (world, state) pairs.  Returns
    ``(value, lines)``."""
    from . import models
    spec = models.KINDS[kind]
    spec.holds(model, point, syntax.FALSUM)  # raises at an unknown point
    points, up, val, modal = spec.clauses(model)
    memo: dict = {}
    models._truth_set(up, val, modal, phi, memo)

    def holds(i, f):
        return bool(memo[f] >> i & 1)

    def successors(i):
        return [v for v in range(len(points)) if up[i] >> v & 1]

    lines = []

    def walk(i, f, pad):
        lines.append(f"{pad}[{points[i]}] {show(f)} : {str(holds(i, f)).lower()}")
        if isinstance(f, (syntax.And, syntax.Or)):
            walk(i, f.left, pad + "  ")
            walk(i, f.right, pad + "  ")
        elif isinstance(f, syntax.Implies):
            failing = [v for v in successors(i)
                       if holds(v, f.left) and not holds(v, f.right)]
            lines.append(f"{pad}  {_note(False, dict.fromkeys(failing), i, failing, points)}")
            at = failing[0] if failing else i
            walk(at, f.left, pad + "  ")
            walk(at, f.right, pad + "  ")
        elif not isinstance(f, (syntax.Atom, syntax.Falsum)):
            exists, found = modal(f, memo[f.sub])
            lines.append(f"{pad}  {_note(exists, found, i, successors(i), points)}")
            walk(i, f.sub, pad + "  ")

    at = points.index(point)
    walk(at, phi, "")
    return holds(at, phi), lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    formula = parse(args.text, args.dialect)
    if args.json:
        print(json.dumps({"dialect": args.dialect, "input": args.text,
                          "canonical": show(formula)}))
    else:
        print(show(formula))
    return 0


def _point_of(kind, world_arg: str):
    if kind == "ifom":
        if "/" not in world_arg:
            raise CliError("ifom evaluation points are written world/state")
        w, x = world_arg.split("/", 1)
        return (w, x)
    return world_arg


def _cmd_eval(args) -> int:
    from . import models
    kind, model = _load_model(args.model, validate=not args.no_validate)
    phi = _parse_for_kind(args.formula, kind)
    point = _point_of(kind, args.world)
    lines = None
    if args.trace:
        value, lines = trace_eval(kind, model, point, phi)
    else:
        value = models.KINDS[kind].holds(model, point, phi)
    if args.json:
        payload = {"kind": kind, "world": args.world,
                   "formula": show(phi), "value": value}
        if lines is not None:
            payload["trace"] = lines
        print(json.dumps(payload))
    elif lines is not None:
        print("\n".join(lines))
    else:
        print(str(value).lower())
    return 0 if value else 1


def _cmd_check_model(args) -> int:
    from . import models
    kind, model = _load_model(args.model, validate=False)
    spec = models.KINDS[kind]
    levels = ("basic",) + tuple(spec.checks)
    reports = []
    for level in (args.level,) if args.level else levels:
        if level not in levels:
            raise CliError(f"level {level!r} does not apply to {kind} models")
        if level == "basic":
            reports.append(models.CheckReport(f"{kind}-basic", spec.validate(model)))
        else:
            reports.append(spec.checks[level](model))
    payload = [r.to_json() for r in reports]
    print(json.dumps(payload, indent=None if args.json else 2))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_translate(args) -> int:
    if args.mode == "bimodal":
        out = show(syntax.translate_bimodal(parse(args.formula, "modal")))
    elif args.mode == "box":
        out = show(syntax.embed_box(parse(args.formula, "nabla")))
    elif args.mode == "dia":
        out = show(syntax.embed_dia(parse(args.formula, "nabla")))
    else:  # st
        from . import folm
        var = folm.Var(folm.SORT_STATE, args.var)
        out = folm.show_fo(folm.standard_translation(parse(args.formula, "modal"), var))
    print(json.dumps({"mode": args.mode, "result": out}) if args.json else out)
    return 0


def _cmd_transform(args) -> int:
    from . import docio, transforms
    kind, model = _load_model(args.model, validate=not args.no_validate)
    budget = transforms.TruncationBudget(coh_levels=args.coh_levels,
                                         unravel_len=args.unravel_len)
    name = args.name
    wanted = {"bullet": "ifom", "fullify": "cnm"}.get(name, "inm")
    if kind != wanted:
        raise CliError(f"transform {name} expects a {wanted} document, got {kind}")
    if name == "unravel" and args.source is None:
        raise CliError("unravel requires --source WORLD")
    if name == "coh":
        out = transforms.coherent_completion(model, budget)
    elif name == "unravel":
        out = transforms.unravel(model, args.source, budget)
    else:
        out = {"bullet": transforms.bullet, "circle": transforms.circle,
               "hat": transforms.hat, "fullify": transforms.fullify,
               "star": transforms.star}[name](model)
    doc = docio.model_to_doc(out)
    if args.out:
        _write(args.out, doc, indent=2, sort_keys=True)
        summary = {"written": args.out, "kind": doc["kind"],
                   "worlds": len(doc["worlds"])}
        print(json.dumps(summary) if args.json else
              f"wrote {doc['kind']} model with {len(doc['worlds'])} worlds to {args.out}")
    else:
        print(json.dumps(doc, indent=None if args.json else 2, sort_keys=True))
    return 0


def _cmd_search(args) -> int:
    from . import docio, models, search
    kind = args.kind
    if kind not in models.KINDS:
        raise CliError(f"unknown kind {kind!r}; expected one of {', '.join(models.KINDS)}")
    context = [_parse_for_kind(t.strip(), kind) for t in args.context.split(";")
               if t.strip()] if args.context else []
    phi = _parse_for_kind(args.formula, kind)
    bounds = search.SearchBounds(args.max_worlds, args.max_nbhds, args.max_atoms,
                                 require_coherent=args.coherent,
                                 require_cartesian=args.cartesian,
                                 require_full=args.full)
    result = search.find_countermodel(syntax.consecution(context, phi), kind, bounds,
                                      timeout_ms=args.timeout_ms)
    if isinstance(result, search.CounterexampleFound):
        doc = docio.model_to_doc(result.model)
        labels = docio._labelling(result.model.worlds)
        world = (labels.get(result.world) if kind != "ifom"
                 else f"{result.world[0]}/{result.world[1]}")
        payload = {"status": "counterexample", "kind": kind,
                   "world": world, "model": doc}
    else:
        payload = {"status": "none-within-bounds", "examined": result.examined,
                   "elapsed": round(result.elapsed, 3), "timed_out": result.timed_out}
    if args.out and payload.get("model"):
        _write(args.out, payload["model"], indent=2, sort_keys=True)
    print(json.dumps(payload, indent=None if args.json else 2, sort_keys=True))
    return 0


def _cmd_proof(args) -> int:
    from . import calculi, docio
    spec = calculi.builtin_calculus(args.calculus)
    try:
        derivation = docio.read_derivation(args.derivation, spec.dialect)
    except (ValueError, OSError, RecursionError) as exc:
        raise CliError(f"cannot load derivation: {exc}") from exc
    if args.mode == "check":
        try:
            calculi.check_derivation(spec, derivation)
        except calculi.DerivationError as exc:
            print(json.dumps({"status": "invalid", "error": str(exc)})
                  if args.json else f"invalid: {exc}")
            return 1
        print(json.dumps({"status": "ok"}) if args.json else "ok")
        return 0
    if args.mode == "compile":
        if args.calculus != "IM_Calc":
            raise CliError("compile expects --calculus IM_Calc")
        out = calculi.compile_proof(derivation)
        calculi.check_derivation(calculi.builtin_calculus("IK2"), out)
    else:  # deduce
        if not args.phi:
            raise CliError("deduce requires --phi FORMULA")
        phi = parse(args.phi, spec.dialect)
        out = calculi.deduce(spec, derivation, phi)
        calculi.check_derivation(spec, out)
    target = args.out or "-"
    if target == "-":
        print(json.dumps(docio.derivation_to_doc(out)))
    else:
        _write(target, docio.derivation_to_doc(out), indent=1)
        print(json.dumps({"written": target,
                          "formula": show(out.conclusion.conclusion)})
              if args.json else
              f"wrote derivation of {show(out.conclusion.conclusion)} to {target}")
    return 0


# ---------------------------------------------------------------------------
# Reproduction of the shipped examples
# ---------------------------------------------------------------------------

def _cmd_reproduce(args) -> int:
    from importlib import resources
    from . import calculi, docio, folm, models, search, transforms
    data = resources.files("imodal") / "data"
    checks = []

    def record(label, ok):
        checks.append((label, ok))
        if not args.json:
            print(f"{'PASS' if ok else 'FAIL'}  {label}")

    kind, wm = _load_model(data / "wm_counterexample.json")
    record("WM model: w falsifies ([]T -> <>p0) -> <>p0",
           not models.eval_cnm(wm, "w", parse("([]T -> <>p0) -> <>p0")))
    record("WM model: neither world satisfies []T",
           not models.eval_cnm(wm, "w", parse("[]T"))
           and not models.eval_cnm(wm, "v", parse("[]T")))

    kind, nab = _load_model(data / "im_nabla_counterexample.json")
    target = parse("(~nabla F -> nabla T) -> nabla T", "nabla")
    record("single-modality model: w falsifies (~nabla F -> nabla T) -> nabla T",
           not models.eval_cnm(nab, "w", target))
    record("single-modality model: v satisfies nabla F",
           models.eval_cnm(nab, "v", parse("nabla F", "nabla")))

    kind, ik = _load_model(data / "ik2_counterexample.json")
    big = parse("(<N>[E]F -> [N]<E>T) -> [N]<E>T", "bimodal")
    record("bimodal model: w falsifies the translated formula",
           not models.eval_ik2(ik, "w", big))
    record("bimodal model: v satisfies [N]<E>T",
           models.eval_ik2(ik, "v", parse("[N]<E>T", "bimodal")))

    kind, ifm = _load_model(data / "ifom_example.json")
    dia = parse("<>p0")
    direct = folm.eval_modal_ifom(ifm, "w1", "d1", dia)
    x = folm.Var(folm.SORT_STATE, "x")
    translated = folm.eval_fo_kripke(ifm, "w1", folm.standard_translation(dia, x),
                                     {x: "d1"})
    record("growing-structure example: (w1, d1) satisfies <>p0 by both routes",
           direct and translated)

    kind, fig1 = _load_model(data / "figure1_frame.json")
    p1 = transforms.Path(("w", "v", "u", "s"), (None, "a", "a"))
    p2 = transforms.Path(("w", "v", "t", "x"), (None, "a", "a"))
    p3 = transforms.Path(("w", "v", "v", "u", "s"), (None, None, "a", "a"))
    record("unravelling paths: p1 <=ur p3 and not p1 <=ur p2",
           transforms.leq_ur(fig1, p1, p3) and not transforms.leq_ur(fig1, p1, p2))
    ur = transforms.unravel(fig1, "w", transforms.TruncationBudget(1, 4))
    uf = models.r_equivalence(ur)
    record("unravelling paths: p1 and p2 are related by the membership equivalence",
           uf.same(p1, p2))

    ik2 = calculi.builtin_calculus("IK2")
    for name in ("neg_a_translated.json", "i_dia_translated.json"):
        d = docio.read_derivation(data / name, "bimodal")
        try:
            calculi.check_derivation(ik2, d)
            record(f"shipped derivation {name} checks", True)
        except calculi.DerivationError:
            record(f"shipped derivation {name} checks", False)

    leaf = calculi.ax(calculi.builtin_calculus("IM_Calc"), "i-dia", {0: syntax.Atom(0)})
    compiled = calculi.compile_proof(leaf)
    try:
        calculi.check_derivation(ik2, compiled)
        ok = compiled.conclusion.conclusion == syntax.translate_bimodal(
            leaf.conclusion.conclusion)
    except calculi.DerivationError:
        ok = False
    record("compiled diamond-interaction axiom re-checks", ok)

    kind, cm = _load_model(data / "inm_box_bot_counterexample.json")
    record("neighbourhood model: w falsifies ([]F -> <>T) -> <>T",
           not models.eval_inm(cm, "w", parse("([]F -> <>T) -> <>T")))
    result = search.find_countermodel(
        syntax.consecution([], parse("([]F -> <>T) -> <>T")), "inm",
        search.SearchBounds(2, 2, 0))
    record("search finds a two-world countermodel to ([]F -> <>T) -> <>T",
           isinstance(result, search.CounterexampleFound)
           and len(result.model.worlds) <= 2)

    failed = [label for label, ok in checks if not ok]
    if args.json:
        print(json.dumps({"passed": len(checks) - len(failed),
                          "total": len(checks),
                          "checks": [{"label": l, "ok": ok} for l, ok in checks]}))
    else:
        print(f"{len(checks) - len(failed)}/{len(checks)} reproduction checks passed")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    top = argparse.ArgumentParser(prog="imodal",
                                  description="intuitionistic monotone modal logic toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse and reprint a formula")
    p.add_argument("text")
    p.add_argument("--dialect", choices=syntax.DIALECTS, default="modal")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", parents=[common], help="evaluate a formula in a model")
    p.add_argument("model")
    p.add_argument("world", help="world label (world/state for ifom documents)")
    p.add_argument("formula")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check-model", parents=[common], help="run structural checks")
    p.add_argument("model")
    p.add_argument("--level", default=None,
                   help="basic|coherent|cartesian|full|frame (default: all that apply)")
    p.set_defaults(func=_cmd_check_model)

    p = sub.add_parser("translate", parents=[common], help="syntactic translations")
    p.add_argument("mode", choices=("bimodal", "box", "dia", "st"))
    p.add_argument("formula")
    p.add_argument("--var", default="x", help="state variable for st")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("transform", parents=[common], help="model constructions")
    p.add_argument("name", choices=("bullet", "circle", "coh", "unravel",
                                    "hat", "fullify", "star"))
    p.add_argument("model")
    p.add_argument("--out", default=None)
    p.add_argument("--coh-levels", type=int, default=3)
    p.add_argument("--unravel-len", type=int, default=4)
    p.add_argument("--source", default=None, help="base world for unravel")
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("search", parents=[common], help="bounded countermodel search")
    p.add_argument("formula")
    p.add_argument("--context", default="", help="semicolon-separated context formulas")
    p.add_argument("--kind", default="inm", help="model kind (default: inm)")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--max-nbhds", type=int, default=2)
    p.add_argument("--max-atoms", type=int, default=1)
    p.add_argument("--coherent", action="store_true")
    p.add_argument("--cartesian", action="store_true")
    p.add_argument("--full", action="store_true")
    p.add_argument("--timeout-ms", type=int, default=None, help="default: none")
    p.add_argument("--out", default=None, help="write a found countermodel here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("proof", parents=[common], help="check, compile or deduce")
    p.add_argument("mode", choices=("check", "compile", "deduce"))
    p.add_argument("derivation")
    p.add_argument("--calculus", default="IM_Calc",
                   choices=("ghc0", "WM", "IM_Calc", "iM", "IK2"))
    p.add_argument("--phi", default=None, help="hypothesis to discharge (deduce)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_proof)

    p = sub.add_parser("reproduce", parents=[common],
                       help="replay the shipped example documents")
    p.set_defaults(func=_cmd_reproduce)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
