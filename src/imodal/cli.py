"""Command-line surface: parse, eval (with trace), check-model, translate,
transform, search, proof, and a reproduce command that replays the shipped
example documents.

Truth-valued commands exit 0 for true/pass, 1 for false/fail, and 2 on parse
or validation errors, so shell harnesses need no output parsing.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from . import calculi, docio, folm, models, search, syntax, transforms
from .syntax import parse, show


class CliError(Exception):
    pass


def _parse_for_kind(text: str, kind: str):
    last = None
    for dialect in models.KINDS[kind].dialects:
        try:
            return parse(text, dialect)
        except syntax.FormulaSyntaxError as exc:
            last = exc
    raise CliError(f"cannot parse formula for {kind} model: {last}")


def _load_model(path: str, validate: bool = True):
    try:
        model = docio.read_model(path, validate=validate)
    except (OSError, json.JSONDecodeError, docio.DocumentError) as exc:
        raise CliError(f"cannot load model {path}: {exc}") from exc
    return docio.model_kind(model), model


# ---------------------------------------------------------------------------
# Evaluation trace
# ---------------------------------------------------------------------------

def _successors(kind, model, point):
    if kind == "classical":
        return [point]
    if kind == "ifom":
        w, x = point
        return [(v, x) for v in sorted(model.worlds, key=str)
                if (w, v) in model.leq]
    rel = model.preceq if kind == "cnm" else model.leq
    return [v for v in sorted(model.worlds, key=str) if (point, v) in rel]


def _modal_note(kind, model, point, phi) -> str:
    holds = models.KINDS[kind].holds
    sub = phi.sub
    if kind == "inm":
        if isinstance(phi, syntax.Box):
            for name in sorted(model.nbhds, key=str):
                a = model.nbhds[name]
                if point in a and all(
                        all(holds(model, v, sub) for v in a.get(wp, ()))
                        for wp in _successors(kind, model, point)):
                    return f"witnessed by neighbourhood {name}"
            return "no neighbourhood stays inside the truth set at all successors"
        for wp in _successors(kind, model, point):
            for name in sorted(model.nbhds, key=str):
                a = model.nbhds[name]
                if wp in a and not any(holds(model, v, sub) for v in a[wp]):
                    return f"fails: neighbourhood {name} at successor {wp} has no member satisfying {show(sub)}"
        return "every neighbourhood of every successor has a witness"
    if kind == "cnm":
        if isinstance(phi, (syntax.Box, syntax.Nabla)):
            for wp in _successors(kind, model, point):
                if not any(all(holds(model, v, sub) for v in a)
                           for a in model.gamma.get(wp, frozenset())):
                    return f"fails at successor {wp}: no neighbourhood inside the truth set"
            return "every successor has a covering neighbourhood"
        for wp in _successors(kind, model, point):
            for a in model.gamma.get(wp, frozenset()):
                if not any(holds(model, v, sub) for v in a):
                    return f"fails at successor {wp}: a neighbourhood misses {show(sub)}"
        return "every neighbourhood of every successor has a witness"
    if kind == "ik2":
        rel = model.relN if phi.index == "N" else model.relE
        if isinstance(phi, syntax.BiBox):
            for y in sorted(model.worlds, key=str):
                if (point, y) in model.leq:
                    for z in sorted(model.worlds, key=str):
                        if (y, z) in rel and not holds(model, z, sub):
                            return f"fails via {point} <= {y} R {z}"
            return "all relational successors above the point satisfy the body"
        for y in sorted(model.worlds, key=str):
            if (point, y) in rel and holds(model, y, sub):
                return f"witnessed by {y}"
        return "no relational successor satisfies the body"
    if kind == "classical":
        fam = model.nf.get(point, frozenset())
        if isinstance(phi, syntax.Box):
            for a in fam:
                if all(holds(model, v, sub) for v in a):
                    return "witnessed by a neighbourhood"
            return "no neighbourhood is contained in the truth set"
        for a in fam:
            if not any(holds(model, v, sub) for v in a):
                return "a neighbourhood has no witness"
        return "every neighbourhood has a witness"
    return ""  # ifom: the pair clauses speak for themselves


def trace_eval(kind, model, point, phi, depth=0, lines=None):
    """Clause-by-clause evaluation tree at the queried point; modal clauses
    and implications carry a note naming the deciding world."""
    if lines is None:
        lines = []
    holds = models.KINDS[kind].holds
    value = holds(model, point, phi)
    pad = "  " * depth
    lines.append(f"{pad}[{point}] {show(phi)} : {str(value).lower()}")
    if isinstance(phi, (syntax.And, syntax.Or)):
        trace_eval(kind, model, point, phi.left, depth + 1, lines)
        trace_eval(kind, model, point, phi.right, depth + 1, lines)
    elif isinstance(phi, syntax.Implies):
        if kind == "classical":
            trace_eval(kind, model, point, phi.left, depth + 1, lines)
            trace_eval(kind, model, point, phi.right, depth + 1, lines)
        else:
            failing = [v for v in _successors(kind, model, point)
                       if holds(model, v, phi.left)
                       and not holds(model, v, phi.right)]
            if failing:
                v = failing[0]
                lines.append(f"{pad}  fails at successor [{v}]:")
                trace_eval(kind, model, v, phi.left, depth + 1, lines)
                trace_eval(kind, model, v, phi.right, depth + 1, lines)
            else:
                lines.append(f"{pad}  holds at every successor")
                trace_eval(kind, model, point, phi.left, depth + 1, lines)
                trace_eval(kind, model, point, phi.right, depth + 1, lines)
    elif isinstance(phi, (syntax.Box, syntax.Dia, syntax.Nabla,
                          syntax.BiBox, syntax.BiDia)):
        note = _modal_note(kind, model, point, phi)
        if note:
            lines.append(f"{pad}  {note}")
        trace_eval(kind, model, point, phi.sub, depth + 1, lines)
    return value, lines


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


def _point_of(kind, model, world_arg: str):
    if kind == "ifom":
        if "/" not in world_arg:
            raise CliError("ifom evaluation points are written world/state")
        w, x = world_arg.split("/", 1)
        return (w, x)
    return world_arg


def _cmd_eval(args) -> int:
    kind, model = _load_model(args.model, validate=not args.no_validate)
    phi = _parse_for_kind(args.formula, kind)
    point = _point_of(kind, model, args.world)
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
        var = folm.Var(folm.SORT_STATE, args.var)
        out = folm.show_fo(folm.standard_translation(parse(args.formula, "modal"), var))
    print(json.dumps({"mode": args.mode, "result": out}) if args.json else out)
    return 0


def _cmd_transform(args) -> int:
    kind, model = _load_model(args.model, validate=not args.no_validate)
    budget = transforms.TruncationBudget(coh_levels=args.coh_levels,
                                         unravel_len=args.unravel_len)
    name = args.name
    try:
        if name == "bullet":
            _expect_kind(kind, "ifom", name)
            out = transforms.bullet(model)
        elif name == "circle":
            _expect_kind(kind, "inm", name)
            out = transforms.circle(model)
        elif name == "coh":
            _expect_kind(kind, "inm", name)
            out = transforms.coherent_completion(model, budget)
        elif name == "unravel":
            _expect_kind(kind, "inm", name)
            if args.source is None:
                raise CliError("unravel requires --source WORLD")
            out = transforms.unravel(model, args.source, budget)
        elif name == "hat":
            _expect_kind(kind, "inm", name)
            out = transforms.hat(model)
        elif name == "fullify":
            _expect_kind(kind, "cnm", name)
            out = transforms.fullify(model)
        else:  # star
            _expect_kind(kind, "inm", name)
            out = transforms.star(model)
    except transforms.TransformError as exc:
        raise CliError(str(exc)) from exc
    doc = docio.model_to_doc(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        summary = {"written": args.out, "kind": doc["kind"],
                   "worlds": len(doc["worlds"])}
        print(json.dumps(summary) if args.json else
              f"wrote {doc['kind']} model with {len(doc['worlds'])} worlds to {args.out}")
    else:
        print(json.dumps(doc, indent=None if args.json else 2, sort_keys=True))
    return 0


def _expect_kind(kind, wanted, name):
    if kind != wanted:
        raise CliError(f"transform {name} expects a {wanted} document, got {kind}")


def _cmd_search(args) -> int:
    kind = args.kind
    context = [_parse_for_kind(t.strip(), kind) for t in args.context.split(";")
               if t.strip()] if args.context else []
    phi = _parse_for_kind(args.formula, kind)
    bounds = search.SearchBounds(args.max_worlds, args.max_nbhds, args.max_atoms,
                                 require_coherent=args.coherent,
                                 require_cartesian=args.cartesian,
                                 require_full=args.full)
    consec = syntax.consecution(context, phi)
    result = search.find_countermodel(consec, kind, bounds,
                                      timeout_ms=args.timeout_ms,
                                      workers=args.workers)
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
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload["model"], fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(payload, indent=None if args.json else 2, sort_keys=True))
    return 0


def _cmd_proof(args) -> int:
    spec = calculi.builtin_calculus(args.calculus)
    try:
        derivation = docio.read_derivation(args.derivation, spec.dialect)
    except (OSError, json.JSONDecodeError, docio.DocumentError,
            syntax.FormulaSyntaxError) as exc:
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
        docio.write_derivation(target, out)
        print(json.dumps({"written": target,
                          "formula": show(out.conclusion.conclusion)})
              if args.json else
              f"wrote derivation of {show(out.conclusion.conclusion)} to {target}")
    return 0


# ---------------------------------------------------------------------------
# Reproduction of the shipped examples
# ---------------------------------------------------------------------------

def _data(name: str) -> str:
    return str(resources.files("imodal").joinpath("data", name))


def _cmd_reproduce(args) -> int:
    checks = []

    def record(label, ok):
        checks.append((label, ok))
        if not args.json:
            print(f"{'PASS' if ok else 'FAIL'}  {label}")

    kind, wm = _load_model(_data("wm_counterexample.json"))
    record("WM model: w falsifies ([]T -> <>p0) -> <>p0",
           not models.eval_cnm(wm, "w", parse("([]T -> <>p0) -> <>p0")))
    record("WM model: neither world satisfies []T",
           not models.eval_cnm(wm, "w", parse("[]T"))
           and not models.eval_cnm(wm, "v", parse("[]T")))

    kind, nab = _load_model(_data("im_nabla_counterexample.json"))
    target = parse("(~nabla F -> nabla T) -> nabla T", "nabla")
    record("single-modality model: w falsifies (~nabla F -> nabla T) -> nabla T",
           not models.eval_cnm(nab, "w", target))
    record("single-modality model: v satisfies nabla F",
           models.eval_cnm(nab, "v", parse("nabla F", "nabla")))

    kind, ik = _load_model(_data("ik2_counterexample.json"))
    big = parse("(<N>[E]F -> [N]<E>T) -> [N]<E>T", "bimodal")
    record("bimodal model: w falsifies the translated formula",
           not models.eval_ik2(ik, "w", big))
    record("bimodal model: v satisfies [N]<E>T",
           models.eval_ik2(ik, "v", parse("[N]<E>T", "bimodal")))

    kind, ifm = _load_model(_data("ifom_example.json"))
    dia = parse("<>p0")
    direct = folm.eval_modal_ifom(ifm, "w1", "d1", dia)
    x = folm.Var(folm.SORT_STATE, "x")
    translated = folm.eval_fo_kripke(ifm, "w1", folm.standard_translation(dia, x),
                                     {x: "d1"})
    record("growing-structure example: (w1, d1) satisfies <>p0 by both routes",
           direct and translated)

    kind, fig1 = _load_model(_data("figure1_frame.json"))
    p1 = transforms.Path(("w", "v", "u", "s"), (None, "a", "a"))
    p2 = transforms.Path(("w", "v", "t", "x"), (None, "a", "a"))
    p3 = transforms.Path(("w", "v", "v", "u", "s"), (None, None, "a", "a"))
    record("unravelling paths: p1 <=ur p3 and not p1 <=ur p2",
           transforms.leq_ur(fig1, p1, p3) and not transforms.leq_ur(fig1, p1, p2))
    ur = transforms.unravel(fig1, "w", transforms.TruncationBudget(1, 4))
    from .orders import equivalence_classes
    uf = equivalence_classes(ur.worlds, models.nbhd_relation(ur))
    record("unravelling paths: p1 and p2 are related by the membership equivalence",
           uf.same(p1, p2))

    ik2 = calculi.builtin_calculus("IK2")
    for name in ("neg_a_translated.json", "i_dia_translated.json"):
        d = docio.read_derivation(_data(name), "bimodal")
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

    kind, cm = _load_model(_data("inm_box_bot_counterexample.json"))
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
    p.add_argument("--kind", choices=search.KINDS, default="inm")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--max-nbhds", type=int, default=2)
    p.add_argument("--max-atoms", type=int, default=1)
    p.add_argument("--coherent", action="store_true")
    p.add_argument("--cartesian", action="store_true")
    p.add_argument("--full", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timeout-ms", type=int, default=None)
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
    except (CliError, syntax.FormulaSyntaxError, folm.EvaluationError,
            models.ModelError, calculi.DerivationError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
