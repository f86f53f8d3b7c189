import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imodal.cli import main, trace_eval
from imodal import docio, models, search
from imodal.calculi import IM_CALC, ax
from imodal.orders import successors
from imodal.syntax import (DIALECTS, Atom, BiDia, Box, Implies, parse,
                           translate_bimodal)
from test_search import _run_python

DATA = "src/imodal/data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "parse", "([]T -> <>p0) -> <>p0")
        assert code == 0 and out.strip() == "([]T -> <>p0) -> <>p0"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "parse", "--json", "p0&p1")
        assert code == 0
        assert json.loads(out)["canonical"] == "p0 & p1"

    def test_error_exit_code(self, capsys):
        code, _, err = run(capsys, "parse", "p0 &")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("text", ["~" * 3000 + "p0", "(" * 1200],
                             ids=["negations", "parentheses"])
    def test_deep_nesting_exit_code(self, capsys, text):
        code, _, err = run(capsys, "parse", text)
        assert code == 2 and "nested more than" in err


# the formula vocabulary, a few of its fragments, and the UTF-8 synonyms
TOKENS = ["p0", "p1", "p", "1", "F", "T", "~", "&", "|", "->", "-", ">", "(", ")",
          "[]", "<>", "[", "]", "<", "nabla", "[N]", "<E>", "N", "E", " ",
          "□", "◇", "▽", "⊥", "⊤", "¬", "∧", "∨", "→"]


def _exit_code(argv) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse's usage errors, e.g. text "-> p0"
            return exc.code


@settings(derandomize=True, max_examples=300, deadline=None)
@given(prefix=st.tuples(st.sampled_from(["~", "(", "[]", "p0 & ", "p0 -> "]),
                        st.integers(0, 400)),
       body=st.lists(st.sampled_from(TOKENS), max_size=30),
       dialect=st.sampled_from(DIALECTS))
def test_parse_exit_code_contract(prefix, body, dialect):
    unit, count = prefix
    text = unit * count + "".join(body)
    assert _exit_code(["parse", "--dialect", dialect, text]) in (0, 2)
    assert _exit_code(["parse", text]) in (0, 2)


class TestEvalCommand:
    def test_false_exit_code(self, capsys):
        code, out, _ = run(capsys, "eval", f"{DATA}/wm_counterexample.json", "w",
                           "([]T -> <>p0) -> <>p0")
        assert code == 1 and out.strip() == "false"

    def test_true_exit_code(self, capsys):
        code, out, _ = run(capsys, "eval", f"{DATA}/wm_counterexample.json", "w",
                           "F -> p0")
        assert code == 0 and out.strip() == "true"

    def test_parse_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "eval", f"{DATA}/wm_counterexample.json", "w", "p0 &")
        assert code == 2

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "eval", "--trace",
                           f"{DATA}/wm_counterexample.json", "w",
                           "([]T -> <>p0) -> <>p0")
        assert code == 1
        assert "[w] ([]T -> <>p0) -> <>p0 : false" in out
        assert "successor" in out

    def test_unknown_world_with_trace(self, capsys):
        code, _, err = run(capsys, "eval", "--trace",
                           f"{DATA}/wm_counterexample.json", "zz", "p0")
        assert code == 2 and "unknown world" in err

    @pytest.mark.parametrize("point, message", [
        ("w9/d1", "unknown world 'w9'"), ("w1/d9", "'d9' is not a state at world 'w1'")])
    def test_unknown_ifom_point_with_trace(self, capsys, point, message):
        code, out, err = run(capsys, "eval", "--trace", f"{DATA}/ifom_example.json",
                             point, "<>p0")
        assert code == 2 and out == "" and message in err

    def test_ik2_document(self, capsys):
        code, out, _ = run(capsys, "eval", f"{DATA}/ik2_counterexample.json", "v",
                           "[N]<E>T")
        assert code == 0

    def test_ifom_pair_world(self, capsys):
        code, out, _ = run(capsys, "eval", f"{DATA}/ifom_example.json", "w1/d1",
                           "<>p0")
        assert code == 0

    @pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
    def test_non_growing_ifom_document(self, capsys, tmp_path, trace):
        # d is no state at w2 above w1, so (w2, d) is no point above (w1, d)
        # and ~p0 holds there; the direct evaluation once looked at it anyway
        doc = {"kind": "ifom", "worlds": ["w1", "w2"], "order": [["w1", "w2"]],
               "interpretation": {"w1": {"states": ["d"]},
                                  "w2": {"states": ["e"], "preds": {"0": ["d"]}}}}
        path = tmp_path / "shrinking.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "eval", "--no-validate", *trace, str(path), "w1/d",
                           "~p0")
        assert code == 0 and out.splitlines()[0].endswith("true")


PINNED_TRACES = {
    ("inm_box_bot_counterexample.json", "[]T -> <>T"): """\
[w] []T -> <>T : false
  fails at successor [w]
  [w] []T : true
    witnessed by a
    [w] T : true
      holds at every successor
      [w] F : false
      [w] F : false
  [w] <>T : false
    fails at successor [w]: a
    [w] T : true
      holds at every successor
      [w] F : false
      [w] F : false""",
    ("ik2_counterexample.json", "<N>T -> [N]<E>T"): """\
[w] <N>T -> [N]<E>T : false
  fails at successor [w]
  [w] <N>T : true
    witnessed by v
    [w] T : true
      holds at every successor
      [w] F : false
      [w] F : false
  [w] [N]<E>T : false
    fails at successor [w]: v
    [w] <E>T : false
      no witness
      [w] T : true
        holds at every successor
        [w] F : false
        [w] F : false""",
    ("wm_counterexample.json", "([]T -> <>p0) -> <>p0"): """\
[w] ([]T -> <>p0) -> <>p0 : false
  fails at successor [w]
  [w] []T -> <>p0 : true
    holds at every successor
    [w] []T : false
      fails at successor [v]
      [w] T : true
        holds at every successor
        [w] F : false
        [w] F : false
    [w] <>p0 : false
      fails at successor [w]
      [w] p0 : false
  [w] <>p0 : false
    fails at successor [w]
    [w] p0 : false""",
}

# the failing implication is traced at (w2, d2); the neighbourhood-sort
# element a2 reaches d4 at w3, where p0 fails
PINNED_IFOM_TRACE = """\
[('w1', 'd2')] ([]T -> <>p0) -> <>p0 : true
  holds at every successor
  [('w1', 'd2')] []T -> <>p0 : false
    fails at successor [('w2', 'd2')]
    [('w2', 'd2')] []T : true
      witnessed by a1
      [('w2', 'd2')] T : true
        holds at every successor
        [('w2', 'd2')] F : false
        [('w2', 'd2')] F : false
    [('w2', 'd2')] <>p0 : false
      fails at successor [('w3', 'd2')]: a2
      [('w2', 'd2')] p0 : true
  [('w1', 'd2')] <>p0 : false
    fails at successor [('w3', 'd2')]: a2
    [('w1', 'd2')] p0 : true"""


def _random_model(rng, kind):
    bounds = search.SearchBounds(4, 2, 2)
    if kind == "inm":
        return search.random_inm(rng, bounds)
    if kind == "cnm":
        return search.random_cnm(rng, bounds)
    if kind == "ifom":
        return search.random_ifom(rng)
    worlds = frozenset(range(rng.randint(1, 4)))

    def some(pool):
        return frozenset(x for x in pool if rng.random() < 0.4)

    val = {i: some(worlds) for i in range(2)}
    if kind == "classical":
        return models.NbhdModel(worlds, {w: frozenset(some(worlds) for _ in range(2))
                                         for w in worlds}, val)
    pairs = [(a, b) for a in worlds for b in worlds]
    return models.IK2Model(worlds, search.random_poset(rng, len(worlds)),
                           some(pairs), some(pairs), val)


def _successors(kind, model, point):
    if kind == "classical":
        return {point}
    if kind == "ifom":
        return {(v, point[1]) for v in successors(model.worlds, model.leq, point[0])}
    return successors(model.worlds, model.preceq if kind == "cnm" else model.leq, point)


def _named(kind, m, p, f):
    """Oracle for the named notes: the witnesses of ``f`` at ``p`` for an
    existential clause, the refuters at ``p`` for a universal one."""
    def body(x):
        return models.KINDS[kind].holds(m, x, f.sub)

    if kind == "ifom":  # from the structure's own N and E, not through bullet
        w, d = p
        here = m.interp[w]
        named = [a for a in here.nbhds if (d, a) in here.relN]
        if isinstance(f, Box):
            return [a for a in named if all(
                body((v, y)) for v in successors(m.worlds, m.leq, w)
                for y in m.interp[v].states if (a, y) in m.interp[v].relE)]
        return [a for a in named
                if not any(body((w, y)) for y in here.states if (a, y) in here.relE)]
    if kind == "inm" and isinstance(f, Box):
        return [n for n, a in m.nbhds.items() if p in a and all(
            body(x) for v in successors(m.worlds, m.leq, p) if v in a for x in a[v])]
    if kind == "inm":
        return [n for n, a in m.nbhds.items() if p in a and not any(body(x) for x in a[p])]
    rel = m.relN if f.index == "N" else m.relE
    return [y for x, y in rel if x == p and body(y) == isinstance(f, BiDia)]


class TestTrace:
    @pytest.mark.parametrize("kind", ["classical", "inm", "cnm", "ik2", "ifom"])
    def test_lines_agree_with_the_evaluator(self, kind, rng):
        holds = models.KINDS[kind].holds
        dialect = models.KINDS[kind].dialects[-1]
        for _ in range(60):
            m = _random_model(rng, kind)
            points = ([(w, x) for w in sorted(m.worlds) for x in sorted(m.interp[w].states)]
                      if kind == "ifom" else sorted(m.worlds))
            label = {str(p): p for p in points}
            phi = search.random_formula(rng, 3, 2, "nabla" if dialect == "nabla" else "modal")
            if kind == "ik2":
                phi = translate_bimodal(phi)
            value, lines = trace_eval(kind, m, rng.choice(points), phi)
            node = at = None
            for line in lines:
                if line.lstrip().startswith("["):
                    text, verdict = line.lstrip()[1:].rsplit(" : ", 1)
                    point_text, formula_text = text.split("] ", 1)
                    node = label[point_text], parse(formula_text, dialect)
                    assert holds(m, *node) == (verdict == "true"), line
                    # a failing implication is traced at its failing successor
                    assert at in (None, node[0]), line
                    at = None
                elif line.lstrip().startswith("fails at successor ["):
                    v = label[line.split("[", 1)[1].split("]", 1)[0]]
                    point, f = node
                    assert v in _successors(kind, m, point), line
                    assert not holds(m, point, f)
                    # v is the first refuting successor by label
                    earlier = [u for u in _successors(kind, m, point) if str(u) < str(v)]
                    if isinstance(f, Implies):
                        assert holds(m, v, f.left) and not holds(m, v, f.right)
                        assert not any(holds(m, u, f.left) and not holds(m, u, f.right)
                                       for u in earlier), line
                        at = v
                    elif kind in ("inm", "ik2", "ifom"):
                        assert not any(_named(kind, m, u, f) for u in earlier), line
                        least = min(_named(kind, m, v, f), key=str)
                        assert line.endswith(f"]: {least}"), line
                elif line.lstrip().startswith("witnessed by "):
                    least = min(_named(kind, m, *node), key=str)
                    assert line.endswith(f" by {least}"), line
            assert value == (lines[0].rsplit(" : ", 1)[1] == "true")

    @pytest.mark.parametrize("doc, formula", sorted(PINNED_TRACES))
    def test_pinned(self, capsys, doc, formula):
        code, out, _ = run(capsys, "eval", "--trace", f"{DATA}/{doc}", "w", formula)
        assert code == 1
        assert out.rstrip("\n") == PINNED_TRACES[doc, formula]

    def test_pinned_ifom(self, capsys):
        code, out, _ = run(capsys, "eval", "--trace", f"{DATA}/ifom_example.json",
                           "w1/d2", "([]T -> <>p0) -> <>p0")
        assert code == 0
        assert out.rstrip("\n") == PINNED_IFOM_TRACE

    def test_independent_of_string_hashing(self):
        code = (
            "import random\n"
            "from imodal import cli, search, syntax\n"
            "rng = random.Random(5)\n"
            "for name in ('figure1_frame', 'inm_box_bot_counterexample',\n"
            "             'ik2_counterexample', 'wm_counterexample'):\n"
            f"    kind, m = cli._load_model('{DATA}/' + name + '.json')\n"
            "    for _ in range(20):\n"
            "        phi = search.random_formula(rng, 3, 2)\n"
            "        if kind == 'ik2':\n"
            "            phi = syntax.translate_bimodal(phi)\n"
            "        w = rng.choice(sorted(m.worlds))\n"
            "        print('\\n'.join(cli.trace_eval(kind, m, w, phi)[1]))\n")
        traces = {_run_python(code, PYTHONHASHSEED=seed) for seed in ("1", "3")}
        assert len(traces) == 1 and "witnessed by" in traces.pop()


class TestCheckModelCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "check-model", f"{DATA}/figure1_frame.json",
                           "--level", "coherent")
        assert code == 0
        assert json.loads(out)[0]["status"] == "pass"

    def test_fail_lists_witnesses(self, tmp_path, capsys):
        doc = {"kind": "inm", "worlds": ["w", "v"], "order": [["w", "v"]],
               "neighbourhoods": {"a": {"w": ["w"]}},  # domain is not an upset
               "valuation": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check-model", str(path), "--level", "basic")
        assert code == 1
        report = json.loads(out)[0]
        assert report["status"] == "fail" and report["witnesses"]

    def test_non_object_document(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([{"kind": "inm", "worlds": ["w"]}]))
        code, out, err = run(capsys, "check-model", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "JSON object" in err

    @pytest.mark.parametrize("kind", ["classical", "cnm"])
    def test_gamma_of_unknown_world(self, tmp_path, capsys, kind):
        doc = {"kind": kind, "worlds": ["w"], "gamma": {"zz": [["w"]]}, "valuation": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check-model", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "'zz'" in err

    @pytest.mark.parametrize("doc, field", [
        ({"kind": "classical", "worlds": ["w"], "gamma": []},
         "gamma: expected an object, got a list"),
        ({"kind": "classical", "worlds": 5}, "worlds: expected a list, got a number"),
        ({"kind": "classical", "worlds": [["w"]]}, "worlds[0]: expected a string, got a list"),
        ({"kind": "inm", "worlds": ["w"], "neighbourhoods": {"a": [["w"]]}},
         "neighbourhoods.a: expected an object, got a list"),
        ({"kind": "inm", "worlds": ["w"], "valuation": {"x": ["w"]}},
         "valuation key 'x' is not an atom index"),
    ], ids=["gamma-list", "worlds-number", "world-list", "neighbourhood-list",
            "valuation-key"])
    def test_mistyped_field_named(self, tmp_path, capsys, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check-model", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and field in err

    def test_missing_field_named(self, tmp_path, capsys):
        with open(f"{DATA}/ifom_example.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["interpretation"]["w2"]["states"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check-model", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "'interpretation.w2.states'" in err

    def test_invalid_document_rejected_on_eval(self, tmp_path, capsys):
        doc = {"kind": "inm", "worlds": ["w"], "order": [],
               "neighbourhoods": {"a": {"zz": []}}, "valuation": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", str(path), "w", "p0")
        assert code == 2


def _paths(doc, prefix=()):
    """Every field path of a JSON document, its root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                    st.sampled_from(["", "w", "v", "a", "0", "p0"]))
JSON_VALUES = {
    type(None): st.none(), bool: st.booleans(), int: st.integers(-2, 2),
    float: st.floats(-2, 2), str: st.sampled_from(["", "w", "v", "a", "0", "x"]),
    list: st.lists(SCALARS, max_size=2),
    dict: st.dictionaries(st.sampled_from(["w", "v", "a", "0", "x"]), SCALARS, max_size=2),
}
SHIPPED_MODELS = sorted(n for n in os.listdir(DATA)
                        if not n.endswith("_translated.json"))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(SHIPPED_MODELS))
def test_mutated_documents_keep_the_exit_code_contract(tmp_path_factory, data, name):
    with open(f"{DATA}/{name}", encoding="utf-8") as fh:
        doc = json.load(fh)
    point = doc["worlds"][0]
    if doc["kind"] == "ifom":
        point += "/" + doc["interpretation"][point]["states"][0]
    modal = "[N]p0 -> <E>p0" if doc["kind"] == "ik2" else "[]p0 -> <>p0"
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = type(parent[path[-1]])
    parent[path[-1]] = data.draw(st.one_of(
        [s for t, s in JSON_VALUES.items() if t is not old and not
         (old in (int, float) and t in (int, float))]))
    target = tmp_path_factory.mktemp("mutated") / name
    target.write_text(json.dumps(doc))
    assert _exit_code(["check-model", str(target)]) in (0, 1, 2)
    assert _exit_code(["eval", "--no-validate", str(target), point, "p0"]) in (0, 1, 2)
    assert _exit_code(["eval", "--no-validate", "--trace", str(target), point,
                       modal]) in (0, 1, 2)


class TestTranslateCommand:
    def test_st(self, capsys):
        code, out, _ = run(capsys, "translate", "st", "<>p0")
        assert code == 0
        assert out.strip() == \
            "forall a0:n. (x N a0 -> exists y0:s. (a0 E y0 & P0(y0)))"

    def test_bimodal(self, capsys):
        code, out, _ = run(capsys, "translate", "bimodal", "([]F -> <>T) -> <>T")
        assert code == 0
        assert out.strip() == "(<N>[E]F -> [N]<E>T) -> [N]<E>T"

    def test_box(self, capsys):
        code, out, _ = run(capsys, "translate", "box", "nabla p0")
        assert code == 0 and out.strip() == "[]p0"


class TestTransformCommand:
    def test_star_pipeline(self, tmp_path, capsys):
        out_path = tmp_path / "star.json"
        code, out, _ = run(capsys, "transform", "star",
                           f"{DATA}/figure1_frame.json", "--out", str(out_path))
        assert code == 0
        model = docio.read_model(str(out_path))
        assert docio.model_kind(model) == "ik2"

    def test_hat_empty_neighbourhoods(self, tmp_path, capsys):
        doc = {"kind": "inm", "worlds": ["w"], "order": [],
               "neighbourhoods": {}, "valuation": {}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "transform", "hat", str(path))
        assert code == 0
        assert json.loads(out)["kind"] == "cnm"

    def test_circle_guard(self, tmp_path, capsys):
        doc = {"kind": "inm", "worlds": ["w", "v"], "order": [],
               "neighbourhoods": {"a": {"w": ["v"], "v": ["w", "v"]}},
               "valuation": {}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "transform", "circle", str(path))
        assert code == 2 and "cartesian" in err

    def test_bad_budget_exit_code(self, capsys):
        code, out, err = run(capsys, "transform", "coh", f"{DATA}/figure1_frame.json",
                             "--coh-levels", "0")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_unravel_needs_source(self, capsys):
        code, _, err = run(capsys, "transform", "unravel",
                           f"{DATA}/figure1_frame.json")
        assert code == 2


class TestSearchCommand:
    def test_counterexample_json(self, capsys):
        code, out, _ = run(capsys, "search", "--json", "([]F -> <>T) -> <>T",
                           "--kind", "inm", "--max-worlds", "2",
                           "--max-nbhds", "2", "--max-atoms", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "counterexample"
        assert len(payload["model"]["worlds"]) <= 2

    def test_none_within_bounds(self, capsys):
        code, out, _ = run(capsys, "search", "--json", "([]T -> <>p0) -> <>p0",
                           "--kind", "inm", "--max-worlds", "2",
                           "--max-nbhds", "1", "--max-atoms", "1")
        assert code == 0
        assert json.loads(out)["status"] == "none-within-bounds"

    def test_bad_bounds_exit_code(self, capsys):
        code, out, err = run(capsys, "search", "p0", "--max-worlds", "0")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_negative_timeout_exit_code(self, capsys):
        code, out, err = run(capsys, "search", "p0", "--timeout-ms", "-5")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_atom_search(self, capsys):
        code, out, _ = run(capsys, "search", "--json", "p0",
                           "--max-worlds", "1", "--max-nbhds", "0")
        assert json.loads(out)["status"] == "counterexample"


class TestProofCommand:
    def test_check_shipped(self, capsys):
        code, out, _ = run(capsys, "proof", "check",
                           f"{DATA}/neg_a_translated.json", "--calculus", "IK2")
        assert code == 0 and out.strip() == "ok"

    @pytest.mark.parametrize("doc, field", [
        ([], "derivation: expected an object, got a list"),
        ({"rule": "El", "conclusion": []}, "conclusion: expected an object, got a list"),
    ], ids=["array", "conclusion-list"])
    def test_mistyped_field_named(self, tmp_path, capsys, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "proof", "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and field in err

    def test_missing_premise_field_named(self, tmp_path, capsys):
        doc = {"rule": "El", "conclusion": {"context": ["p0"], "formula": "p0"},
               "premises": [{"rule": 5}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "proof", "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "'premises[0].conclusion'" in err

    def test_repeated_atom_index(self, tmp_path, capsys):
        # "1" and "01" name the same atom; the last one wins
        doc = {"rule": "Ax", "conclusion": {"context": [], "formula": "p0 -> p0"},
               "certificate": {"schema": "none", "subst": {"1": "p0", "01": "p1"}}}
        path = tmp_path / "ax.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "proof", "check", str(path))
        assert code == 1 and out.startswith("invalid")

    def test_check_invalid(self, tmp_path, capsys):
        doc = {"rule": "El",
               "conclusion": {"context": ["p1"], "formula": "p0"},
               "premises": [], "certificate": {"member": "p0"}}
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "proof", "check", str(path),
                           "--calculus", "IM_Calc")
        assert code == 1 and "invalid" in out

    def test_compile_round_trip(self, tmp_path, capsys):
        leaf = ax(IM_CALC, "i-dia", {0: Atom(0)})
        src = tmp_path / "leaf.json"
        src.write_text(json.dumps(docio.derivation_to_doc(leaf)))
        out_path = tmp_path / "compiled.json"
        code, out, _ = run(capsys, "proof", "compile", str(src),
                           "--calculus", "IM_Calc", "--out", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "proof", "check", str(out_path),
                           "--calculus", "IK2")
        assert code == 0

    def test_deduce(self, tmp_path, capsys):
        from imodal.calculi import el
        d = el(parse("p0"), [parse("p0")])
        src = tmp_path / "d.json"
        src.write_text(json.dumps(docio.derivation_to_doc(d)))
        code, out, _ = run(capsys, "proof", "deduce", str(src),
                           "--calculus", "IM_Calc", "--phi", "p0")
        assert code == 0
        payload = json.loads(out)
        assert payload["conclusion"]["formula"] == "p0 -> p0"
        assert payload["conclusion"]["context"] == []


class TestReproduceCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        assert code == 0
        assert "FAIL" not in out
        assert "14/14" in out


class TestDocumentRoundTrip:
    def test_model_documents(self, tmp_path, wm_model, ik2_model, box_bot_inm,
                             ifom_example):
        for model in (wm_model, ik2_model, box_bot_inm, ifom_example):
            doc = docio.model_to_doc(model)
            back = docio.model_from_doc(doc)
            assert docio.model_to_doc(back) == doc

    def test_derivation_documents(self):
        d = ax(IM_CALC, "neg-a", {0: parse("p0 | p1")}, [parse("p2")])
        doc = docio.derivation_to_doc(d)
        back = docio.derivation_from_doc(doc, "modal")
        assert back == d
