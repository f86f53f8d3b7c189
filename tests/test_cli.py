import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imodal.cli import main
from imodal import docio
from imodal.calculi import IM_CALC, ax
from imodal.syntax import DIALECTS, Atom, parse

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

    def test_ik2_document(self, capsys):
        code, out, _ = run(capsys, "eval", f"{DATA}/ik2_counterexample.json", "v",
                           "[N]<E>T")
        assert code == 0

    def test_ifom_pair_world(self, capsys):
        code, out, _ = run(capsys, "eval", f"{DATA}/ifom_example.json", "w1/d1",
                           "<>p0")
        assert code == 0


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

    def test_invalid_document_rejected_on_eval(self, tmp_path, capsys):
        doc = {"kind": "inm", "worlds": ["w"], "order": [],
               "neighbourhoods": {"a": {"zz": []}}, "valuation": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", str(path), "w", "p0")
        assert code == 2


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

    def test_atom_search(self, capsys):
        code, out, _ = run(capsys, "search", "--json", "p0",
                           "--max-worlds", "1", "--max-nbhds", "0")
        assert json.loads(out)["status"] == "counterexample"


class TestProofCommand:
    def test_check_shipped(self, capsys):
        code, out, _ = run(capsys, "proof", "check",
                           f"{DATA}/neg_a_translated.json", "--calculus", "IK2")
        assert code == 0 and out.strip() == "ok"

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
