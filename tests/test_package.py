"""The package surface: the names ``imodal`` exports, and which submodules a
bare import and each CLI command load in a fresh interpreter."""

import ast
import importlib
import json
import pathlib

import pytest

import imodal
from test_search import SRC, _run_python

DATA = "src/imodal/data"

# the exported names, by the submodule that defines (or re-exports) them
EXPORTS = {
    "syntax": ["Atom", "And", "BiBox", "BiDia", "Box", "Consecution", "Dia", "FALSUM",
               "Falsum", "Formula", "Implies", "Nabla", "Or", "TRUE", "consecution",
               "embed_box", "embed_dia", "in_dialect", "modal_depth", "neg", "parse",
               "show", "substitute", "translate_bimodal"],
    "folm": ["FOMStructure", "IFOMStructure", "Var", "classical_bullet",
             "classical_circle", "eval_fo_classical", "eval_fo_kripke",
             "eval_modal_ifom", "standard_translation"],
    "models": ["CheckReport", "CNModel", "IK2Model", "INModel", "NbhdModel", "check_full",
               "check_ik2_frame", "check_inm", "eval_classical", "eval_cnm", "eval_ik2",
               "eval_inm", "find_isomorphism"],
    "transforms": ["Path", "TransformError", "TruncationBudget", "bullet", "circle",
                   "coherent_completion", "fullify", "hat", "leq_ur", "star", "unravel"],
    "calculi": ["CalculusSpec", "Derivation", "DerivationError", "builtin_calculus",
                "check_derivation", "compile_proof", "deduce", "macro_mon", "macro_str",
                "match_axiom"],
    "search": ["CounterexampleFound", "NoneWithinBounds", "SearchBounds",
               "enumerate_models", "find_countermodel"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def _loaded(code: str) -> list:
    """The ``imodal`` submodules loaded after running ``code`` in a fresh
    interpreter (the last line it prints)."""
    out = _run_python(code + "\nimport json, sys\nprint(json.dumps(sorted("
                      "m for m in sys.modules if m.startswith('imodal.'))))")
    return json.loads(out.splitlines()[-1])


def _loaded_by_cli(*argv) -> list:
    return _loaded(f"from imodal.cli import main\nmain({list(argv)!r})")


class TestExports:
    def test_seventy_two_names(self):
        assert len(NAMES) == len(set(NAMES)) == 72
        assert sorted(imodal.__all__) == sorted(NAMES)

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_the_submodules_objects(self, module):
        sub = importlib.import_module(f"imodal.{module}")
        for name in EXPORTS[module]:
            assert getattr(imodal, name) is getattr(sub, name), name

    def test_star_import_and_dir(self):
        scope = {}
        exec("from imodal import *", scope)
        assert all(scope[name] is getattr(imodal, name) for name in NAMES)
        assert set(NAMES) <= set(dir(imodal))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            imodal.bogus

    def test_submodule_attributes(self):
        assert imodal.transforms.bullet is imodal.bullet
        assert _run_python("import imodal; print(imodal.transforms.bullet.__name__)") == "bullet"


class TestImportFootprint:
    def test_bare_import_loads_no_submodule(self):
        assert _loaded("import imodal") == []

    @pytest.mark.parametrize("argv", [["parse", "[]p0 -> <>p1"],
                                      ["translate", "bimodal", "[]p0 -> <>p1"]],
                             ids=["parse", "translate"])
    def test_syntax_only(self, argv):
        assert _loaded_by_cli(*argv) == ["imodal.cli", "imodal.syntax"]

    @pytest.mark.parametrize("argv", [["eval", f"{DATA}/wm_counterexample.json", "w", "<>p0"],
                                      ["check-model", f"{DATA}/ik2_counterexample.json"]],
                             ids=["eval", "check-model"])
    def test_no_search_transforms_or_calculi(self, argv):
        loaded = _loaded_by_cli(*argv)
        assert "imodal.models" in loaded
        assert not {"imodal.search", "imodal.transforms", "imodal.calculi"} & set(loaded)


def _trees(*dirs) -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted(pathlib.Path(d).glob("*.py"))}


def test_every_definition_is_used_or_exported():
    # a top-level function or class of the package that no code of the
    # package or the benchmark names, and that is not exported, serves only
    # the tests, and belongs with them (the interpreter calls the package's
    # module hooks __getattr__ and __dir__)
    package = _trees(pathlib.Path(SRC, "imodal"))
    used = {*imodal.__all__, "__getattr__", "__dir__"}
    for tree in {**package, **_trees(pathlib.Path(SRC).parent / "bench")}.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{path.name}:{node.name}" for path, tree in package.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]
    assert unused == []
