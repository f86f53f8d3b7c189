"""Toolkit for intuitionistic monotone modal logics: three formula dialects,
five finite model kinds with evaluators and checkers, truth-preserving model
transformations, generalised Hilbert calculi with a proof compiler, and
bounded countermodel search.  Submodules load on first use: ``import imodal``
imports none of them, and reading a name below imports the one it lives in."""

import importlib

_EXPORTS = {  # submodule: the names the package exports from it
    "syntax": """Atom And BiBox BiDia Box Consecution Dia FALSUM Falsum Formula Implies
        Nabla Or TRUE consecution embed_box embed_dia in_dialect modal_depth neg parse
        show substitute translate_bimodal""",
    "folm": """FOMStructure IFOMStructure Var classical_bullet classical_circle
        eval_fo_classical eval_fo_kripke eval_modal_ifom standard_translation""",
    "models": """CheckReport CNModel IK2Model INModel NbhdModel check_full check_ik2_frame
        check_inm eval_classical eval_cnm eval_ik2 eval_inm find_isomorphism""",
    "transforms": """Path TransformError TruncationBudget bullet circle coherent_completion
        fullify hat leq_ur star unravel""",
    "calculi": """CalculusSpec Derivation DerivationError builtin_calculus check_derivation
        compile_proof deduce macro_mon macro_str match_axiom""",
    "search": """CounterexampleFound NoneWithinBounds SearchBounds enumerate_models
        find_countermodel""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in {*_EXPORTS, "cli", "docio", "orders"}:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__getattr__(_HOME[name]), name)


def __dir__():
    return sorted({*globals(), *__all__})
