"""Toolkit for intuitionistic monotone modal logics: three formula dialects,
five finite model kinds with evaluators and checkers, truth-preserving model
transformations, generalised Hilbert calculi with a proof compiler, and
bounded countermodel search."""

from .syntax import (Atom, And, BiBox, BiDia, Box, Consecution, Dia, FALSUM,
                     Falsum, Formula, Implies, Nabla, Or, TRUE, consecution,
                     embed_box, embed_dia, in_dialect, modal_depth, neg, parse,
                     show, substitute, translate_bimodal)
from .folm import (FOMStructure, IFOMStructure, Var, classical_bullet,
                   classical_circle, eval_fo_classical, eval_fo_kripke,
                   eval_modal_ifom, standard_translation)
from .models import (CheckReport, CNModel, IK2Model, INModel, NbhdModel,
                     check_full, check_ik2_frame, check_inm, eval_classical,
                     eval_cnm, eval_ik2, eval_inm, find_isomorphism)
from .transforms import (Path, TransformError, TruncationBudget, bullet,
                         circle, coherent_completion, default_budget, fullify,
                         hat, leq_ur, star, unravel)
from .calculi import (CalculusSpec, Derivation, DerivationError,
                      builtin_calculus, check_derivation, compile_proof,
                      deduce, macro_mon, macro_str, match_axiom)
from .search import (CounterexampleFound, NoneWithinBounds, SearchBounds,
                     enumerate_models, find_countermodel)

__version__ = "0.1.0"
