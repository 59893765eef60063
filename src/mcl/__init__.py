"""Minimal coalition logic over general concurrent game models.

Parsing and printing of coalition-ability formulas, explicit game models
with derived availability, a model checker, a normal-form based validity
and satisfiability decider with certified countermodels, and a brute-force
differential oracle.
"""

from .formula import (AgentUniverse, And, Atom, Can, Coalition, Formula, Neg,
                      ParseError, Top, TOP, atoms_of, bot, box, canonical_key,
                      coalitions_of, conj, dia, disj, dual, iff, implies, lor,
                      modal_depth, parse, pretty, subformulas)
from .model import (EMPTY_ACTION, GameModel, JointAction, ModelClassification,
                    ModelError, classify, dumps, load, load_fixture, loads,
                    oplus, random_cgm, random_model, rename_disjoint, save)
from .semantics import PointedModel, ensures, eval_all, holds
from .normalform import (Ni0Summary, StandardFormula, gamma_is_tautology, ni0,
                         standard_clauses, to_standard_conjunction)
from .decide import (CertificationError, ClauseOutcome, GameForm, SatVerdict,
                     Verdict, build_countermodel, build_countermodel_detailed,
                     decide_sat, decide_valid, hub_facts, pair_implication)
from .oracle import (BudgetExceededError, DifferentialConfig,
                     DifferentialReport, Discrepancy, SearchBounds,
                     differential_run, enumerate_models, random_formula,
                     sample_models, search_countermodel)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
