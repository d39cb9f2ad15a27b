"""Partially ordered two-way Buchi automata.

Constructions (boolean closure, monomial translations), decision procedures
(emptiness, inclusion, equivalence, universality) and a satisfiability
reduction for machines whose self-loop-free transition graph is acyclic.
"""

from .boolean import product_intersection, product_union
from .core import (
    LEND,
    Po2Automaton,
    ValidationReport,
    chain_lengths,
    complement,
    complete,
    disjoint_union,
    ensure_x_initial,
    minimize,
    prune_unreachable,
    relabel,
    require,
)
from .decide import BudgetExceeded, Witness, equivalent, includes, is_empty, is_universal
from .monomials import (
    Monomial,
    automaton_to_polynomial,
    is_unambiguous_bounded,
    monomial_from_joint_runs,
    monomial_member,
    monomial_to_automaton,
    monomial_to_deterministic,
    parse_monomial,
    polynomial_to_automaton,
)
from .run import ACCEPTED, REJECTED, RunOutcome, membership_nondet, run_det
from .satred import (
    And,
    FormulaSyntaxError,
    Not,
    Or,
    PropFormula,
    Var,
    build_sat_automaton,
    parse_formula,
    sat_via_emptiness,
    var_count,
)
from .words import LassoWord, parse_lasso

__version__ = "0.1.0"

__all__ = [
    "ACCEPTED",
    "And",
    "BudgetExceeded",
    "FormulaSyntaxError",
    "LEND",
    "LassoWord",
    "Monomial",
    "Not",
    "Or",
    "Po2Automaton",
    "PropFormula",
    "REJECTED",
    "RunOutcome",
    "ValidationReport",
    "Var",
    "Witness",
    "automaton_to_polynomial",
    "build_sat_automaton",
    "chain_lengths",
    "complement",
    "complete",
    "disjoint_union",
    "ensure_x_initial",
    "equivalent",
    "includes",
    "is_empty",
    "is_unambiguous_bounded",
    "is_universal",
    "membership_nondet",
    "minimize",
    "monomial_from_joint_runs",
    "monomial_member",
    "monomial_to_automaton",
    "monomial_to_deterministic",
    "parse_formula",
    "parse_lasso",
    "parse_monomial",
    "polynomial_to_automaton",
    "prune_unreachable",
    "product_intersection",
    "product_union",
    "relabel",
    "require",
    "run_det",
    "sat_via_emptiness",
    "var_count",
]
