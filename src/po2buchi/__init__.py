"""Partially ordered two-way Buchi automata.

Constructions (boolean closure, monomial translations), decision procedures
(emptiness, inclusion, equivalence, universality) and a satisfiability
reduction for machines whose self-loop-free transition graph is acyclic.

Importing the package loads no submodule: each public name below is
imported from its home module on first access (PEP 562), so a ``po2``
process pays only for the modules its subcommand uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "boolean": ("product_intersection", "product_union"),
    "core": (
        "BudgetExceeded",
        "LEND",
        "Po2Automaton",
        "ValidationReport",
        "chain_lengths",
        "complement",
        "complete",
        "disjoint_union",
        "ensure_x_initial",
        "minimize",
        "prune_unreachable",
        "relabel",
        "require",
    ),
    "decide": ("Witness", "equivalent", "includes", "is_empty", "is_universal"),
    "monomials": (
        "Monomial",
        "automaton_to_polynomial",
        "is_unambiguous_bounded",
        "monomial_from_joint_runs",
        "monomial_member",
        "monomial_to_automaton",
        "monomial_to_deterministic",
        "parse_monomial",
        "polynomial_to_automaton",
    ),
    "run": ("ACCEPTED", "REJECTED", "RunOutcome", "membership_nondet", "run_det"),
    "satred": (
        "And",
        "FormulaSyntaxError",
        "Not",
        "Or",
        "PropFormula",
        "Var",
        "build_sat_automaton",
        "parse_formula",
        "sat_via_emptiness",
        "var_count",
    ),
    "words": ("LassoWord", "parse_lasso"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: importing it binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
