"""The package's public names: loaded from their home modules on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import po2buchi

# home module -> the names it exports through the package
HOMES = {
    "boolean": "product_intersection product_union",
    "core": "BudgetExceeded LEND Po2Automaton ValidationReport chain_lengths complement"
    " complete disjoint_union ensure_x_initial minimize prune_unreachable relabel require",
    "decide": "Witness equivalent includes is_empty is_universal",
    "monomials": "Monomial automaton_to_polynomial is_unambiguous_bounded"
    " monomial_from_joint_runs monomial_member monomial_to_automaton"
    " monomial_to_deterministic parse_monomial polynomial_to_automaton",
    "run": "ACCEPTED REJECTED RunOutcome membership_nondet run_det",
    "satred": "And FormulaSyntaxError Not Or PropFormula Var build_sat_automaton parse_formula"
    " sat_via_emptiness var_count",
    "words": "LassoWord parse_lasso",
}

# __all__ as the package listed it when every name was imported eagerly;
# "prune_unreachable" stood before "product_*", out of sorted order
ALL = [
    "ACCEPTED", "And", "BudgetExceeded", "FormulaSyntaxError", "LEND", "LassoWord",
    "Monomial", "Not", "Or", "Po2Automaton", "PropFormula", "REJECTED", "RunOutcome",
    "ValidationReport", "Var", "Witness", "automaton_to_polynomial", "build_sat_automaton",
    "chain_lengths", "complement", "complete", "disjoint_union", "ensure_x_initial",
    "equivalent", "includes", "is_empty", "is_unambiguous_bounded", "is_universal",
    "membership_nondet", "minimize", "monomial_from_joint_runs", "monomial_member",
    "monomial_to_automaton", "monomial_to_deterministic", "parse_formula", "parse_lasso",
    "parse_monomial", "polynomial_to_automaton", "prune_unreachable", "product_intersection",
    "product_union", "relabel", "require", "run_det", "sat_via_emptiness", "var_count",
]


def fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter."""
    package_root = str(Path(po2buchi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_keeps_its_names_sorted_and_star_binds_exactly_it():
    assert po2buchi.__all__ == sorted(ALL)
    assert sorted(n for names in HOMES.values() for n in names.split()) == sorted(ALL)
    namespace: dict = {}
    exec("from po2buchi import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ALL)


def test_each_name_is_its_home_modules_object():
    for home, names in HOMES.items():
        module = importlib.import_module(f"po2buchi.{home}")
        for name in names.split():
            assert getattr(po2buchi, name) is getattr(module, name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        po2buchi.no_such_name  # noqa: B018
    assert not hasattr(po2buchi, "tracker_step")  # public in compat, not exported
    assert "__all__" in dir(po2buchi)
    assert set(ALL) <= set(dir(po2buchi))


def test_budget_exceeded_is_one_class():
    from po2buchi import core, decide

    assert decide.BudgetExceeded is core.BudgetExceeded is po2buchi.BudgetExceeded


def test_import_loads_only_what_is_used():
    show = 'print(*sorted(m for m in sys.modules if m.partition(".")[0] == "po2buchi"))'
    assert fresh(f"import sys, po2buchi\n{show}") == "po2buchi\n"
    assert fresh(f"import sys, po2buchi\npo2buchi.parse_lasso\n{show}") == (
        "po2buchi po2buchi.words\n"
    )
    # A submodule is still reachable as an attribute after a bare import.
    assert fresh("import po2buchi\nprint(po2buchi.core.LEND == po2buchi.LEND)") == "True\n"
