"""Tests for the satisfiability-to-emptiness reduction."""

import random
from itertools import product

import pytest

from helpers import (
    evaluate_formula,
    formula_reader_cost,
    random_formula,
    reference_sat_automaton,
)
from po2buchi.core import LEND
from po2buchi.run import membership_nondet
from po2buchi.satred import (
    And,
    FormulaSyntaxError,
    Not,
    Or,
    Var,
    build_sat_automaton,
    parse_formula,
    sat_via_emptiness,
    var_count,
)
from po2buchi.words import LassoWord


def small_formula(rng: random.Random, max_var: int = 6):
    """Random formula whose machine keeps the emptiness bound cheap."""
    f = random_formula(rng, max_leaves=4, max_var=max_var)
    while formula_reader_cost(f) > 11:
        f = random_formula(rng, max_leaves=4, max_var=max_var)
    return f


def assignment_word(f, bits: dict[int, bool]) -> LassoWord:
    m = var_count(f)
    return LassoWord("".join("1" if bits[i] else "0" for i in range(1, m + 1)), "0")


def test_parse_examples():
    assert parse_formula("v1") == Var(1)
    assert parse_formula("!v1 & v2") == And(Not(Var(1)), Var(2))
    assert parse_formula("v1 | v2 & v3") == Or(Var(1), And(Var(2), Var(3)))
    assert parse_formula("(v1 | v2) & v3") == And(Or(Var(1), Var(2)), Var(3))
    assert parse_formula("v1 & v2 & v3") == And(And(Var(1), Var(2)), Var(3))
    assert parse_formula("!!v12") == Not(Not(Var(12)))
    assert parse_formula("  v1 |  ( v2 )") == Or(Var(1), Var(2))


def test_parse_deep_nesting_without_recursion():
    for depth in (300, 5000):
        assert parse_formula("(" * depth + "v1" + ")" * depth) == Var(1)
    assert parse_formula("(" * 5000 + "v1 | v2" + ")" * 5000 + " & v3") == And(
        Or(Var(1), Var(2)), Var(3)
    )
    for text, offset in (
        ("(" * 5000 + "v1" + ")" * 4999, 0),
        ("(" * 5000 + "v1 v2", 4999),  # the innermost group is the one left open
        ("(" * 5000 + "v1" + ")" * 5001, 5002 + 5000),
    ):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert err.value.offset == offset
    node = parse_formula("!(" * 5000 + "v1" + ")" * 5000)
    for _ in range(5000):
        assert isinstance(node, Not)
        node = node.child
    assert node == Var(1)


def test_parse_negation_under_parentheses():
    assert parse_formula("!(v1)") == Not(Var(1))
    assert parse_formula("(!v1)") == Not(Var(1))
    assert parse_formula("!(!v1 & v2) | v3") == Or(Not(And(Not(Var(1)), Var(2))), Var(3))
    assert parse_formula("((!(v1)))") == Not(Var(1))
    assert parse_formula("!( v1 | v2 ) & !v3") == And(Not(Or(Var(1), Var(2))), Not(Var(3)))


def test_parse_errors_carry_offsets():
    cases = [
        ("", 0),
        ("v", 1),
        ("v1 &", 4),
        ("(v1", 0),
        ("v1)", 2),
        ("w1", 0),
        ("v0", 0),
        ("v1 v2", 3),
        ("v1 & & v2", 5),
    ]
    for text, offset in cases:
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert err.value.offset == offset, text
        assert f"byte {offset}" in str(err.value)


def test_variable_indices_start_at_one():
    with pytest.raises(ValueError):
        Var(0)
    assert var_count(Var(3)) == 3
    assert var_count(And(Var(2), Not(Or(Var(5), Var(1))))) == 5


def test_var_count_without_recursion():
    f = Var(3)
    for _ in range(10_000):
        f = Not(f)
    assert var_count(f) == 3
    chain = Var(1)
    for i in range(2, 10_001):
        chain = Or(chain, Var(i % 40 + 1))
    assert var_count(chain) == 40
    assert var_count(And(Var(2), chain)) == 40


def test_build_without_recursion():
    f = Var(2)
    for _ in range(10_000):
        f = Not(f)
    assert build_sat_automaton(f) == build_sat_automaton(Var(2))
    a = build_sat_automaton(Not(f))
    assert a.final == frozenset({"true"}) and a.validate().is_deterministic
    assert membership_nondet(a, LassoWord("10", "0"))
    assert not membership_nondet(a, LassoWord("11", "0"))


def test_build_matches_recursive_reference():
    rng = random.Random(506)
    for _ in range(400):
        f = random_formula(rng, max_leaves=rng.randint(1, 8), max_var=rng.randint(1, 6))
        assert build_sat_automaton(f) == reference_sat_automaton(f)


def test_single_variable_machine():
    a = build_sat_automaton(Var(1))
    report = a.validate()
    assert report.is_well_formed_po2 and report.is_deterministic
    assert membership_nondet(a, LassoWord("1", "0"))
    assert membership_nondet(a, LassoWord("", "1"))
    assert not membership_nondet(a, LassoWord("0", "1"))


def test_machine_shape():
    # Exactly the two outcome states self-loop among right-movers, both are
    # reached by left-end transitions only, and "true" is the sole final state.
    rng = random.Random(501)
    for _ in range(40):
        a = build_sat_automaton(random_formula(rng))
        report = a.validate()
        assert report.is_well_formed_po2 and report.is_deterministic
        assert a.final == frozenset({"true"})
        for z in a.x_states:
            loops = a.selfloop_letters(z)
            if z in ("true", "false"):
                assert loops == frozenset("01")
            else:
                assert not loops
        for s, c, d in a.transitions:
            if d in ("true", "false") and s != d:
                assert c == LEND


def test_machine_size_is_linear():
    # Each variable reader contributes index + 1 walking states and two
    # returning states; the two outcome states are shared.
    rng = random.Random(502)
    for _ in range(40):
        f = random_formula(rng)
        a = build_sat_automaton(f)
        leaves = []
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, Var):
                leaves.append(g.index)
            elif isinstance(g, Not):
                stack.append(g.child)
            else:
                stack.extend((g.left, g.right))
        assert len(a.states) == sum(i + 2 for i in leaves) + 2


def test_machine_matches_truth_table():
    rng = random.Random(503)
    for _ in range(60):
        f = random_formula(rng)
        a = build_sat_automaton(f)
        m = var_count(f)
        for tup in product([False, True], repeat=m):
            bits = {i + 1: b for i, b in enumerate(tup)}
            w = assignment_word(f, bits)
            assert membership_nondet(a, w) == evaluate_formula(f, bits)


def test_positions_beyond_variables_are_ignored():
    rng = random.Random(504)
    for _ in range(60):
        f = random_formula(rng)
        m = var_count(f)
        a = build_sat_automaton(f)
        spoke = "".join(rng.choice("01") for _ in range(m + rng.randint(1, 3)))
        w = LassoWord(spoke, rng.choice("01"))
        base = membership_nondet(a, w)
        for j in range(m, len(spoke)):
            flipped = spoke[:j] + ("1" if spoke[j] == "0" else "0") + spoke[j + 1 :]
            assert membership_nondet(a, LassoWord(flipped, w.period)) == base
        other = "0" if w.period == "1" else "1"
        assert membership_nondet(a, LassoWord(spoke, other)) == base


def test_sat_hand_cases():
    assert sat_via_emptiness(Var(1)) == {1: True}
    assert sat_via_emptiness(And(Var(1), Not(Var(1)))) is None
    got = sat_via_emptiness(parse_formula("!v1 & v2"))
    assert got == {1: False, 2: True}


def test_sat_agrees_with_truth_table():
    rng = random.Random(505)
    unsat_seen = 0
    for _ in range(80):
        f = small_formula(rng, max_var=rng.choice([2, 3, 3, 4, 6]))
        m = var_count(f)
        truth_sat = any(
            evaluate_formula(f, {i + 1: b for i, b in enumerate(tup)})
            for tup in product([False, True], repeat=m)
        )
        got = sat_via_emptiness(f)
        assert (got is not None) == truth_sat
        if got is None:
            unsat_seen += 1
        else:
            assert evaluate_formula(f, got)
    assert unsat_seen > 0


def test_assignment_decode_pads_with_loop_letter():
    # v3 alone is satisfied by the length-lex first witness ""·1^w, so every
    # position, spoke or not, decodes from the loop letter.
    got = sat_via_emptiness(Var(3))
    assert got == {1: True, 2: True, 3: True}
