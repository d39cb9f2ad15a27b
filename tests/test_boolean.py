"""Product oracles: membership agreement with the operands, shape bounds."""

import random

import pytest

from helpers import random_det_automaton, random_lasso, reference_product
from po2buchi import boolean, monomials
from po2buchi.boolean import product_intersection, product_union
from po2buchi.core import (
    LEND,
    Po2Automaton,
    chain_lengths,
    chains_to,
    complement,
    complete,
    minimize,
    relabel,
)
from po2buchi.run import run_det

# Monomials whose determinizations spend their time in the product.
PRODUCT_HEAVY = [
    "[c]*c.[a]*a.[]*b.[ab]w",
    "[b]*b.[a]*a.[]*c.[a]w",
    "[a]*a.[b]*b.[]*c.[ab]w",
    "[a]*a.[c]*c.[]*b.[ab]w",
    "[b]*b.[c]*c.[]*a.[a]w",
]


def y_initial_machine() -> Po2Automaton:
    """Accepts lassos whose first letter is a; starts in a Y state."""
    return Po2Automaton(
        "ab",
        {"ok", "no"},
        {"y"},
        {
            ("y", "a", "ok"),
            ("y", "b", "no"),
            ("ok", "a", "ok"),
            ("ok", "b", "ok"),
            ("no", "a", "no"),
            ("no", "b", "no"),
            ("y", LEND, "no"),
        },
        {"y"},
        {"ok"},
    )


def test_product_checks_preconditions():
    a = random_det_automaton(random.Random(1), "ab", 4)
    incomplete = Po2Automaton("ab", {"p"}, set(), {("p", "a", "p")}, {"p"}, set())
    with pytest.raises(ValueError):
        product_union(a, incomplete)
    other = random_det_automaton(random.Random(2), "abc", 4)
    with pytest.raises(ValueError):
        product_union(a, other)


def chain_machine() -> Po2Automaton:
    """Accepts lassos with a b: one state change, so products push."""
    return Po2Automaton(
        "ab",
        {"s", "f"},
        set(),
        {("s", "a", "s"), ("s", "b", "f"), ("f", "a", "f"), ("f", "b", "f")},
        {"s"},
        {"f"},
    )


def test_product_stack_guard_is_a_real_check(monkeypatch):
    # With the stack bound shrunk to 0, the first push trips the guard; an
    # assert would vanish under python -O.
    a = chain_machine()
    assert len(product_union(a, a).states) > 1
    monkeypatch.setattr(boolean, "chain_lengths", lambda m: (1, 1))
    with pytest.raises(RuntimeError, match="^internal: stack outgrew"):
        product_union(a, a)


def test_products_agree_with_operands():
    rng = random.Random(41)
    for trial in range(150):
        a = random_det_automaton(rng, "ab", 5)
        b = random_det_automaton(rng, "ab", 5)
        u = product_union(a, b)
        n = product_intersection(a, b)
        for report, label in ((u.validate(), "union"), (n.validate(), "inter")):
            assert report.is_well_formed_po2, (label, report.violations[:3])
            assert report.is_deterministic, (label, report.violations[:3])
            assert report.is_complete, (label, report.violations[:3])
        for _ in range(4):
            w = random_lasso(rng, "ab")
            ra = run_det(a, w).accepted
            rb = run_det(b, w).accepted
            out_u = run_det(u, w)
            out_n = run_det(n, w)
            assert out_u.accepted == (ra or rb), (trial, str(w))
            assert out_n.accepted == (ra and rb), (trial, str(w))
            # Runs always settle in a lockstep state, never mid-dive.
            assert out_u.stationary_state.startswith("s|")
            assert out_n.stationary_state.startswith("s|")


def test_product_shape_bounds():
    rng = random.Random(42)
    for _ in range(60):
        a = random_det_automaton(rng, "ab", 4)
        b = random_det_automaton(rng, "ab", 4)
        cap = chain_lengths(a)[1] + chain_lengths(b)[1] - 2
        u = product_union(a, b)
        assert len(u.states) <= 3 * max(cap, 1) * len(a.states) * len(b.states) * 2 ** (cap + 1)
        for name in u.states:
            parts = name.split("|")
            if name.startswith("s|"):
                assert len(parts[3]) <= cap
            else:
                sig, k = parts[3], int(parts[4])
                assert 1 <= k <= len(sig) <= cap
        # Only lockstep states accept.
        assert all(z.startswith("s|") for z in u.final)


def test_product_degenerate_selfloop_operands():
    a = Po2Automaton("ab", {"p"}, set(), {("p", "a", "p"), ("p", "b", "p")}, {"p"}, {"p"})
    b = Po2Automaton("ab", {"q"}, set(), {("q", "a", "q"), ("q", "b", "q")}, {"q"}, set())
    u = product_union(a, b)
    n = product_intersection(a, b)
    assert len(u.states) == 1 and len(n.states) == 1
    w = random_lasso(random.Random(3), "ab")
    assert run_det(u, w).accepted and not run_det(n, w).accepted


def test_product_with_y_initial_operand():
    rng = random.Random(43)
    a = y_initial_machine()
    for _ in range(40):
        b = random_det_automaton(rng, "ab", 4)
        u = product_union(a, b)
        for _ in range(3):
            w = random_lasso(rng, "ab")
            want = run_det(a, w).accepted or run_det(b, w).accepted
            assert run_det(u, w).accepted == want


def test_completed_operands_combine_and_complement():
    rng = random.Random(44)
    incomplete = Po2Automaton(
        "ab", {"p", "q"}, set(),
        {("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")},
        {"p"}, {"q"},
    )
    full = random_det_automaton(rng, "ab", 4)
    u = product_union(complete(incomplete), complete(full))
    assert u.validate().is_complete
    comp = complement(complete(incomplete))
    comp2 = complement(complete(comp))
    for _ in range(30):
        w = random_lasso(rng, "ab")
        direct = run_det(incomplete, w)
        flipped = run_det(comp, w).accepted
        assert flipped == (not direct.accepted)  # stuck runs count as rejected
        assert run_det(comp2, w).accepted == direct.accepted


def test_union_intersection_idempotent_language():
    rng = random.Random(45)
    for _ in range(40):
        a = random_det_automaton(rng, "ab", 5)
        u = product_union(a, a)
        n = product_intersection(a, a)
        for _ in range(3):
            w = random_lasso(rng, "ab")
            want = run_det(a, w).accepted
            assert run_det(u, w).accepted == want
            assert run_det(n, w).accepted == want


# Odd state names: "|" is the separator inside product state names.
BAR_NAMES = ["", "|", "||", "1", "1|", "|1", "|2|", "a", "s", "a1", "s|", "a|b", "0"]


def test_product_names_stay_distinct_with_bars_in_names_and_letters():
    rng = random.Random(5)
    ambiguous = 0
    for trial in range(200):
        plain = [random_det_automaton(rng, "ab|", 4) for _ in range(2)]
        a, b = (
            relabel(m, dict(zip(sorted(m.states), rng.sample(BAR_NAMES, len(m.states)))))
            for m in plain
        )
        bars = sum(any("|" in z for z in m.states) for m in (a, b))
        ambiguous += bars >= 1
        for build, combine in ((product_union, bool.__or__), (product_intersection, bool.__and__)):
            p = build(a, b)
            report = p.validate()
            assert report.is_deterministic and report.is_complete, (trial, report.violations[:3])
            # No two keys share a name: renaming the operands changes no size.
            assert len(p.states) == len(build(*plain).states), trial
            for _ in range(4):
                w = random_lasso(rng, "ab|")
                expected = combine(run_det(a, w).accepted, run_det(b, w).accepted)
                assert run_det(p, w).accepted == expected, (trial, str(w))
    # With "|" among the letters, one operand named with "|" makes names
    # ambiguous unless renamed; nearly every pair here has one.
    assert ambiguous > 150, ambiguous


def test_product_keeps_names_when_one_part_has_bars():
    # Only the letters, or only one operand's names, contain "|": the names
    # can be split back, so they stay as the first-written product has them.
    rng = random.Random(6)
    for _ in range(40):
        a = random_det_automaton(rng, "ab", 4)
        b = random_det_automaton(rng, "ab", 4)
        a = relabel(a, lambda z: f"|{z}|")
        assert_products_match_reference(a, b)
        assert_products_match_reference(b, a)
        assert_products_match_reference(*(random_det_automaton(rng, "a|", 4) for _ in range(2)))


def assert_products_match_reference(a: Po2Automaton, b: Po2Automaton) -> None:
    """Union and intersection equal the first-written product, names included."""
    union = reference_product(a, b, lambda x1, x2: x1 in a.final or x2 in b.final)
    inter = reference_product(a, b, lambda x1, x2: x1 in a.final and x2 in b.final)
    assert product_union(a, b) == union
    assert product_intersection(a, b) == inter


def test_product_matches_reference_on_random_pairs():
    rng = random.Random(46)
    # Four letters: the product reads successors by letter position.
    for alphabet in ("ab", "abc", "abcd"):
        for _ in range(100):
            a = random_det_automaton(rng, alphabet, 6)
            b = random_det_automaton(rng, alphabet, 6)
            assert_products_match_reference(a, b)
    y = y_initial_machine()
    for _ in range(20):
        b = random_det_automaton(rng, "ab", 5)
        assert_products_match_reference(y, b)
        assert_products_match_reference(b, y)


@pytest.mark.parametrize("literal", PRODUCT_HEAVY)
def test_product_matches_reference_inside_determinization(monkeypatch, literal):
    pairs = []

    def spy(a, b):
        pairs.append((a, b))
        return product_union(a, b)

    monkeypatch.setattr(monomials, "product_union", spy)
    monomials.monomial_to_deterministic(monomials.parse_monomial(literal), alphabet="abc")
    assert pairs
    for a, b in pairs:
        # Determinization hands the product quotiented operands, each with
        # its dead states merged into one.
        assert len(minimize(a).states) == len(a.states)
        assert len(minimize(b).states) == len(b.states)
        for m in (a, b):
            assert sum(n < 0 for n in chains_to(m, m.final.__contains__).values()) <= 1
        assert_products_match_reference(a, b)
