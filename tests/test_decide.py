"""Tests for witness-backed emptiness, inclusion, equivalence, universality."""

import random
from functools import reduce
from itertools import product

import pytest

from helpers import (
    random_det_automaton,
    random_nondet_automaton,
    random_restricted_monomial,
    reference_includes,
    reference_is_empty,
    with_y_start,
)
from po2buchi import decide
from po2buchi.boolean import product_union
from po2buchi.core import (
    LEND,
    Po2Automaton,
    chain_lengths,
    complement,
    complete,
    ensure_x_initial,
    prune_unreachable,
)
from po2buchi.decide import BudgetExceeded, Witness, equivalent, includes, is_empty, is_universal
from po2buchi.monomials import (
    automaton_to_polynomial,
    is_unambiguous_bounded,
    monomial_to_deterministic,
    parse_monomial,
)
from po2buchi.run import ACCEPTED, crosser, membership_nondet, run_det
from po2buchi.satred import build_sat_automaton, parse_formula, sat_via_emptiness
from po2buchi.words import LassoWord

SHOWCASE = parse_monomial("[ab]*a.[]*c.[c]w")


def universal_machine(alphabet: str = "ab") -> Po2Automaton:
    """Accepts every lasso: one final state looping on everything."""
    loops = {("top", c, "top") for c in alphabet}
    return Po2Automaton(alphabet, {"top"}, set(), loops, {"top"}, {"top"})


def empty_machine(alphabet: str = "ab") -> Po2Automaton:
    """Accepts nothing: the single state is not accepting."""
    loops = {("pit", c, "pit") for c in alphabet}
    return Po2Automaton(alphabet, {"pit"}, set(), loops, {"pit"}, set())


def only_all_a_machine() -> Po2Automaton:
    """Accepts exactly a^w over {a, b}: any b falls into a dead state."""
    transitions = {
        ("p", "a", "p"),
        ("p", "b", "dead"),
        ("dead", "a", "dead"),
        ("dead", "b", "dead"),
    }
    return Po2Automaton("ab", {"p", "dead"}, set(), transitions, {"p"}, {"p"})


def branching_machine() -> Po2Automaton:
    """Nondeterministic: from q, an a may stay or move to the final r."""
    return Po2Automaton(
        "ab",
        {"q", "r"},
        set(),
        {("q", "a", "q"), ("q", "a", "r"), ("q", "b", "q"), ("r", "a", "r"), ("r", "b", "r")},
        {"q"},
        {"r"},
    )


def first_accepted(a: Po2Automaton, max_len: int) -> Witness | None:
    """Independent length-lexicographic scan used as the ordering oracle."""
    letters = sorted(a.alphabet)
    for n in range(max_len + 1):
        for tup in product(letters, repeat=n):
            for c in letters:
                if membership_nondet(a, LassoWord("".join(tup), c)):
                    return Witness("".join(tup), c)
    return None


def test_witness_word_and_str():
    w = Witness("ab", "c")
    assert w.word() == LassoWord("ab", "c")
    assert str(w) == "ab(c)"
    assert str(Witness("", "a")) == "(a)"


def test_empty_machine_has_no_witness():
    assert is_empty(empty_machine()) is None


def test_empty_alphabet_language_is_empty():
    bare = Po2Automaton("", {"q"}, set(), set(), {"q"}, {"q"})
    assert is_empty(bare) is None
    # No lasso exists, so any two such machines agree, final state or not.
    rejecting = Po2Automaton("", {"p"}, set(), set(), {"p"}, set())
    assert includes(bare, rejecting) is None
    assert equivalent(bare, rejecting) is None
    assert equivalent(rejecting, bare) is None


def test_showcase_emptiness_witness():
    det = monomial_to_deterministic(SHOWCASE)
    got = is_empty(det)
    assert got == Witness("a", "c")
    assert membership_nondet(det, got.word())


def test_emptiness_witness_is_length_lex_first():
    rng = random.Random(401)
    for _ in range(25):
        a = random_det_automaton(rng, alphabet="ab", max_states=4)
        bound = max(chain_lengths(complete(a))[0] - 1, 0)
        assert is_empty(a) == first_accepted(complete(a), bound)


def test_emptiness_agrees_with_decomposition():
    # A machine accepts something iff its polynomial has a monomial whose
    # tail alphabet is nonempty (an empty tail denotes the empty language).
    rng = random.Random(402)
    for _ in range(60):
        a = random_det_automaton(rng, alphabet="ab", max_states=5)
        nonempty = any(m.tail for m in automaton_to_polynomial(a))
        witness = is_empty(a)
        assert (witness is not None) == nonempty
        if witness is not None:
            assert membership_nondet(complete(a), witness.word())


def test_emptiness_stable_under_doubled_bound():
    rng = random.Random(403)
    for _ in range(30):
        a = random_det_automaton(rng, alphabet="ab", max_states=3)
        ac = complete(a)
        bound = max(chain_lengths(ac)[0] - 1, 0)
        verdict = is_empty(a)
        doubled = first_accepted(ac, 2 * bound)
        if verdict is None:
            assert doubled is None
        else:
            assert doubled == verdict


def test_includes_reflexive():
    rng = random.Random(404)
    for _ in range(8):
        a = random_det_automaton(rng, alphabet="ab", max_states=3)
        assert includes(a, a) is None


def test_includes_finds_missing_word():
    univ = universal_machine()
    narrow = only_all_a_machine()
    got = includes(univ, narrow)
    assert got == Witness("", "b")
    assert includes(narrow, univ) is None


def test_includes_counterexample_reverifies():
    rng = random.Random(405)
    seen = 0
    while seen < 25:
        a = random_det_automaton(rng, alphabet="ab", max_states=3)
        b = random_det_automaton(rng, alphabet="ab", max_states=3)
        got = includes(a, b)
        if got is None:
            continue
        seen += 1
        w = got.word()
        assert membership_nondet(a, w)
        assert run_det(complement(complete(b)), w).verdict == ACCEPTED


def test_includes_verdict_agrees_with_sampling():
    rng = random.Random(406)
    verdicts = 0
    while verdicts < 10:
        a = random_det_automaton(rng, alphabet="ab", max_states=3)
        b = random_det_automaton(rng, alphabet="ab", max_states=3)
        if includes(a, b) is not None:
            continue
        verdicts += 1
        b_bar = complement(complete(b))
        for n in range(5):
            for tup in product("ab", repeat=n):
                for c in "ab":
                    w = LassoWord("".join(tup), c)
                    if membership_nondet(a, w):
                        assert run_det(b_bar, w).verdict != ACCEPTED


def test_includes_matches_reference():
    # The second machine runs as given; a stuck run counts as rejection,
    # exactly where the reference's completion sinks it.
    def outcome(fn, a, b, budget):
        try:
            return fn(a, b, budget=budget)
        except BudgetExceeded:
            return "budget"

    rng = random.Random(48)
    seen = set()
    for trial in range(200):
        if trial % 2:
            a = random_nondet_automaton(rng, "ab", 3)
        else:
            a = random_det_automaton(rng, "ab", 3, complete=rng.random() < 0.5)
        b = random_det_automaton(rng, "ab", 3, complete=trial % 4 < 2)
        for budget in BUDGETS if trial % 2 else (None, 7):
            want = outcome(reference_includes, a, b, budget)
            assert outcome(includes, a, b, budget) == want, (trial, budget)
            seen.add(want if want in (None, "budget") else "witness")
    assert seen == {None, "budget", "witness"}


def test_equivalent_reports_no_difference_on_self():
    rng = random.Random(407)
    for _ in range(6):
        a = random_det_automaton(rng, alphabet="ab", max_states=3)
        assert equivalent(a, a) is None


def test_equivalent_sides_name_the_accepting_machine():
    narrow = only_all_a_machine()
    univ = universal_machine()
    side, w = equivalent(narrow, univ)
    assert side == "right"
    assert membership_nondet(univ, w.word())
    assert not membership_nondet(narrow, w.word())
    side, w = equivalent(univ, narrow)
    assert side == "left"
    assert membership_nondet(univ, w.word())
    assert not membership_nondet(narrow, w.word())


def test_equivalent_requires_both_deterministic():
    # L(nondet) is not inside the empty language, so a check of the second
    # machine alone would answer "left" before it ever looked at the first.
    for pair in ((branching_machine(), empty_machine()), (empty_machine(), branching_machine())):
        with pytest.raises(ValueError, match="need a well-formed, deterministic machine"):
            equivalent(*pair)


def test_equivalent_machine_and_its_complement_differ():
    rng = random.Random(408)
    for _ in range(10):
        a = random_det_automaton(rng, alphabet="ab", max_states=3)
        got = equivalent(a, complement(complete(a)))
        assert got is not None
        side, w = got
        in_a = membership_nondet(complete(a), w.word())
        assert in_a == (side == "left")


def test_monomial_round_trip_is_equivalent():
    # Determinize a monomial, decompose the machine, rebuild a deterministic
    # union from the parts, and confirm exact language equality.
    rng = random.Random(409)
    done = 0
    while done < 6:
        m = random_restricted_monomial(rng, alphabet="ab", max_degree=1)
        if is_unambiguous_bounded(m, bound=m.degree + 6) is not None:
            continue
        det = prune_unreachable(monomial_to_deterministic(m, alphabet="ab"))
        if len(det.states) > 5:
            continue
        parts = [monomial_to_deterministic(p, alphabet="ab") for p in automaton_to_polynomial(det)]
        rebuilt = prune_unreachable(reduce(product_union, parts))
        assert equivalent(det, rebuilt) is None
        done += 1


def test_is_universal():
    assert is_universal(universal_machine()) is None
    got = is_universal(empty_machine())
    assert got == Witness("", "a")
    assert not membership_nondet(empty_machine(), got.word())


def test_budget_stops_long_searches():
    det = monomial_to_deterministic(SHOWCASE)
    with pytest.raises(BudgetExceeded, match="more than 1 membership tests"):
        is_empty(det, budget=1)
    with pytest.raises(BudgetExceeded):
        includes(universal_machine(), only_all_a_machine(), budget=1)
    # A generous budget changes nothing.
    assert is_empty(det, budget=10_000) == is_empty(det)


def test_rejects_bad_inputs():
    over_ab = universal_machine("ab")
    over_abc = universal_machine("abc")
    with pytest.raises(ValueError, match="shared alphabet"):
        includes(over_ab, over_abc)
    nondet = branching_machine()
    with pytest.raises(ValueError, match="deterministic"):
        includes(over_ab, nondet)
    with pytest.raises(ValueError, match="deterministic"):
        is_universal(nondet)


BUDGETS = (None, 0, 1, 7, 50)
# The formulas of the benchmark's decide workload: six unsatisfiable, three
# satisfiable.
UNSAT_FORMULAS = [
    "v3 & !v3",
    "v4 & !v4",
    "v2 & v3 & !v3",
    "!v3 & v3",
    "!(v3 | !v3)",
    "v2 & v1 & !v2",
]
SAT_FORMULAS = ["v1 & !v2 & v3", "(v1 | v2) & !v1 & v3", "(!v1 & !v2 & v4) | (v2 & !v2)"]


def settle(fn, *args, budget):
    """The answer, or the budget message: what a caller can observe."""
    try:
        return fn(*args, budget=budget)
    except BudgetExceeded as err:
        return ("budget", str(err))


def det_machine(rng, alphabet, max_states):
    a = random_det_automaton(rng, alphabet, max_states, complete=rng.random() < 0.5)
    return with_y_start(rng, a) if rng.random() < 0.25 else a


def y_start_three_changes() -> Po2Automaton:
    """Accepts a a* b a* b a^w: the Y initial state loops on a (dies on b)
    and bounces into p, which needs two b's to reach f.  The first witness
    abb(a) sees no state change at position 1: the initial state and p both
    self-loop there."""
    t = {
        ("z0", "a", "z0"), ("z0", "b", "dead"), ("z0", LEND, "p"),
        ("p", "a", "p"), ("p", "b", "q"), ("q", "a", "q"), ("q", "b", "f"),
        ("f", "a", "f"), ("f", "b", "dead"), ("dead", "a", "dead"), ("dead", "b", "dead"),
    }
    return Po2Automaton("ab", {"p", "q", "f", "dead"}, {"z0"}, t, {"z0"}, {"f"})


def test_pruned_emptiness_matches_reference():
    # Answers, witnesses and budget outcomes equal those of testing every
    # candidate in length-lex order.
    rng = random.Random(1201)
    seen = set()
    for trial in range(240):
        alphabet = "ab" if trial % 2 else "abc"
        a = det_machine(rng, alphabet, 7)
        for budget in BUDGETS:
            want = settle(reference_is_empty, a, budget=budget)
            assert settle(is_empty, a, budget=budget) == want, (trial, budget)
            seen.add(want if want is None else type(want).__name__)
            want = settle(reference_is_empty, complement(complete(a)), budget=budget)
            assert settle(is_universal, a, budget=budget) == want, (trial, budget)
    assert seen == {None, "tuple", "Witness"}
    # Nondeterministic machines walk the same trie, with nothing cut.
    rng = random.Random(1203)
    seen = set()
    trial = 0
    while trial < 80:
        a = random_nondet_automaton(rng, "ab" if trial % 2 else "abc", 5)
        if a.validate().is_deterministic:
            continue
        for budget in BUDGETS:
            want = settle(reference_is_empty, a, budget=budget)
            assert settle(is_empty, a, budget=budget) == want, ("nondet", trial, budget)
            seen.add(want if want is None else type(want).__name__)
        trial += 1
    assert seen == {None, "tuple", "Witness"}


def test_pruned_inclusion_and_equivalence_match_reference():
    def expected_equivalence(left, right):
        # equivalent() runs both inclusions in turn under the same budget.
        for side, want in (("left", left), ("right", right)):
            if isinstance(want, tuple):
                return want
            if want is not None:
                return (side, want)
        return None

    def compare(a, b, budgets, label):
        wants = {}
        for budget in budgets:
            left = settle(reference_includes, a, b, budget=budget)
            right = settle(reference_includes, b, a, budget=budget)
            assert settle(includes, a, b, budget=budget) == left, (label, budget)
            assert settle(includes, b, a, budget=budget) == right, (label, budget)
            want = expected_equivalence(left, right)
            assert settle(equivalent, a, b, budget=budget) == want, (label, budget)
            wants[budget] = want
        return wants

    rng = random.Random(1202)
    seen = set()
    for trial in range(150):
        alphabet = "ab" if trial % 2 else "abc"
        a = det_machine(rng, alphabet, 3 if alphabet == "ab" else 2)
        b = det_machine(rng, alphabet, 3 if alphabet == "ab" else 2)
        want = compare(a, b, BUDGETS, trial)[None]
        seen.add(want if want is None else want[0])
    assert seen == {None, "left", "right"}
    # Machines of up to seven states, against budgets the reference can
    # afford; where the largest one settles the search, so must no budget.
    settled = 0
    for trial in range(60):
        alphabet = "ab" if trial % 2 else "abc"
        a = det_machine(rng, alphabet, 7)
        b = det_machine(rng, alphabet, 7)
        want = compare(a, b, BUDGETS[1:] + (400,), trial)[400]
        if not isinstance(want, tuple) or want[0] != "budget":
            settled += 1
            assert settle(equivalent, a, b, budget=None) == want, trial
    assert settled >= 20


def test_pruned_search_on_formula_machines():
    for text in UNSAT_FORMULAS + SAT_FORMULAS:
        machine = build_sat_automaton(parse_formula(text))
        for budget in BUDGETS:
            want = settle(reference_is_empty, machine, budget=budget)
            assert settle(is_empty, machine, budget=budget) == want, (text, budget)
        assert (is_empty(machine) is None) == (text in UNSAT_FORMULAS)


def test_pruned_search_starts_in_an_x_state():
    # A Y initial state reads position 1 before the head arrives there, so
    # deleting an unchanged position 1 is not sound for the machine as given.
    m = y_start_three_changes()
    assert is_empty(m) == Witness("abb", "a") == reference_is_empty(m)
    assert membership_nondet(m, LassoWord("abb", "a"))
    univ = universal_machine()
    assert includes(m, complement(complete(m))) == Witness("abb", "a")
    assert equivalent(univ, m) == ("left", Witness("", "a"))
    assert equivalent(m, empty_machine()) == ("left", Witness("abb", "a"))


def a_before_first_b_and_a_after() -> Po2Automaton:
    """Accepts a+ b (a|b)^w with an a after the first b.  At the first b the
    head walks back over the spoke and changes state on the a before it, so
    the trie must follow that run through the earlier positions' cells."""
    t = {
        ("x0", "a", "x0"), ("x0", "b", "y1"),
        ("y1", "a", "y2"), ("y1", "b", "y1"), ("y1", LEND, "dead"),
        ("y2", "a", "y2"), ("y2", "b", "y2"), ("y2", LEND, "xf"),
        ("xf", "a", "xf"), ("xf", "b", "xh"), ("xh", "a", "xg"), ("xh", "b", "xh"),
        ("xg", "a", "xg"), ("xg", "b", "xg"), ("dead", "a", "dead"), ("dead", "b", "dead"),
    }
    return Po2Automaton("ab", {"x0", "xf", "xh", "xg", "dead"}, {"y1", "y2"}, t, {"x0"}, {"xg"})


def test_pruned_search_follows_a_run_back_over_the_spoke():
    m = a_before_first_b_and_a_after()
    assert is_empty(m) == Witness("ab", "a") == reference_is_empty(m)
    assert includes(m, empty_machine()) == Witness("ab", "a")


def test_negative_budgets_are_rejected():
    m = monomial_to_deterministic(SHOWCASE)
    nondet = branching_machine()
    calls = [
        lambda b: is_empty(m, budget=b),
        lambda b: is_empty(nondet, budget=b),
        lambda b: is_universal(m, budget=b),
        lambda b: includes(m, m, budget=b),
        lambda b: includes(nondet, empty_machine(), budget=b),
        lambda b: equivalent(m, m, budget=b),
        lambda b: sat_via_emptiness(parse_formula("v1 & !v1"), budget=b),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="budget must be at least 0, got -5"):
            call(-5)
        with pytest.raises(BudgetExceeded, match="more than 0 membership tests"):
            call(0)


def settled_verdicts(a: Po2Automaton, max_len: int):
    """Each candidate up to spoke length ``max_len`` with its verdict as the
    trie search settles it from the crossing tables and run_det's verdict
    from the tape start."""
    w = ensure_x_initial(complete(a))
    cross, delta, limit = crosser(w), w._tables[0], len(w.states)
    letters = sorted(a.alphabet)
    stack = [("", None, next(iter(w.initial)))]
    while stack:
        spoke, cell, z = stack.pop()
        for c in letters:
            child = (len(spoke), c, cell, {})
            zc = cross(child, z)[0]
            settled = decide._settle(cross, delta, child, zc, limit) in w.final
            yield Witness(spoke, c), settled, run_det(a, LassoWord(spoke, c)).verdict == ACCEPTED
            if len(spoke) < max_len:
                stack.append((spoke + c, child, zc))


def test_crossing_settled_verdicts_match_runs_from_the_tape_start():
    rng = random.Random(2101)
    machines = []
    for trial in range(1500):
        alphabet = "ab" if trial % 2 else "abc"
        a = random_det_automaton(rng, alphabet, 9, complete=rng.random() < 0.5)
        machines.append((with_y_start(rng, a) if rng.random() < 0.3 else a, 5))
    # Formula machines and determinized monomials run far back over longer
    # spokes.
    for text in UNSAT_FORMULAS + SAT_FORMULAS:
        machines.append((build_sat_automaton(parse_formula(text)), 8))
    for text in ("[ab]*a.[]*c.[c]w", "[c]*b.[bc]*b.[c]*a.[bc]w", "[b]*a.[a]*b.[ab]w"):
        a = monomial_to_deterministic(parse_monomial(text))
        machines.append((a, 8 if len(a.alphabet) == 2 else 6))
    accepted = candidates = 0
    for i, (a, max_len) in enumerate(machines):
        for cand, settled, ran in settled_verdicts(a, max_len):
            assert settled == ran, (i, cand)
            accepted += ran
            candidates += 1
    assert candidates > 900_000 and 0.1 < accepted / candidates < 0.9


def mostly_a_then_b() -> Po2Automaton:
    """Accepts a* b (a|b)^w: the first b moves s to the final f for good."""
    t = {("s", "a", "s"), ("s", "b", "f"), ("f", "a", "f"), ("f", "b", "f")}
    return Po2Automaton("ab", {"s", "f"}, set(), t, {"s"}, {"f"})


def lying_crosser(report):
    """A stand-in for run.crosser whose crossings of the machine that has a
    state ``f`` end in ``report(z)`` instead of the true X state."""

    def make(w):
        cross = crosser(w)
        if "f" not in w.states:
            return cross
        return lambda cell, z: (report(z), cross(cell, z)[1])

    return make


@pytest.mark.parametrize("report", [lambda z: "f", lambda z: z], ids=["final", "stuck"])
def test_a_wrong_crossing_is_an_internal_error(report, monkeypatch):
    # "final" settles (a) as a witness that a run from the tape start
    # rejects; "stuck" never lets the run on b^w leave s.
    m = mostly_a_then_b()
    assert is_empty(m) == Witness("", "b") == includes(m, empty_machine())
    monkeypatch.setattr(decide, "crosser", lying_crosser(report))
    for call in (lambda: is_empty(m), lambda: includes(m, empty_machine())):
        with pytest.raises(RuntimeError, match="^internal: "):
            call()
