"""Run semantics: hand-checked languages, nondeterministic search, traces."""

import random

import pytest

from helpers import (
    random_det_automaton,
    random_lasso,
    random_nondet_automaton,
    reference_cross,
    reference_successors,
    with_y_start,
)
from po2buchi.core import LEND, Po2Automaton, complete, ensure_x_initial
from po2buchi.run import (
    ACCEPTED,
    REJECTED,
    STUCK,
    crosser,
    membership_nondet,
    run_det,
    simulate_from,
)
from po2buchi.words import LassoWord


def contains_b() -> Po2Automaton:
    """Accepts lassos containing at least one b."""
    return Po2Automaton(
        "ab",
        {"x0", "x1"},
        {"y0"},
        {
            ("x0", "a", "x0"),
            ("x0", "b", "y0"),
            ("y0", "a", "y0"),
            ("y0", "b", "y0"),
            ("y0", LEND, "x1"),
            ("x1", "a", "x1"),
            ("x1", "b", "x1"),
        },
        {"x0"},
        {"x1"},
    )


def first_letter_a_and_some_c() -> Po2Automaton:
    """Accepts lassos that contain a c and whose first letter is a.

    Exercises genuine two-way behaviour: the head walks to the first c,
    sweeps back to the marker, then re-reads position one.
    """
    sigma = "abc"
    t = set()
    for c in "ab":
        t.add(("x0", c, "x0"))
    t.add(("x0", "c", "y0"))
    for c in sigma:
        t.add(("y0", c, "y0"))
        t.add(("ok", c, "ok"))
        t.add(("dead", c, "dead"))
    t.add(("y0", LEND, "x1"))
    t.add(("x1", "a", "ok"))
    t.add(("x1", "b", "dead"))
    t.add(("x1", "c", "dead"))
    return Po2Automaton(sigma, {"x0", "x1", "ok", "dead"}, {"y0"}, t, {"x0"}, {"ok"})


def test_contains_b_language():
    a = contains_b()
    assert run_det(a, LassoWord("", "b")).verdict == ACCEPTED
    assert run_det(a, LassoWord("aa", "ab")).verdict == ACCEPTED
    assert run_det(a, LassoWord("b", "a")).verdict == ACCEPTED
    assert run_det(a, LassoWord("", "a")).verdict == REJECTED
    assert run_det(a, LassoWord("aaa", "a")).verdict == REJECTED


def test_two_way_lookback_language():
    a = first_letter_a_and_some_c()
    cases = {
        ("abc", "c"): True,
        ("a", "c"): True,
        ("bac", "c"): False,
        ("", "ca"): False,
        ("a", "ab"): False,  # no c anywhere
        ("ab", "bc"): True,
        ("c", "c"): False,
    }
    for (spoke, period), want in cases.items():
        out = run_det(a, LassoWord(spoke, period))
        assert out.accepted == want, (spoke, period)
        assert out.verdict in (ACCEPTED, REJECTED)


def test_run_det_checks_preconditions():
    a = contains_b()
    with pytest.raises(ValueError):
        run_det(a, LassoWord("", "z"))
    multi = Po2Automaton("a", {"p", "q"}, set(), {("p", "a", "p"), ("q", "a", "q")}, {"p", "q"}, set())
    with pytest.raises(ValueError):
        run_det(multi, LassoWord("", "a"))
    branchy = Po2Automaton(
        "a", {"p", "q", "r"}, set(),
        {("p", "a", "q"), ("p", "a", "r"), ("q", "a", "q"), ("r", "a", "r")},
        {"p"}, set(),
    )
    with pytest.raises(ValueError):
        run_det(branchy, LassoWord("", "a"))


def test_stuck_verdict_on_incomplete_machine():
    a = Po2Automaton("ab", {"p"}, set(), {("p", "a", "p")}, {"p"}, {"p"})
    out = run_det(a, LassoWord("ab", "a"))
    assert out.verdict == STUCK
    assert out.stationary_state is None
    assert run_det(a, LassoWord("", "a")).verdict == ACCEPTED


def test_cycle_raises_runtime_error():
    a = Po2Automaton(
        "a", {"x"}, {"y"},
        {("x", "a", "y"), ("y", LEND, "x"), ("y", "a", "y")},
        {"x"}, set(),
    )
    with pytest.raises(RuntimeError):
        run_det(a, LassoWord("", "a"))


def test_cross_matches_position_by_position_walk():
    # Spokes share the cells of their common prefixes, so a crossing reads
    # tables that other spokes filled.  Mask bit t stands for position t + 1.
    rng = random.Random(1401)
    machines = [contains_b(), first_letter_a_and_some_c()]
    for trial in range(120):
        alphabet = "ab" if trial % 2 else "abc"
        m = random_det_automaton(rng, alphabet, 7)
        machines.append(complete(with_y_start(rng, m)) if trial % 3 == 0 else m)
    for a in machines:
        a = ensure_x_initial(a)
        cross = crosser(a)
        letters = sorted(a.alphabet)
        (z0,) = a.initial
        cells = {"": (None, z0)}
        for _ in range(12):
            spoke = "".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
            for p in range(1, len(spoke) + 1):
                if spoke[:p] in cells:
                    continue
                previous, z = cells[spoke[: p - 1]]
                cell = (p - 1, spoke[p - 1], previous, {})
                got, mask = cross(cell, z)
                want, changed = reference_cross(a, spoke[:p], z)
                assert (got, mask << 1) == (want, changed), (a, spoke[:p])
                assert got in a.x_states
                cells[spoke[:p]] = (cell, got)
    # The Y state walks back over every marker to the tape start.
    a = contains_b()
    cross = crosser(a)
    cell = None
    for t, c in enumerate("aaab"):
        cell = (t, c, cell, {})
    assert cross(cell, "x0") == ("x1", 1 << 3)


def test_cross_guards_against_cycles():
    a = Po2Automaton(
        "a", {"x"}, {"y"},
        {("x", "a", "y"), ("y", LEND, "x"), ("y", "a", "y")},
        {"x"}, set(),
    )
    with pytest.raises(RuntimeError, match="did not cross"):
        crosser(a)((0, "a", None, {}), "x")


def test_trace_structure():
    a = first_letter_a_and_some_c()
    w = LassoWord("bbc", "ac")
    out = run_det(a, w, collect_trace=True)
    assert out.trace is not None
    assert out.steps == len(out.trace) - 1
    assert out.trace[0] == ("x0", 1)
    seen_blocks = []
    for (z1, p1), (z2, p2) in zip(out.trace, out.trace[1:]):
        assert p2 == 1 if p1 == 0 else p2 in (p1 - 1, p1 + 1)
        if not seen_blocks or seen_blocks[-1] != z1:
            seen_blocks.append(z1)
    # Each state forms one contiguous block of the run.
    assert len(seen_blocks) == len(set(seen_blocks))
    # Recorded changes line up with the trace.
    changes = [
        (p1, z1, LEND if p1 == 0 else w.letter_at(p1), z2)
        for (z1, p1), (z2, p2) in zip(out.trace, out.trace[1:])
        if z1 != z2
    ]
    assert list(out.state_changes) == changes


def test_simulate_from_stationary_start():
    a = contains_b()
    out = simulate_from(a, LassoWord("", "a"), "x1", 5)
    assert out.verdict == ACCEPTED and out.steps == 0 and out.stationary_state == "x1"


def test_representation_invariance():
    rng = random.Random(21)
    for _ in range(100):
        a = random_det_automaton(rng, "ab", 5)
        w = random_lasso(rng, "ab")
        variants = [
            w,
            LassoWord(w.spoke + w.period, w.period),
            LassoWord(w.spoke, w.period * 2),
            LassoWord(w.spoke + w.period * 2, w.period * 3),
        ]
        verdicts = {run_det(a, v).verdict for v in variants}
        assert len(verdicts) == 1
        results = {membership_nondet(a, v) for v in variants}
        assert len(results) == 1


def test_membership_agrees_with_run_det():
    rng = random.Random(22)
    for _ in range(300):
        a = random_det_automaton(rng, "ab", 6)
        w = random_lasso(rng, "ab")
        assert membership_nondet(a, w) == run_det(a, w).accepted


def brute_membership(a: Po2Automaton, w: LassoWord, horizon: int) -> bool:
    """Independent reference search with an explicit position horizon."""
    def letter(i):
        return LEND if i == 0 else w.letter_at(i)

    ok = lambda z, i: (
        i > len(w.spoke)
        and z in a.final
        and a.is_x(z)
        and set(w.period) <= set(a.selfloop_letters(z))
    )
    successors = reference_successors(a)
    seen = {(z, 1) for z in a.initial}
    queue = list(seen)
    while queue:
        z, i = queue.pop()
        if ok(z, i):
            return True
        for nxt in successors.get((z, letter(i)), ()):
            j = 1 if letter(i) == LEND else (i + 1 if a.is_x(nxt) else i - 1)
            if 0 <= j <= horizon and (nxt, j) not in seen:
                seen.add((nxt, j))
                queue.append((nxt, j))
    return False


def test_membership_horizon_is_enough():
    rng = random.Random(23)
    for _ in range(300):
        a = random_nondet_automaton(rng, "ab", 6)
        w = random_lasso(rng, "ab")
        big = len(w.spoke) + (len(a.states) + 20) * len(w.period) + 40
        assert membership_nondet(a, w) == brute_membership(a, w, big)
