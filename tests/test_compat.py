"""Tracker oracles: the index really certifies prefix compatibility."""

import random

import pytest

from compat_oracle import (
    build_tracker,
    is_k_prefix_compatible,
    parse_tracker_state,
    prefix_factorize,
)
from helpers import random_det_automaton, random_lasso, reference_tracker_table
from po2buchi.compat import tracker_step, tracker_table
from po2buchi.core import LEND, Po2Automaton
from po2buchi.run import run_det
from po2buchi.words import LassoWord


def hand_machine() -> Po2Automaton:
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


def test_tracker_table_hand_entries():
    a = hand_machine()
    t = tracker_table(a, "ab")
    # X source keeps the index, then entering Y keeps it too.
    assert t["x0", 1, "b"] == ("y0", 1)
    assert t["x0", 2, "b"] == ("y0", 2)
    # X self-loop on the indexed marker letter advances the index.
    assert t["x0", 1, "a"] == ("x0", 2)
    assert t["x1", 1, "a"] == ("x1", 2)
    # Y source reading the previous marker pulls the index down first;
    # staying in Y then keeps the adjusted index.
    assert t["y0", 2, "a"] == ("y0", 1)
    assert t["y0", 2, "b"] == ("y0", 2)
    assert t["y0", 1, "a"] == ("y0", 1)
    # Bounce edges keep the index.
    assert t["y0", 1, LEND] == ("x1", 1)
    assert t["y0", 2, LEND] == ("x1", 2)
    # Crossing case is deliberately missing: X target, top index, last marker.
    assert ("x1", 2, "b") not in t
    assert ("x0", 2, "b") in t  # target is Y, not a crossing
    with pytest.raises(TypeError):
        t["x0", 1, "a"] = ("x0", 1)


def test_tracker_table_is_built_from_tracker_step():
    a = hand_machine()
    letters = sorted(a.alphabet) + [LEND]
    for v in ("a", "ab", "bab"):
        expected = {}
        for z in sorted(a.states):
            for k in range(1, len(v) + 1):
                for c in letters:
                    hit = tracker_step(a, v, z, k, c)
                    if hit is not None:
                        expected[z, k, c] = hit
        assert dict(tracker_table(a, v)) == expected
    assert not hasattr(tracker_table, "cache_info")


def test_tracker_step_matches_reference_table():
    rng = random.Random(34)
    entries = crossings = 0
    for i in range(400):
        alphabet = ("ab", "abc")[i % 2]
        a = random_det_automaton(rng, alphabet, 6, complete=i % 4 < 2)
        v = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
        expected = reference_tracker_table(a, v)
        for z in sorted(a.states):
            for k in range(1, len(v) + 1):
                for c in sorted(a.alphabet) + [LEND]:
                    hit = tracker_step(a, v, z, k, c)
                    assert hit == expected.get((z, k, c)), (z, k, c)
                    entries += hit is not None
                    # No entry although the machine moves: the crossing case.
                    crossings += hit is None and a.det_successor(z, c) is not None
    assert entries > 5000 and crossings > 500


def test_tracker_argument_checks():
    a = hand_machine()
    with pytest.raises(ValueError):
        tracker_table(a, "")
    with pytest.raises(ValueError):
        tracker_table(a, "az")
    nondet = Po2Automaton(
        "a", {"p", "q"}, set(),
        {("p", "a", "p"), ("p", "a", "q"), ("q", "a", "q")},
        {"p"}, set(),
    )
    with pytest.raises(ValueError):
        tracker_table(nondet, "a")


def test_tracker_index_monotonicity():
    rng = random.Random(31)
    for _ in range(100):
        a = random_det_automaton(rng, "ab", 5)
        v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        for (z, k, c), (z2, k2) in tracker_table(a, v).items():
            if a.is_x(z):
                assert k2 >= k
            if not a.is_x(z2):
                assert k2 <= k


def test_built_tracker_is_well_formed():
    rng = random.Random(32)
    for _ in range(100):
        a = random_det_automaton(rng, "ab", 5)
        v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        t = build_tracker(a, v)
        report = t.validate()
        assert report.is_well_formed_po2, report.violations
        assert report.is_deterministic, report.violations
        (z0,) = a.initial
        assert t.initial == {f"{z0}@{len(v)}"}
        for name in t.states:
            z, k = parse_tracker_state(name)
            assert 1 <= k <= len(v)
            assert (name in t.x_states) == a.is_x(z)


def harvest_and_check(a: Po2Automaton, w: LassoWord) -> int:
    """Follow every clean left excursion and check the tracked index.

    Returns how many excursions were checked.  "Clean" means all earlier
    state changes happened at strictly increasing positions, so the change
    letters factorize the prefix up to the excursion point.
    """
    out = run_det(a, w, collect_trace=True)
    if out.verdict != "accepted" and out.verdict != "rejected":
        return 0
    checked = 0
    for i, (p, _src, c, dst) in enumerate(out.state_changes):
        if a.is_x(dst):
            continue
        earlier = out.state_changes[:i]
        positions = [e[0] for e in earlier] + [p]
        if positions != sorted(set(positions)):
            continue
        v = "".join(e[2] for e in earlier) + c
        m = len(v)
        prefix = w.prefix(p)
        f = prefix_factorize(prefix, v)
        # Stretches between changes are self-loops of one state, so the
        # change letters really are first occurrences: hard soundness check.
        assert f is not None and f.residual == "" and f.factored_prefix() == prefix
        table = tracker_table(a, v)
        z, q, k = dst, p - 1, m
        for _ in range(10_000):
            assert 0 <= q <= p
            word = prefix[q - 1 :] if a.is_x(z) else prefix[q:]
            assert is_k_prefix_compatible(word, k, f), (z, q, k)
            letter = LEND if q == 0 else w.letter_at(q)
            nxt = a.det_successor(z, letter)
            key = (z, k, letter)
            if key not in table:
                # Only the crossing is missing: back at the excursion
                # point, top index, last marker, moving right.
                assert q == p and k == m and letter == v[-1] and a.is_x(nxt)
                break
            z2, k2 = table[key]
            assert z2 == nxt
            if a.is_x(z) and q == p:
                assert k == m
            q = 1 if letter == LEND else (q + 1 if a.is_x(z2) else q - 1)
            z, k = z2, k2
        else:
            raise AssertionError("excursion did not close")
        checked += 1
    return checked


def test_tracked_index_matches_compatibility_oracle():
    rng = random.Random(33)
    total = 0
    for _ in range(900):
        a = random_det_automaton(rng, "ab", 6)
        w = random_lasso(rng, "ab")
        total += harvest_and_check(a, w)
    assert total >= 50, f"only {total} excursions harvested"
