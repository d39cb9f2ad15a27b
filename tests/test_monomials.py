"""Monomials: literals, membership, translations, and relativization."""

import itertools
import random

import pytest

from helpers import (
    one_letter_chain,
    random_det_automaton,
    random_lasso,
    random_monomial,
    monomials_meet,
    random_restricted_monomial,
    reference_automaton_to_polynomial,
    reference_is_unambiguous_bounded,
    sample_from_monomial,
    with_y_start,
)
from po2buchi import monomials
from po2buchi.core import LEND, Po2Automaton, chain_lengths, chains_to, complete, fresh_name
from po2buchi.decide import equivalent, is_empty
from po2buchi.monomials import (
    Monomial,
    automaton_to_polynomial,
    finite_monomial_acceptor,
    is_unambiguous_bounded,
    monomial_from_joint_runs,
    monomial_member,
    monomial_to_automaton,
    monomial_to_deterministic,
    parse_monomial,
    polynomial_to_automaton,
    relativize,
)
from po2buchi.run import ACCEPTED, membership_nondet, run_det, simulate_from
from po2buchi.words import LassoWord

# {a,b}*a then immediately c, then c forever: the running example used by
# hand-verified cases throughout.
SHOWCASE = parse_monomial("[ab]*a.[]*c.[c]w")
# The monomial whose machine perfbench's cli workload saves as big.po2.
BIG = "[bc]*a.[b]*c.[bc]*c.[b]*a.[bc]w"


def brute_member(m: Monomial, w: LassoWord, slack: int = 4) -> bool:
    """Reference matcher over a longer window than the implementation uses."""
    if not m.tail:
        return False
    window = len(w.spoke) + (m.degree + 1 + slack) * max(len(w.period), 1)
    text = w.prefix(window)

    def rec(t: int, start: int) -> bool:
        if t == m.degree:
            return set(text[start:]) <= m.tail and set(w.period) <= m.tail
        seg, mark = m.segments[t], m.markers[t]
        for i in range(start, window):
            if text[i] == mark and rec(t + 1, i + 1):
                return True
            if text[i] not in seg:
                return False
        return False

    return rec(0, 0)


def count_factorizations(m: Monomial, w: LassoWord, window: int) -> int:
    """Number of distinct marker placements that match within the window."""
    text = w.prefix(window)
    count = 0
    for vec in itertools.combinations(range(window), m.degree):
        prev = 0
        ok = True
        for t, p in enumerate(vec):
            if text[p] != m.markers[t] or not set(text[prev:p]) <= m.segments[t]:
                ok = False
                break
            prev = p + 1
        if ok and set(text[prev:]) <= m.tail and set(w.period) <= m.tail:
            count += 1
    return count


# --- literals and structure -------------------------------------------------


def test_literal_round_trip_hand():
    assert SHOWCASE.segments == (frozenset("ab"), frozenset())
    assert SHOWCASE.markers == ("a", "c")
    assert SHOWCASE.tail == frozenset("c")
    assert str(SHOWCASE) == "[ab]*a.[]*c.[c]w"
    assert parse_monomial("[abc]w") == Monomial((), (), "abc")
    assert parse_monomial("[]w") == Monomial((), (), "")


def test_literal_round_trip_random():
    rng = random.Random(1)
    for _ in range(200):
        m = random_monomial(rng)
        assert parse_monomial(str(m)) == m


def test_literal_rejects_garbage():
    for text in ("", "x", "[ab]*", "[ab]*ab.[c]w", "[ab]a.[c]w", "[ab]*a.[c]"):
        with pytest.raises(ValueError):
            parse_monomial(text)


def test_structure_validation():
    with pytest.raises(ValueError):
        Monomial(("ab",), (), "c")
    with pytest.raises(ValueError):
        Monomial((), (), LEND)


# --- membership -------------------------------------------------------------


def test_member_showcase_cases():
    assert monomial_member(SHOWCASE, LassoWord("bac", "c"))
    assert monomial_member(SHOWCASE, LassoWord("ba", "c"))
    assert not monomial_member(SHOWCASE, LassoWord("acac", "c"))
    assert not monomial_member(SHOWCASE, LassoWord("bc", "c"))
    assert not monomial_member(SHOWCASE, LassoWord("bac", "cb"))


def test_member_degree_zero():
    universal = Monomial((), (), "abc")
    rng = random.Random(2)
    for _ in range(50):
        assert monomial_member(universal, random_lasso(rng, "abc"))
    only_c = Monomial((), (), "c")
    assert monomial_member(only_c, LassoWord("cc", "c"))
    assert not monomial_member(only_c, LassoWord("ab", "c"))


def test_member_empty_tail_is_empty_language():
    m = Monomial(("ab",), ("a",), "")
    rng = random.Random(3)
    for _ in range(50):
        assert not monomial_member(m, random_lasso(rng, "abc"))


def test_member_matches_brute():
    rng = random.Random(4)
    for _ in range(500):
        m = random_monomial(rng)
        w = random_lasso(rng, "abc")
        assert monomial_member(m, w) == brute_member(m, w), (str(m), str(w))


def test_member_matches_chain_automaton():
    rng = random.Random(5)
    for _ in range(500):
        m = random_monomial(rng)
        npo = monomial_to_automaton(m, alphabet="abc")
        w = random_lasso(rng, "abc")
        assert membership_nondet(npo, w) == monomial_member(m, w), (str(m), str(w))


# --- restrictedness and unambiguity ------------------------------------------


def test_is_restricted():
    assert SHOWCASE.is_restricted()
    assert not parse_monomial("[a]*a.[a]w").is_restricted()
    assert Monomial((), (), "ab").is_restricted()
    # second segment swallows the remaining marker word
    assert not Monomial(("b", "ab"), ("a", "b"), "a").is_restricted()


def test_unambiguous_bounded_hand_cases():
    assert is_unambiguous_bounded(parse_monomial("[]*a.[b]w"), bound=8) is None
    assert is_unambiguous_bounded(SHOWCASE, bound=10) is None
    witness = is_unambiguous_bounded(parse_monomial("[a]*a.[a]w"), bound=8)
    assert witness == LassoWord("aa", "a")


def test_unambiguous_bounded_below_the_degree():
    """No two placements fit in fewer positions than markers, and none at
    all in no positions or a negative number of them."""
    m = parse_monomial("[a]*a.[a]*a.[a]w")
    for bound in (-5, -1, 0, 1, 2):
        assert is_unambiguous_bounded(m, bound=bound) is None
    assert is_unambiguous_bounded(m, bound=3) == LassoWord("aaa", "a")
    assert is_unambiguous_bounded(parse_monomial("[a]*a.[a]w"), bound=-1) is None


def test_unambiguous_bounded_matches_pair_enumeration():
    """The sweep returns what trying every pair of marker vectors returns,
    witness letters included."""
    rng = random.Random(15)
    hits = 0
    for _ in range(250):
        m = random_monomial(rng, "abcd"[: rng.randint(1, 4)], max_degree=5)
        k = m.degree
        for bound in (None, k, k + 1, k + 3, k + 6):
            expected = reference_is_unambiguous_bounded(m, bound)
            assert is_unambiguous_bounded(m, bound) == expected, (str(m), bound)
            hits += expected is not None
    assert hits >= 300


def test_unambiguous_bounded_at_degree_nine():
    """Degree 9 at the default bound 14: the pair enumeration tried about
    two million pairs of vectors for the first monomial (seconds); the
    sweep reaches about a hundred states for it and fills about two
    thousand cells for the second.  Both answers are the enumeration's."""
    chain = "[b]*a.[c]*b.[a]*c." * 3
    assert is_unambiguous_bounded(parse_monomial(chain + "[abc]w")) is None
    m = parse_monomial("[ab]*a.[b]*b." * 4 + "[ab]*c.[bc]w")
    assert is_unambiguous_bounded(m) == LassoWord("ababababbc", "b")


def test_unambiguous_default_bound_is_exact():
    """Degree 7: the old default of degree + 5 = 12 positions missed this
    ambiguity, and the construction then failed inside with "ambiguous
    finite monomial".  From 2 * degree positions on the witness is found,
    and the construction refuses the monomial up front."""
    m = parse_monomial("[ab]*a.[]*a.[]*b.[bc]*a.[c]*b.[]*b.[ab]*c.[bc]w")
    witness = LassoWord("aababbaabacbbc", "b")
    assert is_unambiguous_bounded(m, bound=12) is None
    assert is_unambiguous_bounded(m) == is_unambiguous_bounded(m, bound=38) == witness
    with pytest.raises(ValueError, match=r"^monomial is ambiguous: aababbaabacbbc\(b\) fits"):
        monomial_to_deterministic(m)


def test_unambiguous_default_bound_matches_the_chain_product():
    """At its default bound the sweep says None exactly when no two marker
    placements fit one word, which the self-product of the chain NFA
    decides with no bound."""
    rng = random.Random(26)
    hits = 0
    for _ in range(600):
        m = random_monomial(rng, "abc"[: rng.randint(2, 3)], max_degree=8)
        ambiguous = monomials_meet(m, m, differently=True)
        assert (is_unambiguous_bounded(m) is not None) == ambiguous, str(m)
        hits += ambiguous
    assert hits >= 300


def test_ambiguity_witnesses_verify():
    rng = random.Random(6)
    hits = 0
    for _ in range(150):
        m = random_monomial(rng)
        if m.degree == 0 or not m.tail:
            continue
        witness = is_unambiguous_bounded(m, bound=m.degree + 5)
        if witness is None:
            continue
        hits += 1
        window = len(witness.spoke) + (m.degree + 2) * len(witness.period)
        assert count_factorizations(m, witness, window) >= 2, (str(m), str(witness))
    assert hits >= 10


# --- one-way chain automata ---------------------------------------------------


def test_chain_automaton_shape():
    npo = monomial_to_automaton(SHOWCASE)
    assert not npo.y_states
    report = npo.validate()
    assert report.is_well_formed_po2
    assert membership_nondet(npo, LassoWord("ba", "c"))


def test_polynomial_union_semantics():
    rng = random.Random(7)
    for _ in range(100):
        monos = [random_monomial(rng) for _ in range(rng.randint(0, 3))]
        machine = polynomial_to_automaton(monos, alphabet="abc")
        w = random_lasso(rng, "abc")
        want = any(monomial_member(m, w) for m in monos)
        assert membership_nondet(machine, w) == want


def test_empty_polynomial_rejects_everything():
    machine = polynomial_to_automaton([], alphabet="ab")
    rng = random.Random(8)
    for _ in range(20):
        assert not membership_nondet(machine, random_lasso(rng, "ab"))


# --- finite-segment acceptors ---------------------------------------------


def brute_finite(segments, markers, word: str) -> bool:
    if not markers:
        return set(word) <= set(segments[0])
    mark = markers[0]
    return any(
        c == mark
        and set(word[:i]) <= set(segments[0])
        and brute_finite(segments[1:], markers[1:], word[i + 1 :])
        for i, c in enumerate(word)
    )


def run_acceptor(acc, word: str, end: str) -> bool:
    """Drive the acceptor over ``word + end``, checking region discipline."""
    w = LassoWord(word + end, end)
    (init,) = acc.initial
    out = simulate_from(acc, w, init, 1, collect_trace=True)
    for state, pos in out.trace:
        assert 0 <= pos <= len(word) + 2, (word, state, pos)
    outcome = out.trace[-1][0]
    assert outcome in ("yes", "no"), (word, outcome, out.verdict)
    return outcome == "yes"


def test_finite_acceptor_single_segment_exhaustive():
    acc = finite_monomial_acceptor(("b",), (), "c", "abc")
    for n in range(0, 9):
        for tup in itertools.product("ab", repeat=n):
            word = "".join(tup)
            assert run_acceptor(acc, word, "c") == (set(word) <= {"b"}), word


def test_finite_acceptor_marker_shape_exhaustive():
    # words over {a, b} ending in a, delimited by c
    acc = finite_monomial_acceptor(("ab", ""), ("a",), "c", "abc")
    for n in range(0, 9):
        for tup in itertools.product("ab", repeat=n):
            word = "".join(tup)
            assert run_acceptor(acc, word, "c") == word.endswith("a"), word


SHAPES = [
    (("ab", "b"), ("c",)),
    (("", "a"), ("a",)),
    (("a", "ab"), ("b",)),
    (("ab", "b", ""), ("a", "b")),
    (("b", "ab"), ("a",)),
]


def test_finite_acceptor_shapes_vs_brute():
    for segments, markers in SHAPES:
        acc = finite_monomial_acceptor(segments, markers, "d", "abcd")
        report = acc.validate()
        assert report.is_well_formed_po2 and report.is_deterministic
        for n in range(0, 7):
            for tup in itertools.product("abc", repeat=n):
                word = "".join(tup)
                want = brute_finite(segments, markers, word)
                assert run_acceptor(acc, word, "d") == want, (segments, markers, word)


def test_finite_acceptor_rejects_empty_word_when_marked():
    for segments, markers in SHAPES:
        acc = finite_monomial_acceptor(segments, markers, "d", "abcd")
        assert not run_acceptor(acc, "", "d")


def test_finite_acceptor_input_errors():
    with pytest.raises(ValueError):
        finite_monomial_acceptor(("ab",), ("c",), "c", "abc")
    with pytest.raises(ValueError):
        finite_monomial_acceptor(("a",), (), "c", "abc", forbid=frozenset("a"))
    with pytest.raises(ValueError):
        finite_monomial_acceptor(("ab", "ab"), ("a",), "c", "abc")


# --- relativization ---------------------------------------------------------


def test_relativize_passthrough_without_y_states():
    a = Po2Automaton(
        "ab",
        {"p", "q"},
        set(),
        {("p", "a", "p"), ("p", "b", "q"), ("q", "a", "q"), ("q", "b", "q")},
        {"p"},
        {"q"},
    )
    r = relativize(a, "b")
    assert r.transitions == a.transitions
    assert r.states == a.states


def test_relativize_left_scanner_accepts_on_first_marker():
    scanner = Po2Automaton(
        "am",
        {"x0", "ok"},
        {"y"},
        {
            ("x0", "a", "y"),
            ("x0", "m", "y"),
            ("y", "a", "y"),
            ("y", "m", "y"),
            ("y", LEND, "ok"),
            ("ok", "a", "ok"),
            ("ok", "m", "ok"),
        },
        {"x0"},
        {"ok"},
    )
    r = relativize(scanner, "m")
    for u in ("", "a", "aaa"):
        w = LassoWord(u + "m" + "aa", "a")
        out = run_det(r, w, collect_trace=True)
        assert out.verdict == ACCEPTED
        first_ok = next(pos for state, pos in out.trace if state == "ok")
        assert first_ok == len(u) + 2, (u, first_ok)
    # without any marker the scan overshoots and never accepts
    assert run_det(r, LassoWord("aaa", "a")).verdict != ACCEPTED


def test_relativize_rejects_nondeterministic():
    a = Po2Automaton(
        "a", {"p", "q", "r"}, set(),
        {("p", "a", "q"), ("p", "a", "r"), ("q", "a", "q"), ("r", "a", "r")},
        {"p"}, set(),
    )
    with pytest.raises(ValueError):
        relativize(a, "a")


def test_relativize_shifted_run_invariant():
    rng = random.Random(9)
    checked = 0
    while checked < 300:
        b = complete(random_det_automaton(rng, "ab", 5))
        marker = rng.choice("ab")
        r = relativize(b, marker)
        report = r.validate()
        assert report.is_well_formed_po2 and report.is_deterministic
        other = "ab".replace(marker, "")
        for _ in range(5):
            u = "".join(rng.choice(other) for _ in range(rng.randint(0, 4)))
            beta = random_lasso(rng, "ab", max_spoke=4, max_period=3)
            want = run_det(b, beta).verdict
            shifted = LassoWord(u + marker + beta.spoke, beta.period)
            (init,) = r.initial
            got = simulate_from(r, shifted, init, len(u) + 2).verdict
            assert got == want, (sorted(b.transitions), marker, u, str(beta))
        checked += 1


def relativize_bound(b: Po2Automaton) -> int:
    """At most six gadget states per Y state, plus the shared sink."""
    return len(b.states) + 6 * len(b.y_states) + 1


def test_relativize_shifted_run_matches_machine():
    # Incomplete machines and forbidden letters included: a missing move of
    # a left-moving state is checked for the marker like a change.
    rng = random.Random(10)
    for alphabet in ("ab", "abc"):
        for full in (True, False):
            for _ in range(150):
                b = random_det_automaton(rng, alphabet, 7, complete=full)
                marker = rng.choice(alphabet)
                forbid = frozenset(c for c in alphabet if c != marker and rng.random() < 0.3)
                r = relativize(b, marker, forbid=forbid)
                assert len(r.states) <= relativize_bound(b)
                report = r.validate()
                assert report.is_well_formed_po2 and report.is_deterministic
                (init,) = r.initial
                letters = "".join(sorted(set(alphabet) - forbid))
                other = letters.replace(marker, "")
                for _ in range(40):
                    u = "".join(rng.choice(other) for _ in range(rng.randint(0, 4))) if other else ""
                    beta = random_lasso(rng, letters, max_spoke=5, max_period=3)
                    want = run_det(b, beta).accepted
                    shifted = LassoWord(u + marker + beta.spoke, beta.period)
                    got = simulate_from(r, shifted, init, len(u) + 2).accepted
                    assert got == want, (sorted(b.transitions), marker, sorted(forbid), u, str(beta))


def left_moving_chain(n: int) -> Po2Automaton:
    """Y states y0 -a-> y1 -a-> ... y{n-1}, each looping on b and bouncing
    to a final X sink, behind an X start state."""
    ys = [f"y{i}" for i in range(n)]
    transitions = {("start", c, "y0") for c in "ab"}
    transitions.update(("sink", c, "sink") for c in "ab")
    for i, y in enumerate(ys):
        transitions.add((y, "b", y))
        transitions.add((y, "a", ys[i + 1] if i + 1 < n else "sink"))
        transitions.add((y, LEND, "sink"))
    return Po2Automaton("ab", {"start", "sink"}, ys, transitions, {"start"}, {"sink"})


@pytest.mark.parametrize("n", [12, 1000])
def test_relativize_left_moving_chain_stays_linear(n):
    # A snapshot of the machine built so far once doubled the output with
    # each left-moving state: 24,584 states for n = 12.
    b = left_moving_chain(n)
    r = relativize(b, "b")
    assert len(r.states) <= relativize_bound(b)
    assert r.validate().is_deterministic


def test_relativize_nested_gadget_names_regression():
    # nesting once produced a state named like an inner gadget, merging two
    # states and breaking determinism; a gadget edge on a forbidden letter,
    # such as a finite acceptor's end letter, becomes a tape-start edge when
    # the acceptor is mirrored
    for text in ("[b]*c.[ab]*c.[b]*c.[ab]w", "[bc]*c.[]*c.[b]*a.[ab]w"):
        det = monomial_to_deterministic(parse_monomial(text), alphabet="abc")
        report = det.validate()
        assert report.is_well_formed_po2 and report.is_deterministic and report.is_complete


# --- deterministic construction ---------------------------------------------


def test_deterministic_showcase_triple():
    det = monomial_to_deterministic(SHOWCASE, alphabet="abc")
    report = det.validate()
    assert report.is_well_formed_po2 and report.is_deterministic and report.is_complete
    assert run_det(det, LassoWord("bac", "c")).verdict == ACCEPTED
    assert run_det(det, LassoWord("bc", "c")).verdict != ACCEPTED
    assert run_det(det, LassoWord("acac", "c")).verdict != ACCEPTED


def test_deterministic_degree_zero():
    det = monomial_to_deterministic(Monomial((), (), "bc"), alphabet="abc")
    report = det.validate()
    assert report.is_well_formed_po2 and report.is_deterministic
    assert run_det(det, LassoWord("cb", "bc")).verdict == ACCEPTED
    assert run_det(det, LassoWord("a", "b")).verdict != ACCEPTED
    empty = monomial_to_deterministic(Monomial((), (), ""), alphabet="ab")
    assert run_det(empty, LassoWord("", "a")).verdict != ACCEPTED


def test_deterministic_empty_tail_is_one_dead_state():
    """An empty tail fits no infinite word: every restricted monomial with
    one, ambiguous-looking prefix or not, builds the one rejecting state."""
    m = parse_monomial("[a]*b.[]*c.[ac]*a.[ac]*b.[]w")
    assert m.is_restricted() and is_unambiguous_bounded(m) is None
    rng = random.Random(19)
    monos = [m, parse_monomial("[b]*a.[]w")]
    monos += [Monomial(r.segments, r.markers, "") for r in
              (random_restricted_monomial(rng, max_degree=4) for _ in range(40))]
    for m in monos:
        det = monomial_to_deterministic(m, alphabet="abc")
        assert det.states == {"dead"} and not det.final, str(m)
        assert det.validate().is_complete
        assert is_empty(det) is None


def test_deterministic_rejects_bad_inputs():
    with pytest.raises(ValueError):
        monomial_to_deterministic(parse_monomial("[a]*a.[a]w"))
    with pytest.raises(ValueError):
        monomial_to_deterministic(parse_monomial("[b]*b.[bc]*a.[ac]w"))


def test_deterministic_round_trip_random():
    rng = random.Random(10)
    built = 0
    while built < 40:
        m = random_restricted_monomial(rng)
        if is_unambiguous_bounded(m, bound=m.degree + 6) is not None:
            continue
        det = monomial_to_deterministic(m, alphabet="abc")
        report = det.validate()
        assert report.is_well_formed_po2 and report.is_deterministic and report.is_complete
        # The machine as built has an X initial state, so tail machines go
        # to relativize without completion or a fresh start state.
        assert det.initial <= det.x_states
        for _ in range(25):
            w = random_lasso(rng, "abc", max_spoke=6, max_period=3)
            want = monomial_member(m, w)
            assert (run_det(det, w).verdict == ACCEPTED) == want, (str(m), str(w))
        built += 1


# The product-heavy monomials of test_boolean, and one whose cases make
# a product of 13,422 states unquotiented, at their sizes with every
# operand's dead states merged and the operand quotiented.
@pytest.mark.parametrize(
    "literal, states",
    [
        ("[c]*c.[a]*a.[]*b.[ab]w", 946),
        ("[b]*b.[a]*a.[]*c.[a]w", 1170),
        ("[a]*a.[b]*b.[]*c.[ab]w", 839),
        ("[a]*a.[c]*c.[]*b.[ab]w", 501),
        ("[b]*b.[c]*c.[]*a.[a]w", 743),
        ("[a]*a.[b]*b.[a]*c.[c]w", 2234),
    ],
)
def test_deterministic_quotients_product_operands(monkeypatch, literal, states):
    m = parse_monomial(literal)
    merge, merges = monomials._merge_dead, []

    def spy(x):
        merges.append((x, merge(x)))
        return merges[-1][1]

    monkeypatch.setattr(monomials, "_merge_dead", spy)
    det = monomial_to_deterministic(m, alphabet="abc")
    assert len(det.states) == states
    report = det.validate()
    assert report.is_well_formed_po2 and report.is_deterministic and report.is_complete
    # The case machines are completed with a state named "sink", so the
    # merged sink takes the next free name.
    assert any("sink" in x.states for x, y in merges if y is not x)
    for x, y in merges:
        if y is not x:
            assert y.states - x.states == {fresh_name("sink", x.states)}
    # The same build with every operand left as it is: reduce(product_union, ...).
    monkeypatch.setattr(monomials, "_merge_dead", lambda a: a)
    monkeypatch.setattr(monomials, "minimize", lambda a: a)
    raw = monomial_to_deterministic(m, alphabet="abc")
    assert len(raw.states) > states
    rng = random.Random(9005)
    for i in range(40):
        w = sample_from_monomial(rng, m) if i % 2 else random_lasso(rng, "abc")
        want = monomial_member(m, w)
        assert run_det(det, w).accepted == run_det(raw, w).accepted == want, str(w)


def dead_states(a: Po2Automaton) -> list[str]:
    return [z for z, n in chains_to(a, a.final.__contains__).items() if n < 0]


def test_merge_dead_leaves_one_dead_sink_and_the_language():
    rng = random.Random(2701)
    merged = kept = 0
    for i in range(300):
        alphabet = rng.choice(["ab", "abc"])
        a = random_det_automaton(rng, alphabet, rng.randint(2, 8))
        if i % 3 == 0:
            a = complete(with_y_start(rng, a))
        b = monomials._merge_dead(a)
        if len(dead_states(a)) <= 1:
            assert b is a
            kept += 1
        else:
            merged += 1
        report = b.validate()
        assert report.is_well_formed_po2 and report.is_deterministic and report.is_complete
        dead = dead_states(b)
        assert len(dead) <= 1
        for z in dead:
            assert z in b.x_states and b.selfloop_letters(z) == b.alphabet
        n, m = chain_lengths(b)
        n0, m0 = chain_lengths(a)
        assert n <= n0 and m <= m0
        assert equivalent(a, b) is None
        for _ in range(10):
            w = random_lasso(rng, alphabet)
            assert run_det(b, w).verdict == run_det(a, w).verdict, (a, str(w))
    assert merged > 50 and kept > 50


# --- decomposition into monomials -------------------------------------------


def test_decompose_universal_single_state():
    a = Po2Automaton(
        "ab", {"z"}, set(), {("z", "a", "z"), ("z", "b", "z")}, {"z"}, {"z"}
    )
    assert automaton_to_polynomial(a) == [Monomial((), (), "ab")]


def test_decompose_empty_alphabet():
    # No letter, so no marker: the one skeleton is the empty one, and the
    # run is never replayed.
    for final, expected in (({"z"}, [Monomial((), (), frozenset())]), (set(), [])):
        a = Po2Automaton("", {"z"}, set(), set(), {"z"}, final)
        assert automaton_to_polynomial(a) == expected


def test_decompose_showcase_machine():
    det = monomial_to_deterministic(SHOWCASE, alphabet="abc")
    poly = automaton_to_polynomial(det)
    assert poly
    cap = chain_lengths(complete(det))[0] - 1
    for p in poly:
        assert p.is_restricted()
        assert p.degree <= cap
    rng = random.Random(11)
    for _ in range(300):
        w = random_lasso(rng, "abc", max_spoke=6, max_period=3)
        want = monomial_member(SHOWCASE, w)
        assert any(monomial_member(p, w) for p in poly) == want, str(w)


@pytest.mark.parametrize(
    "literal, expected",
    [
        ("[a]*a.[b]*c.[c]w", ["[a]*a.[]*b.[b]*c.[c]w", "[a]*a.[]*c.[c]w"]),
        ("[a]*c.[c]*b.[]*b.[ac]w", ["[a]*c.[c]*b.[]*b.[ac]w"]),
        ("[c]*b.[ac]*b.[ac]*b.[c]w", ["[c]*b.[ac]*b.[ac]*b.[c]w"]),
        ("[ab]*a.[]*c.[c]w", ["[ab]*a.[]*c.[c]w"]),
        # 36 states, chain 17.
        (
            "[bc]*c.[]*a.[c]*a.[ab]w",
            ["[bc]*b.[c]*c.[]*a.[c]*a.[ab]w", "[c]*c.[]*a.[c]*a.[ab]w"],
        ),
        # 34 states: 1.3 M skeleton nodes without the cut on dead keys.
        (
            "[c]*b.[bc]*b.[c]*a.[bc]w",
            ["[c]*b.[bc]*b.[c]*b.[c]*a.[bc]w", "[c]*b.[c]*b.[c]*a.[bc]w"],
        ),
        # 66 states, 26 of them Y, chain 39: keyed on the validated-marker
        # mask, the walk stored over 341,000 dead keys here without ending.
        (
            BIG,
            ["[bc]*a.[b]*c.[b]*c.[b]*a.[bc]w", "[bc]*a.[b]*c.[bc]*c.[b]*c.[b]*a.[bc]w"],
        ),
        # 501 states, built from two cases with their dead states merged.
        # Decomposition is exact, so this pins the machine's language: the
        # 880-state machine built without the merge gives the same four.
        (
            "[a]*a.[c]*c.[]*b.[ab]w",
            [
                "[a]*a.[]*c.[]*b.[ab]w",
                "[a]*a.[]*c.[]*c.[]*b.[ab]w",
                "[a]*a.[]*c.[]*c.[]*c.[]*b.[ab]w",
                "[a]*a.[]*c.[]*c.[c]*c.[]*c.[]*b.[ab]w",
            ],
        ),
    ],
)
def test_decompose_pinned_outputs(literal, expected):
    det = monomial_to_deterministic(parse_monomial(literal), alphabet="abc")
    poly = automaton_to_polynomial(det)
    assert [str(p) for p in poly] == expected
    assert_delta2_normal_form(poly)


def assert_delta2_normal_form(poly: list[Monomial]) -> None:
    """The paper's normal form: a disjoint union of unambiguous monomials.
    A word's run fixes where its state changes are, so a factorization
    into an emitted monomial puts its markers exactly there."""
    for p in poly:
        assert is_unambiguous_bounded(p) is None, str(p)
    for p, q in itertools.combinations(poly, 2):
        assert not monomials_meet(p, q), (str(p), str(q))


def test_decompose_big_machine_on_biased_lassos():
    # Random lassos almost never land in this language, so half of these
    # are members of the source monomial and half are members with one
    # letter changed; about four in five are accepted.
    source = parse_monomial(BIG)
    det = monomial_to_deterministic(source, alphabet="abc")
    poly = automaton_to_polynomial(det)
    rng = random.Random(24)
    accepted = 0
    for i in range(3000):
        w = sample_from_monomial(rng, source)
        if i % 2:
            word = list(w.spoke + w.period)
            word[rng.randrange(len(word))] = rng.choice("abc")
            w = LassoWord("".join(word[: len(w.spoke)]), "".join(word[len(w.spoke):]))
        want = run_det(det, w).accepted
        assert any(monomial_member(p, w) for p in poly) == want == monomial_member(source, w), str(w)
        accepted += want
    assert 1500 < accepted < 3000, accepted


def assert_decomposes(rng: random.Random, a: Po2Automaton, alphabet: str) -> None:
    poly = automaton_to_polynomial(a)
    cap = chain_lengths(complete(a))[0] - 1
    for p in poly:
        assert p.is_restricted()
        assert p.degree <= cap
    for _ in range(20):
        w = random_lasso(rng, alphabet)
        want = run_det(complete(a), w).verdict == ACCEPTED
        assert any(monomial_member(p, w) for p in poly) == want, str(w)


def test_decompose_random_machines():
    rng = random.Random(12)
    for _ in range(80):
        assert_decomposes(rng, random_det_automaton(rng, "ab", 6), "ab")


def test_decompose_random_incomplete_machines():
    # complete() gives these machines a sink that reaches no final state,
    # so the search's bound on unvalidated markers cuts skeletons there.
    rng = random.Random(15)
    for _ in range(80):
        assert_decomposes(rng, random_det_automaton(rng, "abc", 8, complete=False), "abc")


def test_decompose_long_chain_without_recursion():
    # 2,000 markers deep: deeper than Python's default recursion limit.
    poly = automaton_to_polynomial(one_letter_chain(2000))
    assert poly == [parse_monomial("[]*a." * 1999 + "[a]w")]


def test_decompose_deep_crossing_without_recursion():
    # After 2,001 markers the run turns left in y and crosses all of them
    # back to the tape start: 2,000 nested crossings, each filled from the
    # one before it.
    xs = [f"x{i}" for i in range(2001)]
    transitions = {(xs[i], "a", xs[i + 1]) for i in range(2000)}
    transitions |= {
        (xs[-1], "a", "y"), ("y", "a", "y"), ("y", LEND, "f"), ("f", "a", "f"),
    }
    a = Po2Automaton("a", {*xs, "f"}, {"y"}, transitions, {"x0"}, {"f"})
    poly = automaton_to_polynomial(a)
    assert poly == [parse_monomial("[]*a." * 2001 + "[a]w")]


def test_decompose_matches_reference():
    # The crossing memo changes how each skeleton's run is found, and the
    # cut on dead keys which skeletons are searched; neither changes what is
    # emitted.  1,040 random machines, about 30 % of them with a Y start
    # state.
    rng = random.Random(16)
    for alphabet in ("ab", "abc"):
        for full in (True, False):
            for _ in range(260):
                a = random_det_automaton(rng, alphabet, 8, complete=full)
                if rng.random() < 0.3:
                    a = with_y_start(rng, a)
                assert automaton_to_polynomial(a) == reference_automaton_to_polynomial(a)
    for literal in (
        "[a]*a.[b]*c.[c]w",
        "[a]*c.[c]*b.[]*b.[ac]w",
        "[c]*b.[ac]*b.[ac]*b.[c]w",
        "[ab]*a.[]*c.[c]w",
    ):
        det = monomial_to_deterministic(parse_monomial(literal), alphabet="abc")
        assert automaton_to_polynomial(det) == reference_automaton_to_polynomial(det)


def test_decompose_cut_matches_reference():
    # A skeleton is skipped when its key has come to nothing before.  Two
    # wrong keys change the output here: one without the count of
    # unvalidated markers on 20 of these machines, and one that keeps each
    # crossing's X state but zeroes its ranked marker bits on 16 (and on
    # the pinned 66-state machine).  Neither shows on the monomial machines
    # below.  A skeleton marked dead when only its subtree emitted nothing
    # changes the output here too.  3,000 machines over ab and abc with 2
    # to 8 states, about 30 % incomplete and a third with a Y start state.
    rng = random.Random(17)
    tested = 0
    while tested < 3000:
        alphabet = "ab" if tested % 2 else "abc"
        a = random_det_automaton(rng, alphabet, 8, complete=rng.random() >= 0.3)
        if len(a.states) < 2:
            continue
        if rng.random() < 1 / 3:
            a = with_y_start(rng, a)
        poly = automaton_to_polynomial(a)
        assert poly == reference_automaton_to_polynomial(a)
        assert_delta2_normal_form(poly)
        # A skeleton emits one monomial and its marker word names it, which
        # is what lets the walk count emissions as monomials found.
        assert len({m.markers for m in poly}) == len(poly)
        tested += 1


def test_decompose_cut_keeps_which_markers_each_crossing_names():
    # Five states, two of them Y.  A key that holds only how many markers
    # each crossing validates skips a skeleton here whose subtree emits the
    # third monomial, and no machine of the 3,000 above shows that.  A key
    # that zeroes the ranked bits fails here too.
    transitions = {
        ("z0", "a", "z0"), ("z0", "b", "z2"), ("z0", "c", "z0"),
        ("z2", "a", "z4"), ("z2", "b", "z2"), ("z2", "c", "z4"), ("z2", LEND, "z6"),
        ("z4", "a", "z5"), ("z4", "b", "z4"), ("z4", "c", "z4"),
        ("z5", "a", "z6"), ("z5", "b", "z5"), ("z5", "c", "z5"), ("z5", LEND, "z6"),
        ("z6", "a", "z6"), ("z6", "b", "z6"), ("z6", "c", "z6"),
    }
    a = Po2Automaton("abc", {"z0", "z4", "z6"}, {"z2", "z5"}, transitions, {"z0"}, {"z0", "z6"})
    poly = automaton_to_polynomial(a)
    assert [str(p) for p in poly] == [
        "[]*b.[abc]w",
        "[ac]*a.[]*b.[bc]*a.[abc]w",
        "[ac]*a.[c]*c.[]*b.[bc]*a.[abc]w",
        "[ac]w",
        "[c]*c.[]*b.[bc]*a.[abc]w",
    ]
    assert poly == reference_automaton_to_polynomial(a)


def test_decompose_monomial_machines_match_reference():
    # The machines determinized from criterion 5's monomials.  Here the cut
    # skips more skeletons than a key holding the validated-marker mask
    # would on 71 of these 100, against 214 of the 3,000 random machines
    # above.  Machines over 23 states are left out: the reference took 0.75
    # to 35 s on each of those tried, against about 4 s for all 100 here.
    rng = random.Random(24)
    seen: set[str] = set()
    tested = 0
    while tested < 100:
        m = random_restricted_monomial(rng, alphabet="abc", max_degree=3)
        if str(m) in seen or is_unambiguous_bounded(m) is not None:
            continue
        seen.add(str(m))
        det = monomial_to_deterministic(m, alphabet="abc")
        if len(det.states) > 23:
            continue
        poly = automaton_to_polynomial(det)
        assert poly == reference_automaton_to_polynomial(det), str(m)
        assert_delta2_normal_form(poly)
        tested += 1


def test_decompose_rejects_nondeterministic():
    a = Po2Automaton(
        "a", {"p", "q", "r"}, set(),
        {("p", "a", "q"), ("p", "a", "r"), ("q", "a", "q"), ("r", "a", "r")},
        {"p"}, set(),
    )
    with pytest.raises(ValueError):
        automaton_to_polynomial(a)


def test_monomial_through_machine_and_back():
    rng = random.Random(13)
    done = 0
    while done < 15:
        m = random_restricted_monomial(rng, max_degree=2)
        if is_unambiguous_bounded(m, bound=m.degree + 6) is not None:
            continue
        det = monomial_to_deterministic(m, alphabet="abc")
        poly = automaton_to_polynomial(det)
        for _ in range(25):
            w = random_lasso(rng, "abc")
            assert any(monomial_member(p, w) for p in poly) == monomial_member(m, w)
        done += 1


# --- joint-run monomials -----------------------------------------------------


def test_joint_run_monomial_properties():
    rng = random.Random(14)
    for _ in range(120):
        a = complete(random_det_automaton(rng, "ab", 5))
        b = complete(random_det_automaton(rng, "ab", 5))
        w = random_lasso(rng, "ab")
        va, vb = run_det(a, w).verdict, run_det(b, w).verdict
        m = monomial_from_joint_runs(a, b, w)
        assert monomial_member(m, w)
        assert m.degree <= len(a.states) + len(b.states) - 2
        for _ in range(10):
            v = sample_from_monomial(rng, m)
            assert run_det(a, v).verdict == va, (str(m), str(w), str(v))
            assert run_det(b, v).verdict == vb, (str(m), str(w), str(v))


def test_joint_run_requires_decided_runs():
    stuck = Po2Automaton("ab", {"p"}, set(), {("p", "a", "p")}, {"p"}, {"p"})
    other = complete(stuck)
    with pytest.raises(ValueError):
        monomial_from_joint_runs(stuck, other, LassoWord("", "b"))
