"""Word-level oracles: factorization greediness, compatibility transfer."""

import random

import pytest

from compat_oracle import (
    PREPEND,
    STRIP,
    PrefixFactorization,
    compatibility_step,
    is_k_prefix_compatible,
    is_scattered_subword,
    prefix_factorize,
)
from po2buchi.words import LassoWord, parse_lasso


def naive_factorize(w: str, v: str):
    """Reference: repeatedly split at the first occurrence of each marker."""
    segments = []
    rest = w
    for a in v:
        i = rest.find(a)
        if i < 0:
            return None
        segments.append(rest[:i])
        rest = rest[i + 1 :]
    return segments, rest


def test_lasso_letter_access():
    w = LassoWord("ab", "cd")
    assert [w.letter_at(i) for i in range(1, 9)] == list("abcdcdcd")
    assert w.prefix(7) == "abcdcdc"
    assert w.suffix_from(4) == LassoWord("d", "cd")
    assert w.suffix_from(6) == LassoWord("d", "cd")
    assert w.suffix_from(1) == w
    assert w.alphabet == frozenset("abcd")


def test_lasso_literal_round_trip():
    w = parse_lasso("bac(ca)")
    assert w == LassoWord("bac", "ca")
    assert str(w) == "bac(ca)"
    assert parse_lasso("(b)") == LassoWord("", "b")
    with pytest.raises(ValueError):
        parse_lasso("abc")
    with pytest.raises(ValueError):
        parse_lasso("a()")
    with pytest.raises(ValueError):
        LassoWord("a", "")


def test_scattered_subword_basics():
    assert is_scattered_subword("", "abc")
    assert is_scattered_subword("ac", "abc")
    assert is_scattered_subword("abc", "abc")
    assert not is_scattered_subword("ca", "abc")
    assert not is_scattered_subword("aa", "abc")


def test_factorize_finite_matches_naive():
    rng = random.Random(701)
    for _ in range(400):
        sigma = "abc"[: rng.randint(1, 3)]
        w = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 10)))
        v = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 4)))
        got = prefix_factorize(w, v)
        want = naive_factorize(w, v)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert list(got.segments) == want[0]
            assert got.residual == want[1]
            assert got.markers == tuple(v)
            assert got.factored_prefix() + want[1] == w


def test_factorize_lasso_agrees_with_long_prefix():
    rng = random.Random(702)
    for _ in range(300):
        sigma = "abc"
        spoke = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 5)))
        period = "".join(rng.choice(sigma) for _ in range(rng.randint(1, 4)))
        w = LassoWord(spoke, period)
        v = "".join(rng.choice(sigma) for _ in range(rng.randint(1, 4)))
        got = prefix_factorize(w, v)
        n = len(spoke) + (len(v) + 2) * len(period) + 3
        want = naive_factorize(w.prefix(n), v)
        if got is None:
            # Some marker is not in the eventual alphabet past its window.
            assert want is None or any(
                a not in w.suffix_from(1).alphabet for a in v
            ) or want is None
            # Stronger: the naive scan on an even longer prefix also fails.
            assert naive_factorize(w.prefix(2 * n), v) is None
        else:
            assert want is not None
            assert list(got.segments) == want[0]
            assert isinstance(got.residual, LassoWord)
            k = got.prefix_length
            assert got.factored_prefix() == w.prefix(k)
            assert got.residual.prefix(5) == w.suffix_from(k + 1).prefix(5)


def test_factorize_empty_marker_word():
    f = prefix_factorize("abc", "")
    assert f is not None and f.marker_count == 0 and f.residual == "abc"


def test_factorization_validates_marker_free_segments():
    with pytest.raises(ValueError):
        PrefixFactorization(("ba",), ("a",), "")


def random_factorization(rng: random.Random, sigma: str = "abc"):
    m = rng.randint(1, 4)
    markers = [rng.choice(sigma) for _ in range(m)]
    segments = []
    for a in markers:
        allowed = [c for c in sigma if c != a]
        segments.append("".join(rng.choice(allowed) for _ in range(rng.randint(0, 3))))
    return PrefixFactorization(tuple(segments), tuple(markers), "")


def test_compatibility_definition_on_suffixes():
    # Every suffix of the factored prefix that contains the marker tail as a
    # scattered subword must be flagged compatible, no other word may be.
    rng = random.Random(703)
    for _ in range(200):
        f = random_factorization(rng)
        big = f.factored_prefix()
        m = f.marker_count
        for k in range(1, m + 1):
            tail = "".join(f.markers[k - 1 :])
            for i in range(len(big) + 1):
                w = big[i:]
                expect = is_scattered_subword(tail, w) and f.factored_prefix(k).endswith(w)
                assert is_k_prefix_compatible(w, k, f) == expect


def test_compatibility_step_case_table():
    f = PrefixFactorization(("x", "y", ""), ("a", "b", "c"), "")
    # prepend: index 1 always stays 1
    assert compatibility_step(PREPEND, "a", 1, f) == 1
    assert compatibility_step(PREPEND, "z", 1, f) == 1
    # prepend at k>1: previous marker pulls the index down
    assert compatibility_step(PREPEND, "a", 2, f) == 1
    assert compatibility_step(PREPEND, "b", 2, f) == 2
    assert compatibility_step(PREPEND, "b", 3, f) == 2
    assert compatibility_step(PREPEND, "c", 3, f) == 3
    # strip below the top: own marker pushes the index up
    assert compatibility_step(STRIP, "a", 1, f) == 2
    assert compatibility_step(STRIP, "z", 1, f) == 1
    assert compatibility_step(STRIP, "b", 2, f) == 3
    # strip at the top: last marker empties the word
    assert compatibility_step(STRIP, "c", 3, f) is None
    assert compatibility_step(STRIP, "a", 3, f) == 3
    with pytest.raises(ValueError):
        compatibility_step(PREPEND, "a", 0, f)
    with pytest.raises(ValueError):
        compatibility_step(STRIP, "a", 4, f)
    with pytest.raises(ValueError):
        compatibility_step("sideways", "a", 1, f)


def test_compatibility_step_transfers_certificates():
    # Semantic soundness on random factorizations: stepping the index keeps
    # it a valid certificate for the longer/shorter suffix.
    rng = random.Random(704)
    for _ in range(300):
        f = random_factorization(rng)
        big = f.factored_prefix()
        m = f.marker_count
        for i in range(1, len(big) + 1):
            w, cw, c = big[i:], big[i - 1 :], big[i - 1]
            for k in range(1, m + 1):
                if is_k_prefix_compatible(w, k, f):
                    k2 = compatibility_step(PREPEND, c, k, f)
                    assert k2 is not None
                    assert is_k_prefix_compatible(cw, k2, f)
                if is_k_prefix_compatible(cw, k, f):
                    k3 = compatibility_step(STRIP, c, k, f)
                    if k3 is None:
                        assert w == ""
                    else:
                        assert is_k_prefix_compatible(w, k3, f)
