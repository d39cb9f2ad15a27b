"""Seeded inputs: letter renamings and copies of the test-suite generators.

The generators repeat the algorithms of ``tests/helpers.py`` draw for draw,
so a generator seed names the same instances the acceptance criteria use.
They are copied rather than imported so that the benchmark's inputs stay
fixed when the tests change.  They return plain values (letters, state
names, transitions); the workloads turn them into program objects.

The benchmark's ``--seed`` never changes the shape of an input.  It picks
the letters: every input is written over a base alphabet such as ``abc``
and renamed, order-preservingly, onto letters drawn from a pool.  Sorted
letter order is all the program looks at, so the work done is the same for
every seed, while the values differ.
"""

from __future__ import annotations

import random
import string

from oracles import Mono

# Letters that cannot be mistaken for syntax in monomial literals, lasso
# literals or the state names products and relativization make up.
ASCII_POOL = string.ascii_letters
LATIN1_POOL = ASCII_POOL + "".join(
    chr(i) for i in range(0xC0, 0x100) if chr(i) not in "×÷"
)


def letter_maps(rng: random.Random, base: str, pool: str):
    """Endless distinct order-preserving renamings of ``base`` into ``pool``."""
    seen: set = set()
    while True:
        letters = tuple(sorted(rng.sample(pool, len(base))))
        if letters not in seen:
            seen.add(letters)
            yield dict(zip(sorted(base), letters))


def rename_mono(mono: Mono, mapping: dict) -> Mono:
    return Mono(
        tuple(frozenset(mapping[c] for c in seg) for seg in mono.segments),
        tuple(mapping[c] for c in mono.markers),
        frozenset(mapping[c] for c in mono.tail),
    )


def literal(mono: Mono) -> str:
    body = "".join(
        f"[{''.join(sorted(seg))}]*{mark}." for seg, mark in zip(mono.segments, mono.markers)
    )
    return body + f"[{''.join(sorted(mono.tail))}]w"


def rename_word(text: str, mapping: dict) -> str:
    return "".join(mapping.get(c, c) for c in text)


# --- copies of tests/helpers.py ---------------------------------------------


def random_det_parts(rng: random.Random, alphabet: str = "ab", max_states: int = 5):
    """``random_det_automaton`` with ``complete=True``: machine parts."""
    n = rng.randint(1, max_states)
    names = [f"z{i}" for i in range(n)]
    polarity = ["x" if i == n - 1 or rng.random() < 0.6 else "y" for i in range(n)]
    polarity[0] = "x" if rng.random() < 0.9 or n == 1 else polarity[0]
    if polarity[0] == "y":
        polarity = ["x"] + polarity[1:]
    xs = {names[i] for i in range(n) if polarity[i] == "x"}
    ys = set(names) - xs
    transitions = set()
    for i, z in enumerate(names):
        for c in alphabet:
            j = i if rng.random() < 0.55 else rng.randint(i, n - 1)
            transitions.add((z, c, names[j]))
        if z in ys:
            targets = [names[j] for j in range(i + 1, n) if names[j] in xs]
            transitions.add((z, "▷", rng.choice(targets)))
    final = {z for z in names if rng.random() < 0.4}
    return alphabet, xs, ys, transitions, {names[0]}, final


def random_restricted_mono(rng: random.Random, alphabet: str = "abc", max_degree: int = 3) -> Mono:
    """``random_restricted_monomial``: no segment holds the last marker."""
    while True:
        k = rng.randint(1, max_degree)
        markers = [rng.choice(alphabet) for _ in range(k)]
        pool = [c for c in alphabet if c != markers[-1]]
        segments = [{c for c in pool if rng.random() < 0.5} for _ in range(k)]
        tail = {c for c in alphabet if rng.random() < 0.6} or {rng.choice(alphabet)}
        mono = Mono(tuple(map(frozenset, segments)), tuple(markers), frozenset(tail))
        if mono.restricted():
            return mono


def criterion7_monos(rng: random.Random):
    """The monomial stream of criterion 7's round trips (after its 200 machines)."""
    for _ in range(200):
        random_det_parts(rng, "ab", 4)
    while True:
        if rng.random() < 0.3:
            tail = {c for c in "ab" if rng.random() < 0.6} or {"a"}
            yield Mono((), (), frozenset(tail))
        else:
            yield random_restricted_mono(rng, "ab", 1)
