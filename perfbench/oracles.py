"""Oracles written apart from the program, used to check its outputs.

Only the self-test runner at the bottom imports ``po2buchi``, to build the
showcase machine the self-tests run on.  Machines are read either from the fields
of a ``Po2Automaton`` value or from the JSON document the ``po2`` command
writes, into the plain :class:`Machine` below.

* :func:`simulate` runs a deterministic two-way machine on a lasso word by
  the tape rules alone: the left-end marker sits at position 0, the head
  starts at position 1, moves right after entering an X state and left after
  entering a Y state, and bounces back to position 1 off the marker.  A run
  is stationary once it sits in one X state at two positions past the spoke
  that are congruent modulo the period (it then repeats forever).
* :func:`monomial_matches` decides membership of a lasso word in a monomial
  with a regular expression over a prefix longer than any marker placement
  needs, and checks separately that the period's letters lie in the tail.
* :func:`truth_table` evaluates formulas given as nested tuples.

Run this file to execute the self-tests on hand-worked cases.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

MARK = "▷"  # the tape-end marker inside a Po2Automaton
DOC_MARK = "LEND"  # the same marker inside a po2 JSON document


@dataclass
class Machine:
    alphabet: frozenset
    xs: frozenset
    ys: frozenset
    delta: dict  # (state, letter or MARK) -> tuple of successors
    initial: frozenset
    final: frozenset

    @property
    def states(self) -> frozenset:
        return self.xs | self.ys

    @property
    def transition_count(self) -> int:
        return sum(len(d) for d in self.delta.values())

    @staticmethod
    def from_parts(alphabet, xs, ys, transitions, initial, final) -> "Machine":
        delta: dict = {}
        for s, c, d in transitions:
            delta.setdefault((s, c), set()).add(d)
        return Machine(
            frozenset(alphabet),
            frozenset(xs),
            frozenset(ys),
            {k: tuple(sorted(v)) for k, v in delta.items()},
            frozenset(initial),
            frozenset(final),
        )

    @staticmethod
    def from_po2(a) -> "Machine":
        """Read the public fields of a ``Po2Automaton``."""
        return Machine.from_parts(
            a.alphabet, a.x_states, a.y_states, a.transitions, a.initial, a.final
        )

    @staticmethod
    def from_doc(doc: dict) -> "Machine":
        """Read a ``po2`` JSON document."""
        states = doc["states"]
        return Machine.from_parts(
            doc["alphabet"],
            [s["name"] for s in states if s["polarity"] == "X"],
            [s["name"] for s in states if s["polarity"] == "Y"],
            [
                (t["from"], MARK if t["letter"] == DOC_MARK else t["letter"], t["to"])
                for t in doc["transitions"]
            ],
            [s["name"] for s in states if s["initial"]],
            [s["name"] for s in states if s["final"]],
        )


# --- structure ------------------------------------------------------------


def _change_graph(m: Machine) -> dict:
    graph: dict = {z: set() for z in m.states}
    for (s, _), dsts in m.delta.items():
        graph[s].update(d for d in dsts if d != s)
    return graph


def _topological(graph: dict) -> list | None:
    """Kahn's algorithm; sinks last.  None when the graph has a cycle."""
    indegree = {z: 0 for z in graph}
    for dsts in graph.values():
        for d in dsts:
            indegree[d] += 1
    ready = [z for z, n in indegree.items() if n == 0]
    order = []
    while ready:
        z = ready.pop()
        order.append(z)
        for d in graph[z]:
            indegree[d] -= 1
            if indegree[d] == 0:
                ready.append(d)
    return order if len(order) == len(graph) else None


def structure(m: Machine) -> tuple[bool, bool, bool]:
    """(well formed, deterministic, complete) by the definitions."""
    marker_ok = all(
        s in m.ys and all(d in m.xs for d in dsts)
        for (s, c), dsts in m.delta.items()
        if c == MARK
    )
    well_formed = marker_ok and _topological(_change_graph(m)) is not None
    deterministic = len(m.initial) == 1 and all(len(d) <= 1 for d in m.delta.values())
    complete = all((z, c) in m.delta for z in m.states for c in m.alphabet) and all(
        (z, MARK) in m.delta for z in m.ys
    )
    return well_formed, deterministic, complete


def chain_lengths(m: Machine) -> tuple[int, int]:
    """Most states, and most X states, on a path of state changes."""
    graph = _change_graph(m)
    order = _topological(graph)
    if order is None:
        raise ValueError("state changes form a cycle")
    total: dict = {}
    xonly: dict = {}
    for z in reversed(order):
        total[z] = 1 + max((total[d] for d in graph[z]), default=0)
        xonly[z] = (z in m.xs) + max((xonly[d] for d in graph[z]), default=0)
    return max(total.values(), default=0), max(xonly.values(), default=0)


def completed(m: Machine) -> Machine:
    """Send every missing move to a fresh rejecting X sink."""
    sink = "sink"
    while sink in m.states:
        sink += "_"
    delta = dict(m.delta)
    missing = False
    for z in m.states:
        for c in list(m.alphabet) + ([MARK] if z in m.ys else []):
            if (z, c) not in delta:
                delta[z, c] = (sink,)
                missing = True
    if not missing:
        return m
    for c in m.alphabet:
        delta[sink, c] = (sink,)
    return Machine(m.alphabet, m.xs | {sink}, m.ys, delta, m.initial, m.final)


# --- the two-way simulator ------------------------------------------------


def simulate(m: Machine, spoke: str, period: str) -> tuple[bool, str | None]:
    """(accepted, stationary state) of the deterministic run on spoke.period^w.

    A missing move stops the run and rejects, with no stationary state.
    """
    if len(m.initial) != 1:
        raise ValueError("simulation needs exactly one initial state")
    (state,) = m.initial
    u, p = len(spoke), len(period)
    n = len(m.states)
    cap = (n + 1) * (u + (n + 2) * (p + 1) + 2) + 16
    pos = 1
    residues: set = set()
    for _ in range(cap):
        if pos > u and state in m.xs:
            r = (pos - u - 1) % p
            if r in residues:
                return state in m.final, state
            residues.add(r)
        if pos == 0:
            c = MARK
        elif pos <= u:
            c = spoke[pos - 1]
        else:
            c = period[(pos - u - 1) % p]
        dsts = m.delta.get((state, c), ())
        if len(dsts) > 1:
            raise ValueError(f"nondeterministic move at {(state, c)}")
        if not dsts:
            return False, None
        (nxt,) = dsts
        if nxt != state:
            residues = set()
        state = nxt
        if c == MARK:
            pos = 1
        else:
            pos += 1 if state in m.xs else -1
    raise RuntimeError("run did not become stationary within its step cap")


# --- monomials ------------------------------------------------------------


@dataclass(frozen=True)
class Mono:
    segments: tuple  # of frozensets
    markers: tuple  # of letters
    tail: frozenset

    @staticmethod
    def from_po2(mono) -> "Mono":
        """Read the public fields of a ``po2buchi`` Monomial."""
        return Mono(
            tuple(frozenset(s) for s in mono.segments),
            tuple(mono.markers),
            frozenset(mono.tail),
        )

    @property
    def degree(self) -> int:
        return len(self.markers)

    def restricted(self) -> bool:
        """No suffix of the marker word fits in the segment leading it."""
        return all(
            not set(self.markers[i:]) <= self.segments[i] for i in range(self.degree)
        )


_LITERAL = re.compile(r"\[([^][]*)\]\*(.)\.")
_TAIL = re.compile(r"\[([^][]*)\]w")


def parse_literal(text: str) -> Mono:
    """Read a literal such as ``[ab]*a.[]*c.[c]w``."""
    pos, segments, markers = 0, [], []
    while True:
        hit = _LITERAL.match(text, pos)
        if hit is None:
            break
        segments.append(frozenset(hit.group(1)))
        markers.append(hit.group(2))
        pos = hit.end()
    tail = _TAIL.fullmatch(text, pos)
    if tail is None:
        raise ValueError(f"not a monomial literal: {text!r}")
    return Mono(tuple(segments), tuple(markers), frozenset(tail.group(1)))


def _char_class(letters) -> str:
    return "[" + "".join(re.escape(c) for c in sorted(letters)) + "]*" if letters else ""


def monomial_matches(mono: Mono, spoke: str, period: str) -> bool:
    """Membership of spoke.period^w in the monomial.

    Any marker placement can be shifted left by whole periods until the
    last marker lies within ``|spoke| + degree * |period|`` letters, so a
    prefix one period longer than that, plus the period check, decides.
    """
    if not set(period) <= mono.tail:
        return False
    length = len(spoke) + (mono.degree + 2) * len(period)
    text = (spoke + period * (mono.degree + 3))[:length]
    pattern = "".join(
        _char_class(seg) + re.escape(mark) for seg, mark in zip(mono.segments, mono.markers)
    ) + _char_class(mono.tail)
    return re.fullmatch(pattern, text) is not None


def sample_member(rng: random.Random, mono: Mono) -> tuple[str, str]:
    """A random lasso inside the monomial (its tail must be nonempty)."""
    parts = []
    for seg, mark in zip(mono.segments, mono.markers):
        pool = sorted(seg)
        if pool:
            parts.append("".join(rng.choice(pool) for _ in range(rng.randint(0, 3))))
        parts.append(mark)
    tail = sorted(mono.tail)
    parts.append("".join(rng.choice(tail) for _ in range(rng.randint(0, 2))))
    return "".join(parts), "".join(rng.choice(tail) for _ in range(rng.randint(1, 3)))


def sample_lasso(rng: random.Random, alphabet, max_spoke: int = 6, max_period: int = 3):
    letters = sorted(alphabet)
    spoke = "".join(rng.choice(letters) for _ in range(rng.randint(0, max_spoke)))
    period = "".join(rng.choice(letters) for _ in range(rng.randint(1, max_period)))
    return spoke, period


def length_lex_candidates(alphabet):
    """Ultimately constant lassos u.c^w: by spoke length, then spoke, then c."""
    letters = sorted(alphabet)
    for n in itertools.count():
        for spoke in itertools.product(letters, repeat=n):
            for c in letters:
                yield "".join(spoke), c


# --- formulas ---------------------------------------------------------------
# ("var", i), ("not", f), ("and", [f, ...]), ("or", [f, ...]), ("group", f)


def formula_text(f) -> str:
    kind = f[0]
    if kind == "var":
        return f"v{f[1]}"
    if kind == "not":
        inner = formula_text(f[1])
        return "!(" + inner + ")" if f[1][0] in ("and", "or") else "!" + inner
    if kind == "group":
        return "(" + formula_text(f[1]) + ")"
    glue = " & " if kind == "and" else " | "
    return glue.join(
        "(" + formula_text(g) + ")" if g[0] in ("and", "or") else formula_text(g)
        for g in f[1]
    )


def evaluate(f, bits: dict) -> bool:
    kind = f[0]
    if kind == "var":
        return bits[f[1]]
    if kind == "not":
        return not evaluate(f[1], bits)
    if kind == "group":
        return evaluate(f[1], bits)
    if kind == "and":
        return all(evaluate(g, bits) for g in f[1])
    return any(evaluate(g, bits) for g in f[1])


def variables(f) -> set:
    if f[0] == "var":
        return {f[1]}
    if f[0] in ("not", "group"):
        return variables(f[1])
    return set().union(*(variables(g) for g in f[1]))


def truth_table(f) -> list[dict]:
    """Every satisfying assignment over variables 1..max index."""
    n = max(variables(f))
    rows = []
    for values in itertools.product((False, True), repeat=n):
        bits = dict(enumerate(values, start=1))
        if evaluate(f, bits):
            rows.append(bits)
    return rows


# --- self-tests -------------------------------------------------------------


def self_test(showcase: Machine) -> None:
    """Hand-worked cases; raises RuntimeError on the first miss.

    ``showcase`` is the machine the program builds for ``[ab]*a.[]*c.[c]w``.
    """
    def expect(flag: bool, what: str) -> None:
        if not flag:
            raise RuntimeError(f"oracle self-test failed: {what}")

    # A one-state-per-step two-way machine: go right past the first b, come
    # back to the marker, then accept iff the rest of the word is all a's.
    bounce = Machine.from_parts(
        "ab", ["x0", "x1", "ok", "no"], ["y0"],
        [("x0", "a", "x0"), ("x0", "b", "y0"), ("y0", "a", "y0"), ("y0", "b", "y0"),
         ("y0", MARK, "x1"), ("x1", "a", "x1"), ("x1", "b", "ok"),
         ("ok", "a", "ok"), ("ok", "b", "no"), ("no", "a", "no"), ("no", "b", "no")],
        ["x0"], ["ok"],
    )
    expect(simulate(bounce, "ab", "a") == (True, "ok"), "bounce accepts ab(a)")
    expect(simulate(bounce, "", "ab") == (False, "no"), "bounce rejects (ab)")
    expect(simulate(bounce, "", "a") == (False, "x0"), "bounce rejects (a)")
    expect(structure(bounce) == (True, True, True), "bounce is well formed")
    expect(chain_lengths(bounce) == (5, 4), "bounce chain lengths")

    show = showcase
    expect(structure(show) == (True, True, True), "showcase is well formed")
    expect(simulate(show, "bac", "c")[0], "showcase accepts bac(c)")
    expect(not simulate(show, "bc", "c")[0], "showcase rejects bc(c)")
    expect(not simulate(show, "acac", "c")[0], "showcase rejects acac(c)")

    mono = parse_literal("[ab]*a.[]*c.[c]w")
    expect(mono.restricted() and mono.degree == 2, "showcase monomial shape")
    expect(monomial_matches(mono, "bac", "c"), "matcher accepts bac(c)")
    expect(not monomial_matches(mono, "bc", "c"), "matcher rejects bc(c)")
    expect(not monomial_matches(mono, "acac", "c"), "matcher rejects acac(c)")
    expect(
        monomial_matches(parse_literal("[b]*a.[ab]w"), "", "ba"),
        "matcher finds markers in the period",
    )
    expect(not monomial_matches(mono, "ac", "cb"), "matcher checks the period")
    expect(not parse_literal("[ab]*b.[b]w").restricted(), "restrictedness")

    v1 = ("var", 1)
    expect(truth_table(("and", [v1, ("not", v1)])) == [], "v1 & !v1 is unsat")
    expect(
        truth_table(("and", [v1, ("not", ("var", 2))])) == [{1: True, 2: False}],
        "v1 & !v2 has one model",
    )
    expect(formula_text(("group", ("group", v1))) == "((v1))", "formula printer")
    expect(
        list(itertools.islice(length_lex_candidates("ba"), 5))
        == [("", "a"), ("", "b"), ("a", "a"), ("a", "b"), ("b", "a")],
        "length-lex order",
    )


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from po2buchi import monomial_to_deterministic, parse_monomial

    self_test(Machine.from_po2(monomial_to_deterministic(parse_monomial("[ab]*a.[]*c.[c]w"))))
    print("oracle self-tests passed")
