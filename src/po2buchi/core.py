"""Partially ordered two-way Buchi automata: data model and basic operations.

States come in two polarities: ``x_states`` are entered while the head moves
right, ``y_states`` while it moves left.  Transitions over input letters may
connect any two states; the left-end marker only connects a Y state back to
an X state (the head bounces off the start of the tape).  "Partially
ordered" means the transition graph without self-loops is acyclic, so every
run eventually stabilizes in one state.
"""

from __future__ import annotations

from functools import cached_property
from typing import AbstractSet, Callable, Iterable

from . import _Value

LEND = "▷"  # left tape-end marker, never part of an input alphabet

Transition = tuple[str, str, str]
Key = tuple[str, str]  # (state, letter or LEND)


class BudgetExceeded(Exception):
    """Raised when a search would reach a candidate ranked past its budget.

    Defined here rather than next to the searches in :mod:`po2buchi.decide`
    so that the command line can catch it without importing them.
    """


class ValidationReport(_Value):
    is_well_formed_po2: bool
    is_deterministic: bool
    is_complete: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.is_well_formed_po2


class Po2Automaton(_Value):
    """Immutable two-way automaton over single-character letters.

    The constructor normalizes its arguments to frozensets and rejects
    dangling references, but deliberately accepts machines that violate the
    two-way discipline (for instance a left-end edge leaving an X state):
    those are diagnosed by :meth:`validate` so that callers can report them.
    """

    alphabet: frozenset[str]
    x_states: frozenset[str]
    y_states: frozenset[str]
    transitions: frozenset[Transition]
    initial: frozenset[str]
    final: frozenset[str]

    def __init__(
        self,
        alphabet: Iterable[str],
        x_states: Iterable[str],
        y_states: Iterable[str],
        transitions: Iterable[tuple[str, str, str]],
        initial: Iterable[str],
        final: Iterable[str],
    ) -> None:
        object.__setattr__(self, "alphabet", frozenset(alphabet))
        object.__setattr__(self, "x_states", frozenset(x_states))
        object.__setattr__(self, "y_states", frozenset(y_states))
        object.__setattr__(self, "transitions", frozenset(map(tuple, transitions)))
        object.__setattr__(self, "initial", frozenset(initial))
        object.__setattr__(self, "final", frozenset(final))
        self._check_structure()

    def _check_structure(self) -> None:
        for c in self.alphabet:
            if len(c) != 1 or c == LEND:
                raise ValueError(f"letters must be single non-marker characters: {c!r}")
        both = self.x_states & self.y_states
        if both:
            raise ValueError(f"states cannot be both polarities: {sorted(both)}")
        states = self.states
        for group, name in ((self.initial, "initial"), (self.final, "final")):
            stray = group - states
            if stray:
                raise ValueError(f"{name} states not declared: {sorted(stray)}")
        letters = self.alphabet | {LEND}
        for src, c, dst in self.transitions:
            if src not in states or dst not in states:
                raise ValueError(f"transition touches unknown state: {(src, c, dst)}")
            if c not in letters:
                raise ValueError(f"transition over unknown letter: {(src, c, dst)}")

    @property
    def states(self) -> frozenset[str]:
        return self.x_states | self.y_states

    def is_x(self, state: str) -> bool:
        return state in self.x_states

    @cached_property
    def _tables(self) -> tuple[dict[Key, str], dict[Key, frozenset[str]]]:
        """One pass over the transitions: ``(state, letter) -> state`` for
        every key with exactly one successor, and ``key -> frozenset`` for
        the keys with several, which is empty for a deterministic machine."""
        delta: dict[Key, str] = {}
        several: dict[Key, set[str]] = {}
        for src, c, dst in self.transitions:
            key = src, c
            if key in several:
                several[key].add(dst)
            elif key in delta:
                several[key] = {delta.pop(key), dst}
            else:
                delta[key] = dst
        return delta, {key: frozenset(dsts) for key, dsts in several.items()}

    def det_successor(self, state: str, letter: str) -> str | None:
        """The unique successor, None if there is none, error if several.

        A lookup in the machine's flat successor table, which hot loops
        also read directly.
        """
        delta, several = self._tables
        if (state, letter) in several:
            out = sorted(several[state, letter])
            raise ValueError(f"nondeterministic on ({state!r}, {letter!r}): {out}")
        return delta.get((state, letter))

    @cached_property
    def _selfloops(self) -> dict[str, frozenset[str]]:
        table: dict[str, set[str]] = {z: set() for z in self.states}
        for src, c, dst in self.transitions:
            if src == dst and c != LEND:
                table[src].add(c)
        return {z: frozenset(v) for z, v in table.items()}

    def selfloop_letters(self, state: str) -> frozenset[str]:
        return self._selfloops[state]

    @cached_property
    def _change_edges(self) -> dict[str, frozenset[str]]:
        table: dict[str, set[str]] = {z: set() for z in self.states}
        for src, _, dst in self.transitions:
            if src != dst:
                table[src].add(dst)
        return {z: frozenset(v) for z, v in table.items()}

    @cached_property
    def _order(self) -> tuple[tuple[str, ...] | None, tuple[str, ...] | None]:
        """``(order, None)``, each state after its state-changing successors,
        or ``(None, cycle)``: one iterative depth-first search in sorted order
        (Tarjan 1972).  The cycle starts and ends at its least state."""
        edges = self._change_edges
        order: list[str] = []
        done: set[str] = set()
        for root in sorted(edges):
            if root in done:
                continue
            path = {root: None}  # the states on the search path, in order
            stack = [iter(sorted(edges[root]))]  # the successors left to try
            while stack:
                for nxt in stack[-1]:
                    if nxt in path:
                        cycle = list(path)
                        cycle = cycle[cycle.index(nxt):]
                        least = cycle.index(min(cycle))
                        cycle = cycle[least:] + cycle[:least]
                        return None, (*cycle, cycle[0])
                    if nxt not in done:
                        path[nxt] = None
                        stack.append(iter(sorted(edges[nxt])))
                        break
                else:
                    z, _ = path.popitem()
                    stack.pop()
                    done.add(z)
                    order.append(z)
        return tuple(order), None

    @cached_property
    def _report(self) -> ValidationReport:
        violations: list[str] = []
        markers = sorted(t for t in self.transitions if t[1] == LEND)
        for src, _, dst in markers:
            if src not in self.y_states:
                violations.append(f"po2: marker edge leaves non-Y state {src!r}")
            if dst not in self.x_states:
                violations.append(f"po2: marker edge enters non-X state {dst!r}")
        well_formed = not violations
        cycle = self._order[1]
        if cycle is not None:
            well_formed = False
            violations.append(f"po2: state-changing transitions form a cycle: {list(cycle)}")

        delta, several = self._tables
        deterministic = len(self.initial) == 1
        if not deterministic:
            violations.append(
                f"determinism: need exactly one initial state, have {len(self.initial)}"
            )
        for src, c in sorted(several):
            deterministic = False
            violations.append(
                f"determinism: ({src!r}, {c!r}) has {len(several[src, c])} successors"
            )

        # Every key pairs a state with a letter or the marker, so counting
        # keys shows whether any pair is missing before looking each one up.
        marked = {src for src, _, _ in markers}
        letter_keys = len(delta) + len(several) - len(marked)
        missing = []
        if letter_keys < len(self.states) * len(self.alphabet) or not self.y_states <= marked:
            # Keyed so that each state's letters come before its marker edge.
            missing = [
                ((z, 0, c), f"completeness: no ({z!r}, {c!r}) transition")
                for z in self.states
                for c in self.alphabet
                if (z, c) not in delta and (z, c) not in several
            ]
            missing += [
                ((z, 1), f"completeness: Y state {z!r} has no marker edge")
                for z in self.y_states
                if z not in marked
            ]
            violations += [text for _, text in sorted(missing)]

        return ValidationReport(well_formed, deterministic, not missing, tuple(violations))

    def validate(self) -> ValidationReport:
        """Diagnose the two-way discipline, determinism and completeness.

        The report is computed once per machine, in time linear in its size
        apart from sorting what it reports, and every later call returns the
        same object.  Violations come in a fixed order: marker edges, the
        cycle, nondeterministic choices and missing transitions, each sorted
        by state and letter.  The cycle is the first one a depth-first
        search in sorted state order meets, listed in edge order from its
        least state, so the report does not depend on the hash seed.
        """
        return self._report


def require(
    a: Po2Automaton, *, deterministic: bool = False, complete: bool = False
) -> ValidationReport:
    """The machine's report; ValueError unless it has the asked-for properties.

    Every operation that needs a well-formed (and possibly deterministic or
    complete) machine checks it here, so all of them fail with one message:
    what was needed, then the first three violations.
    """
    report = a.validate()
    if not (
        report.is_well_formed_po2
        and (report.is_deterministic or not deterministic)
        and (report.is_complete or not complete)
    ):
        need = "a well-formed"
        if deterministic:
            need += ", deterministic"
        if complete:
            need += ", complete"
        raise ValueError(f"need {need} machine; " + "; ".join(report.violations[:3]))
    return report


def ensure_x_initial(a: Po2Automaton) -> Po2Automaton:
    """Give a deterministic machine an X initial state, language unchanged.

    A fresh start state copies the outgoing letter transitions of the old
    initial state; it has no self-loops, so it is never stationary.
    """
    (z0,) = a.initial
    if z0 in a.x_states:
        return a
    start = fresh_name("start", a.states)
    transitions = set(a.transitions)
    for c in a.alphabet:
        nxt = a.det_successor(z0, c)
        if nxt is not None:
            transitions.add((start, c, nxt))
    return Po2Automaton(
        a.alphabet, a.x_states | {start}, a.y_states, transitions, {start}, a.final
    )


def fresh_name(base: str, taken: AbstractSet[str]) -> str:
    """``base``, or ``base`` with the least numeric suffix from 2 on, that
    is not in ``taken``.  Only tests membership, so naming many states
    against one growing set stays linear."""
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def complete(a: Po2Automaton) -> Po2Automaton:
    """Add a non-accepting X sink for all missing transitions.

    Idempotent: an already complete automaton is returned unchanged, so the
    sink never piles up across repeated calls.
    """
    delta, several = a._tables
    keys = [(z, c) for z in a.states for c in a.alphabet]
    keys += [(z, LEND) for z in a.y_states]
    missing = [key for key in keys if key not in delta and key not in several]
    if not missing:
        return a
    sink = fresh_name("sink", a.states)
    transitions = set(a.transitions)
    transitions.update((z, c, sink) for z, c in missing)
    transitions.update((sink, c, sink) for c in a.alphabet)
    return Po2Automaton(
        a.alphabet,
        a.x_states | {sink},
        a.y_states,
        transitions,
        a.initial,
        a.final,
    )


def complement(a: Po2Automaton) -> Po2Automaton:
    """Swap accepting and rejecting states of a complete deterministic machine."""
    require(a, deterministic=True, complete=True)
    return Po2Automaton(
        a.alphabet,
        a.x_states,
        a.y_states,
        a.transitions,
        a.initial,
        a.states - a.final,
    )


def minimize(a: Po2Automaton) -> Po2Automaton:
    """The bisimulation quotient of a deterministic machine.

    Moore refinement (Moore 1956): states start in classes keyed by
    polarity and finality, and each round splits them by their own class
    and their successor's class on every letter and the tape start, "no
    move" included, until the number of classes stops growing.  Each class
    is named after its least state, so the result does not depend on the
    hash seed.  The quotient copies every run step by step with the same
    head moves, so it accepts the same lassos, is complete exactly when
    ``a`` is, and stays acyclic: a path of distinct classes lifts to a path
    of state changes in ``a``, so no chain gets longer.
    """
    require(a, deterministic=True)
    delta = a._tables[0]
    order = sorted(a.states)
    at = {z: i for i, z in enumerate(order)}
    none = len(order)  # the index of "no move", whose class is None
    moves = [
        [at.get(delta.get((z, c)), none) for c in (*sorted(a.alphabet), LEND)]
        for z in order
    ]
    block: list = [(z in a.y_states, z in a.final) for z in order] + [None]
    count = len(set(block)) - 1
    while True:
        ids: dict[tuple, int] = {}
        block = [
            ids.setdefault((block[i], *[block[j] for j in row]), len(ids))
            for i, row in enumerate(moves)
        ] + [None]
        if len(ids) == count:
            break
        count = len(ids)
    least: dict[int, str] = {}
    name = {z: least.setdefault(block[i], z) for i, z in enumerate(order)}
    return Po2Automaton(
        a.alphabet,
        {name[z] for z in a.x_states},
        {name[z] for z in a.y_states},
        {(name[s], c, name[d]) for s, c, d in a.transitions},
        {name[z] for z in a.initial},
        {name[z] for z in a.final},
    )


def chain_lengths(a: Po2Automaton) -> tuple[int, int]:
    """Longest chains in the self-loop-free transition graph.

    Returns ``(n, m)``: the maximum number of states on any path, and the
    maximum number of X states on any path.  Requires a well-formed machine
    (the graph must be acyclic).  Reads the topological order the machine
    computes once and shares with :meth:`Po2Automaton.validate`.
    """
    order, cycle = a._order
    if cycle is not None:
        raise ValueError("chain lengths are undefined: transition graph has a cycle")
    total: dict[str, int] = {}
    xonly: dict[str, int] = {}
    for z in order:  # successors of z come earlier in the order
        succs = a._change_edges[z]
        total[z] = 1 + max((total[s] for s in succs), default=0)
        xonly[z] = (1 if z in a.x_states else 0) + max((xonly[s] for s in succs), default=0)
    n = max(total.values(), default=0)
    m = max(xonly.values(), default=0)
    return n, m


def chains_to(a: Po2Automaton, good: Callable[[str], bool]) -> dict[str, int]:
    """Longest chain of state changes from each state to a state satisfying
    ``good``, -1 where no such state is reachable.

    A run standing in z that must still stabilize in a good state changes
    state at most ``chains_to(a, good)[z]`` more times.  Requires a
    well-formed machine and reads its topological order.
    """
    order, cycle = a._order
    if cycle is not None:
        raise ValueError("chains are undefined: transition graph has a cycle")
    graph = a._change_edges
    below: dict[str, int] = {}
    for z in order:  # successors of z come earlier in the order
        below[z] = max(
            (below[d] + 1 for d in graph[z] if below[d] >= 0),
            default=0 if good(z) else -1,
        )
    return below


def reachable(a: Po2Automaton, sources: Iterable[str]) -> set[str]:
    """States reachable from ``sources`` in the transition graph, sources included."""
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        z = frontier.pop()
        for dst in a._change_edges[z]:
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


def prune_unreachable(a: Po2Automaton) -> Po2Automaton:
    """Drop states not reachable from the initial set in the transition graph."""
    seen = reachable(a, a.initial)
    return Po2Automaton(
        a.alphabet,
        a.x_states & seen,
        a.y_states & seen,
        {(s, c, d) for s, c, d in a.transitions if s in seen and d in seen},
        a.initial,
        a.final & seen,
    )


def relabel(a: Po2Automaton, rename: Callable[[str], str] | dict[str, str]) -> Po2Automaton:
    """Rename states through an injective mapping."""
    fn = rename.__getitem__ if isinstance(rename, dict) else rename
    mapping = {z: fn(z) for z in a.states}
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("state renaming must be injective")
    return Po2Automaton(
        a.alphabet,
        {mapping[z] for z in a.x_states},
        {mapping[z] for z in a.y_states},
        {(mapping[s], c, mapping[d]) for s, c, d in a.transitions},
        {mapping[z] for z in a.initial},
        {mapping[z] for z in a.final},
    )


def disjoint_union(parts: Iterable[Po2Automaton]) -> Po2Automaton:
    """Nondeterministic union: run the parts side by side, initials pooled.

    States are prefixed ``m{i}_`` per part, so name clashes are impossible.
    All parts must share one alphabet.
    """
    parts = list(parts)
    alphabets = {p.alphabet for p in parts}
    if len(alphabets) > 1:
        raise ValueError("disjoint union needs a common alphabet")
    alphabet = alphabets.pop() if alphabets else frozenset()
    renamed = [relabel(p, lambda z, i=i: f"m{i}_{z}") for i, p in enumerate(parts)]
    return Po2Automaton(
        alphabet,
        frozenset().union(*(p.x_states for p in renamed)),
        frozenset().union(*(p.y_states for p in renamed)),
        frozenset().union(*(p.transitions for p in renamed)),
        frozenset().union(*(p.initial for p in renamed)),
        frozenset().union(*(p.final for p in renamed)),
    )
