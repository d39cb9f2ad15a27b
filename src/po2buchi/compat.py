"""Tracking prefix compatibility alongside a deterministic run.

Given a marker word ``v = a1 ... am``, the tracker pairs every automaton
state with an index ``1..m``.  While the head wanders left of a position
whose prefix factorizes along ``v``, the index certifies which factored
suffix the stretch between head and that position still fits
(:func:`po2buchi.words.is_k_prefix_compatible`).  Reading a letter updates
the index in two phases: leaving a Y state first extends the certified
stretch leftward (the prepend transfer), then entering an X state shrinks
it from the left (the strip transfer).  The single strip case that would
empty the stretch, reading ``am`` at index ``m`` into an X state, gets no
transition: it is exactly the moment the head crosses back over the
factored position.

The tracker is a closed-form step, :func:`tracker_step`, computed from one
successor lookup and the marker word; the product calls it directly.
:func:`tracker_table` spells the same steps out as a whole table, the
oracle form that :func:`build_tracker` and the tests read.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .core import LEND, Po2Automaton, require

TrackerKey = tuple[str, int, str]
TrackerState = tuple[str, int]


def _check_tracker_args(a: Po2Automaton, v: str) -> None:
    if not v:
        raise ValueError("tracker needs a nonempty marker word")
    stray = set(v) - a.alphabet
    if stray:
        raise ValueError(f"marker word uses letters outside the alphabet: {sorted(stray)}")
    require(a, deterministic=True)


def tracker_step(a: Po2Automaton, v: str, z: str, k: int, c: str) -> TrackerState | None:
    """The tracker's move from state z at index k on letter c, or None.

    None where the machine has no transition and at the forbidden crossing
    case.  The marker is no letter of ``v``, so a bounce keeps the index.
    The caller must have checked the machine and the marker word (as
    :func:`tracker_table` does) and keep ``1 <= k <= len(v)``.
    """
    nxt = a._tables[0].get((z, c))
    if nxt is None:
        return None
    ys = a.y_states
    left = k - 1 if z in ys and k > 1 and c == v[k - 2] else k
    if nxt in ys or c != v[left - 1]:
        return nxt, left
    if left < len(v):
        return nxt, left + 1
    return None  # left == m: crossing back over the factored position


def tracker_table(a: Po2Automaton, v: str) -> Mapping[TrackerKey, TrackerState]:
    """Transition table ``(state, index, letter) -> (state, index)``.

    Every entry of :func:`tracker_step`, read-only.  Letters include the
    left-end marker, which bounces Y states without touching the index.
    Keys are absent where the underlying machine has no transition and at
    the deliberately forbidden crossing case.
    """
    _check_tracker_args(a, v)
    letters = (*a.alphabet, LEND)
    table: dict[TrackerKey, TrackerState] = {}
    for z in a.states:
        for k in range(1, len(v) + 1):
            for c in letters:
                hit = tracker_step(a, v, z, k, c)
                if hit is not None:
                    table[z, k, c] = hit
    return MappingProxyType(table)


def tracker_state_name(state: str, index: int) -> str:
    return f"{state}@{index}"


def parse_tracker_state(name: str) -> TrackerState:
    state, _, index = name.rpartition("@")
    return state, int(index)


def build_tracker(a: Po2Automaton, v: str) -> Po2Automaton:
    """The tracker as an automaton of its own.

    States are ``state@index`` pairs reachable from any pair with index
    ``m``; runs start from the initial state at index ``m``.  The result is
    deterministic and acyclic: on X states the index never decreases, on Y
    states it never increases, and any mixed cycle would project onto a
    cycle of the underlying machine.
    """
    table = tracker_table(a, v)
    m = len(v)
    if len(a.initial) != 1:
        raise ValueError("tracker automaton needs a unique initial state")
    (z0,) = a.initial

    roots = {(z, m) for z in a.states}
    reachable: set[TrackerState] = set(roots)
    frontier = list(roots)
    while frontier:
        z, k = frontier.pop()
        for c in list(a.alphabet) + [LEND]:
            dst = table.get((z, k, c))
            if dst is not None and dst not in reachable:
                reachable.add(dst)
                frontier.append(dst)

    names = {zk: tracker_state_name(*zk) for zk in reachable}
    transitions = {
        (names[z, k], c, names[table[z, k, c]])
        for (z, k, c) in table
        if (z, k) in reachable
    }
    return Po2Automaton(
        a.alphabet,
        {names[z, k] for z, k in reachable if z in a.x_states},
        {names[z, k] for z, k in reachable if z in a.y_states},
        transitions,
        {names[z0, m]},
        {names[z, k] for z, k in reachable if z in a.final},
    )
