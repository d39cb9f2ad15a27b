"""Tracking prefix compatibility alongside a deterministic run.

Given a marker word ``v = a1 ... am``, the tracker pairs every automaton
state with an index ``1..m``.  While the head wanders left of a position
whose prefix factorizes along ``v``, the index certifies which factored
suffix the stretch between head and that position still fits (the
k-prefix compatibility of the paper's calculus).  Reading a letter updates
the index in two phases: leaving a Y state first extends the certified
stretch leftward (the prepend transfer), then entering an X state shrinks
it from the left (the strip transfer).  The single strip case that would
empty the stretch, reading ``am`` at index ``m`` into an X state, gets no
transition: it is exactly the moment the head crosses back over the
factored position.

The tracker is a closed-form step, :func:`tracker_step`, computed from one
successor lookup and the marker word; the product calls it directly.
:func:`tracker_table` spells the same steps out as a whole table.  The
calculus itself and the tracker as a machine of its own live with the
tests (``tests/compat_oracle.py``), which check the closed form against
them.
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

