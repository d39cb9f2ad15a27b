"""Running two-way automata on lasso words.

The tape is ``marker w1 w2 ...`` with the left-end marker at position 0 and
the head starting at position 1.  After each transition the head moves
right when the target is an X state and left when it is a Y state; at
position 0 only marker edges apply and they bounce the head back to
position 1.  In a well-formed machine every run settles into one state (the
stationary state); the word is accepted when that state is final.
"""

from __future__ import annotations

from typing import Callable

from . import _Value
from .core import LEND, Po2Automaton
from .words import LassoWord

ACCEPTED = "accepted"
REJECTED = "rejected"
STUCK = "stuck"


class RunOutcome(_Value):
    verdict: str
    stationary_state: str | None
    steps: int
    state_changes: tuple[tuple[int, str, str, str], ...]
    trace: tuple[tuple[str, int], ...] | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPTED


def _letter_at(w: LassoWord, i: int) -> str:
    return LEND if i == 0 else w.letter_at(i)

def _step_cap(a: Po2Automaton, w: LassoWord) -> int:
    n = len(a.states)
    return (n + 1) * (n + 2) * (len(w.spoke) + len(w.period) + 2) + 4


def simulate_from(
    a: Po2Automaton,
    w: LassoWord,
    state: str,
    pos: int,
    collect_trace: bool = False,
) -> RunOutcome:
    """Deterministic run from an arbitrary configuration.

    Stops as soon as the run provably stays in its current state forever:
    an X state past the spoke whose self-loops cover the period alphabet.
    Machines with a reachable nondeterministic choice raise ValueError; a
    run that exceeds the step budget (impossible for well-formed machines)
    raises RuntimeError.
    """
    if pos < 0:
        raise ValueError(f"positions start at 0, got {pos}")
    period_letters = frozenset(w.period)
    spoke_len = len(w.spoke)
    cap = _step_cap(a, w)
    delta = a._tables[0]
    changes: list[tuple[int, str, str, str]] = []
    trace: list[tuple[str, int]] = []
    exited: set[str] = set()
    steps = 0
    while True:
        if collect_trace:
            trace.append((state, pos))
        if (
            pos > spoke_len
            and a.is_x(state)
            and period_letters <= a.selfloop_letters(state)
        ):
            verdict = ACCEPTED if state in a.final else REJECTED
            return RunOutcome(
                verdict, state, steps, tuple(changes), tuple(trace) if collect_trace else None
            )
        c = _letter_at(w, pos)
        nxt = delta.get((state, c))
        if nxt is None:
            a.det_successor(state, c)  # ValueError if the key has several successors
            return RunOutcome(
                STUCK, None, steps, tuple(changes), tuple(trace) if collect_trace else None
            )
        if nxt != state:
            changes.append((pos, state, c, nxt))
            exited.add(state)
            if nxt in exited:
                raise RuntimeError(f"state {nxt!r} re-entered: transition graph has a cycle")
        if c == LEND:
            pos = 1
        else:
            pos = pos + 1 if a.is_x(nxt) else pos - 1
        state = nxt
        steps += 1
        if steps > cap:
            raise RuntimeError("run did not stabilize within the step budget")


def run_det(a: Po2Automaton, w: LassoWord, collect_trace: bool = False) -> RunOutcome:
    """Run a deterministic automaton on a lasso word from the start."""
    if len(a.initial) != 1:
        raise ValueError(f"need exactly one initial state, have {len(a.initial)}")
    if not (w.alphabet <= a.alphabet):
        raise ValueError(f"word uses letters outside the alphabet: {sorted(w.alphabet - a.alphabet)}")
    (z0,) = a.initial
    return simulate_from(a, w, z0, 1, collect_trace)


def crosser(a: Po2Automaton) -> Callable[[tuple, str], tuple[str, int]]:
    """Crossing sequences of a complete deterministic machine (Shepherdson
    1959), over markers linked as cells.

    A cell ``(t, letter, previous, table)`` is marker t of a word, read
    after marker t - 1 (``previous``; None for the first marker) with
    nothing in between that makes a run change state.  ``cross(cell, z)``
    runs the machine from the head reading the cell's marker in state z
    until it first leaves the marker to the right; it returns the X state
    then and a bitmask with bit t set for each marker t where the run
    changed state.  A Y state read off marker t reads marker t - 1 next, so
    it goes through t - 1's table, keyed by the state that reads it; a
    missing entry is filled first, with the crossing waiting on an explicit
    stack, so deep crossings need no deep Python stack.  Every crossing is
    stored in its marker's table, the outermost one too, so a caller that
    crosses a marker from a Y state fills the entry that a later run
    turning left onto that marker reads.
    """
    delta = a._tables[0]
    xs = a.x_states
    n = len(a.states)

    def cross(cell: tuple, z: str) -> tuple[str, int]:
        suspended: list[tuple[tuple, str, int, int]] = []
        key, mask, reads = z, 0, 0
        while True:
            # Each read of the marker is in a state later than the one
            # before, since the run turned and came back through a change.
            reads += 1
            if reads > n:
                raise RuntimeError("run did not cross its marker")
            t, c, previous, _ = cell
            nxt = delta[z, c]
            if nxt != z:
                mask |= 1 << t
            if nxt in xs:
                cell[3][key] = nxt, mask
                if not suspended:
                    return nxt, mask
                done = mask
                cell, key, mask, reads = suspended.pop()
                z = nxt
                mask |= done
            elif previous is None:
                z = delta[nxt, LEND]
            elif nxt in previous[3]:
                z, done = previous[3][nxt]
                mask |= done
            else:
                suspended.append((cell, key, mask, reads))
                cell, key, z, mask, reads = previous, nxt, nxt, 0, 0

    return cross


def membership_nondet(a: Po2Automaton, w: LassoWord) -> bool:
    """Whether some run of a (possibly nondeterministic) machine accepts.

    Breadth-first search over configurations (state, position).  Positions
    are capped: a run that strays more than a couple of periods past the
    spoke can be replaced by one that exits each state block at an earlier,
    letter-identical position, so the cap loses no accepting runs.
    """
    if not (w.alphabet <= a.alphabet):
        raise ValueError(f"word uses letters outside the alphabet: {sorted(w.alphabet - a.alphabet)}")
    spoke_len = len(w.spoke)
    horizon = spoke_len + (len(a.states) + 3) * len(w.period)
    period_letters = frozenset(w.period)

    def accepting(state: str, pos: int) -> bool:
        return (
            pos > spoke_len
            and state in a.final
            and a.is_x(state)
            and period_letters <= a.selfloop_letters(state)
        )

    delta, several = a._tables
    seen = {(z, 1) for z in a.initial}
    frontier = list(seen)
    while frontier:
        state, pos = frontier.pop()
        if accepting(state, pos):
            return True
        c = _letter_at(w, pos)
        one = delta.get((state, c))
        for nxt in several.get((state, c), ()) if one is None else (one,):
            if c == LEND:
                npos = 1
            else:
                npos = pos + 1 if a.is_x(nxt) else pos - 1
            if 0 <= npos <= horizon and (nxt, npos) not in seen:
                seen.add((nxt, npos))
                frontier.append((nxt, npos))
    return False
