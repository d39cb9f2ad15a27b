"""The prefix-compatibility calculus and the tracker automaton, as oracles.

The product in :mod:`po2buchi.boolean` follows a diving operand with the
closed-form step :func:`po2buchi.compat.tracker_step`.  This module keeps the
calculus that step is proved against: greedy marker factorizations of a
prefix, the k-prefix compatibility of a suffix, and the two index transfers
(prepend and strip); and the tracker spelled out as a machine of its own.
The tests check the closed form against these definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from po2buchi.compat import TrackerState, tracker_table
from po2buchi.core import LEND, Po2Automaton
from po2buchi.words import LassoWord

PREPEND = "prepend"
STRIP = "strip"


def is_scattered_subword(x: str, w: str) -> bool:
    """True iff ``x`` can be embedded in ``w`` preserving order (x <= w)."""
    it = iter(w)
    return all(c in it for c in x)


@dataclass(frozen=True)
class PrefixFactorization:
    """The greedy marker factorization ``u1 a1 ... um am . residual``.

    ``markers[i]`` is the first occurrence of that letter after segment
    ``segments[i]``, and never occurs inside it.  ``residual`` is whatever
    remains after the last marker (a finite word or a lasso tail).
    """

    segments: tuple[str, ...]
    markers: tuple[str, ...]
    residual: "str | LassoWord"

    def __post_init__(self) -> None:
        if len(self.segments) != len(self.markers):
            raise ValueError("segments and markers must pair up")
        for u, a in zip(self.segments, self.markers):
            if a in u:
                raise ValueError(f"marker {a!r} occurs inside its segment {u!r}")

    @property
    def marker_count(self) -> int:
        return len(self.markers)

    def factored_prefix(self, start: int = 1) -> str:
        """The finite word ``u_start a_start ... um am``."""
        if not 1 <= start <= len(self.markers) + 1:
            raise ValueError(f"start index {start} out of range")
        return "".join(
            u + a for u, a in zip(self.segments[start - 1 :], self.markers[start - 1 :])
        )

    @property
    def prefix_length(self) -> int:
        return len(self.factored_prefix())


def _letter(w: str | LassoWord, i: int) -> str | None:
    """1-based letter access; None past the end of a finite word."""
    if isinstance(w, LassoWord):
        return w.letter_at(i)
    return w[i - 1] if i <= len(w) else None


def prefix_factorize(w: str | LassoWord, v: str) -> PrefixFactorization | None:
    """Greedy factorization of ``w`` along the marker word ``v``.

    Each marker is matched to its first occurrence after the previous one,
    which makes every segment marker-free and the factorization unique.
    Returns None when some marker never occurs in the remaining word.  For
    lasso input a letter absent within one full period past the previous
    marker (and past the spoke) is absent forever, so the search window for
    each marker is bounded.
    """
    segments: list[str] = []
    pos = 1
    for a in v:
        if isinstance(w, LassoWord):
            horizon = max(pos, len(w.spoke)) + len(w.period)
        else:
            horizon = len(w)
        hit = None
        for q in range(pos, horizon + 1):
            if _letter(w, q) == a:
                hit = q
                break
        if hit is None:
            return None
        chunk = "".join(_letter(w, i) for i in range(pos, hit))  # type: ignore[misc]
        segments.append(chunk)
        pos = hit + 1
    if isinstance(w, LassoWord):
        residual: str | LassoWord = w.suffix_from(pos)
    else:
        residual = w[pos - 1 :]
    return PrefixFactorization(tuple(segments), tuple(v), residual)


def is_k_prefix_compatible(w: str, k: int, f: PrefixFactorization) -> bool:
    """Whether ``w`` fits the factored prefix at index ``k``.

    ``w`` must contain ``a_k ... a_m`` as a scattered subword and be a
    suffix of ``u_k a_k ... u_m a_m``.
    """
    m = f.marker_count
    if not 1 <= k <= m:
        raise ValueError(f"index {k} out of range 1..{m}")
    tail_markers = "".join(f.markers[k - 1 :])
    return is_scattered_subword(tail_markers, w) and f.factored_prefix(k).endswith(w)


def compatibility_step(
    direction: str, letter: str, index: int, f: PrefixFactorization
) -> int | None:
    """Transfer a compatibility index across one letter.

    ``prepend`` maps an index valid for ``w`` to one valid for ``letter + w``;
    ``strip`` maps an index valid for ``letter + w`` to one valid for ``w``.
    Returns None in the single strip case (index m, letter equal to the last
    marker) that forces ``w`` to be empty.
    """
    m = f.marker_count
    if not 1 <= index <= m:
        raise ValueError(f"index {index} out of range 1..{m}")
    a = f.markers
    if direction == PREPEND:
        if index == 1:
            return 1
        return index - 1 if letter == a[index - 2] else index
    if direction == STRIP:
        if index < m:
            return index + 1 if letter == a[index - 1] else index
        return None if letter == a[m - 1] else m
    raise ValueError(f"direction must be {PREPEND!r} or {STRIP!r}, got {direction!r}")


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
