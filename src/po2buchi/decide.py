"""Decision procedures backed by length-lexicographic first witnesses.

Every answer is a witness lasso ``spoke . letter^w`` that a real run has
accepted, or a search that ran to completion.  Candidates are ordered
length-lexicographically, letters sorted within each length, and spokes are
searched up to a bound derived from the machine sizes: emptiness up to the
longest state chain less one, inclusion up to ``|a| + |b| + 2``.  So
repeated calls return the identical witness.

When the first machine is deterministic (``is_empty`` and ``is_universal``
on a deterministic machine, ``includes`` and ``equivalent`` with a
deterministic ``a``) the spokes are walked as a trie, one length at a time
and letters in sorted order, which meets the candidates in the same order.
Each trie node keeps, for every run involved, the state in which the head
first passes the node's last position, and which of the node's positions
have seen a state change in some run so far.

Why pruning keeps the first witness: in the length-lex first witness every
spoke position sees a state change in some run.  A position where every run
only self-loops could be deleted; each run would pass the shorter word the
same way and end in the same stationary state, so a shorter candidate would
be a witness too.  Deleting position 1 is only sound when the runs start in
X states, so the trie walks machines given an X initial state
(:func:`ensure_x_initial`), with the same languages.  The changes a run can
still make from state z on its way to a stationary state that suits the
witness (a final state of ``a``; a non-final state of ``b``'s completion)
are at most ``chains_to`` of z.  A node whose positions without a change
outnumber those counts, summed over the runs, is cut with every extension.
Every leaf that survives is checked by a real run (:func:`run_det`).

Budgets: ``budget`` bounds the length-lex rank of the candidates a search
reaches, whether it tests them or cuts them.  A search raises
``BudgetExceeded`` as soon as it would pass rank ``budget``, so every
budget gives the answer or the exception that testing candidates one by one
in that order would give.  When the first machine is nondeterministic the
candidates are still enumerated and tested one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (
    LEND,
    Po2Automaton,
    chain_lengths,
    chains_to,
    complement,
    complete,
    ensure_x_initial,
    require,
)
from .run import ACCEPTED, membership_nondet, run_det
from .words import LassoWord


class BudgetExceeded(Exception):
    """Raised when a search would reach a candidate ranked past its budget."""


@dataclass(frozen=True)
class Witness:
    """An ultimately constant lasso ``spoke . letter^w`` certifying an answer."""

    spoke: str
    letter: str

    def word(self) -> LassoWord:
        return LassoWord(self.spoke, self.letter)

    def __str__(self) -> str:
        return f"{self.spoke}({self.letter})"


def _candidates(alphabet, max_len: int):
    letters = sorted(alphabet)
    for n in range(max_len + 1):
        for tup in product(letters, repeat=n):
            spoke = "".join(tup)
            for c in letters:
                yield Witness(spoke, c)


class _Meter:
    """The length-lex rank a search has reached, checked against its budget."""

    def __init__(self, budget: int | None, what: str):
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be at least 0, got {budget}")
        self.budget = budget
        self.what = what
        self.used = 0

    def reach(self, rank: int) -> None:
        """Count every candidate up to ``rank`` as used."""
        if self.budget is not None and rank > self.budget:
            raise BudgetExceeded(
                f"{self.what} needed more than {self.budget} membership tests"
            )
        self.used = rank

    def tick(self) -> None:
        self.reach(self.used + 1)


def _cross(a: Po2Automaton, spoke: str, z: str) -> tuple[str, int]:
    """Run a complete machine from state z with the head on the last
    position of ``spoke`` until it first moves past it.  Returns the state
    then and a bit mask of the spoke positions where the state changed."""
    delta = a._tables[0]
    xs = a.x_states
    end = len(spoke) + 1
    pos = end - 1
    changed = steps = 0
    limit = (len(a.states) + 1) * (end + 2)
    while pos < end:
        steps += 1
        if steps > limit:
            raise RuntimeError("run did not cross the spoke within the step budget")
        if pos == 0:
            z = delta[z, LEND]
            pos = 1
            continue
        nxt = delta[z, spoke[pos - 1]]
        if nxt != z:
            changed |= 1 << pos
        z = nxt
        pos += 1 if z in xs else -1
    return z, changed


def _trie_search(runs, letters, bound: int, meter: _Meter, accepts) -> Witness | None:
    """Length-lex first candidate up to spoke length ``bound`` that
    ``accepts`` holds for, walking spokes as a pruned trie.

    ``runs`` pairs each complete deterministic machine with an X initial
    state with its ``chains_to`` table.  A node is ``(spoke, lex index of
    the spoke among its length, each run's state as the head first passes
    the spoke, mask of the positions that saw a change)``.
    """
    k = len(letters)

    def alive(depth: int, states, mask: int) -> bool:
        room = 0
        for (_, below), z in zip(runs, states):
            if below[z] < 0:
                return False
            room += below[z]
        return depth - mask.bit_count() <= room

    starts = tuple(next(iter(a.initial)) for a, _ in runs)
    level = [("", 0, starts, 0)] if alive(0, starts, 0) else []
    passed = 0  # candidates whose spoke is shorter than the current length
    for n in range(bound + 1):
        if n:
            grown = []
            for spoke, index, states, mask in level:
                for i, c in enumerate(letters):
                    child = spoke + c
                    cstates = []
                    cmask = mask
                    for (a, _), z in zip(runs, states):
                        z, changed = _cross(a, child, z)
                        cstates.append(z)
                        cmask |= changed
                    if alive(n, cstates, cmask):
                        grown.append((child, index * k + i, cstates, cmask))
            level = grown
        if not level:
            # Every longer candidate lies below a cut node.
            meter.reach(passed + sum(k ** (m + 1) for m in range(n, bound + 1)))
            return None
        for spoke, index, _, _ in level:
            for i, c in enumerate(letters):
                meter.reach(passed + index * k + i + 1)
                cand = Witness(spoke, c)
                if accepts(cand.word()):
                    return cand
        passed += k ** (n + 1)
        meter.reach(passed)
    return None


def is_empty(a: Po2Automaton, *, budget: int | None = None) -> Witness | None:
    """Length-lex first witness of nonemptiness, or None for the empty language.

    A nonempty language always contains an ultimately constant word whose
    spoke is shorter than the longest state chain of the completed machine,
    so a search to that bound is complete.  A deterministic machine is
    searched as a pruned trie of spokes (see the module docstring); a
    nondeterministic one has every candidate tested.  ``budget`` bounds the
    length-lex rank of the candidates reached, tested or cut; past it the
    search raises ``BudgetExceeded``.  A negative budget is a ValueError.
    """
    meter = _Meter(budget, "emptiness check")
    report = require(a)
    if not a.alphabet:
        return None
    ac = complete(a)
    bound = max(chain_lengths(ac)[0] - 1, 0)
    if report.is_deterministic:
        walk = ensure_x_initial(ac)
        return _trie_search(
            [(walk, chains_to(walk, walk.final.__contains__))],
            sorted(ac.alphabet),
            bound,
            meter,
            lambda w: run_det(ac, w).verdict == ACCEPTED,
        )
    for cand in _candidates(ac.alphabet, bound):
        meter.tick()
        if membership_nondet(ac, cand.word()):
            return cand
    return None


def includes(
    a: Po2Automaton, b: Po2Automaton, *, budget: int | None = None
) -> Witness | None:
    """None when L(a) is a subset of L(b); otherwise a word in L(a) - L(b).

    The second machine must be deterministic (a candidate counts where its
    run does not accept); the first may be nondeterministic.  The witness is
    the length-lex first counterexample with spoke length at most
    |states(a)| + |states(b)| + 2, the two extra letters covering the
    completion sinks.  When ``a`` is deterministic both runs walk one pruned
    trie of spokes: a position counts as changed when either run changes
    state there (see the module docstring).  Otherwise every candidate is
    tested.  ``budget`` bounds the length-lex rank of the candidates
    reached, tested or cut; past it the search raises ``BudgetExceeded``.
    A negative budget is a ValueError.
    """
    meter = _Meter(budget, "inclusion check")
    if frozenset(a.alphabet) != frozenset(b.alphabet):
        raise ValueError("inclusion needs a shared alphabet")
    report = require(a)
    require(b, deterministic=True)
    if not a.alphabet:
        return None
    bound = len(a.states) + len(b.states) + 2
    if report.is_deterministic:
        wa = ensure_x_initial(complete(a))
        wb = ensure_x_initial(complete(b))
        return _trie_search(
            [
                (wa, chains_to(wa, wa.final.__contains__)),
                (wb, chains_to(wb, lambda z: z not in wb.final)),
            ],
            sorted(a.alphabet),
            bound,
            meter,
            lambda w: run_det(a, w).verdict == ACCEPTED
            and run_det(b, w).verdict != ACCEPTED,
        )
    for cand in _candidates(a.alphabet, bound):
        meter.tick()
        w = cand.word()
        # A run of b that needs a missing transition ends stuck, where its
        # completion would sit in the non-accepting sink.
        if run_det(b, w).verdict != ACCEPTED and membership_nondet(a, w):
            return cand
    return None


def equivalent(
    a: Po2Automaton, b: Po2Automaton, *, budget: int | None = None
) -> tuple[str, Witness] | None:
    """None when both languages agree; otherwise the failing side and witness.

    Side "left" means the witness is accepted by the first machine only,
    "right" by the second only.  Both machines must be deterministic.
    """
    require(a, deterministic=True)
    require(b, deterministic=True)
    cand = includes(a, b, budget=budget)
    if cand is not None:
        return ("left", cand)
    cand = includes(b, a, budget=budget)
    if cand is not None:
        return ("right", cand)
    return None


def is_universal(a: Po2Automaton, *, budget: int | None = None) -> Witness | None:
    """None when the machine accepts every lasso; otherwise a rejected word."""
    require(a, deterministic=True)
    return is_empty(complement(complete(a)), budget=budget)
