"""Decision procedures backed by length-lexicographic first witnesses.

Every answer is a witness lasso ``spoke . letter^w`` that a real run has
accepted, or a search that ran to completion.  Candidates are ordered
length-lexicographically, letters sorted within each length, and spokes are
searched up to a bound derived from the machine sizes: emptiness up to the
longest state chain less one, inclusion up to ``|a| + |b| + 2``.  So
repeated calls return the identical witness.

Every search walks the spokes as one trie, one length at a time and
letters in sorted order, which meets the candidates in the same order.
When the first machine is deterministic (``is_empty`` and ``is_universal``
on a deterministic machine, ``includes`` and ``equivalent`` with a
deterministic ``a``) the runs follow the trie: each node keeps, for every
run, the state in which the head first passes the node's last position,
reached through the crossing tables of :func:`run.crosser`, and which of
the node's positions have seen a state change in some run so far.  A
nondeterministic first machine has no run to follow, so no node is ever
cut and every candidate is tested by :func:`membership_nondet`.

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
A candidate ``spoke . c^w`` is settled from the crossing tables too: from
the state in which each run first passes the c after the spoke, it goes on
one c at a time until it reaches an X state that self-loops on c, its
stationary state.  Only a candidate that passes is run from the tape start
(:func:`run_det`), and if that run disagrees the search raises
RuntimeError instead of answering.

Budgets: ``budget`` bounds the length-lex rank of the candidates a search
reaches, whether it tests them or cuts them.  A search raises
``BudgetExceeded`` as soon as it would pass rank ``budget``, so every
budget gives the answer or the exception that testing candidates one by one
in that order would give.
"""

from __future__ import annotations

from . import _Value
from .core import (
    BudgetExceeded,
    Po2Automaton,
    chain_lengths,
    chains_to,
    complement,
    complete,
    ensure_x_initial,
    require,
)
from .run import ACCEPTED, crosser, membership_nondet, run_det
from .words import LassoWord


class Witness(_Value):
    """An ultimately constant lasso ``spoke . letter^w`` certifying an answer."""

    spoke: str
    letter: str

    def word(self) -> LassoWord:
        return LassoWord(self.spoke, self.letter)

    def __str__(self) -> str:
        return f"{self.spoke}({self.letter})"


class _Meter:
    """Checks the length-lex rank a search reaches against its budget."""

    def __init__(self, budget: int | None, what: str):
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be at least 0, got {budget}")
        self.budget = budget
        self.what = what

    def reach(self, rank: int) -> None:
        """Count every candidate up to ``rank`` against the budget."""
        if self.budget is not None and rank > self.budget:
            raise BudgetExceeded(
                f"{self.what} needed more than {self.budget} membership tests"
            )


def _settle(cross, delta, cell: tuple, z: str, limit: int) -> str:
    """Stationary state of a run on ``spoke . c^w`` that leaves ``cell``,
    the cell of the first c after the spoke, in X state z.

    While z changes state on c, the run goes on past one more c, through
    that c's crossing (:func:`run.crosser`); an X state that self-loops on c
    stays in it for good.  The states met are strictly ordered, so a
    machine with ``limit`` states settles within ``limit`` crossings; more
    is an internal error.
    """
    t, c = cell[0], cell[1]
    for _ in range(limit):
        if delta[z, c] == z:
            return z
        t += 1
        cell = (t, c, cell, {})
        z = cross(cell, z)[0]
    raise RuntimeError(f"internal: the run on {c}^w did not settle in {limit} crossings")


def _trie_search(
    a: Po2Automaton,
    b: Po2Automaton | None,
    bound: int,
    meter: _Meter,
    walk: Po2Automaton | None,
) -> Witness | None:
    """Length-lex first candidate up to spoke length ``bound`` that ``a``
    accepts and ``b``, when given, does not, walking spokes as a trie.

    ``walk`` is a complete copy of ``a`` when the caller's ``require``
    found ``a`` deterministic, and None otherwise.  Then its run, and
    ``b``'s, walk a copy with an X initial state, ``b``'s completed first,
    each paired with its ``chains_to`` table.  A node is ``(spoke, lex
    index of the spoke among its length, per run the cell of the spoke's
    last position and the state as the head first passes it, mask of the
    positions that saw a change)``.  The node for ``spoke + c`` also
    settles the candidate ``spoke . c^w``: each run goes on from its state
    past the c (:func:`_settle`), ``a``'s must end in a final state and
    ``b``'s in a non-final one.  A candidate that passes is run again from
    the tape start by :func:`run_det` on ``a`` and ``b`` as given, and a
    disagreement is a RuntimeError.  Without ``walk`` no run is walked, no
    node is cut and every candidate is tested by :func:`membership_nondet`.
    """
    letters = sorted(a.alphabet)
    k = len(letters)
    walks = []
    if walk is not None:
        wa = ensure_x_initial(walk)
        walks.append((wa, chains_to(wa, wa.final.__contains__), True))
        if b is not None:
            wb = ensure_x_initial(complete(b))
            walks.append((wb, chains_to(wb, lambda z: z not in wb.final), False))
    crosses = [crosser(w) for w, _, _ in walks]

    def out_b(w: LassoWord) -> bool:
        # A run of b that needs a missing transition ends stuck, where its
        # completion would sit in the non-accepting sink.
        return b is None or run_det(b, w).verdict != ACCEPTED

    def accepts(spoke: str, c: str, runs) -> bool:
        if not walks:
            w = LassoWord(spoke, c)
            return out_b(w) and membership_nondet(a, w)
        # A witness settles a's run in a final state, b's in a non-final one.
        for (m, _, final), cross, (cell, z) in zip(walks, crosses, runs):
            z = _settle(cross, m._tables[0], cell, z, len(m.states))
            if (z in m.final) != final:
                return False
        w = LassoWord(spoke, c)
        if run_det(a, w).verdict != ACCEPTED or not out_b(w):
            raise RuntimeError(
                f"internal: the crossing tables settle {w} as a witness "
                "but a run from the tape start does not"
            )
        return True

    def alive(depth: int, runs, mask: int) -> bool:
        room = 0
        for (_, below, _), (_, z) in zip(walks, runs):
            if below[z] < 0:
                return False
            room += below[z]
        return not walks or depth - mask.bit_count() <= room

    root = [(None, next(iter(w.initial))) for w, _, _ in walks]
    level = [("", 0, root, 0)] if alive(0, root, 0) else []
    passed = 0  # candidates whose spoke is shorter than the current length
    for n in range(bound + 1):
        if not level:
            # Every longer candidate lies below a cut node.
            meter.reach(passed + sum(k ** (m + 1) for m in range(n, bound + 1)))
            return None
        grown = []
        for spoke, index, runs, mask in level:
            for i, c in enumerate(letters):
                meter.reach(passed + index * k + i + 1)
                cruns = []
                cmask = mask
                for cross, (cell, z) in zip(crosses, runs):
                    cell = (n, c, cell, {})
                    z, changed = cross(cell, z)
                    cruns.append((cell, z))
                    cmask |= changed
                if accepts(spoke, c, cruns):
                    return Witness(spoke, c)
                if n < bound and alive(n + 1, cruns, cmask):
                    grown.append((spoke + c, index * k + i, cruns, cmask))
        level = grown
        passed += k ** (n + 1)
        meter.reach(passed)
    return None


def is_empty(a: Po2Automaton, *, budget: int | None = None) -> Witness | None:
    """Length-lex first witness of nonemptiness, or None for the empty language.

    A nonempty language always contains an ultimately constant word whose
    spoke is shorter than the longest state chain of the completed machine,
    so a search to that bound is complete.  The spokes are walked as a trie
    (see the module docstring), pruned when the machine is deterministic.
    ``budget`` bounds the length-lex rank of the candidates reached, tested
    or cut; past it the search raises ``BudgetExceeded``.  A negative
    budget is a ValueError.
    """
    meter = _Meter(budget, "emptiness check")
    deterministic = require(a).is_deterministic
    if not a.alphabet:
        return None
    ac = complete(a)
    bound = max(chain_lengths(ac)[0] - 1, 0)
    return _trie_search(ac, None, bound, meter, ac if deterministic else None)


def includes(
    a: Po2Automaton, b: Po2Automaton, *, budget: int | None = None
) -> Witness | None:
    """None when L(a) is a subset of L(b); otherwise a word in L(a) - L(b).

    The second machine must be deterministic (a candidate counts where its
    run does not accept); the first may be nondeterministic.  The witness is
    the length-lex first counterexample with spoke length at most
    |states(a)| + |states(b)| + 2, the two extra letters covering the
    completion sinks.  The spokes are walked as one trie; when ``a`` is
    deterministic both runs follow it and a position counts as changed when
    either run changes state there (see the module docstring).  ``budget``
    bounds the length-lex rank of the candidates reached, tested or cut;
    past it the search raises ``BudgetExceeded``.  A negative budget is a
    ValueError.
    """
    meter = _Meter(budget, "inclusion check")
    if frozenset(a.alphabet) != frozenset(b.alphabet):
        raise ValueError("inclusion needs a shared alphabet")
    deterministic = require(a).is_deterministic
    require(b, deterministic=True)
    if not a.alphabet:
        return None
    bound = len(a.states) + len(b.states) + 2
    return _trie_search(a, b, bound, meter, complete(a) if deterministic else None)


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
