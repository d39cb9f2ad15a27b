"""Decision procedures over small-model witness enumeration.

Every answer is backed by a concrete witness lasso ``spoke . letter^w`` found
within a bound derived from the machine sizes: emptiness searches up to the
longest state chain, inclusion up to the combined state counts.  Witness
enumeration is length-lexicographic with letters in sorted order, so repeated
calls return the identical witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import Po2Automaton, chain_lengths, complement, complete, require
from .run import ACCEPTED, membership_nondet, run_det
from .words import LassoWord


class BudgetExceeded(Exception):
    """Raised when a decision procedure would test more candidates than allowed."""


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
    def __init__(self, budget: int | None, what: str):
        self.budget = budget
        self.what = what
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.budget is not None and self.used > self.budget:
            raise BudgetExceeded(
                f"{self.what} needed more than {self.budget} membership tests"
            )


def is_empty(a: Po2Automaton, *, budget: int | None = None) -> Witness | None:
    """Length-lex first witness of nonemptiness, or None for the empty language.

    A nonempty language always contains an ultimately constant word whose
    spoke is shorter than the longest state chain, so the search is complete.
    """
    require(a)
    if not a.alphabet:
        return None
    ac = complete(a)
    bound = max(chain_lengths(ac)[0] - 1, 0)
    meter = _Meter(budget, "emptiness check")
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
    run does not accept); the first may be nondeterministic.
    Counterexamples are found within spoke length |states(a)| + |states(b)|
    + 2, the two extra letters covering the completion sinks.
    """
    if frozenset(a.alphabet) != frozenset(b.alphabet):
        raise ValueError("inclusion needs a shared alphabet")
    require(a)
    require(b, deterministic=True)
    if not a.alphabet:
        return None
    bound = len(a.states) + len(b.states) + 2
    meter = _Meter(budget, "inclusion check")
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
