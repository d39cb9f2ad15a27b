"""Propositional satisfiability encoded as automaton emptiness.

``build_sat_automaton`` turns a formula into a deterministic machine over
{0, 1} whose inputs are read as assignments: position i carries the value of
variable i, and the machine accepts exactly the satisfying inputs.  Emptiness
checking then decides satisfiability, and the construction doubles as an
adversarial generator for the decision procedures.
"""

from __future__ import annotations

from . import _Value
from .core import LEND, Po2Automaton
from .decide import is_empty


class Var(_Value):
    """A propositional variable; indices start at 1."""

    index: int

    def __init__(self, index: int) -> None:
        if index < 1:
            raise ValueError(f"variable index must be at least 1, got {index}")
        super().__init__(index)


class Not(_Value):
    child: PropFormula


class And(_Value):
    left: PropFormula
    right: PropFormula


class Or(_Value):
    left: PropFormula
    right: PropFormula


PropFormula = Var | Not | And | Or


def _children(g: PropFormula) -> tuple[PropFormula, ...]:
    if isinstance(g, Var):
        return ()
    if isinstance(g, Not):
        return (g.child,)
    if isinstance(g, (And, Or)):
        return (g.left, g.right)
    raise TypeError(f"not a formula: {g!r}")


def var_count(f: PropFormula) -> int:
    """Largest variable index appearing in the formula."""
    top = 0
    stack = [f]
    while stack:
        g = stack.pop()
        stack.extend(_children(g))
        if isinstance(g, Var):
            top = max(top, g.index)
    return top


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


_BINARY = {"&": (2, And), "|": (1, Or)}  # binding strength, node type


def parse_formula(text: str) -> PropFormula:
    """Parse formulas like ``v1 & !(v2 | v3)``.

    ``!`` binds tightest, ``&`` binds over ``|``, and both binary operators
    associate to the left.  Variables are ``v`` followed by decimal digits.
    The parser climbs precedences with explicit stacks, so how deeply a
    formula nests is limited by memory, not by the Python stack.
    """
    operands: list[PropFormula] = []
    pending: list[str] = []  # "!", "(", "&" and "|" not applied yet
    opened: list[int] = []  # offsets of the open parentheses, innermost last
    pos = 0

    def skip_spaces() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def fold(binding: int) -> None:
        """Apply the pending binary operators that bind at least this tightly."""
        while pending and pending[-1] in _BINARY and _BINARY[pending[-1]][0] >= binding:
            right = operands.pop()
            operands.append(_BINARY[pending.pop()][1](operands.pop(), right))

    while True:
        # An operand: any "!" and "(" in front of a variable.
        skip_spaces()
        if pos >= len(text):
            raise FormulaSyntaxError("expected a variable, '!' or '('", pos)
        if text[pos] in "!(":
            if text[pos] == "(":
                opened.append(pos)
            pending.append(text[pos])
            pos += 1
            continue
        if text[pos] != "v":
            raise FormulaSyntaxError(f"unexpected {text[pos]!r}", pos)
        start = pos
        pos += 1
        while pos < len(text) and text[pos] in "0123456789":
            pos += 1
        if pos == start + 1:
            raise FormulaSyntaxError("expected digits after 'v'", pos)
        index = int(text[start + 1 : pos])
        if index < 1:
            raise FormulaSyntaxError("variable index must be at least 1", start)
        operands.append(Var(index))
        # Negate the finished atom, and close the groups it finishes.
        while True:
            while pending[-1:] == ["!"]:
                pending.pop()
                operands.append(Not(operands.pop()))
            skip_spaces()
            if not (opened and pos < len(text) and text[pos] == ")"):
                break
            fold(0)
            pending.pop()
            opened.pop()
            pos += 1
        if pos < len(text) and text[pos] in _BINARY:
            fold(_BINARY[text[pos]][0])
            pending.append(text[pos])
            pos += 1
            continue
        if opened:
            raise FormulaSyntaxError("unclosed '('", opened[-1])
        if pos != len(text):
            raise FormulaSyntaxError(f"unexpected {text[pos]!r}", pos)
        fold(0)
        return operands.pop()


def build_sat_automaton(f: PropFormula) -> Po2Automaton:
    """A deterministic machine over {0, 1} accepting the satisfying inputs of f.

    Reader n, for the n-th variable from the left, walks right to its
    position, remembers the bit there, returns to the left end, and reports
    a 1 or a 0 to the two states it was handed.  The formula is walked top
    down with an explicit stack: the root reports to the shared "true" and
    "false" loop states, ``Not`` swaps its two targets, and ``And`` (``Or``)
    hands its left side's "true" ("false") target to its right side's entry.
    So every transition is written once, in time linear in the machine size.
    "true" and "false" are the only right-moving states with letter
    self-loops, both are entered by left-end transitions only, and "true" is
    the sole final state.
    """
    # Leaves per node, children before parents, to name a right side's entry.
    nodes = [f]
    for g in nodes:
        nodes.extend(_children(g))
    leaves: dict[int, int] = {}
    for g in reversed(nodes):
        kids = _children(g)
        leaves[id(g)] = sum(leaves[id(k)] for k in kids) if kids else 1

    xs: set[str] = {"true", "false"}
    ys: set[str] = set()
    transitions = {(z, c, z) for z in ("true", "false") for c in "01"}
    n = 0  # readers built so far
    stack: list[tuple[PropFormula, str, str]] = [(f, "true", "false")]
    while stack:
        g, on1, on0 = stack.pop()
        if isinstance(g, Var):
            n += 1
            walk = [f"r{n}.at{j}" for j in range(1, g.index + 1)]
            saw0, saw1 = f"r{n}.saw0", f"r{n}.saw1"
            xs.update(walk)
            ys.update((saw0, saw1))
            for here, there in zip(walk, walk[1:]):
                transitions.update((here, c, there) for c in "01")
            transitions.update((saw, c, saw) for saw in (saw0, saw1) for c in "01")
            transitions.update({(walk[-1], "0", saw0), (walk[-1], "1", saw1)})
            transitions.update({(saw0, LEND, on0), (saw1, LEND, on1)})
        elif isinstance(g, Not):
            stack.append((g.child, on0, on1))
        else:
            entry = f"r{n + leaves[id(g.left)] + 1}.at1"
            stack.append((g.right, on1, on0))
            stack.append((g.left, entry, on0) if isinstance(g, And) else (g.left, on1, entry))
    return Po2Automaton("01", xs, ys, transitions, {"r1.at1"}, {"true"})


def sat_via_emptiness(
    f: PropFormula, *, budget: int | None = None
) -> dict[int, bool] | None:
    """A satisfying assignment as {index: value}, or None when unsatisfiable.

    Decided by emptiness of the formula machine: any accepted lasso spells a
    satisfying input, with positions past the spoke filled by the loop letter.
    """
    witness = is_empty(build_sat_automaton(f), budget=budget)
    if witness is None:
        return None
    word = witness.word()
    return {i: word.letter_at(i) == "1" for i in range(1, var_count(f) + 1)}
