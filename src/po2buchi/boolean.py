"""Boolean combinations of deterministic machines via a two-head product.

Two complete deterministic machines run side by side.  While both sit in X
states they read in lockstep, and the letters read at joint state changes
are pushed on the bounded stack word ``sig``.  When one machine dives into
a Y state it becomes ``active``: the other freezes in its pre-dive state
and the diver is followed alone, paired with a compatibility index ``k``
into the stack word.  The index certifies how much of the factored prefix
still separates the diver from the freeze position.  The tracker step that
updates it has no move for the step that would cross back over that
position, so exactly there both machines take their (deferred) step, as in
lockstep but with the stack as it is.  Y keys read the left-end marker
through the same rule.  Acceptance is decided on lockstep states only.

The loop reads each operand state's successors from a row built once per
call, and evaluates the tracker step in closed form inline, reading the two
stack letters it needs once per key.  :func:`po2buchi.compat.tracker_step`
is the same step written on its own; the tests check this product against
a reference product built on it (``tests/helpers.py``).
"""

from __future__ import annotations

from typing import Callable

from .core import LEND, Po2Automaton, chain_lengths, ensure_x_initial, relabel, require

# (0, s1, s2, sig, 0) in lockstep; (active, diver, frozen, sig, k) while one
# operand dives.  States are indices into the operands' sorted state lists.
_Key = tuple[int, int, int, str, int]


def _rows(a: Po2Automaton, y_letters: list[str]) -> tuple[list[str], list[bool], list[list[int]]]:
    """``a``'s states in sorted order, which of them are Y states, and each
    one's successor indices over the letters, then the left-end marker for
    a Y state.  ``a`` must be complete and deterministic."""
    delta = a._tables[0]
    order = sorted(a.states)
    at = {z: i for i, z in enumerate(order)}
    is_y = [z in a.y_states for z in order]
    n = len(y_letters) - 1
    rows = [[at[delta[z, c]] for c in y_letters[: n + y]] for z, y in zip(order, is_y)]
    return order, is_y, rows


def _product(
    a: Po2Automaton, b: Po2Automaton, accept: Callable[[bool, bool], bool]
) -> Po2Automaton:
    require(a, deterministic=True, complete=True)
    require(b, deterministic=True, complete=True)
    if a.alphabet != b.alphabet:
        raise ValueError("product operands need the same alphabet")
    # Key names join s1, s2 and the stack word with "|", and can be split
    # back unless two of the three contain "|" themselves.  Only then is
    # each operand with "|" in its names renamed (``z0``, ``z1``, ... in
    # sorted order), so every other product keeps the operands' names.
    bars = [any("|" in z for z in m.states) for m in (a, b)]
    if sum(bars) + any("|" in c for c in a.alphabet) >= 2:
        a, b = (
            relabel(m, {z: f"z{i}" for i, z in enumerate(sorted(m.states))}) if bar else m
            for m, bar in zip((a, b), bars)
        )
    a = ensure_x_initial(a)
    b = ensure_x_initial(b)
    cap = chain_lengths(a)[1] + chain_lengths(b)[1] - 2
    letters = sorted(a.alphabet)
    y_letters = letters + [LEND]
    at = {c: j for j, c in enumerate(letters)}
    order1, is_y1, rows1 = _rows(a, y_letters)
    order2, is_y2, rows2 = _rows(b, y_letters)

    names: dict[_Key, str] = {}  # every key seen, named when first met
    # Each name goes into one of these when its key is first met: a key is
    # a Y key when its diver is in a Y state.
    xs: set[str] = set()
    ys: set[str] = set()
    queue: list[_Key] = []

    def meet(key: _Key) -> str:
        active, d, f, sig, k = key
        if not active:
            name = f"s|{order1[d]}|{order2[f]}|{sig}"
            xs.add(name)
        elif active == 1:
            name = f"a1|{order1[d]}|{order2[f]}|{sig}|{k}"
            (ys if is_y1[d] else xs).add(name)
        else:
            name = f"a2|{order1[f]}|{order2[d]}|{sig}|{k}"
            (ys if is_y2[d] else xs).add(name)
        names[key] = name
        queue.append(key)
        return name

    (i1,) = a.initial
    (i2,) = b.initial
    start = meet((0, order1.index(i1), order2.index(i2), "", 0))
    transitions = []  # each key is expanded once, so nothing repeats
    seen = names.get
    while queue:
        key = queue.pop()
        active, d, f, sig, k = key
        src = names[key]
        if not active:
            for c, z1, z2 in zip(letters, rows1[d], rows2[f]):
                t = sig
                if z1 != d or z2 != f:
                    t += c
                    if len(t) > cap:
                        raise RuntimeError("internal: stack outgrew the chain-length bound")
                # A diving machine becomes active; the other slot keeps the
                # state whose transition is re-issued when the diver crosses
                # back.
                if is_y1[z1]:
                    nxt = (1, z1, f, t, len(t))
                elif is_y2[z2]:
                    nxt = (2, z2, d, t, len(t))
                else:
                    nxt = (0, z1, z2, t, 0)
                transitions.append((src, c, seen(nxt) or meet(nxt)))
            continue
        m = len(sig)
        if not 1 <= k <= m:
            raise RuntimeError("internal: tracker index left the stack word")
        if active == 1:
            is_y, rows, other_is_y, other_rows = is_y1, rows1, is_y2, rows2
        else:
            is_y, rows, other_is_y, other_rows = is_y2, rows2, is_y1, rows1
        # The tracker step: leaving a Y state on the letter below the index
        # extends the certified stretch leftward; entering an X state on the
        # letter at the index shrinks it from the left.  Where that would
        # empty it, the diver crosses back over the freeze position.
        below = sig[k - 2] if k > 1 and is_y[d] else None
        here = sig[k - 1]
        for c, z in zip(y_letters, rows[d]):
            if c == below:
                nxt = (active, z, f, sig, k - 1 if is_y[z] else k)
            elif is_y[z] or c != here:
                nxt = (active, z, f, sig, k)
            elif k < m:
                nxt = (active, z, f, sig, k + 1)
            else:
                # At the crossing both machines take their step on c.  If
                # the other one dives, the diver's state before its step is
                # the one kept.
                if is_y[z]:
                    raise RuntimeError(
                        "internal: the diver is not in an X state after the crossing"
                    )
                w = other_rows[f][at[c]]
                if other_is_y[w]:
                    nxt = (3 - active, w, d, sig, m)
                elif active == 1:
                    nxt = (0, z, w, sig, 0)
                else:
                    nxt = (0, w, z, sig, 0)
            transitions.append((src, c, seen(nxt) or meet(nxt)))

    if len(xs | ys) != len(names):
        raise RuntimeError("internal: product state names collided")
    if cap == 0:
        if len(names) != 1:
            raise RuntimeError(f"internal: stack bound 0 but the product has {len(names)} states")
    elif len(letters) >= 2:
        bound = 3 * cap * len(a.states) * len(b.states) * len(letters) ** (cap + 1)
        if len(names) > bound:
            raise RuntimeError(f"internal: product has {len(names)} states, over the bound {bound}")
    final1 = [z in a.final for z in order1]
    final2 = [z in b.final for z in order2]
    return Po2Automaton(
        a.alphabet,
        xs,
        ys,
        transitions,
        {start},
        {
            name
            for (active, s1, s2, _, _), name in names.items()
            if not active and accept(final1[s1], final2[s2])
        },
    )


def product_union(a: Po2Automaton, b: Po2Automaton) -> Po2Automaton:
    """Deterministic machine for the union of two lasso languages."""
    return _product(a, b, lambda f1, f2: f1 or f2)


def product_intersection(a: Po2Automaton, b: Po2Automaton) -> Po2Automaton:
    """Deterministic machine for the intersection of two lasso languages."""
    return _product(a, b, lambda f1, f2: f1 and f2)
