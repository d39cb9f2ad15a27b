"""Boolean combinations of deterministic machines via a two-head product.

Two complete deterministic machines run side by side.  One step rule moves
the product, over keys ``(active, s1, s2, sig, k)``.  While both machines
sit in X states they read in lockstep (``active`` and ``k`` are 0), and the
letters read at joint state changes are pushed on the bounded stack word
``sig``.  When one machine dives into a Y state it becomes ``active``: the
other freezes in its pre-dive state and the diver is followed alone, paired
with a compatibility index ``k`` into the stack word
(:mod:`po2buchi.compat`).  The index certifies how much of the factored
prefix still separates the diver from the freeze position; the tracker
deliberately has no transition for the step that would cross back over that
position, so exactly there both machines take their (deferred) step, as in
lockstep but with the stack as it is.  Y keys read the left-end marker
through the same rule.  Acceptance is decided on lockstep states only.
"""

from __future__ import annotations

from typing import Callable

from .compat import tracker_step
from .core import LEND, Po2Automaton, chain_lengths, ensure_x_initial, relabel, require

_Key = tuple[int, str, str, str, int]  # (active, s1, s2, sig, k)


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
    ops = {1: a, 2: b}
    cap = chain_lengths(a)[1] + chain_lengths(b)[1] - 2
    letters = sorted(a.alphabet)
    y_letters = letters + [LEND]
    # Both operands are complete and deterministic, so every key is there.
    delta1 = a._tables[0]
    delta2 = b._tables[0]
    y1 = a.y_states
    y2 = b.y_states

    def step(key: _Key, c: str) -> _Key:
        active, s1, s2, sig, k = key
        if active:
            hit = tracker_step(ops[active], sig, s1 if active == 1 else s2, k, c)
            if hit is not None:
                z, k = hit
                return (1, z, s2, sig, k) if active == 1 else (2, s1, z, sig, k)
        # In lockstep, and where the tracker is silent (exactly at the
        # crossing), both machines take their step at the freeze position.
        z1 = delta1[s1, c]
        z2 = delta2[s2, c]
        if active:
            if (z1 in y1) if active == 1 else (z2 in y2):
                raise RuntimeError("internal: the diver is not in an X state after the crossing")
        elif z1 != s1 or z2 != s2:
            sig += c
            if len(sig) > cap:
                raise RuntimeError("internal: stack outgrew the chain-length bound")
        # A diving machine becomes active; the other slot keeps the state
        # whose transition is re-issued when the diver crosses back.
        if z1 in y1:
            return (1, z1, s2, sig, len(sig))
        if z2 in y2:
            return (2, s1, z2, sig, len(sig))
        return (0, z1, z2, sig, 0)

    names: dict[_Key, str] = {}  # every key seen, named when first met
    # Each name goes into one of these when its key is first met: a key is
    # a Y key when its diver is in a Y state.
    xs: set[str] = set()
    ys: set[str] = set()
    queue: list[_Key] = []

    def meet(key: _Key) -> str:
        active, s1, s2, sig, k = key
        if not active:
            name = f"s|{s1}|{s2}|{sig}"
            xs.add(name)
        else:
            name = f"a{active}|{s1}|{s2}|{sig}|{k}"
            (ys if (s1 in y1 if active == 1 else s2 in y2) else xs).add(name)
        names[key] = name
        queue.append(key)
        return name

    (i1,) = a.initial
    (i2,) = b.initial
    start = meet((0, i1, i2, "", 0))
    transitions = []  # each key is expanded once, so nothing repeats
    while queue:
        key = queue.pop()
        if key[0] and not 1 <= key[4] <= len(key[3]):
            raise RuntimeError("internal: tracker index left the stack word")
        src = names[key]
        for c in y_letters if src in ys else letters:
            nxt = step(key, c)
            transitions.append((src, c, names.get(nxt) or meet(nxt)))

    if len(xs | ys) != len(names):
        raise RuntimeError("internal: product state names collided")
    if cap == 0:
        if len(names) != 1:
            raise RuntimeError(f"internal: stack bound 0 but the product has {len(names)} states")
    elif len(letters) >= 2:
        bound = 3 * cap * len(a.states) * len(b.states) * len(letters) ** (cap + 1)
        if len(names) > bound:
            raise RuntimeError(f"internal: product has {len(names)} states, over the bound {bound}")
    return Po2Automaton(
        a.alphabet,
        xs,
        ys,
        transitions,
        {start},
        {
            name
            for k, name in names.items()
            if not k[0] and accept(k[1] in a.final, k[2] in b.final)
        },
    )


def product_union(a: Po2Automaton, b: Po2Automaton) -> Po2Automaton:
    """Deterministic machine for the union of two lasso languages."""
    return _product(a, b, lambda f1, f2: f1 or f2)


def product_intersection(a: Po2Automaton, b: Po2Automaton) -> Po2Automaton:
    """Deterministic machine for the intersection of two lasso languages."""
    return _product(a, b, lambda f1, f2: f1 and f2)

