"""Seeded generators shared across test modules.

All generators but ``random_raw_automaton`` build states along a fixed
linear order and only allow self-loops or forward edges, so every machine is
well formed by construction (the self-loop-free graph is acyclic, marker
edges included).  The module also holds reference implementations that
later, faster code is checked against.
"""

import random
from graphlib import CycleError, TopologicalSorter
from itertools import combinations, product

from po2buchi.compat import _check_tracker_args, tracker_step
from po2buchi.core import (
    LEND,
    Po2Automaton,
    ValidationReport,
    chain_lengths,
    chains_to,
    complement,
    complete,
    ensure_x_initial,
    require,
)
from po2buchi.decide import BudgetExceeded, Witness
from po2buchi.monomials import Monomial
from po2buchi.run import ACCEPTED, membership_nondet, run_det
from po2buchi.words import LassoWord


def random_det_automaton(
    rng: random.Random,
    alphabet: str = "ab",
    max_states: int = 5,
    complete: bool = True,
    final_bias: float = 0.4,
) -> Po2Automaton:
    """A deterministic machine; complete unless asked otherwise."""
    n = rng.randint(1, max_states)
    names = [f"z{i}" for i in range(n)]
    # Last state is X so every Y state has a later marker target.
    polarity = ["x" if i == n - 1 or rng.random() < 0.6 else "y" for i in range(n)]
    polarity[0] = "x" if rng.random() < 0.9 or n == 1 else polarity[0]
    if polarity[0] == "y":
        polarity = ["x"] + polarity[1:]
    xs = {names[i] for i in range(n) if polarity[i] == "x"}
    ys = set(names) - xs
    transitions = set()
    for i, z in enumerate(names):
        for c in alphabet:
            if not complete and rng.random() < 0.25:
                continue
            # Bias toward self-loops to get long stays in one state.
            j = i if rng.random() < 0.55 else rng.randint(i, n - 1)
            transitions.add((z, c, names[j]))
        # An incomplete machine may leave a Y state without its marker edge.
        if z in ys and (complete or rng.random() >= 0.25):
            targets = [names[j] for j in range(i + 1, n) if names[j] in xs]
            transitions.add((z, LEND, rng.choice(targets)))
    final = {z for z in names if rng.random() < final_bias}
    return Po2Automaton(alphabet, xs, ys, transitions, {names[0]}, final)


def with_y_start(rng: random.Random, a: Po2Automaton) -> Po2Automaton:
    """A deterministic machine with a new Y initial state ``y0`` in front:
    it mostly self-loops, so the head bounces off the marker into the old
    initial state, which must be an X state."""
    (z0,) = a.initial
    transitions = set(a.transitions)
    for c in sorted(a.alphabet):
        if rng.random() < 0.7:
            transitions.add(("y0", c, "y0"))
        elif rng.random() < 0.8:
            transitions.add(("y0", c, rng.choice(sorted(a.states))))
    transitions.add(("y0", LEND, z0))
    return Po2Automaton(
        a.alphabet, a.x_states, a.y_states | {"y0"}, transitions, {"y0"}, a.final
    )


def one_letter_chain(n: int) -> Po2Automaton:
    """X states z0 -a-> z1 -a-> ... -a-> z{n-1}; the last one is final and
    loops on a, so the language is a^w and the chain length is n."""
    names = [f"z{i}" for i in range(n)]
    transitions = {(names[i], "a", names[i + 1]) for i in range(n - 1)}
    transitions.add((names[-1], "a", names[-1]))
    return Po2Automaton("a", names, set(), transitions, {names[0]}, {names[-1]})


def random_raw_automaton(rng: random.Random, alphabet: str = "ab", max_states: int = 5) -> Po2Automaton:
    """Any machine the constructor accepts: edges in every direction (so
    cycles are common), marker edges between any two states, missing and
    nondeterministic transitions, and one or two initial states."""
    n = rng.randint(1, max_states)
    names = [f"s{i}" for i in range(n)]
    xs = {z for z in names if rng.random() < 0.6}
    transitions = set()
    for i, z in enumerate(names):
        for c in alphabet + LEND:
            if c == LEND and z in xs and rng.random() < 0.9:
                continue
            for _ in range(rng.choice((0, 1, 1, 1, 1, 2))):
                # Mostly forward, so that most machines are acyclic.
                pool = names[i:] if rng.random() < 0.8 else names
                transitions.add((z, c, rng.choice(pool)))
    initial = set(rng.sample(names, rng.choice((1, 1, 1, 2)) if n > 1 else 1))
    final = {z for z in names if rng.random() < 0.4}
    return Po2Automaton(alphabet, xs, set(names) - xs, transitions, initial, final)


def reference_successors(a: Po2Automaton) -> dict[tuple[str, str], set[str]]:
    """``(state, letter) -> successors``, straight from ``a.transitions``;
    a key is present only when it has at least one successor."""
    table: dict[tuple[str, str], set[str]] = {}
    for src, c, dst in a.transitions:
        table.setdefault((src, c), set()).add(dst)
    return table


def reference_report(a: Po2Automaton) -> ValidationReport:
    """The validation report as the first, sort-everything implementation
    computed it: the oracle for ``Po2Automaton.validate``.  Its cycle line
    names whatever cycle ``graphlib`` found first."""
    violations: list[str] = []
    for src, c, dst in sorted(a.transitions):
        if c == LEND:
            if src not in a.y_states:
                violations.append(f"po2: marker edge leaves non-Y state {src!r}")
            if dst not in a.x_states:
                violations.append(f"po2: marker edge enters non-X state {dst!r}")
    try:
        list(
            TopologicalSorter(
                {z: set(a._change_edges[z]) for z in a.states}
            ).static_order()
        )
        acyclic = True
    except CycleError as err:
        acyclic = False
        violations.append(f"po2: state-changing transitions form a cycle: {err.args[1]}")
    well_formed = acyclic and not any(v.startswith("po2:") for v in violations)

    successors = reference_successors(a)
    deterministic = True
    if len(a.initial) != 1:
        deterministic = False
        violations.append(
            f"determinism: need exactly one initial state, have {len(a.initial)}"
        )
    for (src, c), dsts in sorted(successors.items()):
        if len(dsts) > 1:
            deterministic = False
            violations.append(
                f"determinism: ({src!r}, {c!r}) has {len(dsts)} successors"
            )

    complete = True
    for z in sorted(a.states):
        for c in sorted(a.alphabet):
            if (z, c) not in successors:
                complete = False
                violations.append(f"completeness: no ({z!r}, {c!r}) transition")
        if z in a.y_states and (z, LEND) not in successors:
            complete = False
            violations.append(f"completeness: Y state {z!r} has no marker edge")

    return ValidationReport(well_formed, deterministic, complete, tuple(violations))


def reference_chain_lengths(a: Po2Automaton) -> tuple[int, int]:
    """``chain_lengths`` over a ``graphlib`` order; CycleError on a cycle."""
    total: dict[str, int] = {}
    xonly: dict[str, int] = {}
    graph = {z: set(a._change_edges[z]) for z in a.states}
    for z in TopologicalSorter(graph).static_order():
        total[z] = 1 + max((total[s] for s in graph[z]), default=0)
        xonly[z] = (z in a.x_states) + max((xonly[s] for s in graph[z]), default=0)
    return max(total.values(), default=0), max(xonly.values(), default=0)


def reference_bisimulation(a: Po2Automaton) -> set[frozenset[str]]:
    """The classes of the largest bisimulation on a deterministic machine,
    as a greatest fixed point over state pairs, with no partition
    refinement: start from every pair of states that agree on polarity and
    finality, then drop pairs until no letter, the tape start included,
    moves exactly one state of a kept pair or moves both to a dropped pair."""
    successors = reference_successors(a)
    states = sorted(a.states)
    letters = sorted(a.alphabet) + [LEND]

    def moves(z: str, c: str) -> str | None:
        (d,) = successors.get((z, c), {None})
        return d

    kept = {
        (p, q)
        for p in states
        for q in states
        if (p in a.y_states) == (q in a.y_states) and (p in a.final) == (q in a.final)
    }
    dropped = True
    while dropped:
        dropped = False
        for p, q in sorted(kept):
            for c in letters:
                dp, dq = moves(p, c), moves(q, c)
                if (dp is None) != (dq is None) or (dp is not None and (dp, dq) not in kept):
                    kept.discard((p, q))
                    dropped = True
                    break
    return {frozenset(q for q in states if (p, q) in kept) for p in states}


def reference_tracker_table(a: Po2Automaton, v: str) -> dict[tuple[str, int, str], tuple[str, int]]:
    """The tracker table as the first, whole-table implementation built it:
    the oracle for ``compat.tracker_step``."""
    _check_tracker_args(a, v)
    m = len(v)
    table: dict[tuple[str, int, str], tuple[str, int]] = {}
    for z in a.states:
        for k in range(1, m + 1):
            for c in a.alphabet:
                nxt = a.det_successor(z, c)
                if nxt is None:
                    continue
                if z in a.y_states and k > 1 and c == v[k - 2]:
                    left = k - 1
                else:
                    left = k
                if nxt in a.y_states:
                    table[z, k, c] = (nxt, left)
                elif c == v[left - 1]:
                    if left < m:
                        table[z, k, c] = (nxt, left + 1)
                    # left == m: crossing back over the factored position
                else:
                    table[z, k, c] = (nxt, left)
            if z in a.y_states:
                nxt = a.det_successor(z, LEND)
                if nxt is not None:
                    table[z, k, LEND] = (nxt, k)
    return table


def random_nondet_automaton(
    rng: random.Random,
    alphabet: str = "ab",
    max_states: int = 5,
) -> Po2Automaton:
    """A (possibly) nondeterministic, possibly incomplete machine."""
    base = random_det_automaton(rng, alphabet, max_states, complete=rng.random() < 0.5)
    names = sorted(base.states)
    transitions = set(base.transitions)
    order = {z: i for i, z in enumerate(names)}
    for _ in range(rng.randint(0, 4)):
        src = rng.choice(names)
        c = rng.choice(alphabet)
        dst = rng.choice([z for z in names if order[z] >= order[src]])
        transitions.add((src, c, dst))
    initial = set(base.initial)
    extra_inits = [z for z in base.x_states if rng.random() < 0.2]
    initial.update(extra_inits)
    return Po2Automaton(
        base.alphabet, base.x_states, base.y_states, transitions, initial, base.final
    )


def random_lasso(rng: random.Random, alphabet: str, max_spoke: int = 5, max_period: int = 4):
    spoke = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_spoke)))
    period = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_period)))
    return LassoWord(spoke, period)


def random_monomial(rng: random.Random, alphabet: str = "abc", max_degree: int = 3):
    """Arbitrary monomial; may be unrestricted or have an empty tail."""
    from po2buchi.monomials import Monomial

    k = rng.randint(0, max_degree)
    markers = [rng.choice(alphabet) for _ in range(k)]
    segments = [{c for c in alphabet if rng.random() < 0.5} for _ in range(k)]
    tail = {c for c in alphabet if rng.random() < 0.5}
    if not tail and (k == 0 or rng.random() < 0.7):
        tail = {rng.choice(alphabet)}
    return Monomial(segments, markers, tail)


def random_restricted_monomial(rng: random.Random, alphabet: str = "abc", max_degree: int = 3):
    """Restricted by construction: no segment contains the final marker."""
    from po2buchi.monomials import Monomial

    while True:
        k = rng.randint(1, max_degree)
        markers = [rng.choice(alphabet) for _ in range(k)]
        pool = [c for c in alphabet if c != markers[-1]]
        segments = [{c for c in pool if rng.random() < 0.5} for _ in range(k)]
        tail = {c for c in alphabet if rng.random() < 0.6} or {rng.choice(alphabet)}
        m = Monomial(segments, markers, tail)
        if m.is_restricted():
            return m

def evaluate_formula(f, bits: dict[int, bool]) -> bool:
    """Truth-table oracle, independent of the automaton construction."""
    from po2buchi.satred import And, Not, Or, Var

    if isinstance(f, Var):
        return bits[f.index]
    if isinstance(f, Not):
        return not evaluate_formula(f.child, bits)
    if isinstance(f, And):
        return evaluate_formula(f.left, bits) and evaluate_formula(f.right, bits)
    if isinstance(f, Or):
        return evaluate_formula(f.left, bits) or evaluate_formula(f.right, bits)
    raise TypeError(f"not a formula: {f!r}")


def random_formula(rng: random.Random, max_leaves: int = 4, max_var: int = 6, negate: float = 0.3):
    """Random formula tree; repeated low variables make contradictions likely."""
    from po2buchi.satred import And, Not, Or, Var

    nodes = [Var(rng.randint(1, max_var)) for _ in range(rng.randint(1, max_leaves))]
    nodes = [Not(n) if rng.random() < negate else n for n in nodes]
    while len(nodes) > 1:
        rng.shuffle(nodes)
        right, left = nodes.pop(), nodes.pop()
        node = And(left, right) if rng.random() < 0.6 else Or(left, right)
        if rng.random() < negate / 2:
            node = Not(node)
        nodes.append(node)
    return nodes[0]


def formula_reader_cost(f) -> int:
    """Sum of (index + 1) over variable leaves: the machine's chain budget."""
    from po2buchi.satred import Not, Var

    if isinstance(f, Var):
        return f.index + 1
    if isinstance(f, Not):
        return formula_reader_cost(f.child)
    return formula_reader_cost(f.left) + formula_reader_cost(f.right)

def sample_from_monomial(rng: random.Random, m):
    """A random lasso inside the monomial's language (tail must be nonempty)."""

    parts = []
    for seg, mark in zip(m.segments, m.markers):
        pool = sorted(seg)
        if pool:
            parts.append("".join(rng.choice(pool) for _ in range(rng.randint(0, 3))))
        parts.append(mark)
    tail = sorted(m.tail)
    parts.append("".join(rng.choice(tail) for _ in range(rng.randint(0, 2))))
    period = "".join(rng.choice(tail) for _ in range(rng.randint(1, 3)))
    return LassoWord("".join(parts), period)


def reference_sat_automaton(f) -> Po2Automaton:
    """``build_sat_automaton`` as first written: one recursive reader per
    node, reporting to placeholder states that ``Not`` swaps by rewriting
    the child's transitions and ``And``/``Or`` rewire into the right
    reader's entry.  The oracle for the one-pass builder."""
    from itertools import count

    from po2buchi.satred import And, Not, Or, Var

    fresh = count(1)
    xs: set[str] = set()
    ys: set[str] = set()

    def reader(g):
        """Entry state and transitions, reporting to "@true"/"@false"."""
        if isinstance(g, Var):
            n = next(fresh)
            walk = [f"r{n}.at{j}" for j in range(1, g.index + 1)]
            saw0, saw1 = f"r{n}.saw0", f"r{n}.saw1"
            xs.update(walk)
            ys.update({saw0, saw1})
            trans: set[tuple[str, str, str]] = set()
            for here, there in zip(walk, walk[1:]):
                trans.update((here, c, there) for c in "01")
            trans.add((walk[-1], "0", saw0))
            trans.add((walk[-1], "1", saw1))
            for c in "01":
                trans.add((saw0, c, saw0))
                trans.add((saw1, c, saw1))
            trans.add((saw1, LEND, "@true"))
            trans.add((saw0, LEND, "@false"))
            return walk[0], trans
        if isinstance(g, Not):
            entry, trans = reader(g.child)
            flip = {"@true": "@false", "@false": "@true"}
            return entry, {(s, c, flip.get(d, d)) for s, c, d in trans}
        if isinstance(g, (And, Or)):
            entry, trans = reader(g.left)
            entry_right, trans_right = reader(g.right)
            forwarded = "@true" if isinstance(g, And) else "@false"
            rewired = {
                (s, c, entry_right if d == forwarded else d) for s, c, d in trans
            }
            return entry, rewired | trans_right
        raise TypeError(f"not a formula: {g!r}")

    entry, trans = reader(f)
    bind = {"@true": "true", "@false": "false"}
    transitions = {(s, c, bind.get(d, d)) for s, c, d in trans}
    xs.update(("true", "false"))
    transitions.update(("true", c, "true") for c in "01")
    transitions.update(("false", c, "false") for c in "01")
    return Po2Automaton("01", xs, ys, transitions, {entry}, {"true"})


def reference_product(a: Po2Automaton, b: Po2Automaton, accept) -> Po2Automaton:
    """The Boolean product as first written, with separate lockstep and
    diving step rules over two key shapes and its own left-end block: the
    oracle for ``boolean._product``.  ``accept(x1, x2)`` decides a lockstep
    state from the operands' states."""
    require(a, deterministic=True, complete=True)
    require(b, deterministic=True, complete=True)
    if a.alphabet != b.alphabet:
        raise ValueError("product operands need the same alphabet")
    a = ensure_x_initial(a)
    b = ensure_x_initial(b)
    ops = {1: a, 2: b}
    cap = chain_lengths(a)[1] + chain_lengths(b)[1] - 2
    letters = sorted(a.alphabet)
    delta1 = a._tables[0]
    delta2 = b._tables[0]

    def route(pre1, pre2, post1, post2, sig):
        if post1 in a.y_states:
            return ("a", 1, post1, pre2, sig, len(sig))
        if post2 in b.y_states:
            return ("a", 2, pre1, post2, sig, len(sig))
        return ("s", post1, post2, sig)

    def sync_step(key, c):
        _, x1, x2, sig = key
        z1 = delta1[x1, c]
        z2 = delta2[x2, c]
        if z1 != x1 or z2 != x2:
            sig = sig + c
            if len(sig) > cap:
                raise RuntimeError("internal: stack outgrew the chain-length bound")
        return route(x1, x2, z1, z2, sig)

    def async_step(key, c):
        _, active, s1, s2, sig, k = key
        live = s1 if active == 1 else s2
        hit = tracker_step(ops[active], sig, live, k, c)
        if hit is not None:
            z, k2 = hit
            return ("a", active, z, s2, sig, k2) if active == 1 else ("a", active, s1, z, sig, k2)
        post1 = delta1[s1, c]
        post2 = delta2[s2, c]
        if not ops[active].is_x(post1 if active == 1 else post2):
            raise RuntimeError("internal: the diver is not in an X state after the crossing")
        return route(s1, s2, post1, post2, sig)

    def is_x_key(key):
        if key[0] == "s":
            return True
        _, active, s1, s2, _, _ = key
        return ops[active].is_x(s1 if active == 1 else s2)

    def name_of(key):
        if key[0] == "s":
            return f"s|{key[1]}|{key[2]}|{key[3]}"
        return f"a{key[1]}|{key[2]}|{key[3]}|{key[4]}|{key[5]}"

    (i1,) = a.initial
    (i2,) = b.initial
    start = ("s", i1, i2, "")
    names = {start: name_of(start)}
    queue = [start]
    transitions = set()
    while queue:
        key = queue.pop()
        if key[0] == "a" and not 1 <= key[5] <= len(key[4]):
            raise RuntimeError("internal: tracker index left the stack word")
        src = names[key]
        step = sync_step if key[0] == "s" else async_step
        for c in letters:
            nxt = step(key, c)
            if nxt not in names:
                names[nxt] = name_of(nxt)
                queue.append(nxt)
            transitions.add((src, c, names[nxt]))
        if not is_x_key(key):
            _, active, s1, s2, sig, k = key
            live = s1 if active == 1 else s2
            z, k2 = tracker_step(ops[active], sig, live, k, LEND)
            nxt = ("a", active, z, s2, sig, k2) if active == 1 else ("a", active, s1, z, sig, k2)
            if nxt not in names:
                names[nxt] = name_of(nxt)
                queue.append(nxt)
            transitions.add((src, LEND, names[nxt]))

    if len(set(names.values())) != len(names):
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
        {name for k, name in names.items() if is_x_key(k)},
        {name for k, name in names.items() if not is_x_key(k)},
        transitions,
        {names[start]},
        {name for k, name in names.items() if k[0] == "s" and accept(k[1], k[2])},
    )


def _position_constraint(m: Monomial, vec: tuple[int, ...], i: int) -> frozenset[str]:
    """Letters allowed at position i when markers sit at the given positions."""
    for t, p in enumerate(vec):
        if i == p:
            return frozenset((m.markers[t],))
        if i < p:
            return m.segments[t]
    return m.tail


def reference_is_unambiguous_bounded(m: Monomial, bound: int | None = None) -> LassoWord | None:
    """The ambiguity check as first written: try every pair of marker
    vectors within the bound in lex order and return the first jointly
    satisfiable pair's letters.  The oracle for
    ``monomials.is_unambiguous_bounded``."""
    if bound is None:
        bound = max(m.degree + 5, 2 * m.degree)
    if m.degree == 0 or not m.tail:
        return None
    vectors = list(combinations(range(1, bound + 1), m.degree))
    anchor = min(m.tail)
    for idx, va in enumerate(vectors):
        for vb in vectors[idx + 1 :]:
            horizon = max(va[-1], vb[-1])
            letters = []
            for i in range(1, horizon + 1):
                allowed = _position_constraint(m, va, i) & _position_constraint(m, vb, i)
                if not allowed:
                    break
                letters.append(min(allowed))
            else:
                return LassoWord("".join(letters), anchor)
    return None


def _chain_moves(m: Monomial, t: int, c: str) -> list[int]:
    """Successors of state t of m's chain NFA on letter c: the one-way
    machine that stays in t on segment t, steps to t + 1 on marker t, and
    in its last state k stays on the tail."""
    if t == m.degree:
        return [t] if c in m.tail else []
    return [u for u, fits in ((t, c in m.segments[t]), (t + 1, c == m.markers[t])) if fits]


def monomials_meet(m1: Monomial, m2: Monomial, differently: bool = False) -> bool:
    """Whether some infinite word fits both monomials; with ``differently``,
    by marker placements that differ somewhere, so that
    ``monomials_meet(m, m, differently=True)`` says m is ambiguous.

    Reachability in the product of the two chain NFAs, with a bit for
    whether the placements have differed yet, of both last states, followed
    by a letter of both tails."""
    start = (0, 0, False)
    seen, todo = {start}, [start]
    letters = sorted(m1.letters | m2.letters)
    while todo:
        t1, t2, apart = todo.pop()
        if (t1, t2) == (m1.degree, m2.degree) and (apart or not differently) and m1.tail & m2.tail:
            return True
        for c in letters:
            for u1 in _chain_moves(m1, t1, c):
                for u2 in _chain_moves(m2, t2, c):
                    state = u1, u2, apart or u1 - t1 != u2 - t2
                    if state not in seen:
                        seen.add(state)
                        todo.append(state)
    return False


def reference_cross(a: Po2Automaton, spoke: str, z: str) -> tuple[str, int]:
    """Run a complete deterministic machine from state z with the head on
    the last position of ``spoke`` until it first moves past it, position by
    position.  Returns the state then and a bit mask of the spoke positions
    (bit p for position p) where the state changed.  The oracle for
    ``run.crosser``."""
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


def reference_candidates(alphabet, max_len: int):
    """Every lasso ``spoke(letter)`` with spoke length at most ``max_len``,
    length-lexicographically, letters sorted."""
    letters = sorted(alphabet)
    for n in range(max_len + 1):
        for tup in product(letters, repeat=n):
            spoke = "".join(tup)
            for c in letters:
                yield Witness(spoke, c)


class ReferenceMeter:
    """Counts membership tests; past the budget it raises ``BudgetExceeded``
    with the message the decision procedures use."""

    def __init__(self, budget, what: str):
        self.budget = budget
        self.what = what
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.budget is not None and self.used > self.budget:
            raise BudgetExceeded(
                f"{self.what} needed more than {self.budget} membership tests"
            )


def reference_is_empty(a: Po2Automaton, *, budget=None):
    """``decide.is_empty`` as it was before the pruned search: every
    candidate up to the bound tested in length-lex order."""
    require(a)
    if not a.alphabet:
        return None
    ac = complete(a)
    bound = max(chain_lengths(ac)[0] - 1, 0)
    meter = ReferenceMeter(budget, "emptiness check")
    for cand in reference_candidates(ac.alphabet, bound):
        meter.tick()
        if membership_nondet(ac, cand.word()):
            return cand
    return None


def reference_includes(a: Po2Automaton, b: Po2Automaton, *, budget=None):
    """``decide.includes`` as first written, running the complement of the
    completed second machine and testing every candidate: the oracle for
    the version that runs it as given and for the pruned search."""
    if frozenset(a.alphabet) != frozenset(b.alphabet):
        raise ValueError("inclusion needs a shared alphabet")
    require(a)
    require(b, deterministic=True)
    if not a.alphabet:
        return None
    b_bar = complement(complete(b))
    bound = len(a.states) + len(b.states) + 2
    meter = ReferenceMeter(budget, "inclusion check")
    for cand in reference_candidates(a.alphabet, bound):
        meter.tick()
        w = cand.word()
        if run_det(b_bar, w).verdict == ACCEPTED and membership_nondet(a, w):
            return cand
    return None


def reference_automaton_to_polynomial(a: Po2Automaton) -> list[Monomial]:
    """``monomials.automaton_to_polynomial`` as it was before the crossing
    memo: every skeleton settles its run by walking back to the tape start
    and forward again, narrowing cells and flagging markers as it goes,
    with an undo log for backtracking.  The oracle for the memoized search."""
    require(a, deterministic=True)
    a = ensure_x_initial(complete(a))
    (z0,) = a.initial
    letters = sorted(a.alphabet)
    cap = max(chain_lengths(a)[0] - 1, 0)
    xs = a.x_states
    n = len(a.states)
    delta = a._tables[0]  # complete and deterministic: every key is there
    loops = {z: a.selfloop_letters(z) for z in a.states}
    # Every marker still unvalidated when the run lands in z needs a state
    # change of its own, and those changes all lie on the run's path from z
    # to the final state where an emission happens; so a skeleton with more
    # unvalidated markers than below[z] emits nothing, and neither does any
    # extension of it.
    below = chains_to(a, a.final.__contains__)
    found: set[Monomial] = set()
    # The skeleton on the search path: its markers, each cell's allowed
    # alphabet, and whether each marker saw a state change.  Every write
    # settle() makes to an earlier cell is logged, so backtracking undoes
    # it and the path costs memory linear in its length.
    marks: list[str] = []
    meets: list[frozenset[str]] = []
    flags: list[bool] = []
    log: list[tuple[list, int, object]] = []

    def settle(z: str) -> tuple[str, int]:
        """Run over the fixed cells until the head passes the last marker
        moving right, narrowing each crossed cell's allowed alphabet.
        Returns the state reached and how many markers it validated."""
        frontier = 2 * len(marks) + 1
        loc = frontier if z in xs else frontier - 2
        limit = (n + 2) * (frontier + 3) + 4
        steps = validated = 0
        while loc < frontier:
            steps += 1
            if steps > limit:
                raise RuntimeError("abstract run did not settle")
            if loc == 0:
                z = delta[z, LEND]
                loc = 1
            elif loc % 2:
                t = (loc - 1) // 2
                meet = meets[t] & loops[z]
                if len(meet) < len(meets[t]):
                    log.append((meets, t, meets[t]))
                    meets[t] = meet
                loc += 1 if z in xs else -1
            else:
                t = loc // 2 - 1
                nxt = delta[z, marks[t]]
                if nxt != z and not flags[t]:
                    log.append((flags, t, False))
                    flags[t] = True
                    validated += 1
                z = nxt
                loc += 1 if z in xs else -1
        return z, validated

    def emit(z: str) -> None:
        options = []
        for i, meet in enumerate(meets):
            later = frozenset(marks[i:])
            if later <= meet:
                options.append([meet - {c} for c in sorted(later)])
            else:
                options.append([meet])
        for segs in product(*options):
            mono = Monomial(segs, marks, loops[z])
            if not mono.is_restricted():
                raise RuntimeError(f"emitted monomial is not restricted: {mono}")
            found.add(mono)

    def backtrack(mark: int) -> None:
        while len(log) > mark:
            cells, t, old = log.pop()
            cells[t] = old
        del marks[-1], meets[-1], flags[-1]

    if z0 in a.final:
        emit(z0)
    # One frame per skeleton on the path: its state, the number of
    # unvalidated markers, the next letter to try and the log length at entry.
    frames = [[z0, 0, 0, 0]]
    while frames:
        frame = frames[-1]
        z, pending, i, mark = frame
        if i == len(letters) or len(marks) >= cap:
            frames.pop()
            if frames:
                backtrack(mark)
            continue
        frame[2] = i + 1
        c = letters[i]
        nxt = delta[z, c]
        entry = len(log)
        marks.append(c)
        meets.append(loops[z])
        flags.append(nxt != z)
        landed, validated = settle(nxt)
        pending += (nxt == z) - validated
        if pending <= below[landed]:
            if pending == 0 and landed in a.final:
                emit(landed)
            frames.append([landed, pending, 0, entry])
        else:
            backtrack(entry)
    return sorted(found, key=str)
