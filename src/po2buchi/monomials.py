"""Monomial expressions ``A1*a1 ... Ak*ak B^w`` and their automaton forms.

A monomial of degree k denotes the set of infinite words that factor as
``u1 a1 u2 a2 ... uk ak beta`` with ``alph(ui) <= Ai`` and ``alph(beta) <= B``.
This module evaluates membership for lasso words, checks the structural
side conditions (restrictedness, bounded unambiguity), and converts between
monomials and partially ordered two-way machines in both directions.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import product

from . import _Value
from .boolean import product_union
from .core import (
    LEND,
    Po2Automaton,
    chains_to,
    complete,
    disjoint_union,
    ensure_x_initial,
    fresh_name,
    minimize,
    prune_unreachable,
    reachable,
    relabel,
    require,
)
from .run import crosser, run_det
from .words import LassoWord


class Monomial(_Value):
    """Degree-k chain of (segment alphabet, marker letter) pairs plus a tail."""

    segments: tuple[frozenset[str], ...]
    markers: tuple[str, ...]
    tail: frozenset[str]

    def __init__(
        self,
        segments: tuple[frozenset[str], ...] = (),
        markers: tuple[str, ...] = (),
        tail: frozenset[str] = frozenset(),
    ):
        object.__setattr__(self, "segments", tuple(frozenset(s) for s in segments))
        object.__setattr__(self, "markers", tuple(markers))
        object.__setattr__(self, "tail", frozenset(tail))
        if len(self.segments) != len(self.markers):
            raise ValueError("need exactly one marker per segment")
        for c in self.letters:
            if not (isinstance(c, str) and len(c) == 1):
                raise ValueError(f"letters must be single characters, got {c!r}")
            if c == LEND:
                raise ValueError("the tape-end marker cannot be a monomial letter")

    @property
    def degree(self) -> int:
        return len(self.markers)

    @property
    def letters(self) -> frozenset[str]:
        """Every letter mentioned anywhere, tail included."""
        return frozenset().union(self.tail, self.markers, *self.segments)

    def is_restricted(self) -> bool:
        """No suffix of the marker word fits inside its leading segment."""
        return all(
            not set(self.markers[i:]) <= self.segments[i] for i in range(self.degree)
        )

    def __str__(self) -> str:
        parts = [
            f"[{''.join(sorted(seg))}]*{mark}."
            for seg, mark in zip(self.segments, self.markers)
        ]
        return "".join(parts) + f"[{''.join(sorted(self.tail))}]w"


_MONO_RE = re.compile(
    r"^(?P<body>(?:\[[^][]*\]\*[^][\s.]\.)*)\[(?P<tail>[^][]*)\]w$"
)
_PAIR_RE = re.compile(r"\[([^][]*)\]\*([^][\s.])\.")


def parse_monomial(text: str) -> Monomial:
    """Parse the literal syntax, e.g. ``[ab]*a.[]*c.[c]w``."""
    m = _MONO_RE.match(text)
    if m is None:
        raise ValueError(f"not a monomial literal: {text!r}")
    segments = []
    markers = []
    for seg, mark in _PAIR_RE.findall(m.group("body")):
        segments.append(frozenset(seg))
        markers.append(mark)
    return Monomial(tuple(segments), tuple(markers), frozenset(m.group("tail")))


def monomial_member(m: Monomial, w: LassoWord) -> bool:
    """Does the lasso word match the monomial?

    Marker placements are searched inside a prefix window of length
    ``|spoke| + (degree + 1) * |period|``: any placement further out can be
    shifted left by whole periods without changing letters or gap alphabets.
    """
    if not m.tail:
        return False
    k = m.degree
    window = len(w.spoke) + (k + 1) * len(w.period)
    text = w.prefix(window)
    reach = {0}
    for seg, mark in zip(m.segments, m.markers):
        nxt: set[int] = set()
        for start in reach:
            for i in range(start, window):
                c = text[i]
                if c == mark:
                    nxt.add(i + 1)
                if c not in seg:
                    break
        reach = nxt
        if not reach:
            return False
    period_ok = set(w.period) <= m.tail
    return any(period_ok and set(text[s:]) <= m.tail for s in reach)


def is_unambiguous_bounded(m: Monomial, bound: int | None = None) -> LassoWord | None:
    """Search for a word admitting two distinct factorizations.

    Returns a witness lasso if two different marker placements within the
    first ``bound`` positions (default ``max(degree + 5, 2 * degree)``) are
    jointly satisfiable, and None otherwise.  From ``2 * degree`` on, None
    means the monomial is unambiguous: see the sweep below.

    The witness is the first one a scan of all pairs of placements in lex
    order would meet: the lex-least pair, and at each position up to the
    later last marker the least letter both allow.  One forward sweep over
    positions ``1..bound`` finds it.  A sweep state ``(ta, tb, split)``
    counts the markers each placement has put down and says whether the
    two differ yet, and a position takes a move of both when their letters
    there intersect.  Each state keeps only the lex-least pair of
    placements that reaches it: pairs reaching the same state have the
    same continuations, so the least stays least.  Cost
    ``O(bound * (degree + 1)**2)`` states, where the scan tried up to
    ``C(bound, degree)**2 / 2`` pairs.

    Why ``2 * degree`` positions decide: a move ``(0, 0)`` leaves the sweep
    state as it is, and every other move raises ``ta + tb``.  So a shortest
    path to ``(k, k, True)`` has at most ``2k`` moves, and on the nonempty
    tail that state keeps itself, so every longer sweep reaches it too.
    """
    if bound is None:
        bound = max(m.degree + 5, 2 * m.degree)
    k = m.degree
    if k == 0 or not m.tail or bound < k:
        return None
    # allows[t][d]: the letters a placement that has put down t markers
    # allows at a position where it puts down d more (no marker past k).
    allows = [
        (m.segments[t] if t < k else m.tail, frozenset(m.markers[t : t + 1]))
        for t in range(k + 1)
    ]
    # fits[ta][tb][da, db]: the letters both placements allow, kept where
    # there are some.
    fits = [[{} for _ in range(k + 1)] for _ in range(k + 1)]
    for ta, tb, da, db in product(range(k + 1), range(k + 1), (1, 0), (1, 0)):
        both = allows[ta][da] & allows[tb][db]
        if both:
            fits[ta][tb][da, db] = both

    # least[state]: the lex-least pair (pa, pb) reaching the state, each
    # placement spelled with one bit per position, 0 where it puts down a
    # marker, so that comparing integers compares placements in lex order;
    # and the witness letters so far.
    least = {(0, 0, False): (0, 0, "")}
    for _ in range(bound):
        step = {}
        for (ta, tb, split), (pa, pb, word) in least.items():
            for (da, db), both in fits[ta][tb].items():
                state = ta + da, tb + db, split or da != db
                pair = (
                    2 * pa + 1 - da,
                    2 * pb + 1 - db,
                    word if ta == tb == k else word + min(both),
                )
                if state not in step or pair < step[state]:
                    step[state] = pair
        least = step
    if (k, k, True) not in least:
        return None
    return LassoWord(least[k, k, True][2], min(m.tail))


def _ambient(m: Monomial, alphabet=None) -> frozenset[str]:
    alphabet = m.letters if alphabet is None else frozenset(alphabet)
    if not m.letters <= alphabet:
        raise ValueError("monomial uses letters outside the alphabet")
    return alphabet


def monomial_to_automaton(m: Monomial, alphabet=None) -> Po2Automaton:
    """One-way nondeterministic chain recognizing the monomial.

    State ``q{t}`` self-loops on segment t+1 and steps to ``q{t+1}`` on its
    marker; the last state loops on the tail and is the only final state.
    """
    alphabet = _ambient(m, alphabet)
    transitions: set[tuple[str, str, str]] = set()
    for t, (seg, mark) in enumerate(zip(m.segments, m.markers)):
        transitions.update((f"q{t}", c, f"q{t}") for c in seg)
        transitions.add((f"q{t}", mark, f"q{t + 1}"))
    k = m.degree
    transitions.update((f"q{k}", c, f"q{k}") for c in m.tail)
    states = {f"q{t}" for t in range(k + 1)}
    return Po2Automaton(alphabet, states, set(), transitions, {"q0"}, {f"q{k}"})


def polynomial_to_automaton(monomials, alphabet=None) -> Po2Automaton:
    """Nondeterministic union of the monomials' chain automata."""
    monomials = list(monomials)
    if alphabet is None:
        alphabet = frozenset().union(*(m.letters for m in monomials)) if monomials else frozenset()
    alphabet = frozenset(alphabet)
    if not monomials:
        return Po2Automaton(alphabet, set(), set(), set(), set(), set())
    parts = [monomial_to_automaton(m, alphabet) for m in monomials]
    return parts[0] if len(parts) == 1 else disjoint_union(parts)


# --- relativization -------------------------------------------------------


def relativize(
    b: Po2Automaton, marker: str, *, forbid: frozenset[str] = frozenset()
) -> Po2Automaton:
    """Make a deterministic machine run on the suffix after the first marker.

    Started just past the first marker of ``u marker beta``, with
    marker-free ``u`` and no letter of ``forbid`` anywhere, the result
    accepts exactly when b accepts ``beta``.
    X states keep b's moves, and so does a Y state z until it reads a
    marker: until then it is inside the suffix.  Past a marker, z cannot
    tell whether it has left the suffix, so each Y state gets at most six
    gadget states and the result at most ``|b| + 6 |Y(b)| + 1`` states:

    - ``read``, a copy of z, carries on past a marker z loops on, unless z
      loops on every letter that can occur and so moves as ``read`` would;
    - ``chk`` scans left for a marker where z reads a marker it does not
      loop on, or ``read`` meets a letter z does not loop on;
    - if ``chk`` finds a marker, the position is inside the suffix:
      ``ret`` walks right to the next marker, the last one z read, and
      takes z's move there, or hands over to ``fin``, a copy of z without
      its marker loop, which walks back to the deferred position and takes
      z's move there;
    - if ``chk`` reaches the tape start instead, the position is left of
      the suffix: ``skip`` runs to the first marker and takes b's bounce,
      and z goes to ``skip`` too if it reaches the tape start itself;
    - ``drop`` stands in for ``chk`` where z has no move or its move leads
      to a state that cannot reach a final state: on a marker it enters
      the shared sink ``veto``, which rejects, and at the tape start it
      goes to ``skip``.

    Letters in ``forbid`` label no gadget edge, so the caller can embed the
    result into a region that cannot contain them.
    """
    require(b, deterministic=True)
    if marker not in b.alphabet:
        raise ValueError(f"marker {marker!r} is not in the alphabet")
    if marker in forbid:
        raise ValueError("marker cannot be a forbidden letter")
    delta = b._tables[0]  # deterministic: every transition is in it
    # the states that can reach a final state
    alive = {z for z, n in chains_to(b, b.final.__contains__).items() if n >= 0}

    xs = set(b.x_states)
    ys = set(b.y_states)
    taken = xs | ys  # gadget names must dodge states a nested pass made
    transitions = {
        t for t in b.transitions if t[0] in b.x_states or t[1] not in (marker, LEND)
    }
    usable = b.alphabet - forbid
    scan = usable - {marker}

    def gadget(base: str, group: set[str]) -> str:
        name = fresh_name(base, taken)
        taken.add(name)
        group.add(name)
        return name

    def scanner(z: str, role: str, found: str, skip: str | None) -> str:
        """A Y state that scans left for a marker and enters ``found`` there."""
        s = gadget(f"{z}.{role}", ys)
        transitions.update((s, c, s) for c in scan)
        transitions.add((s, marker, found))
        if skip is not None:
            transitions.add((s, LEND, skip))
        return s

    veto: str | None = None
    for z in sorted(b.y_states):
        loops = b.selfloop_letters(z)
        # the letters on which a move of z waits for the marker check
        deferred = usable - loops if marker in loops else {marker}
        live = {c for c in deferred if delta.get((z, c)) in alive}
        doomed = deferred - live
        bounce = delta.get((z, LEND))
        skip = None
        if bounce is not None:
            skip = gadget(f"{z}.skip", xs)
            transitions.update((skip, c, skip) for c in scan)
            transitions.add((skip, marker, bounce))
            transitions.add((z, LEND, skip))
        route: dict[str, str] = {}
        if doomed:
            if veto is None:
                veto = gadget("veto", xs)
                transitions.update((veto, c, veto) for c in usable)
            route = dict.fromkeys(doomed, scanner(z, "drop", veto, skip))
        if live:
            if marker in loops:
                back = gadget(f"{z}.fin", ys)
                transitions.update((back, c, back) for c in loops & scan)
                transitions.update((back, c, delta[z, c]) for c in live)
            else:
                back = delta[z, marker]
            ret = gadget(f"{z}.ret", xs)
            transitions.update((ret, c, ret) for c in scan)
            transitions.add((ret, marker, back))
            route.update(dict.fromkeys(live, scanner(z, "chk", ret, skip)))
        if marker not in loops:
            transitions.add((z, marker, route[marker]))
        elif deferred:
            read = gadget(f"{z}.read", ys)
            transitions.update((read, c, read) for c in loops & usable)
            transitions.update((read, c, route[c]) for c in deferred)
            if skip is not None:
                transitions.add((read, LEND, skip))
            transitions.add((z, marker, read))
        else:  # z moves as read would
            transitions.add((z, marker, z))

    result = Po2Automaton(b.alphabet, xs, ys, transitions, b.initial, b.final)
    return prune_unreachable(result)


# --- finite-word segment acceptors ----------------------------------------


def _graft(
    acc: Po2Automaton,
    prefix: str,
    on_accept: str,
    on_reject: str,
    xs: set[str],
    ys: set[str],
    transitions: set[tuple[str, str, str]],
) -> str:
    """Embed an acceptor under a name prefix, rewiring the entries into its
    outcome states ``yes`` and ``no``.

    Returns the renamed initial state.
    """
    m = relabel(acc, lambda s: prefix + s)
    hit, miss = prefix + "yes", prefix + "no"
    for s, c, d in m.transitions:
        if d == hit:
            d = on_accept
        elif d == miss:
            d = on_reject
        transitions.add((s, c, d))
    xs.update(m.x_states - {hit, miss})
    ys.update(m.y_states)
    (init,) = m.initial
    return init


def _first_occurrence_cases(segments, markers, b: str) -> list[tuple]:
    """Where the first ``b`` of a word in ``A1* a1 A2* a2 ...`` can sit.

    At the first marker equal to ``b``, if there is one, then inside each
    segment ``j >= 1`` before it that allows ``b``; ``b`` must not be in the
    first segment.  A case is the part before that ``b``, with ``b`` taken
    out of its segments, and the part from the next marker, or from segment
    ``j``, on: ``(segments, markers, rest segments, rest markers)``.
    """

    def split(j: int, rest: int) -> tuple:
        prefix = tuple(s - {b} for s in segments[: j + 1])
        return prefix, markers[:j], segments[rest:], markers[rest:]

    cases = []
    stop = len(segments)
    if b in markers:
        t = markers.index(b)
        cases.append(split(t, t + 1))
        stop = t + 1
    cases += [split(j, j) for j in range(1, stop) if b in segments[j]]
    return cases


def finite_monomial_acceptor(
    segments,
    markers,
    end: str,
    alphabet,
    *,
    forbid: frozenset[str] = frozenset(),
) -> Po2Automaton:
    """Deterministic two-way acceptor for ``A1*a1 ... A_{j-1}* a_{j-1} Aj*``
    on the segment delimited by the tape start and the first ``end`` letter.

    The decision is delivered at two outcome states, ``yes`` and ``no``,
    without outgoing transitions; each is entered exactly by reading the
    end letter while moving right, so the head ends just past the
    delimiter.

    The monomial must avoid the end letter.  Letters in ``forbid`` are never
    placed on internal edges, so the result can be embedded into regions
    where they cannot occur.  Raises ValueError when neither the first nor
    the last segment misses a monomial letter, which only happens for
    ambiguous monomials.
    """
    segments = tuple(frozenset(s) for s in segments)
    markers = tuple(markers)
    if len(segments) != len(markers) + 1:
        raise ValueError("a finite monomial needs one more segment than markers")
    alphabet = frozenset(alphabet)
    letters = frozenset().union(set(markers), *segments)
    if end in letters:
        raise ValueError("the end letter must not occur in the monomial")
    if letters & forbid or end in forbid:
        raise ValueError("forbidden letters cannot occur in the monomial")
    if not letters <= alphabet or end not in alphabet:
        raise ValueError("monomial letters and end letter must be in the alphabet")

    usable = alphabet - forbid

    if len(segments) == 1:
        seg = segments[0]
        xs = {"go", "fail", "yes", "no"}
        transitions = {("go", c, "go") for c in seg}
        transitions.add(("go", end, "yes"))
        transitions.update(("go", c, "fail") for c in usable - seg - {end})
        transitions.update(("fail", c, "fail") for c in usable - {end})
        transitions.add(("fail", end, "no"))
        return Po2Automaton(alphabet, xs, set(), transitions, {"go"}, set())

    split = sorted(letters - segments[0])
    if not split:
        mirror_split = sorted(letters - segments[-1])
        if not mirror_split:
            raise ValueError(
                "ambiguous finite monomial: every letter loops at both ends"
            )
        return _mirror_acceptor(segments, markers, end, alphabet, forbid)

    b = split[0]
    xs: set[str] = {"d0", "nofit", "yes", "no"}
    ys: set[str] = {"r0", "rb"}
    transitions: set[tuple[str, str, str]] = set()

    transitions.update(("d0", c, "d0") for c in usable - {b, end})
    transitions.add(("d0", b, "rb"))
    transitions.add(("d0", end, "r0"))
    transitions.update(("rb", c, "rb") for c in usable - {end})
    transitions.update(("r0", c, "r0") for c in usable - {end})
    transitions.update(("nofit", c, "nofit") for c in usable - {end})
    transitions.add(("nofit", end, "no"))

    if b in markers:
        no_b_entry = "nofit"
    else:
        thinned = finite_monomial_acceptor(
            tuple(s - {b} for s in segments), markers, end, alphabet, forbid=forbid
        )
        no_b_entry = _graft(thinned, "nb.", "yes", "no", xs, ys, transitions)
    transitions.add(("r0", LEND, no_b_entry))

    cases = _first_occurrence_cases(segments, markers, b)
    if not cases:
        raise RuntimeError("split letter admits no first-occurrence case")

    fallback = "nofit"
    for i, (p_segs, p_marks, q_segs, q_marks) in reversed(list(enumerate(cases))):
        wind = f"c{i}.wind"
        ys.add(wind)
        transitions.update((wind, c, wind) for c in usable - {end})
        transitions.add((wind, LEND, fallback))
        q_acc = finite_monomial_acceptor(
            q_segs, q_marks, end, alphabet, forbid=forbid
        )
        q_rel = relativize(q_acc, b, forbid=forbid | {end})
        q_init = _graft(q_rel, f"c{i}q.", "yes", wind, xs, ys, transitions)
        p_acc = finite_monomial_acceptor(
            p_segs, p_marks, b, alphabet, forbid=forbid | {end}
        )
        fallback = _graft(p_acc, f"c{i}p.", q_init, wind, xs, ys, transitions)

    transitions.add(("rb", LEND, fallback))
    return Po2Automaton(alphabet, xs, ys, transitions, {"d0"}, set())


def _mirror_acceptor(segments, markers, end, alphabet, forbid) -> Po2Automaton:
    """Decide the segment right to left when only its far end has a split
    letter: run the acceptor of the reversed monomial with polarities
    flipped, entering at the delimiter and bouncing off the tape start."""
    m = finite_monomial_acceptor(
        segments[::-1], markers[::-1], end, alphabet, forbid=forbid
    )
    drop = {"yes", "no"}
    if {"w0", "pa", "pr"} & m.states:
        raise RuntimeError("mirror wrapper names collide")
    xs = set(m.y_states) | {"w0", "pa", "pr", "yes", "no"}
    ys = set(m.x_states) - drop
    transitions: set[tuple[str, str, str]] = set()
    for s, c, d in m.transitions:
        if c == LEND:
            if d in drop:
                raise RuntimeError("tape-start edge into an outcome state")
            transitions.add((s, end, d))
        elif c == end:
            if d == "yes":
                transitions.add((s, LEND, "pa"))
            elif d == "no":
                transitions.add((s, LEND, "pr"))
            else:
                if d not in m.y_states:
                    raise RuntimeError("unexpected end edge in mirrored acceptor")
                transitions.add((s, LEND, d))
        else:
            transitions.add((s, c, d))
    usable = alphabet - forbid - {end}
    (rev_init,) = m.initial
    transitions.update(("w0", c, "w0") for c in usable)
    transitions.add(("w0", end, rev_init))
    for probe, outcome in (("pa", "yes"), ("pr", "no")):
        transitions.update((probe, c, probe) for c in usable)
        transitions.add((probe, end, outcome))
    return Po2Automaton(alphabet, xs, ys, transitions, {"w0"}, set())


# --- deterministic construction -------------------------------------------


def monomial_to_deterministic(m: Monomial, alphabet=None) -> Po2Automaton:
    """Deterministic complete two-way machine for a restricted monomial.

    Requires restrictedness and unambiguity, both checked exactly up
    front (:func:`is_unambiguous_bounded` at its default bound).  An empty
    tail fits no infinite word and gives the one rejecting state.

    The first-occurrence cases of the monomial are united by
    :func:`boolean.product_union`, and every operand the product takes, an
    intermediate product included, first has its dead states, from which
    no final state is reachable, merged into one rejecting sink and is then
    quotiented by :func:`core.minimize`, so the product multiplies smaller
    machines.  The quotient alone keeps dead states apart that are not
    bisimilar.  With one case no product is built and nothing is merged or
    quotiented.  The product itself, as ``po2 product`` runs it, does
    neither.
    """
    alphabet = _ambient(m, alphabet)
    if not m.is_restricted():
        raise ValueError(f"monomial is not restricted: {m}")
    witness = is_unambiguous_bounded(m)
    if witness is not None:
        raise ValueError(f"monomial is ambiguous: {witness} fits two factorizations")
    return _det_build(m, alphabet)


def _det_build(m: Monomial, alphabet: frozenset[str]) -> Po2Automaton:
    if not m.tail:  # no infinite word fits
        loops = {("dead", c, "dead") for c in alphabet}
        return Po2Automaton(alphabet, {"dead"}, set(), loops, {"dead"}, set())
    if m.degree == 0:
        transitions = {("ok", c, "ok") for c in m.tail}
        transitions.update(("ok", c, "dead") for c in alphabet - m.tail)
        transitions.update(("dead", c, "dead") for c in alphabet)
        return Po2Automaton(
            alphabet, {"ok", "dead"}, set(), transitions, {"ok"}, {"ok"}
        )

    first = next(
        (t for t in range(m.degree) if m.markers[t] not in m.segments[0]), None
    )
    if first is None:
        raise ValueError(f"monomial is not restricted: {m}")
    a = m.markers[first]
    cases = _first_occurrence_cases(m.segments, m.markers, a)
    machines = [
        _assemble_case(p_segs, p_marks, Monomial(q_segs, q_marks, m.tail), a, alphabet)
        for p_segs, p_marks, q_segs, q_marks in cases
    ]
    return reduce(
        lambda x, y: product_union(minimize(_merge_dead(x)), minimize(_merge_dead(y))),
        machines,
    )


def _merge_dead(x: Po2Automaton) -> Po2Automaton:
    """``x`` with its dead states, from which no final state is reachable,
    merged into one rejecting X sink that loops on every letter.

    ``x`` must be complete and deterministic, as every product operand is.
    A dead state's successors are dead, so a lone dead state is already
    such a sink, and ``x`` with at most one is returned as it is."""
    dead = {z for z, n in chains_to(x, x.final.__contains__).items() if n < 0}
    if len(dead) <= 1:
        return x
    sink = fresh_name("sink", x.states)
    # Every state a run visits after a dead state is dead too, so that run
    # never stabilizes in a final state.  The merged machine copies the run
    # step for step up to its first dead state and then rejects in the sink.
    # No chain gets longer: where a chain now ends in the sink, it went on
    # into dead states before, and in a complete machine they reach an X one.
    transitions = {
        (s, c, sink if d in dead else d) for s, c, d in x.transitions if s not in dead
    }
    transitions.update((sink, c, sink) for c in x.alphabet)
    return Po2Automaton(
        x.alphabet,
        (x.x_states - dead) | {sink},
        x.y_states - dead,
        transitions,
        {sink if z in dead else z for z in x.initial},
        x.final,
    )


def _assemble_case(
    p_segs, p_marks, q: Monomial, a: str, alphabet: frozenset[str]
) -> Po2Automaton:
    """One first-occurrence case: find the split letter, rewind, check the
    prefix with a finite acceptor, then run the relativized tail machine."""
    # _det_build returns complete machines with an X initial state, and
    # relativize drops the states its result cannot reach.
    tail_hat = relabel(relativize(_det_build(q, alphabet), a), lambda s: "q." + s)
    prefix_acc = finite_monomial_acceptor(p_segs, p_marks, a, alphabet)

    xs = set(tail_hat.x_states) | {"scan", "dead"}
    ys = set(tail_hat.y_states) | {"home"}
    transitions = set(tail_hat.transitions)
    (tail_init,) = tail_hat.initial

    transitions.update(("scan", c, "scan") for c in alphabet - {a})
    transitions.add(("scan", a, "home"))
    transitions.update(("home", c, "home") for c in alphabet)
    transitions.update(("dead", c, "dead") for c in alphabet)
    entry = _graft(prefix_acc, "p.", tail_init, "dead", xs, ys, transitions)
    transitions.add(("home", LEND, entry))

    machine = Po2Automaton(
        alphabet, xs, ys, transitions, {"scan"}, set(tail_hat.final)
    )
    return complete(prune_unreachable(machine))


# --- deterministic machine back to monomials ------------------------------


def automaton_to_polynomial(a: Po2Automaton) -> list[Monomial]:
    """Decompose a deterministic machine's language into monomials.

    Enumerates abstract run skeletons over marker sequences: segment cells
    are symbolic, since crossing a segment never changes state the run is
    the same for every concrete gap, and each cell collects the
    intersection of the self-loop alphabets of the states that cross it.
    A skeleton is emitted when the run stabilizes in a final state and
    every marker saw at least one state change; it emits one monomial, with
    those intersections as segments (words with fatter gaps change state
    at different positions and are covered by other skeletons).  No segment
    needs narrowing: one holding every marker from its own on would let the
    X state that first reaches its marker pass all later markers unchanged,
    and such a skeleton is not emitted.

    The runs read the machine's own flat ``(state, letter) -> state``
    table.  The skeleton tree is walked depth first with an explicit stack;
    each frame holds the skeleton's last marker as a cell of
    :func:`run.crosser`, the X state in which the run leaves it and a
    bitmask of the markers that saw a state change.  A run that turns left
    only meets markers already on the path, so it goes through their
    crossing tables, and a step costs a few lookups instead of a walk back
    to the tape start; only an emission runs the machine itself
    (:func:`run.run_det` on its markers with empty gaps), to collect the
    segment cells.  No step uses Python recursion, so long chains need
    no deep Python stack.  A skeleton is extended only while its markers
    that saw no state change yet are no more than the state changes left
    on the longest path to a final state.  That bound is the walk's only
    depth limit, as each other marker took a state change on the run so far.

    Skeletons are also cut by crossing behaviour (Shepherdson 1959).  Each
    skeleton gets a key: the X state it lands in, the count of its markers
    that saw no state change yet, and for each Y state reachable from the
    landed state the crossing of the last marker from that state: the X
    state it leaves in and the unvalidated markers it validates, renumbered
    0, 1, 2, ... in position order over the markers that some crossing of
    the key names.  Whether anything below a skeleton is emitted depends on
    the key alone: a union of crossings has the same size under any
    one-to-one renumbering, and an unvalidated marker that no crossing
    names is never validated below.  A key under which nothing was emitted
    is remembered as dead, and every later skeleton with that key is
    skipped with its subtree.  The output is unchanged, but the cost is
    still exponential in the chain length in the worst case: up to
    ``|alphabet|**(n - 1)`` skeletons for a chain of n states.
    """
    require(a, deterministic=True)
    a = ensure_x_initial(complete(a))
    (z0,) = a.initial
    letters = sorted(a.alphabet)
    xs = a.x_states
    final = a.final
    loops = a._selfloops
    cross = crosser(a)
    # Every marker still unvalidated when the run lands in z needs a state
    # change of its own, and those changes all lie on the run's path from z
    # to the final state where an emission happens; so a skeleton with more
    # unvalidated markers than below[z] emits nothing, and neither does any
    # extension of it.
    below = chains_to(a, final.__contains__)
    found: set[Monomial] = set()

    def emit(z: str, cell) -> None:
        marks: list[str] = []
        while cell is not None:
            marks.append(cell[1])
            cell = cell[2]
        marks.reverse()
        # Each segment cell takes the letters on which every state crossing
        # it loops.  Run the machine on the markers with empty gaps up to
        # the first position past the last marker: a state reaching marker
        # p moving right crossed gap p - 1, and a state reaching position p
        # moving left crossed gap p.
        meets = [a.alphabet] * len(marks)
        if marks:
            word = "".join(marks)
            for s, p in run_det(a, LassoWord(word, word[-1]), collect_trace=True).trace:
                if p > len(word):
                    break
                meets[p - 1 if s in xs else p] &= loops[s]
        mono = Monomial(meets, marks, loops[z])
        if not mono.is_restricted():
            raise RuntimeError(f"emitted monomial is not restricted: {mono}")
        found.add(mono)

    # The cut on dead keys.  Below a skeleton that lands in z with the
    # validated markers in mask and pending markers unvalidated, everything
    # the walk reads is fixed by the skeleton's key:
    # - the below test and the emission test read z and a later skeleton's
    #   count of unvalidated markers; no test reads the marker count itself;
    # - a later run only reaches states reachable from z, so it comes back
    #   onto the last marker only in those Y states, and all it learns from
    #   the markers up to there is that crossing: the X state it leaves in
    #   and the markers it validates, less those already in mask.
    # A later skeleton's count is pending plus its new markers, less those
    # of them that saw a change and less the size of the union of the
    # crossings its runs went through.  Which markers a crossing names
    # matters only through those union sizes, and a one-to-one renumbering
    # of the named markers keeps every one of them; so the key holds the
    # crossings' masks ranked, and pending in place of mask.  An
    # unvalidated marker that no crossing names is never validated below,
    # so it only counts in pending.  So a key under which neither the
    # skeleton nor its subtree emitted stays dead.  A skeleton emits at most
    # one monomial, named by its marker word, so a subtree emitted nothing
    # exactly when found did not grow.
    ys = a.y_states
    later: dict[str, tuple[str, ...]] = {}  # Y states reachable from z
    dead: set[tuple] = set()
    if z0 in final:
        emit(z0, None)
    # One frame per skeleton on the path: its number of markers, its last
    # cell, the X state in which the run leaves it, the bitmask of markers
    # that saw a state change, the next letter to try, its key and the
    # monomials found before it.
    frames = [[0, None, z0, 0, 0, None, len(found)]]
    while frames:
        frame = frames[-1]
        t, cell, z, mask, i, key, before = frame
        if i == len(letters):
            frames.pop()
            if len(found) == before:
                dead.add(key)
            continue
        frame[4] = i + 1
        cell = (t, letters[i], cell, {})
        landed, done = cross(cell, z)
        mask |= done
        pending = t + 1 - mask.bit_count()
        if pending <= below[landed]:
            if landed not in later:
                later[landed] = tuple(reachable(a, (landed,)) & ys)
            key = [landed, pending]
            named = 0
            for y in later[landed]:
                x, m = cross(cell, y)
                m &= ~mask
                named |= m
                key += x, m
            if named:
                # Marker j's bit becomes bit r when j is the r-th named
                # marker, counting from 0 in position order.
                rank, bit = {}, 1
                while named:
                    low = named & -named
                    rank[low] = bit
                    bit <<= 1
                    named ^= low
                for k in range(3, len(key), 2):
                    m, r = key[k], 0
                    while m:
                        low = m & -m
                        r |= rank[low]
                        m ^= low
                    key[k] = r
            key = tuple(key)
            if key in dead:
                continue
            before = len(found)
            if pending == 0 and landed in final:
                emit(landed, cell)
            frames.append([t + 1, cell, landed, mask, 0, key, before])
    return sorted(found, key=str)


def monomial_from_joint_runs(
    a: Po2Automaton, b: Po2Automaton, w: LassoWord
) -> Monomial:
    """Monomial containing w on which both machines behave uniformly.

    Markers sit at every position where either deterministic run changes
    state; between markers both runs only self-loop, so every word of the
    resulting monomial gets the same two verdicts as w.
    """
    out_a = run_det(a, w)
    out_b = run_det(b, w)
    if out_a.stationary_state is None or out_b.stationary_state is None:
        raise ValueError("both machines must decide the word; complete them first")
    positions = sorted(
        {p for p, _, _, _ in out_a.state_changes + out_b.state_changes if p > 0}
    )
    segments = []
    previous = 0
    for p in positions:
        segments.append(
            frozenset(w.letter_at(i) for i in range(previous + 1, p))
        )
        previous = p
    markers = tuple(w.letter_at(p) for p in positions)
    tail = w.suffix_from(previous + 1).alphabet
    return Monomial(tuple(segments), markers, tail)
