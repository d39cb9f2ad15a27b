"""Data-model guarantees: validation verdicts, completion, complement, chains."""

import ast
import copy
import pickle
import random
from graphlib import CycleError

import pytest

import po2buchi
from helpers import (
    random_det_automaton,
    random_lasso,
    random_nondet_automaton,
    random_raw_automaton,
    reference_bisimulation,
    reference_chain_lengths,
    reference_report,
    reference_successors,
    with_y_start,
)
from po2buchi.cli import automaton_from_doc, automaton_to_doc
from po2buchi.core import (
    LEND,
    Po2Automaton,
    ValidationReport,
    chain_lengths,
    chains_to,
    complement,
    complete,
    disjoint_union,
    fresh_name,
    minimize,
    prune_unreachable,
    relabel,
    require,
)
from po2buchi.decide import Witness
from po2buchi.monomials import Monomial
from po2buchi.run import RunOutcome, run_det
from po2buchi.satred import And, Not, Or, Var
from po2buchi.words import LassoWord


def two_state() -> Po2Automaton:
    return Po2Automaton(
        "ab",
        {"x0", "x1"},
        {"y0"},
        {
            ("x0", "a", "x0"),
            ("x0", "b", "y0"),
            ("y0", "a", "y0"),
            ("y0", "b", "y0"),
            ("y0", LEND, "x1"),
            ("x1", "a", "x1"),
            ("x1", "b", "x1"),
        },
        {"x0"},
        {"x1"},
    )


def test_constructor_rejects_garbage():
    with pytest.raises(ValueError):
        Po2Automaton("ab", {"p"}, {"p"}, set(), {"p"}, set())
    with pytest.raises(ValueError):
        Po2Automaton("ab", {"p"}, set(), {("p", "a", "ghost")}, {"p"}, set())
    with pytest.raises(ValueError):
        Po2Automaton("ab", {"p"}, set(), {("p", "c", "p")}, {"p"}, set())
    with pytest.raises(ValueError):
        Po2Automaton("ab", {"p"}, set(), set(), {"ghost"}, set())
    with pytest.raises(ValueError):
        Po2Automaton(["ab"], {"p"}, set(), set(), {"p"}, set())
    with pytest.raises(ValueError):
        Po2Automaton([LEND], {"p"}, set(), set(), {"p"}, set())


def test_validate_clean_machine():
    report = two_state().validate()
    assert report.is_well_formed_po2
    assert report.is_deterministic
    assert report.is_complete
    assert report.violations == ()
    assert bool(report)


def test_validate_flags_marker_edges():
    a = Po2Automaton(
        "a", {"p", "q"}, set(), {("p", LEND, "q"), ("p", "a", "p"), ("q", "a", "q")},
        {"p"}, set(),
    )
    report = a.validate()
    assert not report.is_well_formed_po2
    assert any("marker edge leaves non-Y" in v for v in report.violations)

    b = Po2Automaton(
        "a", {"p"}, {"q"},
        {("p", "a", "q"), ("q", "a", "q"), ("q", LEND, "p")},
        {"p"}, set(),
    )
    # q's marker edge goes back to p: the edge types are fine but the
    # self-loop-free graph p -> q -> p is a cycle.
    report = b.validate()
    assert any("cycle" in v for v in report.violations)
    assert not report.is_well_formed_po2

    c = Po2Automaton(
        "a", {"p"}, {"q", "r"},
        {("p", "a", "q"), ("q", LEND, "r"), ("q", "a", "q"), ("r", "a", "r")},
        {"p"}, set(),
    )
    report = c.validate()
    assert any("enters non-X" in v for v in report.violations)


def test_validate_flags_determinism_and_completeness():
    a = Po2Automaton(
        "ab", {"p", "q"}, set(),
        {("p", "a", "p"), ("p", "a", "q"), ("q", "a", "q")},
        {"p", "q"}, set(),
    )
    report = a.validate()
    assert report.is_well_formed_po2
    assert not report.is_deterministic
    assert not report.is_complete
    assert any(v.startswith("determinism: need exactly one initial") for v in report.violations)
    assert any("('p', 'a') has 2 successors" in v for v in report.violations)
    assert any("no ('p', 'b')" in v for v in report.violations)


def test_validate_requires_marker_edges_for_completeness():
    a = Po2Automaton(
        "a", {"p"}, {"q"},
        {("p", "a", "q"), ("q", "a", "q")},
        {"p"}, set(),
    )
    report = a.validate()
    assert not report.is_complete
    assert any("marker edge" in v for v in report.violations)


CYCLE_LINE = "po2: state-changing transitions form a cycle: "


def is_cycle_line(line: str, a: Po2Automaton) -> bool:
    """A cycle of state changes, in edge order, from its least state."""
    if not line.startswith(CYCLE_LINE):
        return False
    cycle = ast.literal_eval(line[len(CYCLE_LINE):])
    return (
        len(cycle) >= 3
        and cycle[0] == cycle[-1] == min(cycle)
        and all(d in a._change_edges[s] for s, d in zip(cycle, cycle[1:]))
    )


def test_validate_matches_reference_report():
    rng = random.Random(1972)
    cyclic = well_formed = 0
    for i in range(3000):
        a = random_raw_automaton(rng, ("a", "ab", "abc")[i % 3], max_states=7)
        new, old = a.validate(), reference_report(a)
        flags = (new.is_well_formed_po2, new.is_deterministic, new.is_complete)
        assert flags == (old.is_well_formed_po2, old.is_deterministic, old.is_complete)
        assert len(new.violations) == len(old.violations)
        for mine, theirs in zip(new.violations, old.violations):
            if theirs.startswith(CYCLE_LINE):
                assert is_cycle_line(mine, a), mine
            else:
                assert mine == theirs
        cyclic += any(v.startswith(CYCLE_LINE) for v in old.violations)
        well_formed += old.is_well_formed_po2
    # Cyclic, otherwise faulty and well-formed machines are all well represented.
    assert cyclic > 500 and well_formed > 500 and cyclic + well_formed < 2500


def test_validate_is_memoized():
    rng = random.Random(5)
    for _ in range(20):
        a = random_raw_automaton(rng, "ab", max_states=5)
        assert a.validate() is a.validate()


def test_successor_lookups_match_transitions():
    rng = random.Random(1974)
    several = 0
    for i in range(1500):
        a = random_raw_automaton(rng, ("a", "ab", "abc")[i % 3], max_states=7)
        expected = reference_successors(a)
        choices = a._tables[1]
        for z in sorted(a.states):
            for c in sorted(a.alphabet) + [LEND]:
                dsts = expected.get((z, c), set())
                assert choices.get((z, c), frozenset()) == (dsts if len(dsts) > 1 else set())
                if len(dsts) > 1:
                    several += 1
                    assert isinstance(choices[z, c], frozenset)
                    with pytest.raises(ValueError, match="nondeterministic"):
                        a.det_successor(z, c)
                else:
                    assert a.det_successor(z, c) == next(iter(dsts), None)
        assert complete(a).validate().is_complete
    assert several > 1000


def test_chain_lengths_matches_graphlib_reference():
    rng = random.Random(1973)
    for i in range(1500):
        a = random_raw_automaton(rng, ("a", "ab", "abc")[i % 3], max_states=7)
        try:
            expected = reference_chain_lengths(a)
        except CycleError:
            with pytest.raises(ValueError, match="cycle"):
                chain_lengths(a)
        else:
            assert chain_lengths(a) == expected
    for _ in range(200):
        a = random_nondet_automaton(rng, "abc", max_states=8)
        assert chain_lengths(a) == reference_chain_lengths(a)


def test_require_is_the_one_gate():
    good = two_state()
    assert require(good, deterministic=True, complete=True) is good.validate()
    nondet = Po2Automaton(
        "ab", {"p", "q"}, set(),
        {("p", "a", "p"), ("p", "a", "q"), ("q", "a", "q")},
        {"p"}, set(),
    )
    assert require(nondet) is nondet.validate()
    with pytest.raises(ValueError) as err:
        require(nondet, deterministic=True, complete=True)
    assert str(err.value) == (
        "need a well-formed, deterministic, complete machine; "
        "determinism: ('p', 'a') has 2 successors; "
        "completeness: no ('p', 'b') transition; "
        "completeness: no ('q', 'b') transition"
    )
    with pytest.raises(ValueError, match=r"^need a well-formed, complete machine; "):
        require(nondet, complete=True)
    cyclic = Po2Automaton("a", {"q", "p"}, set(), {("q", "a", "p"), ("p", "a", "q")}, {"p"}, set())
    with pytest.raises(ValueError) as err:
        require(cyclic)
    assert str(err.value) == (
        "need a well-formed machine; "
        "po2: state-changing transitions form a cycle: ['p', 'q', 'p']"
    )


def test_require_is_exported():
    assert po2buchi.require is require
    assert "require" in po2buchi.__all__


def test_complete_adds_single_sink():
    a = Po2Automaton(
        "ab", {"p"}, {"q"},
        {("p", "a", "q"), ("q", "b", "q")},
        {"p"}, {"p"},
    )
    done = complete(a)
    report = done.validate()
    assert report.is_complete and report.is_well_formed_po2
    assert done.states == a.states | {"sink"}
    assert "sink" in done.x_states and "sink" not in done.final
    assert a.transitions <= done.transitions
    # Idempotent, and already-complete machines come back untouched.
    assert complete(done) is done
    b = two_state()
    assert complete(b) is b


def test_complete_avoids_name_clash():
    a = Po2Automaton("a", {"sink"}, set(), set(), {"sink"}, set())
    done = complete(a)
    assert done.states == {"sink", "sink2"}
    assert fresh_name("sink", {"sink", "sink2"}) == "sink3"


def test_complement_flips_and_involutes():
    rng = random.Random(11)
    for _ in range(50):
        a = random_det_automaton(rng, "ab", 5, complete=True)
        b = complement(a)
        assert b.final == a.states - a.final
        assert complement(b) == a
        assert b.transitions == a.transitions


def test_complement_rejects_bad_inputs():
    incomplete = Po2Automaton("a", {"p"}, set(), set(), {"p"}, set())
    with pytest.raises(ValueError):
        complement(incomplete)
    nondet = Po2Automaton(
        "a", {"p", "q"}, set(),
        {("p", "a", "p"), ("p", "a", "q"), ("q", "a", "q")},
        {"p"}, set(),
    )
    with pytest.raises(ValueError):
        complement(nondet)


def test_chains_to_matches_path_enumeration():
    def longest(a, z, good):
        # Every path of changes from z, one state at a time.
        best = 0 if good(z) else -1
        for d in a._change_edges[z]:
            rest = longest(a, d, good)
            if rest >= 0:
                best = max(best, rest + 1)
        return best

    rng = random.Random(1974)
    for i in range(300):
        a = random_nondet_automaton(rng, ("ab", "abc")[i % 2], max_states=7)
        for good in (a.final.__contains__, lambda z: z not in a.final):
            assert chains_to(a, good) == {z: longest(a, z, good) for z in a.states}
    with pytest.raises(ValueError, match="cycle"):
        cyclic = Po2Automaton("a", {"p", "q"}, set(), {("p", "a", "q"), ("q", "a", "p")}, {"p"}, set())
        chains_to(cyclic, cyclic.final.__contains__)


def test_chain_lengths_hand_cases():
    assert chain_lengths(two_state()) == (3, 2)
    empty = Po2Automaton("a", set(), set(), set(), set(), set())
    assert chain_lengths(empty) == (0, 0)
    solo = Po2Automaton("a", {"p"}, set(), {("p", "a", "p")}, {"p"}, {"p"})
    assert chain_lengths(solo) == (1, 1)
    solo_y = Po2Automaton("a", set(), {"p"}, {("p", "a", "p")}, {"p"}, set())
    assert chain_lengths(solo_y) == (1, 0)


def test_chain_lengths_counts_x_states_on_one_path():
    a = Po2Automaton(
        "ab",
        {"x0", "x1"},
        {"y0", "y1"},
        {
            ("x0", "a", "y0"),
            ("y0", "b", "y1"),
            ("y1", LEND, "x1"),
        },
        {"x0"},
        set(),
    )
    assert chain_lengths(a) == (4, 2)


def test_minimize_matches_reference_partition():
    rng = random.Random(48)
    merged = 0
    for i in range(1500):
        alphabet = rng.choice(["ab", "abc"])
        whole = rng.random() < 0.5
        a = random_det_automaton(rng, alphabet, rng.randint(2, 9), complete=whole)
        if not whole:
            # Without its marker edge a Y state can move like an X state;
            # only polarity keeps the two apart.
            a = Po2Automaton(
                a.alphabet, a.x_states, a.y_states,
                {t for t in a.transitions if t[1] != LEND or rng.random() < 0.5},
                a.initial, a.final,
            )
        if i % 3 == 0:
            a = with_y_start(rng, a)
        q = minimize(a)
        # The quotient the oracle's classes give, each named after its
        # least state: the same classes and the same representatives.
        classes = reference_bisimulation(a)
        least = {z: min(c) for c in classes for z in c}
        assert q == Po2Automaton(
            a.alphabet,
            {least[z] for z in a.x_states},
            {least[z] for z in a.y_states},
            {(least[s], c, least[d]) for s, c, d in a.transitions},
            {least[z] for z in a.initial},
            {least[z] for z in a.final},
        )
        merged += len(a.states) - len(q.states)
        report = q.validate()
        assert report.is_well_formed_po2 and report.is_deterministic
        assert report.is_complete == a.validate().is_complete
        assert minimize(q) == q
        n, m = chain_lengths(q)
        n0, m0 = chain_lengths(a)
        assert n <= n0 and m <= m0
        for _ in range(5):
            w = random_lasso(rng, alphabet)
            assert run_det(q, w).verdict == run_det(a, w).verdict, (a, str(w))
    assert merged > 0


def test_random_incomplete_machines_leave_y_states_without_marker_edges():
    rng = random.Random(49)
    bare = 0
    for i in range(200):
        whole = i % 2 == 0
        a = random_det_automaton(rng, "ab", 6, complete=whole)
        marked = {s for s, c, _ in a.transitions if c == LEND}
        if whole:
            assert a.y_states <= marked
        bare += len(a.y_states - marked)
    assert bare >= 10


def test_minimize_rejects_nondeterministic():
    a = Po2Automaton("a", {"p", "q"}, set(), {("p", "a", "p"), ("p", "a", "q")}, {"p"}, set())
    with pytest.raises(ValueError, match="deterministic"):
        minimize(a)


def test_prune_unreachable():
    a = Po2Automaton(
        "a", {"p", "q", "r"}, set(),
        {("p", "a", "q"), ("r", "a", "r"), ("q", "a", "q")},
        {"p"}, {"r"},
    )
    b = prune_unreachable(a)
    assert b.states == {"p", "q"}
    assert b.final == set()
    assert ("r", "a", "r") not in b.transitions


def test_relabel_requires_injective():
    a = two_state()
    b = relabel(a, lambda z: f"n_{z}")
    assert "n_x0" in b.x_states and "n_y0" in b.y_states
    assert relabel(b, lambda z: z[2:]) == a
    with pytest.raises(ValueError):
        relabel(a, lambda z: "same")


def test_disjoint_union_pools_parts():
    a = two_state()
    u = disjoint_union([a, a])
    assert len(u.states) == 2 * len(a.states)
    assert u.initial == {"m0_x0", "m1_x0"}
    assert not u.validate().is_deterministic
    with pytest.raises(ValueError):
        disjoint_union([a, Po2Automaton("xy", {"p"}, set(), set(), {"p"}, set())])


def test_dict_round_trip():
    rng = random.Random(12)
    for _ in range(50):
        a = random_nondet_automaton(rng, "abc", 6)
        d = automaton_to_doc(a)
        assert all(t["letter"] != LEND for t in d["transitions"])
        assert automaton_from_doc(d) == a
    with pytest.raises(ValueError):
        automaton_from_doc({"alphabet": ["a"]})


def test_hashable_and_structural_equality():
    a1 = two_state()
    a2 = two_state()
    assert a1 == a2 and hash(a1) == hash(a2)
    assert len({a1, a2}) == 1
    _ = a1._tables  # warming caches must not affect equality
    assert a1 == a2 and hash(a1) == hash(a2)


def test_values_are_frozen_with_structural_equality():
    x, y = Var(1), Not(Var(2))
    # a maker of each value class, and its fields in declaration order
    values = [
        (lambda: ValidationReport(True, False, True, ("v",)),
         ("is_well_formed_po2", "is_deterministic", "is_complete", "violations")),
        (two_state, ("alphabet", "x_states", "y_states", "transitions", "initial", "final")),
        (lambda: LassoWord("ab", "c"), ("spoke", "period")),
        (lambda: RunOutcome("accepted", "q", 3, ((1, "p", "a", "q"),), (("q", 1),)),
         ("verdict", "stationary_state", "steps", "state_changes", "trace")),
        (lambda: Witness("ab", "c"), ("spoke", "letter")),
        (lambda: Monomial((frozenset("ab"),), ("c",), frozenset("a")),
         ("segments", "markers", "tail")),
        (lambda: Var(3), ("index",)),
        (lambda: Not(x), ("child",)),
        (lambda: And(x, y), ("left", "right")),
        (lambda: Or(x, y), ("left", "right")),
    ]
    for make, fields in values:
        v, w = make(), make()
        key = tuple(getattr(v, f) for f in fields)
        assert v == w and not v != w and hash(v) == hash(w) == hash(key)
        assert not isinstance(v, tuple) and v != key
        assert v.__eq__(object()) is NotImplemented
        args = ", ".join(f"{f}={getattr(v, f)!r}" for f in fields)
        assert repr(v) == f"{type(v).__name__}({args})"
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(v, f, None)
            with pytest.raises(AttributeError):
                delattr(v, f)
        with pytest.raises(AttributeError):
            v.unknown = None
        assert v == w and hash(v) == hash(key)
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert twin == v and hash(twin) == hash(v) and type(twin) is type(v)

    assert And(x, y) != Or(x, y) and Not(Var(1)) != Var(1)
    assert Witness("ab", "c") != LassoWord("ab", "c")
    assert len({And(x, y), Or(x, y), And(x, y)}) == 2
    assert repr(And(x, y)) == "And(left=Var(index=1), right=Not(child=Var(index=2)))"
    assert repr(LassoWord("", "a")) == "LassoWord(spoke='', period='a')"
    assert ValidationReport(True, True, False).violations == ()
    assert ValidationReport(False, True, True) == ValidationReport(
        is_complete=True, is_deterministic=True, is_well_formed_po2=False, violations=()
    )
    assert RunOutcome("stuck", None, 0, ()).trace is None
    assert LassoWord(spoke="a", period="b") == LassoWord("a", "b")
    for bad in (lambda: Var(0), lambda: LassoWord("a", "")):
        with pytest.raises(ValueError):
            bad()


# Each value class, one value for each of its fields in declaration order,
# and the defaults of the fields that may be left out.
CONSTRUCTED = [
    (ValidationReport,
     {"is_well_formed_po2": True, "is_deterministic": False, "is_complete": True,
      "violations": ("v",)},
     {"violations": ()}),
    (Po2Automaton,
     {"alphabet": frozenset("a"), "x_states": frozenset("x"), "y_states": frozenset(),
      "transitions": frozenset({("x", "a", "x")}), "initial": frozenset("x"),
      "final": frozenset("x")},
     {}),
    (LassoWord, {"spoke": "ab", "period": "c"}, {}),
    (RunOutcome,
     {"verdict": "accepted", "stationary_state": "q", "steps": 3,
      "state_changes": ((1, "p", "a", "q"),), "trace": (("q", 1),)},
     {"trace": None}),
    (Witness, {"spoke": "ab", "letter": "c"}, {}),
    (Monomial,
     {"segments": (frozenset("ab"),), "markers": ("c",), "tail": frozenset("a")},
     {"segments": (), "markers": (), "tail": frozenset()}),
    (Var, {"index": 3}, {}),
    (Not, {"child": Var(1)}, {}),
    (And, {"left": Var(1), "right": Var(2)}, {}),
    (Or, {"left": Var(1), "right": Var(2)}, {}),
]


@pytest.mark.parametrize(
    "cls, fields, defaults", CONSTRUCTED, ids=[cls.__name__ for cls, _, _ in CONSTRUCTED]
)
def test_value_constructors_bind_arguments_as_a_signature_does(cls, fields, defaults):
    names, args = list(fields), tuple(fields.values())
    v = cls(*args)
    assert [getattr(v, f) for f in names] == list(args)
    assert cls(**fields) == cls(**dict(reversed(fields.items()))) == v
    assert cls(*args[:1], **dict(list(fields.items())[1:])) == v
    required = len(names) - len(defaults)
    assert names[required:] == list(defaults)
    short = cls(*args[:required])
    assert {f: getattr(short, f) for f in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError, match="'unknown'"):
        cls(*args, unknown=1)
    with pytest.raises(TypeError, match=f"'{names[0]}'"):
        cls(*args, **{names[0]: args[0]})
    if required:
        with pytest.raises(TypeError, match=f"'{names[required - 1]}'"):
            cls(*args[: required - 1])
