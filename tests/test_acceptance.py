"""Acceptance suite: one test per shipped guarantee, one pass/fail line each.

Each test states a quantitative claim (sample sizes, bounds, runtime targets)
and checks it end to end against independent oracles.  Seeds are fixed so a
pass is reproducible.
"""

import random
import time
from functools import reduce
from itertools import combinations, product
from pathlib import Path

from compat_oracle import (
    PREPEND,
    STRIP,
    PrefixFactorization,
    compatibility_step,
    is_k_prefix_compatible,
)
from helpers import (
    evaluate_formula,
    formula_reader_cost,
    monomials_meet,
    random_det_automaton,
    random_formula,
    random_lasso,
    random_restricted_monomial,
    sample_from_monomial,
)
from po2buchi.boolean import product_intersection, product_union
from po2buchi.core import chain_lengths, complement, complete, prune_unreachable
from po2buchi.decide import equivalent, is_empty
from po2buchi.monomials import (
    Monomial,
    automaton_to_polynomial,
    is_unambiguous_bounded,
    monomial_from_joint_runs,
    monomial_member,
    monomial_to_deterministic,
    parse_monomial,
)
from po2buchi.run import membership_nondet, run_det
from po2buchi.satred import build_sat_automaton, sat_via_emptiness, var_count
from po2buchi.words import LassoWord
from test_cli import TRANSCRIPT_COMMANDS, transcript
from test_compat import harvest_and_check
from test_decide import first_accepted


def test_criterion_1_complement_flips_membership():
    # >= 500 complete deterministic machines (<= 8 states, |alphabet| <= 3),
    # >= 10 lassos each: the complement accepts exactly the rejected words.
    started = time.time()
    rng = random.Random(9001)
    machines = 0
    checks = 0
    while machines < 500:
        alphabet = rng.choice(["ab", "abc", "a"])
        a = random_det_automaton(rng, alphabet=alphabet, max_states=8)
        a = complete(a)
        flipped = complement(a)
        machines += 1
        for _ in range(10):
            w = random_lasso(rng, alphabet)
            assert run_det(flipped, w).accepted != run_det(a, w).accepted
            checks += 1
    elapsed = time.time() - started
    assert elapsed < 30.0, f"complementation sweep took {elapsed:.1f}s"
    print(f"criterion 1 (complementation): pass - {machines} machines, "
          f"{checks} lassos, {elapsed:.1f}s")


def test_criterion_2_product_semantics_and_size():
    # >= 500 deterministic pairs: product membership equals the boolean
    # combination of operand memberships, and the state count respects
    # 3 * m * n1 * n2 * |alphabet|^(m+1) with m the combined x-chain surplus.
    rng = random.Random(9002)
    pairs = 0
    while pairs < 500:
        alphabet = rng.choice(["ab", "abc"])
        a = complete(random_det_automaton(rng, alphabet=alphabet, max_states=4))
        b = complete(random_det_automaton(rng, alphabet=alphabet, max_states=4))
        meet = product_intersection(a, b)
        join = product_union(a, b)
        cap = chain_lengths(a)[1] + chain_lengths(b)[1] - 2
        bound = 3 * max(cap, 1) * len(a.states) * len(b.states) * len(alphabet) ** (cap + 1)
        assert len(meet.states) <= bound
        assert len(join.states) <= bound
        for _ in range(6):
            w = random_lasso(rng, alphabet)
            ra = run_det(a, w).accepted
            rb = run_det(b, w).accepted
            assert run_det(meet, w).accepted == (ra and rb)
            assert run_det(join, w).accepted == (ra or rb)
        pairs += 1
    print(f"criterion 2 (product semantics): pass - {pairs} pairs")


def test_criterion_3_compatibility_calculus_exhaustive():
    # All seven index-update cases, exhaustively over every factorization
    # whose factored prefix has length <= 7 over a three-letter alphabet,
    # and every candidate suffix: updated indices stay certified.
    letters = "abc"
    cases = {
        "prepend at 1": 0,
        "prepend previous marker": 0,
        "prepend other": 0,
        "strip own marker below top": 0,
        "strip other below top": 0,
        "strip last marker at top": 0,
        "strip other at top": 0,
    }
    count = 0

    def factorizations(budget, segments, markers):
        if markers:
            yield PrefixFactorization(tuple(segments), tuple(markers), "")
        for width in range(1, budget + 1):
            for seg in product(letters, repeat=width - 1):
                word = "".join(seg)
                for mark in letters:
                    if mark not in word:
                        yield from factorizations(
                            budget - width, segments + [word], markers + [mark]
                        )

    for f in factorizations(7, [], []):
        count += 1
        m = f.marker_count
        prefix = f.factored_prefix()
        for k in range(1, m + 1):
            for i in range(len(prefix) + 1):
                w = prefix[i:]
                if not is_k_prefix_compatible(w, k, f):
                    continue
                if i > 0:
                    # Moving left: the genuine preceding letter joins the word.
                    c = prefix[i - 1]
                    k2 = compatibility_step(PREPEND, c, k, f)
                    if k == 1:
                        cases["prepend at 1"] += 1
                    elif c == f.markers[k - 2]:
                        cases["prepend previous marker"] += 1
                    else:
                        cases["prepend other"] += 1
                    assert is_k_prefix_compatible(prefix[i - 1 :], k2, f), (f, w, k, c)
                if w:
                    # Moving right: the word loses its first letter.
                    c, rest = w[0], w[1:]
                    k3 = compatibility_step(STRIP, c, k, f)
                    if k < m:
                        cases["strip own marker below top" if c == f.markers[k - 1]
                              else "strip other below top"] += 1
                        assert k3 is not None
                        assert is_k_prefix_compatible(rest, k3, f), (f, w, k)
                    elif c == f.markers[-1]:
                        cases["strip last marker at top"] += 1
                        assert k3 is None
                        assert rest == ""
                    else:
                        cases["strip other at top"] += 1
                        assert k3 == m
                        assert is_k_prefix_compatible(rest, k3, f), (f, w, k)
    assert all(n > 0 for n in cases.values()), cases
    print(f"criterion 3 (compatibility calculus): pass - {count} factorizations, "
          f"case hits {sorted(cases.values())}")


def test_criterion_4_tracker_matches_certified_indices():
    # >= 200 left excursions on random machines: the tracked index is a
    # certified compatibility index at every step, excursions start and end
    # at the top index, and only the final crossing leaves the table.
    rng = random.Random(9004)
    total = 0
    attempts = 0
    while total < 200 and attempts < 20_000:
        attempts += 1
        a = random_det_automaton(rng, "ab", 6)
        w = random_lasso(rng, "ab")
        total += harvest_and_check(a, w)
    assert total >= 200, f"only {total} excursions harvested"
    print(f"criterion 4 (excursion tracker): pass - {total} excursions "
          f"from {attempts} machine/word draws")


def test_criterion_5_translation_round_trips():
    # Monomial -> deterministic machine on >= 100 unambiguous restricted
    # monomials (degree <= 3, >= 20 lassos each), and machine -> polynomial
    # on >= 100 deterministic machines (<= 6 states, >= 20 lassos each,
    # emitted monomials restricted, unambiguous and pairwise disjoint, with
    # chain-bounded degree).
    rng = random.Random(9005)
    built = 0
    while built < 100:
        m = random_restricted_monomial(rng, alphabet="abc", max_degree=3)
        if is_unambiguous_bounded(m) is not None:
            continue
        det = monomial_to_deterministic(m, alphabet="abc")
        for i in range(20):
            w = sample_from_monomial(rng, m) if i % 2 else random_lasso(rng, "abc")
            assert run_det(det, w).accepted == monomial_member(m, w), (str(m), str(w))
        built += 1

    decomposed = 0
    while decomposed < 100:
        alphabet = rng.choice(["ab", "abc"])
        a = random_det_automaton(rng, alphabet=alphabet, max_states=6)
        poly = automaton_to_polynomial(a)
        ac = complete(a)
        degree_cap = chain_lengths(ac)[0] - 1
        for p in poly:
            assert p.is_restricted(), str(p)
            assert p.degree <= degree_cap, (str(p), degree_cap)
            assert is_unambiguous_bounded(p) is None, str(p)
        for p, q in combinations(poly, 2):
            assert not monomials_meet(p, q), (str(p), str(q))
        with_tail = [p for p in poly if p.tail]
        for i in range(20):
            if i % 2 and with_tail:
                w = sample_from_monomial(rng, rng.choice(with_tail))
            else:
                w = random_lasso(rng, alphabet)
            assert run_det(ac, w).accepted == any(monomial_member(p, w) for p in poly)
        decomposed += 1
    print(f"criterion 5 (translation round trips): pass - {built} monomials "
          f"determinized, {decomposed} machines decomposed")


def test_criterion_6_joint_run_monomial_bound():
    # >= 100 jointly accepted lassos: the extracted monomial contains the
    # word, keeps degree <= n_A + n_B - 2, and stays inside both languages
    # on >= 50 samples each.
    rng = random.Random(9006)
    instances = 0
    while instances < 100:
        a = complete(random_det_automaton(rng, "ab", 5))
        b = complete(random_det_automaton(rng, "ab", 5))
        w = next(
            (
                v
                for v in (random_lasso(rng, "ab") for _ in range(300))
                if run_det(a, v).accepted and run_det(b, v).accepted
            ),
            None,
        )
        if w is None:
            continue
        m = monomial_from_joint_runs(a, b, w)
        assert monomial_member(m, w), (str(m), str(w))
        assert m.degree <= len(a.states) + len(b.states) - 2
        for _ in range(50):
            v = sample_from_monomial(rng, m)
            assert run_det(a, v).accepted and run_det(b, v).accepted, (str(m), str(v))
        instances += 1
    print(f"criterion 6 (joint-run monomials): pass - {instances} instances, "
          f"50 containment samples each")


def test_criterion_7_decision_procedures():
    # Emptiness verdicts survive doubling the search bound on >= 200 machines
    # with witnesses re-verified by membership, and determinize/decompose
    # round trips are language-equivalent on >= 50 small instances.
    rng = random.Random(9007)
    for _ in range(200):
        a = random_det_automaton(rng, alphabet="ab", max_states=4)
        ac = complete(a)
        bound = max(chain_lengths(ac)[0] - 1, 0)
        verdict = is_empty(a)
        doubled = first_accepted(ac, 2 * bound)
        if verdict is None:
            assert doubled is None
        else:
            assert doubled == verdict
            assert membership_nondet(ac, verdict.word())

    round_trips = 0
    while round_trips < 50:
        if rng.random() < 0.3:
            m = Monomial([], [], {c for c in "ab" if rng.random() < 0.6} or {"a"})
        else:
            m = random_restricted_monomial(rng, alphabet="ab", max_degree=1)
        if is_unambiguous_bounded(m) is not None:
            continue
        det = prune_unreachable(monomial_to_deterministic(m, alphabet="ab"))
        if len(det.states) > 5:
            continue
        parts = [
            monomial_to_deterministic(p, alphabet="ab")
            for p in automaton_to_polynomial(det)
        ]
        rebuilt = prune_unreachable(reduce(product_union, parts))
        assert equivalent(det, rebuilt) is None, str(m)
        round_trips += 1
    print(f"criterion 7 (decision procedures): pass - 200 doubling checks, "
          f"{round_trips} equivalence round trips")


def test_criterion_8_sat_reduction_matches_truth_tables():
    # >= 300 random formulas over <= 6 variables: emptiness-based SAT agrees
    # with the truth table, and acceptance ignores positions beyond the last
    # variable.  Runtime target: < 60 s.
    started = time.time()
    rng = random.Random(9008)
    unsat = 0
    for _ in range(300):
        max_var = rng.choice([2, 2, 3, 3, 4, 6])
        f = random_formula(rng, max_leaves=4, max_var=max_var)
        while formula_reader_cost(f) > 11:
            f = random_formula(rng, max_leaves=4, max_var=max_var)
        m = var_count(f)
        truth_sat = any(
            evaluate_formula(f, {i + 1: bit for i, bit in enumerate(tup)})
            for tup in product([False, True], repeat=m)
        )
        got = sat_via_emptiness(f)
        assert (got is not None) == truth_sat, f
        if got is None:
            unsat += 1
        else:
            assert evaluate_formula(f, got), (f, got)

        machine = build_sat_automaton(f)
        spoke = "".join(rng.choice("01") for _ in range(m + 2))
        w = LassoWord(spoke, rng.choice("01"))
        base = membership_nondet(machine, w)
        for j in range(m, len(spoke)):
            mutated = spoke[:j] + ("1" if spoke[j] == "0" else "0") + spoke[j + 1 :]
            assert membership_nondet(machine, LassoWord(mutated, w.period)) == base
        assert membership_nondet(machine, LassoWord(spoke, "0" if w.period == "1" else "1")) == base
    assert unsat > 0
    elapsed = time.time() - started
    assert elapsed < 60.0, f"sat sweep took {elapsed:.1f}s"
    print(f"criterion 8 (sat reduction): pass - 300 formulas ({unsat} unsat), "
          f"{elapsed:.1f}s")


def test_criterion_9_showcase_machine_and_transcript(tmp_path, monkeypatch):
    # The showcase monomial's machine accepts bac(c) and rejects bc(c) and
    # acac(c), and the command-line transcript is byte-identical to the
    # golden file.
    det = monomial_to_deterministic(parse_monomial("[ab]*a.[]*c.[c]w"))
    assert run_det(det, LassoWord("bac", "c")).accepted
    assert not run_det(det, LassoWord("bc", "c")).accepted
    assert not run_det(det, LassoWord("acac", "c")).accepted

    golden = (Path(__file__).parent / "data" / "showcase_transcript.txt").read_text(
        encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    assert transcript(TRANSCRIPT_COMMANDS) == golden
    print("criterion 9 (showcase example): pass - membership triple and golden transcript")
