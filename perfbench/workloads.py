"""The three workloads: inputs, the fixed list of operations, output checks.

Each workload builds its inputs in :meth:`setup`, then hands out rounds.  A
round is the same list of operations every time, on fresh input objects,
so caches the program keeps on a machine value start cold in every round.
``translate`` reaches a cache keyed by machine value across calls
(``compat.tracker_table``), so each of its rounds is written over letters
no earlier round used, and no operation meets an input equal to an earlier
one.  :meth:`check` judges a round's outputs with the oracles and returns
the round's counts.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from functools import reduce
from pathlib import Path

import inputs
import oracles
from oracles import Machine, Mono

SAMPLES = 12  # lassos per machine or polynomial checked against the oracles


class CheckFailed(Exception):
    """An output disagrees with an oracle or with a property it must have."""


def expect(flag: bool, what: str) -> None:
    if not flag:
        raise CheckFailed(what)


def po2_machine(parts_or_machine, mapping: dict):
    """A fresh Po2Automaton with its letters renamed through ``mapping``."""
    from po2buchi.core import Po2Automaton

    a = parts_or_machine
    if isinstance(a, tuple):
        alphabet, xs, ys, transitions, initial, final = a
    else:
        alphabet, xs, ys = a.alphabet, a.x_states, a.y_states
        transitions, initial, final = a.transitions, a.initial, a.final
    return Po2Automaton(
        [mapping.get(c, c) for c in alphabet],
        xs,
        ys,
        [(s, mapping.get(c, c), d) for s, c, d in transitions],
        initial,
        final,
    )


def spread(ops: list, stride: int) -> list:
    """Run op ``i`` at position ``i * stride`` modulo the round's length.

    Operations are listed by kind, and ones of a kind take similar times, so
    the operations near the median time would run back to back and
    ``op_p50_ms`` would sample the machine's speed over a few seconds only.
    Spread out, they sample it over the whole round.  Op 0 stays first.
    """
    n = len(ops)
    if math.gcd(stride, n) != 1:
        raise ValueError(f"stride {stride} does not permute {n} operations")
    out = [None] * n
    for i, op in enumerate(ops):
        out[i * stride % n] = op
    return out


def check_machine_language(rng, m: Machine, monos: list[Mono], what: str) -> None:
    """Deterministic, complete, well formed; agrees with the monomials."""
    expect(oracles.structure(m) == (True, True, True), f"{what}: not a complete po2 DFA")
    check_polynomial_samples(rng, m, monos, what)


def check_polynomial_samples(rng, m: Machine, monos: list[Mono], what: str) -> None:
    with_tail = [p for p in monos if p.tail]
    for i in range(SAMPLES):
        if i % 2 and with_tail:
            spoke, period = oracles.sample_member(rng, rng.choice(with_tail))
        else:
            spoke, period = oracles.sample_lasso(rng, m.alphabet)
        accepted = oracles.simulate(m, spoke, period)[0]
        matched = any(oracles.monomial_matches(p, spoke, period) for p in monos)
        expect(accepted == matched, f"{what}: {spoke}({period}) accepted={accepted}")


def check_decomposition(rng, m: Machine, poly: list[Mono], what: str) -> None:
    full = oracles.completed(m)
    cap = oracles.chain_lengths(full)[0] - 1
    for p in poly:
        expect(p.restricted(), f"{what}: unrestricted monomial {inputs.literal(p)}")
        expect(p.degree <= cap, f"{what}: degree {p.degree} above chain bound {cap}")
    check_polynomial_samples(rng, full, poly, what)


def check_emptiness_witness(m: Machine, spoke: str, letter: str, what: str) -> None:
    """The witness is accepted and no candidate before it is."""
    for u, c in oracles.length_lex_candidates(m.alphabet):
        accepted = oracles.simulate(m, u, c)[0]
        if (u, c) == (spoke, letter):
            expect(accepted, f"{what}: witness {spoke}({letter}) is rejected")
            return
        expect(not accepted, f"{what}: {u}({c}) is accepted before {spoke}({letter})")


def check_sat(formula, assignment: dict | None, what: str) -> None:
    models = oracles.truth_table(formula)
    if assignment is None:
        expect(not models, f"{what}: reported unsat, truth table has a model")
        return
    n = max(oracles.variables(formula))
    expect(set(assignment) == set(range(1, n + 1)), f"{what}: assignment covers {sorted(assignment)}")
    expect(oracles.evaluate(formula, assignment), f"{what}: assignment is not a model")


def formula_and(*fs):
    return ("and", list(fs))


def v(i: int):
    return ("var", i)


def neg(f):
    return ("not", f)


class Workload:
    name = ""
    setups = 5  # set-ups per run; setup_s is their median

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> tuple[list, object]:
        """(operations as (label, thunk) pairs, context for :meth:`check`)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop any process the workload started."""

    def check(self, ctx, results: list, rng: random.Random) -> dict:
        """Judge one round; returns failed, out_states and out_monomials.

        ``results`` holds (label, output, seconds) per operation; ``rng``
        draws the lassos the oracles sample.
        """
        raise NotImplementedError


# --- translate -------------------------------------------------------------

# Product-heavy: time goes to boolean.product_union and compat.tracker_table.
PRODUCT_HEAVY = [
    "[c]*c.[a]*a.[]*b.[ab]w",
    "[b]*b.[a]*a.[]*c.[a]w",
    "[a]*a.[b]*b.[]*c.[ab]w",
    "[a]*a.[c]*c.[]*b.[ab]w",
    "[b]*b.[c]*c.[]*a.[a]w",
]
# Product-free: the construction goes through monomials.relativize.
RELATIVIZE_HEAVY = ["[bc]*a.[b]*c.[bc]*c.[b]*a.[bc]w"]
DECOMPOSE = [
    "[a]*a.[b]*c.[c]w",
    "[a]*c.[c]*b.[]*b.[ac]w",
    "[c]*b.[ac]*b.[ac]*b.[c]w",
    "[ab]*a.[]*c.[c]w",
]
TRANSLATE_STRIDE = 4
GENERATOR_SEED = 9005  # the criterion-5 generator seed
GENERATED_MONOMIALS = 3
GENERATED_MACHINES = 2


class Translate(Workload):
    """Monomials to deterministic machines, and machines back to polynomials."""

    name = "translate"
    setups = 25

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.maps = inputs.letter_maps(self.rng, "abc", inputs.LATIN1_POOL)

    def setup(self) -> None:
        from po2buchi import monomials

        # The machines to decompose are built over letters no other set-up
        # or round uses, then written back over abc for each round to rename.
        mapping = next(self.maps)
        det = [oracles.parse_literal(t) for t in PRODUCT_HEAVY + RELATIVIZE_HEAVY]
        gen = random.Random(GENERATOR_SEED)
        generated = []
        while len(generated) < GENERATED_MONOMIALS:
            mono = inputs.random_restricted_mono(gen, "abc", 3)
            m = monomials.parse_monomial(inputs.literal(mono))
            if monomials.is_unambiguous_bounded(m) is None and mono not in generated:
                generated.append(mono)
        machines = []
        for text in DECOMPOSE:
            mono = inputs.rename_mono(oracles.parse_literal(text), mapping)
            built = monomials.monomial_to_deterministic(
                monomials.parse_monomial(inputs.literal(mono))
            )
            machines.append((text, po2_machine(built, {b: a for a, b in mapping.items()})))
        for i in range(GENERATED_MACHINES):
            parts = inputs.random_det_parts(gen, gen.choice(["ab", "abc"]), 6)
            machines.append((f"generated machine {i + 1}", parts))
        self.det_inputs = det + generated
        self.decompose_inputs = machines

    def round(self):
        from po2buchi import monomials

        mapping = next(self.maps)
        monos = [inputs.rename_mono(m, mapping) for m in self.det_inputs]
        parsed = [monomials.parse_monomial(inputs.literal(m)) for m in monos]
        alphabet = sorted(mapping.values())
        machines = [(label, po2_machine(a, mapping)) for label, a in self.decompose_inputs]
        ops = [
            (f"determinize {inputs.literal(m)}",
             lambda p=p: monomials.monomial_to_deterministic(p, alphabet=alphabet),
             (m, None))
            for m, p in zip(monos, parsed)
        ] + [
            (f"decompose {label}", lambda a=a: monomials.automaton_to_polynomial(a), (None, a))
            for label, a in machines
        ]
        ops = spread(ops, TRANSLATE_STRIDE)
        return [(label, thunk) for label, thunk, _ in ops], [ctx for _, _, ctx in ops]

    def check(self, ctx, results, rng) -> dict:
        states = produced = 0
        for (mono, machine), (label, out, _) in zip(ctx, results):
            expect(not isinstance(out, BaseException), f"{label}: raised {out!r}")
            if mono is not None:
                states += len(out.states)
                check_machine_language(rng, Machine.from_po2(out), [mono], label)
            else:
                produced += len(out)
                poly = [Mono.from_po2(p) for p in out]
                check_decomposition(rng, Machine.from_po2(machine), poly, label)
        return {"failed": 0, "out_states": states, "out_monomials": produced}


# --- decide ----------------------------------------------------------------

ROUND_TRIP_SEED = 9007  # the criterion-7 generator seed
# The first five distinct monomials of criterion 7's stream whose machines
# have at most four states.  A five-state round trip takes ten times as long
# as a four-state one (2.6 s against 0.25 s); two of them made a round so
# long that a run's median came from three rounds only.
ROUND_TRIPS = 5
ROUND_TRIP_STATES = 4
DECIDE_STRIDE = 2
# Polynomial machine inside its source.
INCLUSIONS = ["[a]*b.[ab]w", "[b]*a.[ab]w"]
UNSAT = [
    formula_and(v(3), neg(v(3))),
    formula_and(v(4), neg(v(4))),
    formula_and(v(2), v(3), neg(v(3))),
    formula_and(neg(v(3)), v(3)),
    neg(("or", [v(3), neg(v(3))])),
    formula_and(v(2), v(1), neg(v(2))),
]
SAT = [
    formula_and(v(1), neg(v(2)), v(3)),
    formula_and(("or", [v(1), v(2)]), neg(v(1)), v(3)),
    ("or", [formula_and(neg(v(1)), neg(v(2)), v(4)), formula_and(v(2), neg(v(2)))]),
]
# (left, right, a lasso only the right one accepts): the left side is
# searched to the end before the witness turns up on the right.
UNEQUAL = [
    ("[b]*a.[a]w", "[b]*a.[ab]w", ("a", "b")),
    ("[a]*b.[b]w", "[a]*b.[ab]w", ("b", "a")),
    ("[b]*a.[ab]w", "[ab]w", ("", "b")),
]


class Decide(Workload):
    """Equivalence, inclusion and emptiness queries on prepared machines."""

    name = "decide"
    setups = 25

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.maps = inputs.letter_maps(self.rng, "ab", inputs.LATIN1_POOL)

    def setup(self) -> None:
        from po2buchi import boolean, core, monomials, satred

        # Each set-up builds its products over letters of its own, so none
        # of them meets the tracker cache an earlier set-up filled.
        mapping = next(self.maps)
        alphabet = sorted(mapping.values())

        def det(mono: Mono):
            m = monomials.parse_monomial(inputs.literal(inputs.rename_mono(mono, mapping)))
            return monomials.monomial_to_deterministic(m, alphabet=alphabet)

        built = []  # every machine the set-up builds
        queries = []  # (kind, label, operands, expectation)
        seen: set = set()
        stream = inputs.criterion7_monos(random.Random(ROUND_TRIP_SEED))
        emitted = 0
        while len(seen) < ROUND_TRIPS:
            mono = next(stream)
            parsed = monomials.parse_monomial(inputs.literal(mono))
            if mono in seen or monomials.is_unambiguous_bounded(parsed) is not None:
                continue
            source = core.prune_unreachable(det(mono))
            if len(source.states) > ROUND_TRIP_STATES:
                continue
            seen.add(mono)
            poly = monomials.automaton_to_polynomial(source)
            emitted += len(poly)
            parts = [monomials.monomial_to_deterministic(p, alphabet=alphabet) for p in poly]
            rebuilt = core.prune_unreachable(reduce(boolean.product_union, parts))
            label = inputs.literal(mono)
            built += [source, rebuilt]
            queries.append(("equivalent", f"round trip {label}", (source, rebuilt), None))
            if label in INCLUSIONS:
                nondet = monomials.polynomial_to_automaton(poly, alphabet)
                built.append(nondet)
                queries.append(("includes", f"polynomial inside {label}", (nondet, source), None))
        for f in UNSAT + SAT:
            text = oracles.formula_text(f)
            machine = satred.build_sat_automaton(satred.parse_formula(text))
            built.append(machine)
            queries.append(("is_empty", f"sat {text}", (machine,), f))
        for left, right, witness in UNEQUAL:
            a, b = det(oracles.parse_literal(left)), det(oracles.parse_literal(right))
            built += [a, b]
            spoke, period = (inputs.rename_word(w, mapping) for w in witness)
            queries.append(("equivalent", f"{left} vs {right}", (a, b), (spoke, period)))
        self.queries = spread(queries, DECIDE_STRIDE)
        self.out_states = sum(len(a.states) for a in built)
        self.out_monomials = emitted

    def round(self):
        from po2buchi import decide

        fresh = [
            (kind, label, tuple(po2_machine(a, {}) for a in operands), expectation)
            for kind, label, operands, expectation in self.queries
        ]
        ops = [
            (label, lambda kind=kind, operands=operands: getattr(decide, kind)(*operands))
            for kind, label, operands, _ in fresh
        ]
        return ops, fresh

    def check(self, ctx, results, rng) -> dict:
        for (kind, label, operands, expectation), (_, out, _) in zip(ctx, results):
            expect(not isinstance(out, BaseException), f"{label}: raised {out!r}")
            machines = [Machine.from_po2(a) for a in operands]
            if kind == "includes" or (kind == "equivalent" and expectation is None):
                expect(out is None, f"{label}: expected no counterexample, got {out}")
            elif kind == "equivalent":
                left, right = machines
                spoke, period = expectation
                expect(
                    oracles.simulate(right, spoke, period)[0]
                    and not oracles.simulate(left, spoke, period)[0],
                    f"{label}: the expected separating lasso does not separate",
                )
                expect(out is not None, f"{label}: reported equivalent")
                side, w = out
                accepting, rejecting = (left, right) if side == "left" else (right, left)
                expect(
                    oracles.simulate(accepting, w.spoke, w.letter)[0]
                    and not oracles.simulate(rejecting, w.spoke, w.letter)[0],
                    f"{label}: witness {w} does not separate on the {side}",
                )
            else:
                (m,) = machines
                if out is None:
                    check_sat(expectation, None, label)
                else:
                    check_emptiness_witness(m, out.spoke, out.letter, label)
                    n = max(oracles.variables(expectation))
                    word = out.spoke + out.letter * (n + 1)
                    bits = {i: word[i - 1] == "1" for i in range(1, n + 1)}
                    check_sat(expectation, bits, label)
        return {"failed": 0, "out_states": self.out_states, "out_monomials": self.out_monomials}


# --- cli -------------------------------------------------------------------

SHOWCASE = "[ab]*a.[]*c.[c]w"
SHOWCASE_WORDS = ["bac(c)", "bc(c)", "acac(c)"]
BIG = "[bc]*a.[b]*c.[bc]*c.[b]*a.[bc]w"  # 16,872 states, about 16 MB of JSON
BIG_WORDS = ["bacbcba(bc)", "cab(b)"]
TRANSCRIPT_FORMULAS = [formula_and(v(1), neg(v(1))), formula_and(neg(v(1)), v(2))]
# Operations that fail today: both formulas are satisfiable, but parsing
# the first and building the machine for the second recurse once per level.
DEEP = v(1)
for _ in range(300):
    DEEP = ("group", DEEP)
WIDE = ("and", [v(1)] * 1200)
KNOWN_FAILURES = [DEEP, WIDE]
CLI_STRIDE = 5


def parse_sat(stdout: str) -> dict | None:
    words = stdout.split()
    if words == ["unsat"]:
        return None
    if not words or words[0] != "sat":
        raise CheckFailed(f"unexpected sat output {stdout!r}")
    return {int(k[1:]): val == "1" for k, val in (w.split("=") for w in words[1:])}


def load_doc(path: Path) -> Machine:
    with open(path, encoding="utf-8") as fh:
        return Machine.from_doc(json.load(fh))


class Cli(Workload):
    """``po2`` processes run one after another on files written in set-up."""

    name = "cli"

    def __init__(self, seed: int, workdir: Path, launcher: list[str], env: dict):
        super().__init__(seed, workdir)
        self.mapping = next(inputs.letter_maps(self.rng, "abc", inputs.ASCII_POOL))
        self.launcher = launcher  # the argv prefix that starts po2
        self.env = env
        self.peak_kb = 0  # the largest po2 process so far
        # Started now, while this process is small (see spawner.py).
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def word(self, text: str) -> str:
        return inputs.rename_word(text, self.mapping)

    def setup(self) -> None:
        from po2buchi import cli

        big = self.workdir / "big.po2"
        code = cli.main(["from-monomial", self.word(BIG), "-o", str(big)])
        if code != 0:
            raise RuntimeError(f"po2 from-monomial exited {code} in set-up")
        self.big = load_doc(big)

    def round(self):
        d = self.workdir
        show, big, co = str(d / "show.po2"), str(d / "big.po2"), str(d / "co.po2")
        # (label, po2 arguments, the formula of a sat command)
        ops = [("from-monomial", ["from-monomial", self.word(SHOWCASE), "-o", show], None),
               ("validate", ["validate", show], None),
               ("stats", ["stats", show], None)]
        ops += [("member", ["member", show, self.word(w)], None) for w in SHOWCASE_WORDS]
        ops += [("run", ["run", show, self.word(SHOWCASE_WORDS[0])], None),
                ("empty", ["empty", show], None),
                ("empty budget", ["empty", show, "--budget", "1"], None),
                ("to-monomials", ["to-monomials", show], None)]
        ops += [("sat", ["sat", oracles.formula_text(f)], f) for f in TRANSCRIPT_FORMULAS]
        ops += [("validate big", ["validate", big], None),
                ("stats big", ["stats", big], None),
                ("member big", ["member", big, self.word(BIG_WORDS[0])], None),
                ("run big", ["run", big, self.word(BIG_WORDS[1])], None),
                ("complement big", ["complement", big, "-o", co], None)]
        ops += [("known failure", ["sat", oracles.formula_text(f)], f) for f in KNOWN_FAILURES]
        ops = spread(ops, CLI_STRIDE)  # from-monomial stays first: it writes show.po2
        return [(label, lambda argv=argv: self.po2(argv)) for label, argv, _ in ops], ops

    def po2(self, argv: list[str]) -> subprocess.CompletedProcess:
        request = {"argv": self.launcher + argv, "env": self.env,
                   "out": str(self.workdir / "po2.out"), "err": str(self.workdir / "po2.err")}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        return subprocess.CompletedProcess(argv, reply["returncode"], reply["stdout"], reply["stderr"])

    def check(self, ctx, results, rng) -> dict:
        show_path = self.workdir / "show.po2"
        failed = states = produced = 0
        show = None
        for (label, argv, formula), (_, proc, _) in zip(ctx, results):
            expect(not isinstance(proc, BaseException), f"{label}: {proc!r}")
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
            what = " ".join(argv[:1] + [Path(a).name if "/" in a else a for a in argv[1:]])[:80]
            if label == "known failure":
                if rc == 0:
                    check_sat(formula, parse_sat(out), what)
                elif not (rc == 2 and err.startswith("error:") and err.count("\n") <= 1
                          and "Traceback" not in err):
                    failed += 1
                continue
            expect(rc in (0, 1, 3), f"{what}: exit {rc}: {err.strip()[-200:]}")
            target = self.big if "big" in label else show
            if label == "from-monomial":
                show = load_doc(show_path)
                states += len(show.states)
                mono = oracles.parse_literal(self.word(SHOWCASE))
                check_machine_language(rng, show, [mono], what)
            elif label.startswith("validate"):
                flags = oracles.structure(target)
                lines = [f"{k}: {'yes' if f else 'no'}"
                         for k, f in zip(("well-formed", "deterministic", "complete"), flags)]
                expect(out.splitlines()[:3] == lines, f"{what}: {out!r}")
            elif label.startswith("stats"):
                expect(out.splitlines() == stats_lines(target), f"{what}: {out!r}")
            elif label.startswith(("member", "run")):
                spoke, period = argv[-1][:-1].split("(")
                accepted, state = oracles.simulate(target, spoke, period)
                verdict = "accepted" if accepted else "rejected"
                expect(rc == (0 if accepted else 1), f"{what}: exit {rc}")
                expect(out.splitlines()[0] == f"{verdict}, stationary state: {state}",
                       f"{what}: {out!r}")
            elif label == "empty":
                expect(rc == 1 and out.startswith("nonempty, witness: "), f"{what}: {out!r}")
                spoke, letter = out.split(": ")[1].strip()[:-1].split("(")
                check_emptiness_witness(show, spoke, letter, what)
            elif label == "empty budget":
                # One membership test finds a witness only in the first candidate.
                first = next(oracles.length_lex_candidates(show.alphabet))
                expected = 1 if oracles.simulate(show, *first)[0] else 3
                expect(rc == expected, f"{what}: exit {rc}, expected {expected}")
                expect(rc != 3 or out.strip() == "budget exceeded", f"{what}: {out!r}")
            elif label == "to-monomials":
                poly = [oracles.parse_literal(line) for line in out.split()]
                produced += len(poly)
                check_decomposition(rng, show, poly, what)
            elif label == "sat":
                check_sat(formula, parse_sat(out), what)
            elif label == "complement big":
                co = load_doc(self.workdir / "co.po2")
                states += len(co.states)
                expect(oracles.structure(co) == (True, True, True), f"{what}: not a complete DFA")
                for _ in range(SAMPLES):
                    spoke, period = oracles.sample_lasso(rng, co.alphabet)
                    expect(oracles.simulate(co, spoke, period)[0]
                           != oracles.simulate(self.big, spoke, period)[0],
                           f"{what}: {spoke}({period}) not flipped")
        return {"failed": failed, "out_states": states, "out_monomials": produced}


def stats_lines(m: Machine) -> list[str]:
    """What ``po2 stats`` must print, from counts taken off the JSON file."""
    _, det, comp = oracles.structure(m)
    chain, x_chain = oracles.chain_lengths(m)
    return [
        f"states: {len(m.states)}",
        f"x-states: {len(m.xs)}",
        f"y-states: {len(m.ys)}",
        f"transitions: {m.transition_count}",
        f"alphabet: {' '.join(sorted(m.alphabet))}",
        f"initial: {' '.join(sorted(m.initial))}",
        f"final: {' '.join(sorted(m.final))}",
        f"deterministic: {'yes' if det else 'no'}",
        f"complete: {'yes' if comp else 'no'}",
        f"chain length: {chain}",
        f"x-chain length: {x_chain}",
    ]


WORKLOADS = {w.name: w for w in (Translate, Decide, Cli)}


def startup_seconds(python: list[str], env: dict) -> float:
    """Wall time of a process that only starts and imports ``po2buchi.cli``."""
    start = time.perf_counter()
    subprocess.run(python + ["-c", "import po2buchi.cli"], check=True, env=env)
    return time.perf_counter() - start
