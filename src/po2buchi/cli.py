"""Command-line frontend: automaton files, subcommand dispatch, reports.

Automata travel as UTF-8 JSON documents with three fields: ``alphabet`` (list
of single-character letters), ``states`` (list of ``{name, polarity: "X"|"Y",
initial, final}`` with string names and boolean flags), and ``transitions``
(list of ``{from, letter, to}`` strings, ``"LEND"`` spelling the left-end
marker).  Reports are deterministic for fixed inputs.  Exit codes: 0 for
affirmative results, 1 for negative decisions (the witness is printed), 2 for
usage or format errors, 3 for an exceeded budget, 4 for an internal error
(any other exception, a MemoryError included, reported on one stderr line so
that a fault is never mistaken for a negative verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TextIO

# Only the data model is loaded up front; each handler imports the modules
# it uses, so a process loads no more than its subcommand needs.
from .core import (
    LEND,
    BudgetExceeded,
    Po2Automaton,
    chain_lengths,
    complement,
    complete,
    require,
)


def automaton_to_doc(a: Po2Automaton) -> dict:
    """JSON document in the interchange shape; sorted for stable output."""
    return {
        "alphabet": sorted(a.alphabet),
        "states": [
            {
                "name": z,
                "polarity": "X" if z in a.x_states else "Y",
                "initial": z in a.initial,
                "final": z in a.final,
            }
            for z in sorted(a.states)
        ],
        "transitions": [
            {"from": s, "letter": "LEND" if c == LEND else c, "to": d}
            for s, c, d in sorted(a.transitions)
        ],
    }


def automaton_from_doc(data: dict) -> Po2Automaton:
    """Inverse of automaton_to_doc; raises ValueError on malformed input.

    Names, letters and ``from``/``to`` must be JSON strings, ``initial`` and
    ``final`` JSON booleans, and ``alphabet`` a list, so that no other JSON
    value is silently read as one of them, and each state is listed once.
    ``"LEND"`` is the only spelling of the left-end marker: a letter that is
    the marker character itself is rejected.
    """
    try:
        alphabet = data["alphabet"]
        states = data["states"]
        if not isinstance(alphabet, list) or not all(isinstance(c, str) for c in alphabet):
            raise ValueError(f"alphabet {alphabet!r} is not a list of letters")
        names: set[str] = set()
        for entry in states:
            name = entry["name"]
            if not isinstance(name, str):
                raise ValueError(f"state name {name!r} is not a string")
            if name in names:
                raise ValueError(f"state {name!r} is listed twice")
            names.add(name)
            if entry["polarity"] not in ("X", "Y"):
                raise ValueError(
                    f"state {name!r} has polarity {entry['polarity']!r},"
                    " expected 'X' or 'Y'"
                )
            for flag in ("initial", "final"):
                if not isinstance(entry[flag], bool):
                    raise ValueError(
                        f"state {name!r} has {flag} {entry[flag]!r}, expected true or false"
                    )
        transitions = []
        for t in data["transitions"]:
            edge = t["from"], t["letter"], t["to"]
            if not all(isinstance(part, str) for part in edge):
                raise ValueError(f"transition {edge!r} has a part that is not a string")
            src, c, dst = edge
            if c == LEND:
                raise ValueError(f'transition {edge!r}: the left-end marker is spelled "LEND"')
            transitions.append((src, LEND if c == "LEND" else c, dst))
        return Po2Automaton(
            alphabet,
            [s["name"] for s in states if s["polarity"] == "X"],
            [s["name"] for s in states if s["polarity"] == "Y"],
            transitions,
            [s["name"] for s in states if s["initial"]],
            [s["name"] for s in states if s["final"]],
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed automaton document: {err}") from err


def _load(path: str) -> Po2Automaton:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not valid JSON: {err}") from err
        except RecursionError as err:
            raise ValueError(f"{path}: nested too deeply to read: {err}") from err
    return automaton_from_doc(data)


def _save(a: Po2Automaton, path: str | None, out: TextIO) -> None:
    text = json.dumps(automaton_to_doc(a), indent=2) + "\n"
    if path is None:
        out.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_validate(args, out: TextIO) -> int:
    report = _load(args.automaton).validate()
    print(f"well-formed: {_yes(report.is_well_formed_po2)}", file=out)
    print(f"deterministic: {_yes(report.is_deterministic)}", file=out)
    print(f"complete: {_yes(report.is_complete)}", file=out)
    for violation in report.violations:
        print(f"violation: {violation}", file=out)
    return 0 if report.is_well_formed_po2 else 1


def _cmd_complete(args, out: TextIO) -> int:
    a = _load(args.automaton)
    require(a)
    _save(complete(a), args.output, out)
    return 0


def _cmd_complement(args, out: TextIO) -> int:
    a = _load(args.automaton)
    require(a, deterministic=True)
    _save(complement(complete(a)), args.output, out)
    return 0


def _cmd_product(args, out: TextIO) -> int:
    from .boolean import product_intersection, product_union

    a = _load(args.left)
    b = _load(args.right)
    require(a, deterministic=True)
    require(b, deterministic=True)
    build = product_intersection if args.op == "intersect" else product_union
    _save(build(complete(a), complete(b)), args.output, out)
    return 0


def _cmd_run(args, out: TextIO) -> int:
    from .run import ACCEPTED, run_det
    from .words import parse_lasso

    a = _load(args.automaton)
    require(a, deterministic=True)
    outcome = run_det(a, parse_lasso(args.lasso))
    print(f"{outcome.verdict}, stationary state: {outcome.stationary_state}", file=out)
    print(f"steps: {outcome.steps}", file=out)
    return 0 if outcome.verdict == ACCEPTED else 1


def _cmd_member(args, out: TextIO) -> int:
    from .run import ACCEPTED, membership_nondet, run_det
    from .words import parse_lasso

    a = _load(args.automaton)
    report = require(a)
    w = parse_lasso(args.lasso)
    if report.is_deterministic:
        outcome = run_det(a, w)
        print(f"{outcome.verdict}, stationary state: {outcome.stationary_state}", file=out)
        return 0 if outcome.verdict == ACCEPTED else 1
    if membership_nondet(a, w):
        print("accepted", file=out)
        return 0
    print("rejected", file=out)
    return 1


def _cmd_empty(args, out: TextIO) -> int:
    from .decide import is_empty

    a = _load(args.automaton)
    witness = is_empty(a, budget=args.budget)
    if witness is None:
        print("empty", file=out)
        return 0
    print(f"nonempty, witness: {witness}", file=out)
    return 1


def _cmd_includes(args, out: TextIO) -> int:
    from .decide import includes

    a = _load(args.left)
    b = _load(args.right)
    witness = includes(a, b, budget=args.budget)
    if witness is None:
        print("included", file=out)
        return 0
    print(f"not included, counterexample: {witness}", file=out)
    return 1


def _cmd_equiv(args, out: TextIO) -> int:
    from .decide import equivalent

    a = _load(args.left)
    b = _load(args.right)
    verdict = equivalent(a, b, budget=args.budget)
    if verdict is None:
        print("equivalent", file=out)
        return 0
    side, witness = verdict
    which = "first" if side == "left" else "second"
    print(f"not equivalent, accepted only by the {which} machine: {witness}", file=out)
    return 1


def _cmd_universal(args, out: TextIO) -> int:
    from .decide import is_universal

    a = _load(args.automaton)
    witness = is_universal(a, budget=args.budget)
    if witness is None:
        print("universal", file=out)
        return 0
    print(f"not universal, counterexample: {witness}", file=out)
    return 1


def _cmd_to_monomials(args, out: TextIO) -> int:
    from .monomials import automaton_to_polynomial

    a = _load(args.automaton)
    for monomial in automaton_to_polynomial(a):
        print(monomial, file=out)
    return 0


def _cmd_from_monomial(args, out: TextIO) -> int:
    from .monomials import monomial_to_deterministic, parse_monomial

    monomial = parse_monomial(args.monomial)
    _save(monomial_to_deterministic(monomial, alphabet=args.alphabet), args.output, out)
    return 0


def _cmd_from_formula(args, out: TextIO) -> int:
    from .satred import build_sat_automaton, parse_formula

    _save(build_sat_automaton(parse_formula(args.formula)), args.output, out)
    return 0


def _cmd_sat(args, out: TextIO) -> int:
    from .satred import parse_formula, sat_via_emptiness

    assignment = sat_via_emptiness(parse_formula(args.formula), budget=args.budget)
    if assignment is None:
        print("unsat", file=out)
        return 1
    bits = " ".join(f"v{i}={int(value)}" for i, value in sorted(assignment.items()))
    print(f"sat {bits}".rstrip(), file=out)
    return 0


def _cmd_stats(args, out: TextIO) -> int:
    a = _load(args.automaton)
    report = require(a)
    chain, x_chain = chain_lengths(a)
    print(f"states: {len(a.states)}", file=out)
    print(f"x-states: {len(a.x_states)}", file=out)
    print(f"y-states: {len(a.y_states)}", file=out)
    print(f"transitions: {len(a.transitions)}", file=out)
    print(f"alphabet: {' '.join(sorted(a.alphabet))}", file=out)
    print(f"initial: {' '.join(sorted(a.initial))}", file=out)
    print(f"final: {' '.join(sorted(a.final))}", file=out)
    print(f"deterministic: {_yes(report.is_deterministic)}", file=out)
    print(f"complete: {_yes(report.is_complete)}", file=out)
    print(f"chain length: {chain}", file=out)
    print(f"x-chain length: {x_chain}", file=out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="po2",
        description="Partially ordered two-way Buchi automata toolbox.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", _cmd_validate, "check well-formedness and report properties")
    p.add_argument("automaton")

    p = add("complete", _cmd_complete, "add rejecting sinks until every state is total")
    p.add_argument("automaton")
    p.add_argument("-o", "--output")

    p = add("complement", _cmd_complement, "complement a deterministic machine")
    p.add_argument("automaton")
    p.add_argument("-o", "--output")

    p = add("product", _cmd_product, "build an intersection or union product")
    p.add_argument("--op", choices=("intersect", "union"), required=True)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output")

    p = add("run", _cmd_run, "run a deterministic machine on a lasso word")
    p.add_argument("automaton")
    p.add_argument("lasso", help="lasso literal, e.g. ba(c)")

    p = add("member", _cmd_member, "membership test (nondeterministic allowed)")
    p.add_argument("automaton")
    p.add_argument("lasso", help="lasso literal, e.g. ba(c)")

    p = add("empty", _cmd_empty, "emptiness with a length-lex minimal witness")
    p.add_argument("automaton")
    p.add_argument("--budget", type=int)

    p = add("includes", _cmd_includes, "language inclusion of left in right")
    p.add_argument("left")
    p.add_argument("right", help="must be deterministic")
    p.add_argument("--budget", type=int)

    p = add("equiv", _cmd_equiv, "language equivalence of two deterministic machines")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--budget", type=int)

    p = add("universal", _cmd_universal, "universality of a deterministic machine")
    p.add_argument("automaton")
    p.add_argument("--budget", type=int)

    p = add("to-monomials", _cmd_to_monomials, "decompose into monomial literals")
    p.add_argument("automaton")

    p = add("from-monomial", _cmd_from_monomial, "determinize a monomial literal")
    p.add_argument("monomial", help="monomial literal, e.g. [ab]*a.[]*c.[c]w")
    p.add_argument("--alphabet", help="letters to build over (default: the monomial's)")
    p.add_argument("-o", "--output")

    p = add("from-formula", _cmd_from_formula, "build the satisfiability machine")
    p.add_argument("formula", help="formula literal, e.g. 'v1 & !v2'")
    p.add_argument("-o", "--output")

    p = add("sat", _cmd_sat, "satisfiability via emptiness of the formula machine")
    p.add_argument("formula")
    p.add_argument("--budget", type=int)

    p = add("stats", _cmd_stats, "size and shape summary")
    p.add_argument("automaton")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args, sys.stdout)
    except MemoryError:
        pass  # reported below, once the traceback has let go of the work
    except BudgetExceeded:
        print("budget exceeded")
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4
    # A fixed line, so that reporting needs next to no memory; the exit code
    # stands even where the line cannot be written.
    try:
        sys.stderr.write("internal error: MemoryError\n")
    except Exception:
        pass
    return 4


if __name__ == "__main__":
    sys.exit(main())
