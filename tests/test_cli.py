"""Tests for the command-line frontend and the automaton file format."""

import io
import json
import os
import random
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import po2buchi
from helpers import one_letter_chain, random_det_automaton, random_nondet_automaton
from po2buchi import cli
from po2buchi.cli import automaton_from_doc, automaton_to_doc, main
from po2buchi.core import LEND, complement, complete
from po2buchi.run import membership_nondet
from po2buchi.words import parse_lasso

DATA = Path(__file__).parent / "data"

# The golden transcript below exercises the showcase machine end to end.
TRANSCRIPT_COMMANDS = [
    ["from-monomial", "[ab]*a.[]*c.[c]w", "-o", "showcase.po2"],
    ["validate", "showcase.po2"],
    ["stats", "showcase.po2"],
    ["member", "showcase.po2", "bac(c)"],
    ["member", "showcase.po2", "bc(c)"],
    ["member", "showcase.po2", "acac(c)"],
    ["run", "showcase.po2", "bac(c)"],
    ["empty", "showcase.po2"],
    ["empty", "showcase.po2", "--budget", "1"],
    ["to-monomials", "showcase.po2"],
    ["sat", "v1 & !v1"],
    ["sat", "!v1 & v2"],
]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def transcript(commands: list[list[str]], run=run_cli) -> str:
    lines: list[str] = []
    for argv in commands:
        lines.append("$ po2 " + " ".join(shlex.quote(arg) for arg in argv))
        code, out = run(argv)
        if out:
            lines.append(out.rstrip("\n"))
        if code != 0:
            lines.append(f"exit {code}")
    return "\n".join(lines) + "\n"


def write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def universal_doc() -> dict:
    return {
        "alphabet": ["a", "b"],
        "states": [{"name": "top", "polarity": "X", "initial": True, "final": True}],
        "transitions": [
            {"from": "top", "letter": "a", "to": "top"},
            {"from": "top", "letter": "b", "to": "top"},
        ],
    }


def chain_doc() -> dict:
    """Accepts the lassos with a b: s moves to the final state f on b."""
    return {
        "alphabet": ["a", "b"],
        "states": [
            {"name": "s", "polarity": "X", "initial": True, "final": False},
            {"name": "f", "polarity": "X", "initial": False, "final": True},
        ],
        "transitions": [
            {"from": "s", "letter": "a", "to": "s"},
            {"from": "s", "letter": "b", "to": "f"},
            {"from": "f", "letter": "a", "to": "f"},
            {"from": "f", "letter": "b", "to": "f"},
        ],
    }


def empty_doc() -> dict:
    doc = universal_doc()
    doc["states"][0]["final"] = False
    return doc


def test_doc_round_trip_random_machines():
    rng = random.Random(601)
    for _ in range(60):
        a = random_nondet_automaton(rng, alphabet="abc", max_states=6)
        again = automaton_from_doc(json.loads(json.dumps(automaton_to_doc(a))))
        assert again == a


def test_doc_rejects_malformed_input():
    good = universal_doc()
    with pytest.raises(ValueError, match="polarity"):
        bad = json.loads(json.dumps(good))
        bad["states"][0]["polarity"] = "Z"
        automaton_from_doc(bad)
    with pytest.raises(ValueError, match="malformed"):
        automaton_from_doc({"alphabet": ["a"]})
    with pytest.raises(ValueError, match="unknown state"):
        bad = json.loads(json.dumps(good))
        bad["transitions"][0]["to"] = "nowhere"
        automaton_from_doc(bad)


def test_doc_rejects_values_of_the_wrong_json_type():
    def altered(change) -> dict:
        doc = universal_doc()
        change(doc)
        return doc

    bad_docs = {
        "not a string": altered(lambda d: d["states"][0].update(name=1)),
        "initial 'yes'": altered(lambda d: d["states"][0].update(initial="yes")),
        "final 1": altered(lambda d: d["states"][0].update(final=1)),
        "not a list": altered(lambda d: d.update(alphabet="ab")),
        "not a list of letters": altered(lambda d: d.update(alphabet=["a", 2])),
        "part that is not a string": altered(lambda d: d["transitions"][0].update(to=7)),
    }
    for message, doc in bad_docs.items():
        with pytest.raises(ValueError, match=message):
            automaton_from_doc(doc)


def test_numeric_state_name_is_a_format_error(tmp_path, capsys):
    # A numeric name used to reach the report code and exit 4.
    src = tmp_path / "numeric.po2"
    doc = universal_doc()
    doc["states"][0]["name"] = 1
    for t in doc["transitions"]:
        t["from"] = t["to"] = 1
    write(src, doc)
    assert main(["stats", str(src)]) == 2
    assert "is not a string" in capsys.readouterr().err


def test_repeated_state_name_is_a_format_error(tmp_path, capsys):
    # Two entries named p used to be read as one final state.
    src = tmp_path / "twice.po2"
    doc = universal_doc()
    doc["states"] = [
        {"name": "p", "polarity": "X", "initial": True, "final": False},
        {"name": "p", "polarity": "X", "initial": True, "final": True},
    ]
    doc["transitions"] = [{"from": "p", "letter": c, "to": "p"} for c in "ab"]
    write(src, doc)
    for argv in (["stats", str(src)], ["member", str(src), "a(b)"]):
        assert run_cli(argv) == (2, ""), argv
        assert "state 'p' is listed twice" in capsys.readouterr().err


def test_the_marker_character_is_not_a_letter(tmp_path, capsys):
    # "LEND" is the format's only spelling of the left-end marker.  The raw
    # marker character used to be read as a second one: validate passed the
    # machine, member accepted on it, and complete wrote it back as "LEND".
    doc = {
        "alphabet": ["a", "b"],
        "states": [
            {"name": "s", "polarity": "X", "initial": True, "final": False},
            {"name": "y", "polarity": "Y", "initial": False, "final": False},
            {"name": "f", "polarity": "X", "initial": False, "final": True},
        ],
        "transitions": [
            {"from": "s", "letter": "a", "to": "s"},
            {"from": "s", "letter": "b", "to": "y"},
            {"from": "y", "letter": "a", "to": "y"},
            {"from": "y", "letter": "b", "to": "y"},
            {"from": "y", "letter": "LEND", "to": "f"},
            {"from": "f", "letter": "a", "to": "f"},
            {"from": "f", "letter": "b", "to": "f"},
        ],
    }
    write(tmp_path / "lend.po2", doc)
    assert run_cli(["member", str(tmp_path / "lend.po2"), "ab(a)"])[0] == 0
    doc["transitions"][4]["letter"] = LEND
    src = tmp_path / "raw.po2"
    write(src, doc)
    for argv in (["validate", str(src)], ["member", str(src), "ab(a)"], ["complete", str(src)]):
        assert run_cli(argv) == (2, ""), argv
        assert 'the left-end marker is spelled "LEND"' in capsys.readouterr().err


def test_deeply_nested_json_is_a_format_error(tmp_path, capsys):
    # The JSON reader gives up on deep nesting with a RecursionError, which
    # used to be reported as an internal error with exit 4.
    src = tmp_path / "deep.po2"
    src.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    for argv in (["validate", str(src)], ["equiv", str(src), str(src)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {src}: nested too deeply")


def test_validate_reports_violations(tmp_path):
    good = tmp_path / "good.po2"
    write(good, universal_doc())
    code, out = run_cli(["validate", str(good)])
    assert code == 0
    assert out == "well-formed: yes\ndeterministic: yes\ncomplete: yes\n"

    # Two states changing into each other break the partial order.
    broken = {
        "alphabet": ["a"],
        "states": [
            {"name": "x0", "polarity": "X", "initial": True, "final": False},
            {"name": "x1", "polarity": "X", "initial": False, "final": False},
        ],
        "transitions": [
            {"from": "x0", "letter": "a", "to": "x1"},
            {"from": "x1", "letter": "a", "to": "x0"},
        ],
    }
    bad = tmp_path / "bad.po2"
    write(bad, broken)
    code, out = run_cli(["validate", str(bad)])
    assert code == 1
    assert "well-formed: no" in out
    assert "violation:" in out


def test_complement_pipeline_flips_membership(tmp_path):
    rng = random.Random(602)
    src = tmp_path / "m.po2"
    out_path = tmp_path / "c.po2"
    for _ in range(10):
        a = random_det_automaton(rng, alphabet="ab", max_states=4)
        write(src, automaton_to_doc(a))
        code, _ = run_cli(["complement", str(src), "-o", str(out_path)])
        assert code == 0
        flipped = automaton_from_doc(json.loads(out_path.read_text()))
        assert flipped == complement(complete(a))
        for _ in range(5):
            spoke = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            w = parse_lasso(f"{spoke}({rng.choice('ab')})")
            assert membership_nondet(flipped, w) != membership_nondet(complete(a), w)


def test_complete_pipeline_keeps_membership(tmp_path):
    rng = random.Random(603)
    src = tmp_path / "m.po2"
    out_path = tmp_path / "c.po2"
    again_path = tmp_path / "cc.po2"
    for _ in range(10):
        a = random_det_automaton(rng, alphabet="ab", max_states=4, complete=False)
        write(src, automaton_to_doc(a))
        assert run_cli(["complete", str(src), "-o", str(out_path)]) == (0, "")
        done = automaton_from_doc(json.loads(out_path.read_text()))
        assert done.validate().is_complete
        for _ in range(5):
            spoke = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            w = parse_lasso(f"{spoke}({rng.choice('ab')})")
            assert membership_nondet(done, w) == membership_nondet(a, w)
        assert run_cli(["complete", str(out_path), "-o", str(again_path)]) == (0, "")
        assert again_path.read_text() == out_path.read_text()


def test_from_formula_machine_is_empty_exactly_when_unsat(tmp_path):
    out_path = tmp_path / "f.po2"
    for formula in ("v1 & !v1", "!v1 & v2", "(v1 | v2) & !v1 & !v2", "v1 & (!v1 | v3)"):
        assert run_cli(["from-formula", formula, "-o", str(out_path)]) == (0, "")
        sat, _ = run_cli(["sat", formula])
        empty, out = run_cli(["empty", str(out_path)])
        assert (sat, empty) in ((0, 1), (1, 0)), formula
        assert out.startswith("empty" if sat else "nonempty"), formula


def test_product_and_decision_commands(tmp_path):
    univ = tmp_path / "univ.po2"
    none = tmp_path / "none.po2"
    meet = tmp_path / "meet.po2"
    write(univ, universal_doc())
    write(none, empty_doc())

    code, out = run_cli(["product", "--op", "intersect", str(univ), str(none), "-o", str(meet)])
    assert code == 0
    code, out = run_cli(["empty", str(meet)])
    assert (code, out) == (0, "empty\n")

    code, out = run_cli(["universal", str(univ)])
    assert (code, out) == (0, "universal\n")
    code, out = run_cli(["universal", str(none)])
    assert code == 1
    assert out == "not universal, counterexample: (a)\n"

    code, out = run_cli(["includes", str(none), str(univ)])
    assert (code, out) == (0, "included\n")
    code, out = run_cli(["includes", str(univ), str(none)])
    assert code == 1
    assert out == "not included, counterexample: (a)\n"

    code, out = run_cli(["equiv", str(univ), str(univ)])
    assert (code, out) == (0, "equivalent\n")
    code, out = run_cli(["equiv", str(univ), str(none)])
    assert code == 1
    assert out == "not equivalent, accepted only by the first machine: (a)\n"

    comp = tmp_path / "comp.po2"
    code, _ = run_cli(["complement", str(none), "-o", str(comp)])
    assert code == 0
    code, out = run_cli(["equiv", str(comp), str(univ)])
    assert (code, out) == (0, "equivalent\n")


def test_product_of_machines_with_bars_in_names_and_letters(tmp_path):
    # Both operands' names and the letters contain "|", so product names
    # built from them could not be told apart: this pair used to exit 4.
    def doc(names, initial, edges):
        return {
            "alphabet": ["a", "b", "|"],
            "states": [
                {"name": z, "polarity": "X", "initial": z == initial, "final": False}
                for z in names
            ],
            "transitions": [{"from": s, "letter": c, "to": d} for s, c, d in edges],
        }

    left, right = tmp_path / "left.po2", tmp_path / "right.po2"
    write(left, doc([""], "", [("", c, "") for c in "ab|"]))
    write(right, doc(["1", "1|"], "1|", [("1", "a", "1"), ("1", "b", "1"), ("1", "|", "1"),
                                         ("1|", "a", "1"), ("1|", "b", "1|"), ("1|", "|", "1")]))
    for op in ("union", "intersect"):
        out = tmp_path / f"{op}.po2"
        code, _ = run_cli(["product", "--op", op, str(left), str(right), "-o", str(out)])
        assert code == 0
        code, report = run_cli(["validate", str(out)])
        assert (code, report) == (0, "well-formed: yes\ndeterministic: yes\ncomplete: yes\n")


def test_member_handles_nondeterministic_machines(tmp_path):
    # A second initial state that never accepts: the union accepts what the
    # first state's machine accepts.
    for doc, expected in ((universal_doc(), (0, "accepted\n")), (empty_doc(), (1, "rejected\n"))):
        doc["states"].append({"name": "alt", "polarity": "X", "initial": True, "final": False})
        doc["transitions"] += [
            {"from": "alt", "letter": "a", "to": "alt"},
            {"from": "alt", "letter": "b", "to": "alt"},
        ]
        src = tmp_path / "n.po2"
        write(src, doc)
        assert run_cli(["member", str(src), "ab(a)"]) == expected


def test_budget_exit_code(tmp_path):
    src = tmp_path / "showcase.po2"
    code, _ = run_cli(["from-monomial", "[ab]*a.[]*c.[c]w", "-o", str(src)])
    assert code == 0
    code, out = run_cli(["empty", str(src), "--budget", "1"])
    assert (code, out) == (3, "budget exceeded\n")
    code, out = run_cli(["equiv", str(src), str(src), "--budget", "1000"])
    assert (code, out) == (3, "budget exceeded\n")


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "showcase.po2"
    assert run_cli(["from-monomial", "[ab]*a.[]*c.[c]w", "-o", str(src)])[0] == 0
    capsys.readouterr()
    for argv in (
        ["empty", str(src), "--budget", "-5"],
        ["universal", str(src), "--budget", "-1"],
        ["includes", str(src), str(src), "--budget", "-2"],
        ["equiv", str(src), str(src), "--budget", "-4"],
        ["sat", "v1 & !v1", "--budget", "-3"],
    ):
        assert run_cli(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert err == f"error: budget must be at least 0, got {argv[-1]}\n", argv
    # Budget 0 is valid: the first candidate already exceeds it.
    assert run_cli(["sat", "v1 & !v1", "--budget", "0"]) == (3, "budget exceeded\n")


def test_usage_and_format_errors(tmp_path, capsys):
    src = tmp_path / "u.po2"
    write(src, universal_doc())

    assert main(["member", str(src), "ba("]) == 2
    assert "not a lasso" in capsys.readouterr().err

    assert main(["member", str(tmp_path / "missing.po2"), "a(a)"]) == 2
    capsys.readouterr()

    assert main(["from-monomial", "[a]*a.[a]w"]) == 2
    assert "restricted" in capsys.readouterr().err

    assert main(["from-formula", "v1 &"]) == 2
    assert "at byte 4" in capsys.readouterr().err

    notjson = tmp_path / "bad.po2"
    notjson.write_text("{", encoding="utf-8")
    assert main(["validate", str(notjson)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    capsys.readouterr()


def test_alphabet_mismatch_is_a_usage_error(tmp_path, capsys):
    left = tmp_path / "l.po2"
    right = tmp_path / "r.po2"
    write(left, universal_doc())
    doc = universal_doc()
    doc["alphabet"] = ["a", "c"]
    doc["transitions"][1]["letter"] = "c"
    write(right, doc)
    assert main(["includes", str(left), str(right)]) == 2
    assert "alphabet" in capsys.readouterr().err


def test_to_monomials_on_a_long_chain(tmp_path):
    src = tmp_path / "chain.po2"
    write(src, automaton_to_doc(one_letter_chain(2000)))
    code, out = run_cli(["to-monomials", str(src)])
    assert (code, out) == (0, "[]*a." * 1999 + "[a]w\n")


def test_to_monomials_on_a_large_decomposition(tmp_path):
    # 34 states over abc: the plain skeleton walk enters 1.3 M nodes here.
    src = tmp_path / "m.po2"
    literal = "[c]*b.[bc]*b.[c]*a.[bc]w"
    assert run_cli(["from-monomial", literal, "--alphabet", "abc", "-o", str(src)])[0] == 0
    code, out = run_cli(["to-monomials", str(src)])
    assert (code, out) == (
        0, "[c]*b.[bc]*b.[c]*b.[c]*a.[bc]w\n[c]*b.[c]*b.[c]*a.[bc]w\n"
    )


def test_to_monomials_on_the_66_state_machine(tmp_path):
    # 66 states, chain 39: keyed on the validated-marker mask, this
    # decomposition ran past 1.5 GB without ending.
    src = tmp_path / "big.po2"
    literal = "[bc]*a.[b]*c.[bc]*c.[b]*a.[bc]w"
    assert run_cli(["from-monomial", literal, "--alphabet", "abc", "-o", str(src)])[0] == 0
    code, out = run_cli(["to-monomials", str(src)])
    assert (code, out) == (
        0, "[bc]*a.[b]*c.[b]*c.[b]*a.[bc]w\n[bc]*a.[b]*c.[bc]*c.[b]*c.[b]*a.[bc]w\n"
    )


def test_internal_errors_exit_4(tmp_path, monkeypatch, capsys):
    def overflowing(args, out):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_sat", overflowing)
    assert main(["sat", "v1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1

    def broken(args, out):
        raise RuntimeError("internal: broken on purpose")

    monkeypatch.setattr(cli, "_cmd_stats", broken)
    assert main(["stats", str(tmp_path / "unread.po2")]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: internal: broken on purpose\n"


def test_running_out_of_memory_exits_4(tmp_path, monkeypatch, capsys):
    # Formatting the report while the traceback still held the partial
    # construction raised a second MemoryError, which left main: exit 1.
    def exhausted(args, out):
        raise MemoryError

    class Full:
        def write(self, text):
            raise MemoryError

    monkeypatch.setattr(cli, "_cmd_stats", exhausted)
    argv = ["stats", str(tmp_path / "unread.po2")]
    with monkeypatch.context() as m:
        m.setattr(sys, "stderr", Full())
        assert main(argv) == 4
    assert main(argv) == 4
    assert capsys.readouterr().err == "internal error: MemoryError\n"


def test_an_ambiguous_monomial_past_the_old_bound_exits_2(capsys):
    # Degree 7, ambiguous only past the old default bound of 12 positions:
    # the construction used to fail inside, expecting an unambiguous input.
    literal = "[ab]*a.[]*a.[]*b.[bc]*a.[c]*b.[]*b.[ab]*c.[bc]w"
    assert run_cli(["from-monomial", literal]) == (2, "")
    assert capsys.readouterr().err == (
        "error: monomial is ambiguous: aababbaabacbbc(b) fits two factorizations\n"
    )


def test_a_product_over_its_stack_bound_exits_4_not_1(tmp_path, monkeypatch, capsys):
    from po2buchi import boolean

    # The product of a machine with one state change pushes a letter, so a
    # stack bound shrunk to 0 trips the product's own guard.
    src, out = tmp_path / "m.po2", tmp_path / "p.po2"
    write(src, chain_doc())
    argv = ["product", "--op", "union", str(src), str(src), "-o", str(out)]
    assert run_cli(argv)[0] == 0
    monkeypatch.setattr(boolean, "chain_lengths", lambda m: (1, 1))
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith(
        "internal error: RuntimeError: internal: stack outgrew"
    )


def test_a_wrong_crossing_exits_4_not_1(tmp_path, monkeypatch, capsys):
    # Crossings that end every run in the final state f claim the witness
    # (a) for a machine that accepts only words with a b; the re-check by a
    # run from the tape start turns that into an internal error.
    from po2buchi import decide

    write(tmp_path / "m.po2", chain_doc())
    assert run_cli(["empty", str(tmp_path / "m.po2")]) == (1, "nonempty, witness: (b)\n")
    monkeypatch.setattr(decide, "crosser", lambda w: lambda cell, z: ("f", 0))
    assert main(["empty", str(tmp_path / "m.po2")]) == 4
    assert capsys.readouterr().err.startswith("internal error: RuntimeError: internal: ")


def test_sat_on_a_deeply_nested_formula():
    code, out = run_cli(["sat", "(" * 300 + "v1" + ")" * 300])
    assert (code, out) == (0, "sat v1=1\n")


def test_sat_on_long_conjunctions():
    # The formula machine is built in one pass, with no recursion.
    for terms in (1200, 10_000):
        code, out = run_cli(["sat", " & ".join(["v1"] * terms)])
        assert (code, out) == (0, "sat v1=1\n")


def test_reports_are_deterministic(tmp_path):
    src = tmp_path / "showcase.po2"
    run_cli(["from-monomial", "[ab]*a.[]*c.[c]w", "-o", str(src)])
    first = run_cli(["stats", str(src)])
    second = run_cli(["stats", str(src)])
    assert first == second
    assert src.read_text() == src.read_text()


def test_cycle_report_ignores_the_hash_seed(tmp_path):
    # Two cycles, p -> q -> r -> p and s -> t -> s.
    doc = {
        "alphabet": ["a"],
        "states": [
            {"name": z, "polarity": "X", "initial": z == "p", "final": False}
            for z in "pqrst"
        ],
        "transitions": [
            {"from": s, "letter": "a", "to": d}
            for s, d in ("pq", "qr", "rp", "st", "ts")
        ],
    }
    src = tmp_path / "cyclic.po2"
    write(src, doc)
    package_root = str(Path(po2buchi.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("1", "2", "3", "4", "5", "6"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_root)
        proc = subprocess.run(
            [sys.executable, "-m", "po2buchi.cli", "validate", str(src)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {
        "well-formed: no\n"
        "deterministic: yes\n"
        "complete: yes\n"
        "violation: po2: state-changing transitions form a cycle: ['p', 'q', 'r', 'p']\n"
    }


def test_quotiented_determinization_ignores_the_hash_seed():
    # Two first-occurrence cases, so the product takes quotiented operands.
    package_root = str(Path(po2buchi.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_root)
        proc = subprocess.run(
            [sys.executable, "-m", "po2buchi.cli", "from-monomial",
             "[c]*c.[a]*a.[]*b.[ab]w", "--alphabet", "abc"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert len(json.loads(outputs.pop())["states"]) == 946


def test_from_monomial_with_an_empty_tail():
    # Restricted, and its language is empty: one rejecting state, exit 0.
    code, out = run_cli(["from-monomial", "[a]*b.[]*c.[ac]*a.[ac]*b.[]w"])
    assert code == 0
    states = json.loads(out)["states"]
    assert states == [{"name": "dead", "polarity": "X", "initial": True, "final": False}]


def test_golden_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = (DATA / "showcase_transcript.txt").read_text(encoding="utf-8")
    assert transcript(TRANSCRIPT_COMMANDS) == expected


# What a fresh interpreter has loaded of the package after each transcript
# subcommand: every handler imports only the modules it uses.
COLD_MODULES = {
    "from-monomial": {"boolean", "monomials", "run", "words"},
    "validate": set(),
    "stats": set(),
    "member": {"run", "words"},
    "run": {"run", "words"},
    "empty": {"decide", "run", "words"},
    "to-monomials": {"boolean", "monomials", "run", "words"},
    "sat": {"decide", "run", "satred", "words"},
}

# Standard-library modules too slow to import for a short process:
# dataclasses imports inspect, and inspect imports dis, ast and tokenize.
SLOW_IMPORTS = {"dataclasses", "inspect"}

COLD_MAIN = """
import sys
from po2buchi import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(*sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""


def fresh_env() -> dict[str, str]:
    package_root = str(Path(po2buchi.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=package_root)


def fresh_modules(code: str) -> set[str]:
    """The modules a new interpreter has loaded after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=fresh_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def cold_transcript(tmp_path_factory):
    """The transcript with each subcommand run in a new interpreter, and for
    each subcommand the module sets its interpreters had loaded at exit."""
    cwd = tmp_path_factory.mktemp("cold")
    loaded: dict[str, set[frozenset[str]]] = {}

    def run_cold(argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-c", COLD_MAIN, *argv],
            capture_output=True, text=True, env=fresh_env(), cwd=cwd, timeout=120,
        )
        # The module list is the only line the transcript writes to stderr.
        assert proc.stderr.count("\n") == 1, proc.stderr
        loaded.setdefault(argv[0], set()).add(frozenset(proc.stderr.split()))
        return proc.returncode, proc.stdout

    return transcript(TRANSCRIPT_COMMANDS, run=run_cold), loaded


def test_golden_transcript_in_fresh_processes(cold_transcript):
    text, loaded = cold_transcript
    assert text == (DATA / "showcase_transcript.txt").read_text(encoding="utf-8")
    base = {"po2buchi", "po2buchi.cli", "po2buchi.core"}
    assert {
        command: {frozenset(m for m in run if m.partition(".")[0] == "po2buchi") for run in runs}
        for command, runs in loaded.items()
    } == {
        command: {frozenset(base | {f"po2buchi.{m}" for m in extra})}
        for command, extra in COLD_MODULES.items()
    }


def test_no_subcommand_or_public_name_loads_inspect(cold_transcript):
    slow = SLOW_IMPORTS - fresh_modules("pass")
    _, loaded = cold_transcript
    assert {command: slow & set().union(*runs) for command, runs in loaded.items()} == {
        command: set() for command in COLD_MODULES
    }
    public = fresh_modules("import po2buchi\nfor n in po2buchi.__all__: getattr(po2buchi, n)")
    assert public >= {f"po2buchi.{m}" for extra in COLD_MODULES.values() for m in extra}
    assert slow & public == set()
