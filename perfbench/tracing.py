"""Spans around the program's public functions, installed from outside.

:func:`install` replaces each traced function by a wrapper under every name
a caller looks it up by (``decide.run_det``, ``boolean.tracker_table``,
``monomials.product_union``, ...), and wraps the ``Po2Automaton``
constructor and its ``validate`` method on the class.  No file of the
program changes.  A wrapper times its call, subtracts the time of the spans
opened inside it to get its self time, and adds both to per-key totals kept
in memory.  Functions the program no longer has are skipped, and the
metrics built from them are left out of the report.

Accessors that run tens of millions of times (``det_successor``,
``successors``, ``is_x``, ``selfloop_letters``) and the ``words`` module are
not wrapped: a span there would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("core", "run", "compat", "boolean", "monomials", "decide", "satred", "cli")

# key -> (defining module, function names)
FUNCTIONS = {
    "core.transform": (
        "core",
        ("complete", "complement", "ensure_x_initial", "prune_unreachable", "relabel",
         "chain_lengths"),
    ),
    "run.run_det": ("run", ("run_det",)),
    "run.membership_nondet": ("run", ("membership_nondet",)),
    "compat.tracker": ("compat", ("tracker_table",)),
    "boolean.product": ("boolean", ("product_union", "product_intersection")),
    "monomials.determinize": ("monomials", ("monomial_to_deterministic",)),
    "monomials.relativize": ("monomials", ("relativize",)),
    "monomials.acceptor": ("monomials", ("finite_monomial_acceptor",)),
    "monomials.decompose": ("monomials", ("automaton_to_polynomial",)),
    "decide": ("decide", ("is_empty", "includes", "equivalent", "is_universal")),
    "satred.parse": ("satred", ("parse_formula",)),
    "satred.build": ("satred", ("build_sat_automaton",)),
    "cli.load": ("cli", ("_load",)),
    "cli.save": ("cli", ("_save",)),
}
METHODS = {"core.build": "__init__", "core.validate": "validate"}


class Tracer:
    """Per-key call counts, self times and work counters for one process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [key, time covered by child spans]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.installed: set = set()
        self.decide_depth = 0
        self.cache_info = None

    def wrap(self, key: str, fn, on_result=None):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        is_decide = key == "decide"
        is_run = key.startswith("run.")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if is_decide:
                if self.decide_depth == 0:
                    self.counts["decide.queries"] += 1
                self.decide_depth += 1
            elif is_run and self.decide_depth:
                self.counts["decide.tests"] += 1
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - frame[1]
                if is_decide:
                    self.decide_depth -= 1
            if on_result is not None:
                on_result(result)
            return result

        return span

    def snapshot(self) -> dict:
        counts = dict(self.counts)
        # Without a cache every tracker call builds its table.
        counts["compat.tracker.builds"] = (
            self.cache_info().misses if self.cache_info else self.calls["compat.tracker"]
        )
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": counts,
            "installed": sorted(self.installed),
        }


def install(tracer: Tracer) -> None:
    """Wrap every traced function the program has, under all its names."""
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"po2buchi.{name}")
        except ImportError:
            continue

    def count(key: str, measure):
        def on_result(result):
            tracer.counts[key] += measure(result)
        return on_result

    extra = {
        "run.run_det": count("run.run_det.steps", lambda out: out.steps),
        "boolean.product": count("boolean.product.states", lambda a: len(a.states)),
        "monomials.decompose": count("monomials.decompose.monomials", len),
        "satred.build": count("satred.build.states", lambda a: len(a.states)),
    }
    for key, (home, names) in FUNCTIONS.items():
        for fname in names:
            original = getattr(mods.get(home), fname, None)
            if original is None:
                continue
            if key == "compat.tracker":
                tracer.cache_info = getattr(original, "cache_info", None)
            wrapper = tracer.wrap(key, original, extra.get(key))
            for mod in mods.values():
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
            tracer.installed.add(key)

    automaton = getattr(mods.get("core"), "Po2Automaton", None)
    for key, method in METHODS.items():
        original = getattr(automaton, method, None)
        if original is not None:
            setattr(automaton, method, tracer.wrap(key, original))
            tracer.installed.add(key)

    cli = mods.get("cli")
    if cli is not None:
        for fname in dir(cli):
            if fname.startswith("_cmd_"):
                setattr(cli, fname, tracer.wrap("cli.command", getattr(cli, fname)))
                tracer.installed.add("cli.command")


def merge(total: dict, part: dict) -> None:
    """Add one snapshot into another (for spans recorded in child processes)."""
    for field in ("calls", "self_s", "counts"):
        bucket = total.setdefault(field, {})
        for key, value in part[field].items():
            bucket[key] = bucket.get(key, 0) + value
    total["installed"] = sorted(set(total.get("installed", [])) | set(part["installed"]))


def subtract(after: dict, before: dict) -> dict:
    """The spans recorded between two snapshots of one tracer."""
    out = {"installed": after["installed"]}
    for field in ("calls", "self_s", "counts"):
        out[field] = {
            k: v - before[field].get(k, 0) for k, v in after[field].items()
        }
    return out


# (metric, span key, unit, field): the field is "calls", "self_s", or a
# counter of the same name as the metric.
METRICS = [
    ("core.validate.calls", "core.validate", "count", "calls"),
    ("core.validate.self_s", "core.validate", "s", "self_s"),
    ("core.build.calls", "core.build", "count", "calls"),
    ("core.build.self_s", "core.build", "s", "self_s"),
    ("core.transform.self_s", "core.transform", "s", "self_s"),
    ("run.run_det.calls", "run.run_det", "count", "calls"),
    ("run.run_det.self_s", "run.run_det", "s", "self_s"),
    ("run.run_det.steps", "run.run_det", "count", "counts"),
    ("run.membership_nondet.calls", "run.membership_nondet", "count", "calls"),
    ("run.membership_nondet.self_s", "run.membership_nondet", "s", "self_s"),
    ("compat.tracker.calls", "compat.tracker", "count", "calls"),
    ("compat.tracker.builds", "compat.tracker", "count", "counts"),
    ("compat.tracker.self_s", "compat.tracker", "s", "self_s"),
    ("boolean.product.calls", "boolean.product", "count", "calls"),
    ("boolean.product.self_s", "boolean.product", "s", "self_s"),
    ("boolean.product.states", "boolean.product", "count", "counts"),
    ("monomials.determinize.calls", "monomials.determinize", "count", "calls"),
    ("monomials.determinize.self_s", "monomials.determinize", "s", "self_s"),
    ("monomials.relativize.calls", "monomials.relativize", "count", "calls"),
    ("monomials.relativize.self_s", "monomials.relativize", "s", "self_s"),
    ("monomials.acceptor.calls", "monomials.acceptor", "count", "calls"),
    ("monomials.acceptor.self_s", "monomials.acceptor", "s", "self_s"),
    ("monomials.decompose.calls", "monomials.decompose", "count", "calls"),
    ("monomials.decompose.self_s", "monomials.decompose", "s", "self_s"),
    ("monomials.decompose.monomials", "monomials.decompose", "count", "counts"),
    ("decide.queries", "decide", "count", "counts"),
    ("decide.tests", "decide", "count", "counts"),
    ("decide.self_s", "decide", "s", "self_s"),
    ("satred.parse.self_s", "satred.parse", "s", "self_s"),
    ("satred.build.self_s", "satred.build", "s", "self_s"),
    ("satred.build.states", "satred.build", "count", "counts"),
    ("cli.load_s", "cli.load", "s", "self_s"),
    ("cli.save_s", "cli.save", "s", "self_s"),
    ("cli.command.self_s", "cli.command", "s", "self_s"),
]


def layer_metrics(snap: dict, scale: float) -> dict:
    """Metric -> [unit, value * scale] for every span key that was installed."""
    installed = set(snap["installed"])
    out = {}
    for name, key, unit, field in METRICS:
        if key in installed:
            bucket = snap[field]
            out[name] = [unit, bucket.get(name if field == "counts" else key, 0) * scale]
    return out
