"""Partially ordered two-way Buchi automata.

Constructions (boolean closure, monomial translations), decision procedures
(emptiness, inclusion, equivalence, universality) and a satisfiability
reduction for machines whose self-loop-free transition graph is acyclic.

Importing the package loads no submodule: each public name below is
imported from its home module on first access (PEP 562), so a ``po2``
process pays only for the modules its subcommand uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "boolean": ("product_intersection", "product_union"),
    "core": (
        "BudgetExceeded",
        "LEND",
        "Po2Automaton",
        "ValidationReport",
        "chain_lengths",
        "complement",
        "complete",
        "disjoint_union",
        "ensure_x_initial",
        "minimize",
        "prune_unreachable",
        "relabel",
        "require",
    ),
    "decide": ("Witness", "equivalent", "includes", "is_empty", "is_universal"),
    "monomials": (
        "Monomial",
        "automaton_to_polynomial",
        "is_unambiguous_bounded",
        "monomial_from_joint_runs",
        "monomial_member",
        "monomial_to_automaton",
        "monomial_to_deterministic",
        "parse_monomial",
        "polynomial_to_automaton",
    ),
    "run": ("ACCEPTED", "REJECTED", "RunOutcome", "membership_nondet", "run_det"),
    "satred": (
        "And",
        "FormulaSyntaxError",
        "Not",
        "Or",
        "PropFormula",
        "Var",
        "build_sat_automaton",
        "parse_formula",
        "sat_via_emptiness",
        "var_count",
    ),
    "words": ("LassoWord", "parse_lasso"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: importing it binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Value:
    """Immutable value compared, hashed and shown by its fields, as a frozen
    dataclass is.

    A subclass's fields are the names annotated in its own body, in order,
    and a class attribute of the same name is that field's default.  The
    shared constructor binds positional and keyword arguments to the fields
    as a written-out ``__init__`` would; a subclass that normalizes its
    arguments writes its fields with ``object.__setattr__`` instead.

    Defined here, not in :mod:`core`, so that :mod:`words` builds on it
    without loading another module.  The package does not use
    :mod:`dataclasses`: importing it loads :mod:`inspect`, which costs each
    short ``po2`` process about 7 ms.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} arguments, got {len(args)}"
            )
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            what = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{type(self).__name__}() got {what} argument {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
