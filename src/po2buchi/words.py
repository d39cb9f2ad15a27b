"""Finite words and lasso words.

Finite words are plain strings; every character is one letter.  Infinite
words are restricted to the ultimately periodic ("lasso") shape
``spoke + period + period + ...`` because all decision procedures in this
package only ever need witnesses of that shape.
"""

from __future__ import annotations

import re
from functools import cached_property

from . import _Value


class LassoWord(_Value):
    """An ultimately periodic infinite word ``spoke . period^w``.

    Equality is structural: ``LassoWord("a", "b")`` and ``LassoWord("ab", "b")``
    denote the same infinite word but are distinct values.  Semantic
    operations (membership, monomial matching) must not depend on the chosen
    representation; tests pin that down.

    A frozen value on the shared base ``po2buchi._Value``, which the
    package's ``__init__`` defines, so that parsing a lasso word loads no
    other module of the package.
    """

    spoke: str
    period: str

    def __init__(self, spoke: str, period: str) -> None:
        if not period:
            raise ValueError("lasso word needs a nonempty period")
        super().__init__(spoke, period)

    def letter_at(self, i: int) -> str:
        """Letter at 1-based position ``i``."""
        if i < 1:
            raise ValueError(f"positions are 1-based, got {i}")
        if i <= len(self.spoke):
            return self.spoke[i - 1]
        return self.period[(i - len(self.spoke) - 1) % len(self.period)]

    def prefix(self, n: int) -> str:
        """The first ``n`` letters as a finite word."""
        reps = 0 if n <= len(self.spoke) else -(-(n - len(self.spoke)) // len(self.period))
        return (self.spoke + self.period * reps)[:n]

    def suffix_from(self, i: int) -> "LassoWord":
        """The lasso word starting at 1-based position ``i``."""
        if i < 1:
            raise ValueError(f"positions are 1-based, got {i}")
        consumed = i - 1
        if consumed <= len(self.spoke):
            return LassoWord(self.spoke[consumed:], self.period)
        d = (consumed - len(self.spoke)) % len(self.period)
        return LassoWord(self.period[d:], self.period)

    @cached_property
    def alphabet(self) -> frozenset[str]:
        return frozenset(self.spoke) | frozenset(self.period)

    def __str__(self) -> str:
        return f"{self.spoke}({self.period})"


_LASSO_RE = re.compile(r"^(?P<spoke>[^()\s]*)\((?P<period>[^()\s]+)\)$")


def parse_lasso(text: str) -> LassoWord:
    """Parse the ``u(v)`` literal form, e.g. ``bac(c)``."""
    m = _LASSO_RE.match(text)
    if m is None:
        raise ValueError(f"not a lasso literal (expected u(v) with nonempty v): {text!r}")
    return LassoWord(m.group("spoke"), m.group("period"))

