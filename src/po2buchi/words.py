"""Finite words, lasso words, and the prefix-compatibility calculus.

Finite words are plain strings; every character is one letter.  Infinite
words are restricted to the ultimately periodic ("lasso") shape
``spoke + period + period + ...`` because all decision procedures in this
package only ever need witnesses of that shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

PREPEND = "prepend"
STRIP = "strip"


@dataclass(frozen=True)
class LassoWord:
    """An ultimately periodic infinite word ``spoke . period^w``.

    Equality is structural: ``LassoWord("a", "b")`` and ``LassoWord("ab", "b")``
    denote the same infinite word but are distinct values.  Semantic
    operations (membership, monomial matching) must not depend on the chosen
    representation; tests pin that down.
    """

    spoke: str
    period: str

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("lasso word needs a nonempty period")

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


def is_scattered_subword(x: str, w: str) -> bool:
    """True iff ``x`` can be embedded in ``w`` preserving order (x <= w)."""
    it = iter(w)
    return all(c in it for c in x)


@dataclass(frozen=True)
class PrefixFactorization:
    """The greedy marker factorization ``u1 a1 ... um am . residual``.

    ``markers[i]`` is the first occurrence of that letter after segment
    ``segments[i]``, and never occurs inside it.  ``residual`` is whatever
    remains after the last marker (a finite word or a lasso tail).
    """

    segments: tuple[str, ...]
    markers: tuple[str, ...]
    residual: "str | LassoWord"

    def __post_init__(self) -> None:
        if len(self.segments) != len(self.markers):
            raise ValueError("segments and markers must pair up")
        for u, a in zip(self.segments, self.markers):
            if a in u:
                raise ValueError(f"marker {a!r} occurs inside its segment {u!r}")

    @property
    def marker_count(self) -> int:
        return len(self.markers)

    def factored_prefix(self, start: int = 1) -> str:
        """The finite word ``u_start a_start ... um am``."""
        if not 1 <= start <= len(self.markers) + 1:
            raise ValueError(f"start index {start} out of range")
        return "".join(
            u + a for u, a in zip(self.segments[start - 1 :], self.markers[start - 1 :])
        )

    @property
    def prefix_length(self) -> int:
        return len(self.factored_prefix())


def _letter(w: str | LassoWord, i: int) -> str | None:
    """1-based letter access; None past the end of a finite word."""
    if isinstance(w, LassoWord):
        return w.letter_at(i)
    return w[i - 1] if i <= len(w) else None


def prefix_factorize(w: str | LassoWord, v: str) -> PrefixFactorization | None:
    """Greedy factorization of ``w`` along the marker word ``v``.

    Each marker is matched to its first occurrence after the previous one,
    which makes every segment marker-free and the factorization unique.
    Returns None when some marker never occurs in the remaining word.  For
    lasso input a letter absent within one full period past the previous
    marker (and past the spoke) is absent forever, so the search window for
    each marker is bounded.
    """
    segments: list[str] = []
    pos = 1
    for a in v:
        if isinstance(w, LassoWord):
            horizon = max(pos, len(w.spoke)) + len(w.period)
        else:
            horizon = len(w)
        hit = None
        for q in range(pos, horizon + 1):
            if _letter(w, q) == a:
                hit = q
                break
        if hit is None:
            return None
        chunk = "".join(_letter(w, i) for i in range(pos, hit))  # type: ignore[misc]
        segments.append(chunk)
        pos = hit + 1
    if isinstance(w, LassoWord):
        residual: str | LassoWord = w.suffix_from(pos)
    else:
        residual = w[pos - 1 :]
    return PrefixFactorization(tuple(segments), tuple(v), residual)


def is_k_prefix_compatible(w: str, k: int, f: PrefixFactorization) -> bool:
    """Whether ``w`` fits the factored prefix at index ``k``.

    ``w`` must contain ``a_k ... a_m`` as a scattered subword and be a
    suffix of ``u_k a_k ... u_m a_m``.
    """
    m = f.marker_count
    if not 1 <= k <= m:
        raise ValueError(f"index {k} out of range 1..{m}")
    tail_markers = "".join(f.markers[k - 1 :])
    return is_scattered_subword(tail_markers, w) and f.factored_prefix(k).endswith(w)


def compatibility_step(
    direction: str, letter: str, index: int, f: PrefixFactorization
) -> int | None:
    """Transfer a compatibility index across one letter.

    ``prepend`` maps an index valid for ``w`` to one valid for ``letter + w``;
    ``strip`` maps an index valid for ``letter + w`` to one valid for ``w``.
    Returns None in the single strip case (index m, letter equal to the last
    marker) that forces ``w`` to be empty.
    """
    m = f.marker_count
    if not 1 <= index <= m:
        raise ValueError(f"index {index} out of range 1..{m}")
    a = f.markers
    if direction == PREPEND:
        if index == 1:
            return 1
        return index - 1 if letter == a[index - 2] else index
    if direction == STRIP:
        if index < m:
            return index + 1 if letter == a[index - 1] else index
        return None if letter == a[m - 1] else m
    raise ValueError(f"direction must be {PREPEND!r} or {STRIP!r}, got {direction!r}")
