"""Partial strings: finite maps from 1-based positions to letters.

A partial string prescribes letters at some positions and leaves the rest
blank; a word is the special case where an initial segment 1..L is fully
prescribed. Extension (``f <= g``) orders strings by information content,
with the void string at the bottom. Any two strings have a meet (their
agreement); compatible strings also have a join (their union).

Strings do not carry their alphabet. Letters are validated against an
:class:`Alphabet` at parse time and wherever a string meets a fixed-length
universe.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .values import Value

BLANK = "_"


class FormatError(ValueError):
    """Text does not parse as a string over the given alphabet."""


class IncompatibleStrings(ValueError):
    """Join requested for strings that disagree on a shared position."""


class Alphabet(Value):
    """An ordered set of single-character letters, taken from any iterable
    of them: ``Alphabet("01") == Alphabet(["0", "1"])``.

    The declared order is the canonical one; it drives word enumeration
    and every deterministic ordering of output. Alphabets are immutable
    values: equal when their letters are.
    """

    _fields = ("letters",)

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must be nonempty")
        for ch in letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise ValueError(f"letters must be single characters, got {ch!r}")
            if ch == BLANK:
                raise ValueError(f"{BLANK!r} is reserved for blank positions")
        if len(set(letters)) != len(letters):
            raise ValueError("letters must be distinct")
        super().__init__(letters)

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise FormatError(
                f"letter {letter!r} not in alphabet {''.join(self.letters)!r}") from None

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)


BINARY = Alphabet("01")
TERNARY = Alphabet("012")


class PartialString(Value):
    """An immutable finite map from positions (>= 1) to letters, built from
    (position, letter) pairs or a mapping of them.

    ``pairs`` is kept sorted by position; equality and hashing follow from
    that canonical form.
    """

    _fields = ("pairs",)

    def __init__(self, pairs: Mapping[int, str] | Iterable[tuple[int, str]]):
        pairs = tuple(pairs.items() if isinstance(pairs, Mapping) else pairs)
        positions = [p for p, _ in pairs]
        if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in positions):
            raise ValueError("positions must be integers >= 1")
        if len(set(positions)) != len(positions):
            raise ValueError("duplicate position in partial string")
        for _, ch in pairs:
            if not isinstance(ch, str) or len(ch) != 1:
                raise ValueError(f"letters must be single characters, got {ch!r}")
        super().__init__(tuple(sorted(pairs)))

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet) -> "PartialString":
        """Read a string from its text form: one character per position,
        ``_`` for blanks. Trailing blanks do not enlarge the domain."""
        pairs = []
        for i, ch in enumerate(text, start=1):
            if ch == BLANK:
                continue
            if ch not in alphabet:
                raise FormatError(f"unexpected character {ch!r} at position {i}")
            pairs.append((i, ch))
        return cls(tuple(pairs))

    # -- basic views ---------------------------------------------------

    @property
    def size(self) -> int:
        """Greatest defined position; 0 for the void string."""
        return self.pairs[-1][0] if self.pairs else 0

    def __len__(self) -> int:
        return len(self.pairs)

    def render(self, length: int | None = None) -> str:
        """Text form, padded with blanks to ``length`` (defaults to size)."""
        L = self.size if length is None else length
        if length is not None and self.size > length:
            raise ValueError(f"string of size {self.size} does not fit length {length}")
        cells = [BLANK] * L
        for p, ch in self.pairs:
            cells[p - 1] = ch
        return "".join(cells)

    def __repr__(self) -> str:
        return f"PartialString({self.render()!r})"

    # -- the extension order -------------------------------------------

    def extends(self, other: "PartialString") -> bool:
        """True when this string agrees with ``other`` everywhere ``other``
        is defined (other <= self)."""
        mine = dict(self.pairs)
        return all(mine.get(p) == ch for p, ch in other.pairs)

    def __le__(self, other: "PartialString") -> bool:
        return other.extends(self)

    def __ge__(self, other: "PartialString") -> bool:
        return self.extends(other)

    def __lt__(self, other: "PartialString") -> bool:
        return self != other and other.extends(self)

    def __gt__(self, other: "PartialString") -> bool:
        return self != other and self.extends(other)

    # -- meet / join ----------------------------------------------------

    def compatible(self, other: "PartialString") -> bool:
        """True when no shared position is assigned differently."""
        theirs = dict(other.pairs)
        return all(theirs.get(p, ch) == ch for p, ch in self.pairs)

    def meet(self, other: "PartialString") -> "PartialString":
        """Greatest common restriction: the shared agreement."""
        theirs = dict(other.pairs)
        return PartialString(tuple((p, ch) for p, ch in self.pairs if theirs.get(p) == ch))

    def join(self, other: "PartialString") -> "PartialString":
        """Least common extension; raises for incompatible strings."""
        merged = dict(self.pairs)
        for p, ch in other.pairs:
            if merged.setdefault(p, ch) != ch:
                raise IncompatibleStrings(
                    f"position {p}: {merged[p]!r} vs {ch!r}")
        return PartialString(merged)

    def __and__(self, other: "PartialString") -> "PartialString":
        return self.meet(other)

    def __or__(self, other: "PartialString") -> "PartialString":
        return self.join(other)


VOID = PartialString(())
