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

BLANK = "_"


class FormatError(ValueError):
    """Text does not parse as a string over the given alphabet."""


class IncompatibleStrings(ValueError):
    """Join requested for strings that disagree on a shared position."""


def _immutable(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the value types: fields are
    set once, in ``__init__``."""
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class Alphabet:
    """An ordered set of single-character letters.

    The declared order is the canonical one; it drives word enumeration
    and every deterministic ordering of output. Alphabets are immutable
    values: equal when their letters are.
    """

    def __init__(self, letters: tuple[str, ...]):
        if not letters:
            raise ValueError("alphabet must be nonempty")
        for ch in letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise ValueError(f"letters must be single characters, got {ch!r}")
            if ch == BLANK:
                raise ValueError(f"{BLANK!r} is reserved for blank positions")
        if len(set(letters)) != len(letters):
            raise ValueError("letters must be distinct")
        object.__setattr__(self, "letters", letters)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet(letters={self.letters!r})"

    @classmethod
    def of(cls, letters: Iterable[str]) -> "Alphabet":
        return cls(tuple(letters))

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise FormatError(f"letter {letter!r} not in alphabet {''.join(self.letters)!r}") from None

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)


BINARY = Alphabet.of("01")
TERNARY = Alphabet.of("012")


class PartialString:
    """An immutable finite map from positions (>= 1) to letters.

    ``pairs`` is kept sorted by position; equality and hashing follow from
    that canonical form.
    """

    def __init__(self, pairs: Iterable[tuple[int, str]]):
        pairs = tuple(sorted(pairs))
        positions = [p for p, _ in pairs]
        if any(not isinstance(p, int) or p < 1 for p in positions):
            raise ValueError("positions must be integers >= 1")
        if len(set(positions)) != len(positions):
            raise ValueError("duplicate position in partial string")
        for _, ch in pairs:
            if not isinstance(ch, str) or len(ch) != 1:
                raise ValueError(f"letters must be single characters, got {ch!r}")
        object.__setattr__(self, "pairs", pairs)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    @classmethod
    def of(cls, assignments: Mapping[int, str] | Iterable[tuple[int, str]]) -> "PartialString":
        items = assignments.items() if isinstance(assignments, Mapping) else assignments
        return cls(tuple(items))

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
    def domain(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    @property
    def size(self) -> int:
        """Greatest defined position; 0 for the void string."""
        return self.pairs[-1][0] if self.pairs else 0

    def get(self, position: int) -> str | None:
        for p, ch in self.pairs:
            if p == position:
                return ch
        return None

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, str]]:
        return iter(self.pairs)

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
        return PartialString(tuple(merged.items()))

    def __and__(self, other: "PartialString") -> "PartialString":
        return self.meet(other)

    def __or__(self, other: "PartialString") -> "PartialString":
        return self.join(other)

    # -- restrictions ----------------------------------------------------

    def immediate_restrictions(self) -> tuple["PartialString", ...]:
        """Every string obtained by deleting exactly one position."""
        return tuple(
            PartialString(self.pairs[:i] + self.pairs[i + 1:])
            for i in range(len(self.pairs)))

    def restrict(self, positions: Iterable[int]) -> "PartialString":
        keep = set(positions)
        return PartialString(tuple((p, ch) for p, ch in self.pairs if p in keep))


VOID = PartialString(())


def parse_string(text: str, alphabet: Alphabet) -> PartialString:
    return PartialString.parse(text, alphabet)
