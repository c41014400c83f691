"""Fixed-length word universes ("slices") and cylinder operators.

A slice restricts a reference set of words to one length L over one
alphabet, which makes every quantifier in the calculus exhaustively
checkable. Words are packed into integers (base k, position 1 most
significant) so that ascending integer order is exactly the canonical
lexicographic order. A partial string restricted to a slice is a tuple of
(position, letter index) pairs, the form the engine keeps reduced-logogram
members in and :func:`text_of_pairs` renders; :meth:`Slice.cylinder_of`
takes strings from outside it. A set of words is held as a bitmask, bit i
standing for packed word i, and this is the only form a word set takes:
the slice's own membership is one mask, E, and the words extending a
string (its cylinder) are that mask ANDed with per-position masks. Word
lists from outside enter through one packer, :meth:`Slice.mask_of_words`;
word tuples are decoded from a mask only where a caller lists words.

It is the one place that layout lives, and the only module that reads E,
the per-position masks or single bits of a mask. Other layers reach a word
set through these primitives:

- :meth:`Slice.letters_of` decodes a packed word; :meth:`Slice.cofactors`
  splits a mask over positions p..L on p, the only tail-space primitive;
- :meth:`Slice.restrict` keeps the words of a mask over the cube that
  extend some pairs, :meth:`Slice.cylinder` is that restriction of E, and
  :meth:`Slice.expansion` the union of cylinders;
- :meth:`Slice.complement` is a mask's complement within E, and
  :meth:`Slice.stray` the lowest word of a mask outside E, for the caller
  to name in its own error;
- :meth:`Slice.forced_row` is the letter row a non-empty mask forces;
- :func:`count`, :func:`holds`, :func:`lowest` and :func:`set_bits` count,
  test and scan the words of a mask.

``&``, ``|``, ``^`` and ``~`` between two word sets are the set algebra
itself, so callers use them as they are: a method per operator would only
rename it and add a call to the search's innermost loop.
:func:`member_rows`, :func:`letter_row` and :func:`members_inside` find the
members of a list of strings that a restriction includes.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import and_, getitem, or_
from typing import Iterable, Iterator, Sequence

from .strings import BLANK, Alphabet, FormatError, PartialString

# Hard cap on materialized universes; desk-scale analyses stay far below it.
MAX_UNIVERSE = 1 << 22

Pairs = tuple[tuple[int, int], ...]  # ((position, letter index), ...)

# The set bits of each byte value, ascending, for decoding masks.
_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))


class DegenerateSliceError(ValueError):
    """The slice's word set is empty."""


class Slice:
    """The words of one length over one alphabet: all of them, or an
    explicit set.

    ``membership`` is ``"all"`` or a collection of words, packed by
    :meth:`mask_of_words`. Either way it becomes one mask, :meth:`e_mask`,
    at construction, and :class:`DegenerateSliceError` is raised when it
    holds no word. Slices are immutable; derived tables are cached on first
    use.
    """

    def __init__(self, alphabet: Alphabet, length: int,
                 membership: str | Iterable = "all", label: str = ""):
        if length < 1:
            raise ValueError("length must be >= 1")
        k = len(alphabet)
        if k ** length > MAX_UNIVERSE:
            raise ValueError(f"universe of {k}^{length} words exceeds the supported size")
        self.alphabet = alphabet
        self.length = length
        self.label = label or f"{''.join(alphabet)}^{length}"
        self._word_weights = tuple(k ** (length - p) for p in range(1, length + 1))
        self._splits = tuple(((1 << w) - 1, range(0, k * w, w)) for w in self._word_weights)
        self._position_masks: tuple[tuple[int, ...], ...] | None = None
        self._halves: tuple | None = None
        self._cube = (1 << self.total_words) - 1
        self.is_full = membership == "all"
        if self.is_full:
            self._e_mask = self._cube
        else:
            self._e_mask = self.mask_of_words(membership)
            if not self._e_mask:
                raise DegenerateSliceError(f"{self.label}: empty word set")

    # -- word packing ----------------------------------------------------

    @property
    def total_words(self) -> int:
        return len(self.alphabet) ** self.length

    def word_of_int(self, value: int) -> PartialString:
        return PartialString(tuple(enumerate(self.text_of_int(value), 1)))

    def letters_of(self, value: int) -> tuple[int, ...]:
        """The letter index per position of the packed word ``value``, joined from
        lazy tables of the first ceil(L/2) and last floor(L/2) positions' letters."""
        if self._halves is None:
            k, tail = len(self.alphabet), self.length // 2
            self._halves = (k ** tail, tuple(product(range(k), repeat=self.length - tail)),
                            tuple(product(range(k), repeat=tail)))
        base, heads, tails = self._halves
        head, tail = divmod(value, base)
        return heads[head] + tails[tail]

    def text_of_int(self, value: int) -> str:
        return "".join(map(self.alphabet.letters.__getitem__, self.letters_of(value)))

    def mask_of_words(self, words: Iterable) -> int:
        """Words from outside the slice as a mask over the cube: texts,
        total strings or packed ints. Raises :class:`FormatError` on the
        first that is no word of this length over this alphabet: a text or
        string of another length, with a blank or an unknown letter, a bool,
        or an int out of range. Whether the words lie in the slice's own set is
        left to the caller."""
        digits = {ch: d for d, ch in enumerate(self.alphabet.letters)}
        n = self.total_words
        ints = []
        for w in words:
            w = w.render() if isinstance(w, PartialString) else w
            if isinstance(w, str) and len(w) == self.length and set(w) <= digits.keys():
                w = sum(digits[ch] * weight for ch, weight in zip(w, self._word_weights))
            if not (isinstance(w, int) and not isinstance(w, bool) and 0 <= w < n):
                raise FormatError(f"{w!r} is not a word of length {self.length} "
                                  f"over {''.join(self.alphabet.letters)!r}")
            ints.append(w)
        return self.mask_of_ints(ints)

    # -- membership ------------------------------------------------------

    def word_ints(self) -> tuple[int, ...]:
        """The packed words of the slice, ascending."""
        return self.ints_of_mask(self.e_mask())

    def word_count(self) -> int:
        return count(self._e_mask)

    # -- word sets as bitmasks -------------------------------------------

    def mask_of_ints(self, ints: Iterable[int]) -> int:
        """Packed words as a mask: bit i is set when word i is among them."""
        buf = bytearray((self.total_words + 7) >> 3)
        for i in ints:
            buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")

    def ints_of_mask(self, mask: int) -> tuple[int, ...]:
        """The packed words of a mask, ascending: the inverse of
        :meth:`mask_of_ints`."""
        out = []
        for j, byte in enumerate(mask.to_bytes((self.total_words + 7) >> 3, "little")):
            if byte:
                base = j << 3
                out.extend(base + b for b in _BYTE_BITS[byte])
        return tuple(out)

    def e_mask(self) -> int:
        """The words of the slice as a mask."""
        return self._e_mask

    def position_masks(self) -> tuple[tuple[int, ...], ...]:
        """``position_masks()[p - 1][d]``: the words of the full cube with
        letter index d at position p, as a mask.

        Position p holds one letter on runs of k^(L-p) consecutive words,
        cycling through the alphabet, so each mask is a periodic pattern:
        one run repeated every k runs across the cube, and the other
        letters' masks are that pattern shifted by whole runs.
        """
        if self._position_masks is None:
            k = len(self.alphabet)
            n, full = self.total_words, self._cube
            rows = []
            for run in self._word_weights:
                pattern = repeat_bits((1 << run) - 1, k * run, n)
                rows.append(tuple((pattern << (d * run)) & full for d in range(k)))
            self._position_masks = tuple(rows)
        return self._position_masks

    def restrict(self, mask: int, pairs: Pairs) -> int:
        """The words of ``mask``, a mask over the full cube, extending the
        given pairs."""
        masks = self._position_masks or self.position_masks()
        for p, d in pairs:
            mask &= masks[p - 1][d]
        return mask

    def cylinder(self, pairs: Pairs) -> int:
        """The words of the slice extending the given pairs, as a mask."""
        return self.restrict(self._e_mask, pairs)

    def expansion(self, strings: Iterable[Pairs]) -> int:
        """The union of the cylinders of strings given as pairs: their
        cylinders in the full cube ORed, then ANDed with E once."""
        cube = self._cube
        return reduce(or_, (self.restrict(cube, x) for x in strings), 0) & self._e_mask

    def complement(self, mask: int) -> int:
        """The words of the slice outside ``mask``."""
        return self._e_mask & ~mask

    def stray(self, mask: int) -> int | None:
        """The lowest word of ``mask`` that is not a word of the slice, or
        None when the mask lies inside it."""
        outside = mask & ~self._e_mask
        return lowest(outside) if outside else None

    def forced_row(self, mask: int) -> list[int]:
        """The letter index per position that every word of the non-empty
        ``mask`` holds, k (the alphabet size) where its words differ: the
        restriction :func:`members_inside` reads. A forced letter is the
        lowest word's."""
        masks, k = self.position_masks(), len(self.alphabet)
        row = list(self.letters_of(lowest(mask)))
        for p, d in enumerate(row):
            if mask & masks[p][d] != mask:
                row[p] = k
        return row

    def cofactors(self, mask: int, p: int) -> list[int]:
        """The cofactors on p = 0..k-1 of a mask over positions p..L, each
        over p + 1..L: p is a packed tail's most significant digit, so they
        are its k runs of k^(L-p) bits."""
        low, shifts = self._splits[p - 1]
        return [mask >> shift & low for shift in shifts]

    # -- partial strings against this slice ------------------------------

    def pairs_of(self, string: PartialString) -> Pairs | None:
        """Packed (position, letter index) pairs, or None when the string
        cannot occur in any word of this length (position or letter out of
        range)."""
        out = []
        for p, ch in string.pairs:
            if p > self.length or ch not in self.alphabet:
                return None
            out.append((p, self.alphabet.index(ch)))
        return tuple(out)

    def cylinder_of(self, string: PartialString) -> int:
        """The words of the slice extending the string, as a mask: 0 when
        the string cannot occur in any word of this length."""
        pairs = self.pairs_of(string)
        return 0 if pairs is None else self.cylinder(pairs)

    # -- serialization ----------------------------------------------------

    def descriptor(self) -> dict:
        doc: dict = {
            "alphabet": list(self.alphabet.letters),
            "length": self.length,
            "label": self.label,
        }
        doc["membership"] = ("all" if self.is_full
                             else [self.text_of_int(i) for i in self.word_ints()])
        return doc

    def __repr__(self) -> str:
        return f"Slice({self.label!r}, length={self.length})"


def full_slice(alphabet: Alphabet, length: int, label: str = "") -> Slice:
    return Slice(alphabet, length, "all", label)


# -- the cylinder operators ---------------------------------------------


def expand_mask(strings: Iterable[PartialString], slc: Slice) -> int:
    """The words of the slice that extend at least one of the strings, as a
    mask: the union of their cylinders. Strings that cannot occur in the
    slice contribute nothing."""
    return slc.expansion(x for x in map(slc.pairs_of, strings) if x is not None)


def expand(strings: Iterable[PartialString], slc: Slice) -> tuple[PartialString, ...]:
    """The relative cylinder of a string set: every word of the slice that
    extends some member. Strings that cannot occur in the slice contribute
    nothing."""
    return tuple(slc.word_of_int(i) for i in slc.ints_of_mask(expand_mask(strings, slc)))


# -- bitset helpers, and members indexed by (position, letter) -------------


def repeat_bits(pattern: int, span: int, n: int) -> int:
    """``pattern`` repeated every ``span`` bits up to at least bit ``n``,
    by doubling shifts; bits past ``n`` are left for the caller to mask."""
    while span < n:
        pattern |= pattern << span
        span *= 2
    return pattern


def count(mask: int) -> int:
    """The number of words in ``mask``."""
    return mask.bit_count()


def holds(mask: int, word: int) -> bool:
    """Is the packed ``word`` in ``mask``?"""
    return bool(mask >> word & 1)


def lowest(mask: int) -> int:
    """The index of the lowest set bit of a non-zero ``mask``."""
    return (mask & -mask).bit_length() - 1


def set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def member_rows(members: Sequence[Pairs], k: int, length: int) -> list[tuple[int, ...]]:
    """``rows[p - 1][d]``, p in 1..``length``: the members blank at p or
    holding letter index d there, as a bitset over the list, with ``d = k``
    (the alphabet size, for a position left open) holding those blank at p.

    The members included in a restriction are then one AND per position:
    see :func:`members_inside`.
    """
    everyone = (1 << len(members)) - 1
    blank = [everyone] * length
    holding = [[0] * k for _ in range(length)]
    for j, g in enumerate(members):
        for p, d in g:
            blank[p - 1] &= ~(1 << j)
            holding[p - 1][d] |= 1 << j
    return [tuple(bits | b for bits in row) + (b,) for row, b in zip(holding, blank)]


def letter_row(pairs: Pairs, k: int, length: int) -> list[int]:
    """The letter index per position 1..``length`` of a string given as
    pairs, ``k`` where it is blank: its restriction for :func:`members_inside`."""
    row = [k] * length
    for p, d in pairs:
        row[p - 1] = d
    return row


def text_of_pairs(pairs: Pairs, length: int, letters: Sequence[str]) -> str:
    """The text of a string given as pairs, padded with blanks to ``length``."""
    cells = [BLANK] * length
    for p, d in pairs:
        cells[p - 1] = letters[d]
    return "".join(cells)


def members_inside(rows: list[tuple[int, ...]], index: Sequence[int]) -> int:
    """The bitset of members included in the restriction whose letter index
    per position is ``index``, with ``k`` for a position left open."""
    return reduce(and_, map(getitem, rows, index), -1)
