"""Fixed-length word universes ("slices") and cylinder operators.

A slice restricts a reference set of words to one length L over one
alphabet, which makes every quantifier in the calculus exhaustively
checkable. Words are packed into integers (base k, position 1 most
significant) so that ascending integer order is exactly the canonical
lexicographic order. A partial string restricted to a slice is a tuple of
(position, letter index) pairs, the form the engine keeps reduced-logogram
members in; :meth:`Slice.cylinder_of` takes strings from outside it. A set
of words is held as a bitmask, bit i standing for packed word i, and this
is the only form a word set takes: the slice's own membership is one mask,
and the words extending a string (its cylinder) are that mask ANDed with
per-position masks. Word tuples are decoded from a mask only where a
caller lists words.

It owns the bitset helpers the layers share: :func:`repeat_bits` builds
periodic masks, :func:`set_bits` walks a mask's set bits, and
:func:`member_rows`, :func:`letter_row` and :func:`members_inside` find
the members of a list of strings that a restriction includes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .strings import Alphabet, PartialString

# Hard cap on materialized universes; desk-scale analyses stay far below it.
MAX_UNIVERSE = 1 << 22

Pairs = tuple[tuple[int, int], ...]  # ((position, letter index), ...)

# The set bits of each byte value, ascending, for decoding masks.
_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))


class DegenerateSliceError(ValueError):
    """The slice has no words satisfying its membership predicate."""


class Slice:
    """All words of one length over one alphabet, filtered by membership.

    ``membership`` may be ``"all"``, an explicit collection of words (texts
    or total strings), or a predicate on words. Either way it becomes one
    mask, :meth:`e_mask`: an explicit collection is masked at construction,
    a predicate is run once per word of the cube on the first call, and
    :class:`DegenerateSliceError` is raised when no word is a member.
    Slices are immutable; derived tables are cached on first use.
    """

    def __init__(self, alphabet: Alphabet, length: int,
                 membership: str | Iterable | Callable[[PartialString], bool] = "all",
                 label: str = ""):
        if length < 1:
            raise ValueError("length must be >= 1")
        k = len(alphabet)
        if k ** length > MAX_UNIVERSE:
            raise ValueError(f"universe of {k}^{length} words exceeds the supported size")
        self.alphabet = alphabet
        self.length = length
        self.label = label or f"{''.join(alphabet)}^{length}"
        self._word_weights = tuple(k ** (length - p) for p in range(1, length + 1))
        self._e_mask: int | None = None
        self._position_masks: tuple[tuple[int, ...], ...] | None = None
        self._predicate = None
        if membership == "all":
            self._kind = "all"
        elif callable(membership):
            self._kind = "predicate"
            self._predicate = membership
        else:
            self._kind = "explicit"
            self._e_mask = self.mask_of_ints(
                self.int_of_word(self._as_word(w)) for w in membership)
            if not self._e_mask:
                raise DegenerateSliceError(f"{self.label}: empty word set")

    def _as_word(self, w) -> PartialString:
        if isinstance(w, PartialString):
            return w
        return PartialString.parse(w, self.alphabet)

    # -- word packing ----------------------------------------------------

    @property
    def total_words(self) -> int:
        return len(self.alphabet) ** self.length

    @property
    def is_full(self) -> bool:
        return self._kind == "all"

    def int_of_word(self, word: PartialString) -> int:
        if word.domain != tuple(range(1, self.length + 1)):
            raise ValueError(f"not a word of length {self.length}: {word!r}")
        value = 0
        for (p, ch), w in zip(word.pairs, self._word_weights):
            value += self.alphabet.index(ch) * w
        return value

    def word_of_int(self, value: int) -> PartialString:
        return PartialString(tuple(enumerate(self.text_of_int(value), 1)))

    def letter_index(self, value: int, position: int) -> int:
        """The letter index at ``position`` of the packed word ``value``."""
        return value // self._word_weights[position - 1] % len(self.alphabet)

    def text_of_int(self, value: int) -> str:
        letters = self.alphabet.letters
        k = len(letters)
        cells = []
        for _ in range(self.length):
            value, d = divmod(value, k)
            cells.append(letters[d])
        return "".join(reversed(cells))

    def word(self, text: str) -> PartialString:
        """Parse a total word of this slice from text."""
        ps = PartialString.parse(text, self.alphabet)
        if len(text) != self.length or len(ps) != self.length:
            raise ValueError(f"not a word of length {self.length}: {text!r}")
        return ps

    # -- membership ------------------------------------------------------

    def word_ints(self) -> tuple[int, ...]:
        """The packed words of the slice, ascending."""
        return self.ints_of_mask(self.e_mask())

    def word_count(self) -> int:
        return self.e_mask().bit_count()

    def contains_int(self, value: int) -> bool:
        return 0 <= value < self.total_words and bool(self.e_mask() >> value & 1)

    def contains(self, word: PartialString) -> bool:
        return self.contains_int(self.int_of_word(word))

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
        if self._e_mask is None:
            if self._kind == "all":
                self._e_mask = (1 << self.total_words) - 1
            else:
                self._e_mask = self.mask_of_ints(
                    i for i in range(self.total_words)
                    if self._predicate(self.word_of_int(i)))
                if not self._e_mask:
                    raise DegenerateSliceError(
                        f"{self.label}: membership predicate rejects every word")
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
            n = self.total_words
            full = (1 << n) - 1
            rows = []
            for run in self._word_weights:
                pattern = repeat_bits((1 << run) - 1, k * run, n)
                rows.append(tuple((pattern << (d * run)) & full for d in range(k)))
            self._position_masks = tuple(rows)
        return self._position_masks

    def cylinder(self, pairs: Pairs) -> int:
        """The words of the slice extending the given pairs, as a mask."""
        masks = self.position_masks()
        out = self.e_mask()
        for p, d in pairs:
            out &= masks[p - 1][d]
        return out

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
        if self._kind == "all":
            doc["membership"] = "all"
        elif self._kind == "predicate":
            doc["membership"] = {"adapter": self.label}
        else:
            doc["membership"] = [self.text_of_int(i) for i in self.word_ints()]
        return doc

    @classmethod
    def from_descriptor(cls, doc: dict) -> "Slice":
        length, alphabet = doc["length"], doc["alphabet"]
        membership = doc.get("membership", "all")
        if isinstance(membership, dict):
            raise ValueError("adapter-backed slices must be rebuilt by their adapter")
        if type(length) is not int:  # not 2.5 read as 2, nor "2" or true
            raise ValueError(f"length must be an integer, got {length!r}")
        if not isinstance(alphabet, list):  # not "01" split into letters
            raise ValueError(f"alphabet must be a list, got {alphabet!r}")
        if membership != "all" and not isinstance(membership, list):
            raise ValueError(f'membership must be "all" or a list, got {membership!r}')
        return cls(Alphabet.of(alphabet), length, membership, doc.get("label", ""))

    def __repr__(self) -> str:
        return f"Slice({self.label!r}, length={self.length})"


def full_slice(alphabet: Alphabet, length: int, label: str = "") -> Slice:
    return Slice(alphabet, length, "all", label)


# -- the cylinder operators ---------------------------------------------


def enumerate_words(slc: Slice) -> Iterator[PartialString]:
    """Words of the slice in canonical (lexicographic) order."""
    for i in slc.word_ints():
        yield slc.word_of_int(i)


def in_sigma_infinity(string: PartialString, slc: Slice) -> bool:
    """True when at least one word of the slice extends the string."""
    return slc.cylinder_of(string) != 0


def extensions_in_e(string: PartialString, slc: Slice) -> Iterator[PartialString]:
    """The words of the slice extending the string, canonical order."""
    if string.size > slc.length:
        raise ValueError(f"string of size {string.size} exceeds slice length {slc.length}")
    for i in slc.ints_of_mask(slc.cylinder_of(string)):
        yield slc.word_of_int(i)


def expand_mask(strings: Iterable[PartialString], slc: Slice) -> int:
    """The words of the slice that extend at least one of the strings, as a
    mask: the union of their cylinders. Strings that cannot occur in the
    slice contribute nothing."""
    out = 0
    for s in strings:
        out |= slc.cylinder_of(s)
    return out


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


def members_inside(rows: list[tuple[int, ...]], index: Sequence[int]) -> int:
    """The bitset of members included in the restriction whose letter index
    per position is ``index``, with ``k`` for a position left open."""
    out = -1
    for row, d in zip(rows, index):
        out &= row[d]
    return out
