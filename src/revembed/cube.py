"""Cubes: product terms over {0, 1, don't-care} with set-algebra operations.

A cube of length n denotes the set of input vectors it covers (its on-set).
Position i constrains variable x_{i+1}: 0 and 1 are literals, '-' spans both.

A cube is held only as two n-bit masks: bit i of ``care`` is set when
position i is a literal, and bit i of ``value`` then holds its polarity
(``value`` is always a subset of ``care``). ``Cube(n, care, value)`` is the
one constructor; ``Cube.parse`` reads the text form, whose first character
is position 0, and ``str`` writes it back. Cube is an immutable slotted
class whose equality and hash are those of the tuple (n, care, value).
Intersection and difference are a few integer operations on the masks.

The text form is built and read with no loop over positions. ``str`` pads
both masks to n binary digits and adds their ASCII bytes as two big
integers: each byte of the sum is 0x60 plus the care bit plus the value
bit, which never carries into the next byte. Written back little-endian,
the sum's bytes come out in position order, and one ``bytes.translate``
maps 0x60, 0x61 and 0x62 to '-', '0' and '1'. ``parse`` reads each mask
with ``int(text, 2)`` after a reverse and two replacements. Both convert
only between ints and binary digits or bytes, never to or from base 10,
so the interpreter's int-to-str digit limit never applies, at any width.
"""
from __future__ import annotations

from typing import Iterator, Optional

# the byte 0x60 + care bit + value bit of Cube.__str__ as its character
_TEXT = bytes.maketrans(b"`ab", b"-01")


def bit_positions(mask: int) -> Iterator[int]:
    """Set-bit positions of a non-negative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Cube:
    """Immutable product term over n positions: literals at the set bits of
    care, their polarities from value."""

    __slots__ = ("n", "care", "value")

    def __init__(self, n: int, care: int, value: int):
        if n < 0 or care >> n or value & ~care:
            raise ValueError("masks do not describe a cube of %d positions" % n)
        # the slots' own setters, which the refusing __setattr__ never sees
        _set_n(self, n)
        _set_care(self, care)
        _set_value(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable Cube" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an immutable Cube" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.care, self.value) == (other.n, other.care, other.value)

    def __hash__(self) -> int:
        return hash((self.n, self.care, self.value))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not __setattr__
        return Cube, (self.n, self.care, self.value)

    @classmethod
    def parse(cls, text: str) -> "Cube":
        """Cube of a string over '0', '1' and '-'; the first character is
        position 0 and the lowest bit."""
        if text.strip("01-"):
            # only to name the first illegal character
            for ch in text:
                if ch not in "01-":
                    raise ValueError("illegal cube character %r" % (ch,))
        # the extra '-' is a zero high bit of both masks, so "" parses too
        rev = "-" + text[::-1]
        care = int(rev.replace("0", "1").replace("-", "0"), 2)
        value = int(rev.replace("-", "0"), 2)
        return cls(len(text), care, value)

    def on_size(self) -> int:
        """Number of input vectors covered: 2^(n - #literals)."""
        return 1 << (self.n - self.care.bit_count())

    def literals(self) -> Iterator[tuple[int, int]]:
        """Yield (position, bit) for each literal position, ascending."""
        value = self.value
        for i in bit_positions(self.care):
            yield i, (value >> i) & 1

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        n = self.n
        if not n:
            return ""
        spec = "0%db" % n
        # byte i of the sum is 0x60 + care bit + value bit, with no carry;
        # read big-endian and written little-endian, position 0 comes first
        total = int.from_bytes(format(self.care, spec).encode(), "big") + int.from_bytes(
            format(self.value, spec).encode(), "big"
        )
        return total.to_bytes(n, "little").translate(_TEXT).decode()

    def __repr__(self) -> str:
        return "Cube.parse(%r)" % (str(self),)


_set_n = Cube.n.__set__
_set_care = Cube.care.__set__
_set_value = Cube.value.__set__


def cube_and(a: Cube, b: Cube) -> Optional[Cube]:
    """Intersection of two cubes, or None when they are disjoint."""
    if a.n != b.n:
        raise ValueError("cube length mismatch")
    if (a.value ^ b.value) & a.care & b.care:
        return None
    return Cube(a.n, a.care | b.care, a.value | b.value)


def cube_sharp(a: Cube, b: Cube) -> list[Cube]:
    """on(a) \\ on(b) as pairwise-disjoint cubes.

    Deterministic: peel one literal of b per step, in ascending position
    order, fixing peeled positions before moving on. Disjoint inputs return
    [a]; a contained in b returns [].
    """
    if a.n != b.n:
        raise ValueError("cube length mismatch")
    if (a.value ^ b.value) & a.care & b.care:
        return [a]
    out = []
    care, value = a.care, a.value
    for pos in bit_positions(b.care & ~a.care):
        low = 1 << pos
        # the piece takes b's opposite literal here; the rest keeps b's
        out.append(Cube(a.n, care | low, value | (low & ~b.value)))
        care |= low
        value |= low & b.value
    return out
