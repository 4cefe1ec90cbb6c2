"""Cubes: product terms over {0, 1, don't-care} with set-algebra operations.

A cube of length n denotes the set of input vectors it covers (its on-set).
Position i constrains variable x_{i+1}: 0 and 1 are literals, DC spans both.

A cube is stored as two n-bit masks: bit i of ``care`` is set when position
i is a literal, and bit i of ``value`` then holds its polarity (``value`` is
always a subset of ``care``). Intersection and difference are a few integer
operations on those masks; ``bits`` and the string form are derived views.
"""
from __future__ import annotations

from typing import Iterator, Optional

DC = 2

_CHAR = {0: "0", 1: "1", DC: "-"}
_BIT = {"0": 0, "1": 1, "-": DC}


def bit_positions(mask: int) -> Iterator[int]:
    """Set-bit positions of a non-negative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Cube:
    """Immutable product term over n positions, held as (n, care, value)."""

    __slots__ = ("n", "care", "value")

    def __init__(self, bits):
        try:
            text = "".join([_CHAR[b] for b in bits])
        except (KeyError, TypeError):
            raise ValueError("cube entries must be 0, 1, or DC") from None
        self._set(*_masks(text))

    def _set(self, n: int, care: int, value: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "care", care)
        object.__setattr__(self, "value", value)

    @classmethod
    def from_masks(cls, n: int, care: int, value: int) -> "Cube":
        """Cube with literals at the set bits of care, polarities from value."""
        if n < 0 or care >> n or value & ~care:
            raise ValueError("masks do not describe a cube of %d positions" % n)
        cube = object.__new__(cls)
        cube._set(n, care, value)
        return cube

    @classmethod
    def parse(cls, text: str) -> "Cube":
        for ch in text:
            if ch not in _BIT:
                raise ValueError("illegal cube character %r" % (ch,))
        return cls.from_masks(*_masks(text))

    @classmethod
    def full(cls, n: int) -> "Cube":
        return cls.from_masks(n, 0, 0)

    @classmethod
    def from_assignment(cls, point: int, n: int) -> "Cube":
        """Minterm cube for an integer assignment; x1 lives in bit 0."""
        if not 0 <= point < (1 << n):
            raise ValueError("point out of range for %d positions" % n)
        return cls.from_masks(n, (1 << n) - 1, point)

    @property
    def bits(self) -> tuple[int, ...]:
        """The entries as a tuple over {0, 1, DC}."""
        return tuple([_BIT[ch] for ch in str(self)])

    def weight(self) -> int:
        """Number of literal (non-DC) positions."""
        return self.care.bit_count()

    def on_size(self) -> int:
        """Number of input vectors covered: 2^(n - weight)."""
        return 1 << (self.n - self.care.bit_count())

    def literals(self) -> Iterator[tuple[int, int]]:
        """Yield (position, bit) for each literal position, ascending."""
        value = self.value
        for i in bit_positions(self.care):
            yield i, (value >> i) & 1

    def dc_positions(self) -> list[int]:
        return list(bit_positions(~self.care & ((1 << self.n) - 1)))

    def covers(self, point: int) -> bool:
        """Whether the integer assignment (x1 in bit 0) lies in the cube."""
        return (point ^ self.value) & self.care == 0

    def with_bit(self, pos: int, bit: int) -> "Cube":
        pos = self._index(pos)
        if bit not in (0, 1, DC):
            raise ValueError("cube entries must be 0, 1, or DC")
        low = 1 << pos
        care, value = self.care & ~low, self.value & ~low
        if bit != DC:
            care |= low
            value |= low if bit else 0
        return Cube.from_masks(self.n, care, value)

    def _index(self, i: int) -> int:
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError("cube index out of range")
        return i

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.bits[i]
        i = self._index(i)
        if not (self.care >> i) & 1:
            return DC
        return (self.value >> i) & 1

    def __iter__(self):
        return iter(self.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cube)
            and self.n == other.n
            and self.care == other.care
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.n, self.care, self.value))

    def __str__(self) -> str:
        if not self.n:
            return ""
        care = format(self.care, "0%db" % self.n)[::-1]
        value = format(self.value, "0%db" % self.n)[::-1]
        return "".join([v if c == "1" else "-" for c, v in zip(care, value)])

    def __repr__(self) -> str:
        return "Cube(%r)" % (str(self),)

    def __setattr__(self, name, value):
        raise AttributeError("Cube is immutable")


def _masks(text: str) -> tuple[int, int, int]:
    """(n, care, value) of a string over '0', '1' and '-'; position 0 is
    the first character and the lowest bit."""
    if not text:
        return 0, 0, 0
    rev = text[::-1]
    care = int(rev.replace("0", "1").replace("-", "0"), 2)
    value = int(rev.replace("-", "0"), 2)
    return len(text), care, value


def cube_and(a: Cube, b: Cube) -> Optional[Cube]:
    """Intersection of two cubes, or None when they are disjoint."""
    if a.n != b.n:
        raise ValueError("cube length mismatch")
    if (a.value ^ b.value) & a.care & b.care:
        return None
    return Cube.from_masks(a.n, a.care | b.care, a.value | b.value)


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
        out.append(Cube.from_masks(a.n, care | low, value | (low & ~b.value)))
        care |= low
        value |= low & b.value
    return out
