"""Cubes: product terms over {0, 1, don't-care} with set-algebra operations.

A cube of length n denotes the set of input vectors it covers (its on-set).
Position i constrains variable x_{i+1}: 0 and 1 are literals, '-' spans both.

A cube is held only as two n-bit masks: bit i of ``care`` is set when
position i is a literal, and bit i of ``value`` then holds its polarity
(``value`` is always a subset of ``care``). ``Cube(n, care, value)`` is the
one constructor; ``Cube.parse`` reads the text form, whose first character
is position 0, and ``str`` writes it back. Cube is a frozen, slotted
dataclass, so equality and the hash are those of the tuple (n, care,
value). Intersection and difference are a few integer operations on the
masks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional


def bit_positions(mask: int) -> Iterator[int]:
    """Set-bit positions of a non-negative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True, repr=False)
class Cube:
    """Immutable product term over n positions: literals at the set bits of
    care, their polarities from value."""

    n: int
    care: int
    value: int

    def __post_init__(self):
        if self.n < 0 or self.care >> self.n or self.value & ~self.care:
            raise ValueError("masks do not describe a cube of %d positions" % self.n)

    @classmethod
    def parse(cls, text: str) -> "Cube":
        """Cube of a string over '0', '1' and '-'; the first character is
        position 0 and the lowest bit."""
        for ch in text:
            if ch not in ("0", "1", "-"):
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
        if not self.n:
            return ""
        care = format(self.care, "0%db" % self.n)[::-1]
        value = format(self.value, "0%db" % self.n)[::-1]
        return "".join([v if c == "1" else "-" for c, v in zip(care, value)])

    def __repr__(self) -> str:
        return "Cube.parse(%r)" % (str(self),)


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
