"""Disjoint sum-of-products rewriting.

dsop() turns an arbitrary cube list into a semantically equal one whose
cubes are pairwise disjoint, by repeatedly resolving the first overlap:
the overlapped entry is replaced in place by the intersection (with merged
outputs), the remainder of the resident cube is appended, and the
remainder of the incoming cube goes back to the front of the work queue.
Every step strictly shrinks the uncommitted ON-set measure, so the loop
terminates.

The resident list is indexed so that finding the first overlap costs one
bitset AND per literal of the incoming cube, not a scan: compat[b][i] is
an int whose bit k is set when resident slot k is DC or b at position i.
A cube meets slot k exactly when bit k survives the AND of compat[b][i]
over its literals (i, b), so the lowest surviving bit is the first overlap
in list order, the same one a front-to-back scan would find.

post_compact() then shrinks a disjoint list by re-extracting each output
pattern's region from a BDD, one cube per path.
"""
from __future__ import annotations

from collections import deque

from .bdd import Manager, or_all
from .cube import Cube, bit_positions, cube_and, cube_sharp
from .pla import Pla

__all__ = ["dsop", "post_compact"]


def _admit(compat: tuple[list[int], list[int]], slot: int, cube: Cube) -> None:
    """Enter a new resident slot into the index."""
    bit = 1 << slot
    zero, one = compat
    care, value = cube.care, cube.value
    for i in range(cube.n):
        if not (care >> i) & 1:
            zero[i] |= bit
            one[i] |= bit
        elif (value >> i) & 1:
            one[i] |= bit
        else:
            zero[i] |= bit


def dsop(pla: Pla) -> Pla:
    """Deterministic disjoint rewriting of a Pla. Output is certified."""
    queue = deque(pla.entries)
    acc: list[tuple[Cube, frozenset[int]]] = []
    compat: tuple[list[int], list[int]] = ([0] * pla.n, [0] * pla.n)
    while queue:
        cube, outs = queue.popleft()
        candidates = (1 << len(acc)) - 1
        for i, b in cube.literals():
            candidates &= compat[b][i]
            if not candidates:
                break
        if not candidates:
            _admit(compat, len(acc), cube)
            acc.append((cube, outs))
            continue
        idx = (candidates & -candidates).bit_length() - 1
        rcube, routs = acc[idx]
        meet = cube_and(cube, rcube)
        acc[idx] = (meet, outs | routs)
        # positions the slot turned from DC into a literal leave the
        # opposite polarity's bitset
        keep = ~(1 << idx)
        for i in bit_positions(meet.care & ~rcube.care):
            compat[1 - ((meet.value >> i) & 1)][i] &= keep
        for piece in cube_sharp(rcube, cube):
            _admit(compat, len(acc), piece)
            acc.append((piece, routs))
        for piece in reversed(cube_sharp(cube, rcube)):
            queue.appendleft((piece, outs))
    return Pla(
        pla.n,
        pla.m,
        acc,
        input_names=pla.input_names,
        output_names=pla.output_names,
        dsop_certified=True,
    )


def post_compact(pla: Pla) -> Pla:
    """Per-pattern cube compaction of a certified disjoint Pla.

    Entries are grouped by exact output set, each group's region is OR-ed
    into a BDD, and the region is re-read as one cube per root-to-1 path.
    Sound only for disjoint inputs: overlapping cubes of different
    patterns would conflate their regions.
    """
    if not pla.dsop_certified:
        raise ValueError("post_compact needs a dsop-certified Pla")
    manager = Manager()
    manager.add_vars("x%d" % (i + 1) for i in range(pla.n))
    groups: dict[frozenset[int], list[Cube]] = {}
    for cube, outs in pla.entries:
        groups.setdefault(outs, []).append(cube)
    entries: list[tuple[Cube, frozenset[int]]] = []
    for outs in sorted(groups, key=lambda o: tuple(sorted(o))):
        region = or_all([manager.from_cube(cube) for cube in groups[outs]], manager)
        for cube in manager.enumerate_paths(region, pla.n):
            entries.append((cube, outs))
    return Pla(
        pla.n,
        pla.m,
        entries,
        input_names=pla.input_names,
        output_names=pla.output_names,
        dsop_certified=True,
    )
