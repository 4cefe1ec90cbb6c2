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

Wille, Keszocze and Drechsler's (DATE 2011) partition of B^n by output
pattern is read from the product of a tuple of BDDs, walked together as in
Bryant's (1986) simultaneous traversal, in two ways. pattern_split() walks
it bottom-up, memoised, and builds each pattern's region as a BDD: the
inputs whose covering rows construct exactly that pattern. compact() uses
it on covered = OR of every row's cube and the m output BDDs to give a
smaller disjoint cover without running dsop(), one cube per root-to-1 path
of each region; post_compact() is the same rewrite for a Pla that dsop()
has already certified. pattern_counts() walks the same product top-down
with one integer weight per state and gives only each pattern's size,
which is all linecount.exact_mu_bdd() needs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Callable

from .bdd import Manager
from .cube import Cube, bit_positions, cube_and, cube_sharp
from .errors import ResourceLimitError
from .pla import Pla, cover_union, to_functions

__all__ = ["compact", "dsop", "post_compact"]

# most output patterns a walk state may reach before the walk gives up
DEFAULT_PATTERN_CAP = 1 << 20


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
    return replace(pla, entries=acc, dsop_certified=True)


def post_compact(pla: Pla) -> Pla:
    """compact() of a Pla that dsop() certified; ValueError without the
    certificate. The result does not depend on how the cover is split into
    cubes, so it also equals compact() of the Pla dsop() was given.
    """
    if not pla.dsop_certified:
        raise ValueError("post_compact needs a dsop-certified Pla")
    return compact(pla)


def compact(pla: Pla) -> Pla:
    """Disjoint cover of pla with one cube per path of each pattern's region.

    An input's pattern is the union of the outputs of the rows whose cubes
    cover it; inputs no row covers are left out, and inputs covered only by
    rows with no outputs form the empty pattern's region. Patterns are
    listed in ascending order of their sorted output tuples, and each
    region's cubes in enumerate_paths order. Raises ResourceLimitError when
    a walk state reaches more than DEFAULT_PATTERN_CAP patterns.
    """
    covered = cover_union(pla.n, [cube for cube, _ in pla.entries])
    manager = covered.manager
    state = (covered.node, *(f.node for f in to_functions(pla, manager)))
    regions = pattern_split(state, manager, pla.n)
    entries: list[tuple[Cube, frozenset[int]]] = []
    # every level is an input, so the paths need no support check
    for outs in sorted(regions, key=lambda o: tuple(sorted(o))):
        entries += [(cube, outs) for cube in manager._paths(regions[outs], pla.n)]
    return replace(pla, entries=entries, dsop_certified=True)


def pattern_split(
    state: tuple[int, ...], manager: Manager, n: int
) -> dict[frozenset[int], int]:
    """{output set: region node} for the walk of state = (covered, f_1..f_m).

    The state's nodes live on manager, over the n levels 0..n-1. An
    input's pattern is the set of outputs i with f_i = 1, and only inputs
    where covered = 1 count. A pattern's region is the node of its inputs,
    built bottom-up: a leaf's pattern has the region 1, and a state's
    region for a pattern joins its cofactors' regions with _mk, a pattern
    missing from a cofactor giving 0 there. Patterns come in ascending
    mask order (_outputs). Raises ResourceLimitError when a walk state
    reaches more than DEFAULT_PATTERN_CAP patterns.
    """
    nodes = manager._nodes
    levels = _levels(nodes, n)
    cap = DEFAULT_PATTERN_CAP
    regions = _pattern_walk(state, nodes, levels, n, manager._mk, {}, cap)
    m = len(state) - 1
    return {_outputs(mask, m): regions[mask] for mask in sorted(regions)}


def _pattern_walk(
    state: tuple[int, ...],
    nodes: list[tuple[int, int, int]],
    levels: list[int],
    n: int,
    mk: Callable[[int, int, int], int],
    memo: dict,
    cap: int,
) -> dict[int, int]:
    """{pattern mask: region node} for one walk state, as in pattern_split.

    The state splits at its top level into the tuples of low and high
    cofactors, as in Bryant's (1986) simultaneous traversal, and equal
    states are shared. The recursion is one frame per level.
    """
    if not state[0]:
        return {}
    got = memo.get(state)
    if got is not None:
        return got
    top = min(map(levels.__getitem__, state))
    if top == n:
        regions = {_mask(state[1:]): 1}
    else:
        lo = tuple([nodes[u][1] if levels[u] == top else u for u in state])
        hi = tuple([nodes[u][2] if levels[u] == top else u for u in state])
        low = _pattern_walk(lo, nodes, levels, n, mk, memo, cap)
        high = _pattern_walk(hi, nodes, levels, n, mk, memo, cap)
        regions = {mask: mk(top, u, high.get(mask, 0)) for mask, u in low.items()}
        for mask, v in high.items():
            if mask not in low:
                regions[mask] = mk(top, 0, v)
    # every pattern below a state is a pattern of the root
    if len(regions) > cap:
        raise ResourceLimitError("more than %d output patterns enumerated" % cap)
    memo[state] = regions
    return regions


def pattern_counts(
    state: tuple[int, ...], nodes: list[tuple[int, int, int]], n: int
) -> dict[frozenset[int], int]:
    """{output set: input count} over B^n for state = (f_1, ..., f_m).

    nodes is a node table over the n levels 0..n-1, and an input's pattern
    is the set of outputs i with f_i = 1. The walk visits the states of
    pattern_split top-down and keeps one weight per state: the root
    weighs 2^n, and a state hands half its weight to each of its low and
    high cofactor states. States are split in ascending order of their
    top level, so every weight is whole before it is split. The states
    left at the end hold only terminals, one per pattern, and each weighs
    its pattern's count. Patterns come in ascending mask order (_outputs). Raises
    ResourceLimitError when there are more than DEFAULT_PATTERN_CAP
    patterns.
    """
    levels = _levels(nodes, n)
    cap = DEFAULT_PATTERN_CAP
    top = min(map(levels.__getitem__, state), default=n)
    weight = {state: 1 << n}
    # the states waiting to be split, by top level
    pending = {top: [state]}
    for top in range(n):
        for s in pending.pop(top, ()):
            half = weight.pop(s) >> 1
            lo = tuple([nodes[u][1] if levels[u] == top else u for u in s])
            hi = tuple([nodes[u][2] if levels[u] == top else u for u in s])
            for child in (lo, hi):
                got = weight.get(child)
                if got is not None:
                    weight[child] = got + half
                    continue
                weight[child] = half
                lvl = min(map(levels.__getitem__, child))
                states = pending.setdefault(lvl, [])
                if lvl == n and len(states) >= cap:
                    raise ResourceLimitError(
                        "more than %d output patterns enumerated" % cap
                    )
                states.append(child)
    # only the terminal states are left in weight
    counts = {_mask(s): w for s, w in weight.items()}
    return {_outputs(mask, len(state)): counts[mask] for mask in sorted(counts)}


def _levels(nodes: list[tuple[int, int, int]], n: int) -> list[int]:
    """Each node's level, with the terminals at level n, below every
    variable."""
    return [n, n] + [lvl for lvl, _, _ in nodes[2:]]


def _mask(terminals: tuple[int, ...]) -> int:
    """The mask of a pattern given as its outputs' terminal values."""
    mask = 0
    for u in terminals:
        mask = (mask << 1) | u
    return mask


def _outputs(mask: int, m: int) -> frozenset[int]:
    """The output set of a mask: bit m-i is set when output i is 1, so
    ascending masks branch on output 1 first, low first."""
    return frozenset(m - b for b in bit_positions(mask))
