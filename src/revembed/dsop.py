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

compact() gives a smaller disjoint cover without running dsop(). It and
linecount.exact_mu_bdd() read Wille, Keszocze and Drechsler's (DATE 2011)
partition of B^n by output pattern from pattern_split(): one memoised walk
over a tuple of BDDs together, as in Bryant's (1986) simultaneous
traversal, that builds one value per pattern bottom-up with the caller's
join. compact() walks covered = OR of every row's cube with the m output
BDDs and joins with the node constructor, so each value is a pattern's
region: the inputs whose covering rows construct exactly that pattern.
Each region is read out as one cube per root-to-1 path. post_compact() is
the same rewrite for a Pla that dsop() has already certified.
"""
from __future__ import annotations

from collections import deque
from typing import Callable

from .bdd import Manager, or_all
from .cube import Cube, bit_positions, cube_and, cube_sharp
from .errors import ResourceLimitError
from .pla import Pla, to_functions

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
    return Pla(
        pla.n,
        pla.m,
        acc,
        input_names=pla.input_names,
        output_names=pla.output_names,
        dsop_certified=True,
    )


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
    manager = Manager()
    xs = manager.add_vars("x%d" % (i + 1) for i in range(pla.n))
    covered = or_all([manager.from_cube(cube) for cube, _ in pla.entries], manager)
    state = (covered.node, *(f.node for f in to_functions(pla, manager, xs)))
    regions = pattern_split(state, manager._nodes, pla.n, manager._mk, 1)
    entries: list[tuple[Cube, frozenset[int]]] = []
    # every level is an input, so the paths need no support check
    for outs in sorted(regions, key=lambda o: tuple(sorted(o))):
        entries += [(cube, outs) for cube in manager._paths(regions[outs], pla.n)]
    return Pla(
        pla.n,
        pla.m,
        entries,
        input_names=pla.input_names,
        output_names=pla.output_names,
        dsop_certified=True,
    )


def pattern_split(
    state: tuple[int, ...],
    nodes: list[tuple[int, int, int]],
    n: int,
    join: Callable[[int, int, int], int],
    one: int,
) -> dict[frozenset[int], int]:
    """{output set: value} for the walk of state = (covered, f_1..f_m).

    nodes is a node table over the n levels 0..n-1. An input's pattern is
    the set of outputs i with f_i = 1, and only inputs where covered = 1
    count. A leaf's pattern has the value one, and a state's value for a
    pattern joins its cofactors' values with join(level, lo, hi), a
    pattern missing from a cofactor giving 0 there. Patterns come in
    ascending order of the walk's masks: branching on output 1 first, low
    first. Raises ResourceLimitError when a walk state reaches more than
    DEFAULT_PATTERN_CAP patterns.
    """
    # terminals sit at level n, below every variable
    levels = [n, n] + [lvl for lvl, _, _ in nodes[2:]]
    cap = DEFAULT_PATTERN_CAP
    values = _pattern_walk(state, nodes, levels, n, join, one, {}, cap)
    m = len(state) - 1
    # a mask has bit m-i set when output i is 1
    return {
        frozenset(m - b for b in bit_positions(mask)): values[mask]
        for mask in sorted(values)
    }


def _pattern_walk(
    state: tuple[int, ...],
    nodes: list[tuple[int, int, int]],
    levels: list[int],
    n: int,
    join: Callable[[int, int, int], int],
    one: int,
    memo: dict,
    cap: int,
) -> dict[int, int]:
    """{pattern mask: value} for one walk state, as in pattern_split.

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
        mask = 0
        for u in state[1:]:
            mask = (mask << 1) | u
        values = {mask: one}
    else:
        lo = tuple([nodes[u][1] if levels[u] == top else u for u in state])
        hi = tuple([nodes[u][2] if levels[u] == top else u for u in state])
        low = _pattern_walk(lo, nodes, levels, n, join, one, memo, cap)
        high = _pattern_walk(hi, nodes, levels, n, join, one, memo, cap)
        values = {mask: join(top, u, high.get(mask, 0)) for mask, u in low.items()}
        for mask, v in high.items():
            if mask not in low:
                values[mask] = join(top, 0, v)
    # every pattern below a state is a pattern of the root
    if len(values) > cap:
        raise ResourceLimitError("more than %d output patterns enumerated" % cap)
    memo[state] = values
    return values
