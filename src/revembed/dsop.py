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
pattern is read off a Pla's row diagram: a multi-terminal decision diagram
(the ADD/MTBDD of Bahar et al., ICCAD 1993) over the inputs whose leaves
are output masks, built by one balanced OR of one chain per row
(row_diagram). diagram_counts() gives each pattern's size from one
weighted pass over its nodes, which is all linecount.exact_mu_bdd() needs
for a Pla. compact() sets a covered bit above the outputs and builds each
pattern's region as a BDD with one memoised bottom-up walk over the
diagram, then writes a smaller disjoint cover without running dsop(), one
cube per root-to-1 path of each region; post_compact() is the same
rewrite for a Pla that dsop() has already certified. pattern_counts()
counts the patterns of a tuple of BDDs by walking their product top-down,
exact_mu_bdd()'s route for a list of Funcs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Callable

from .bdd import Manager, raise_recursion_limit
from .cube import Cube, bit_positions, cube_and, cube_sharp
from .errors import ResourceLimitError
from .pla import Pla

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
    a node of the row diagram reaches more than DEFAULT_PATTERN_CAP
    patterns.
    """
    # the covered bit sits above the outputs, so every covered input's leaf
    # is nonzero, even under a row with no outputs
    covered = 1 << pla.m
    root, nodes = row_diagram(pla, covered)
    manager = Manager()
    manager.add_vars("x%d" % (i + 1) for i in range(pla.n))
    # the background leaf, -1, is the uncovered inputs: no region
    memo: dict[int, dict[int, int]] = {-1: {}}
    regions = _region_walk(root, nodes, manager._mk, memo, DEFAULT_PATTERN_CAP)
    by_outs = {_outputs(mask ^ covered, pla.m): u for mask, u in regions.items()}
    entries: list[tuple[Cube, frozenset[int]]] = []
    # every level is an input, so the paths need no support check
    for outs in sorted(by_outs, key=lambda o: tuple(sorted(o))):
        entries += [(cube, outs) for cube in manager._paths(by_outs[outs], pla.n)]
    return replace(pla, entries=entries, dsop_certified=True)


# The row diagram is a multi-terminal decision diagram (the ADD/MTBDD of
# Bahar et al., ICCAD 1993) over the inputs, levels 0..n-1, whose leaves are
# output masks. An inner node is an index into a node list of (level, low,
# high) triples, made unique by a table keyed on that triple; the leaf of
# mask k is the negative id ~k, so the background leaf of mask 0 is -1 and
# every other id below 0 is a leaf.


def row_diagram(pla: Pla, cover: int = 0) -> tuple[int, list[tuple[int, int, int]]]:
    """(root, nodes) of the diagram that maps each input to the OR of the
    masks of the rows whose cubes cover it, or -1 for none.

    A row's mask is cover | its outputs' bits, output 1 the most
    significant of m (_outputs). Each row becomes a chain over its literals
    that ends in its mask's leaf, and the chains are joined by a balanced
    OR whose leaf case is the bitwise OR of the two masks (_or_rows).
    """
    raise_recursion_limit(pla.n)
    nodes: list[tuple[int, int, int]] = []
    unique: dict[tuple[int, int, int], int] = {}
    work = []
    for cube, outs in pla.entries:
        u = ~(cover | sum(1 << (pla.m - i) for i in outs))
        if u == -1:  # the background: the row adds nothing
            continue
        care, value = cube.care, cube.value
        while care:
            pos = care.bit_length() - 1
            care ^= 1 << pos
            node = (pos, -1, u) if (value >> pos) & 1 else (pos, u, -1)
            u = unique.get(node)
            if u is None:
                u = len(nodes)
                nodes.append(node)
                unique[node] = u
        work.append(u)
    memo: dict[tuple[int, int], int] = {}
    while len(work) > 1:
        nxt = [
            _join(work[i], work[i + 1], nodes, unique, memo)
            for i in range(0, len(work) - 1, 2)
        ]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return (work[0] if work else -1), nodes


def _join(u: int, v: int, nodes: list, unique: dict, memo: dict) -> int:
    """Node of u or v on the diagram's node, unique and memo tables."""
    if u == v or v == -1:
        return u
    if u == -1:
        return v
    if u < 0 and v < 0:
        return u & v  # the leaves ~a and ~b join to ~(a | b) = ~a & ~b
    if u < v:
        return _or_rows(u, v, nodes, unique, memo)
    return _or_rows(v, u, nodes, unique, memo)


def _or_rows(u: int, v: int, nodes: list, unique: dict, memo: dict) -> int:
    """u or v for u < v with v an inner node, so u is an inner node or a
    leaf other than the background.

    As bdd._and_or: the memo is keyed on (u, v), the low child is made
    first, a pair of children that _join decides without a call is decided
    here, and the recursion is one frame per level.
    """
    key = (u, v)
    out = memo.get(key)
    if out is not None:
        return out
    top, v0, v1 = nodes[v]
    if u < 0:
        u0 = u1 = u
    else:
        lu, u0, u1 = nodes[u]
        if lu < top:
            top = lu
            v0 = v1 = v
        elif top < lu:
            u0 = u1 = u
    if u0 == v0 or v0 == -1:
        lo = u0
    elif u0 == -1:
        lo = v0
    elif u0 < 0 and v0 < 0:
        lo = u0 & v0
    elif u0 < v0:
        lo = _or_rows(u0, v0, nodes, unique, memo)
    else:
        lo = _or_rows(v0, u0, nodes, unique, memo)
    if u1 == v1 or v1 == -1:
        hi = u1
    elif u1 == -1:
        hi = v1
    elif u1 < 0 and v1 < 0:
        hi = u1 & v1
    elif u1 < v1:
        hi = _or_rows(u1, v1, nodes, unique, memo)
    else:
        hi = _or_rows(v1, u1, nodes, unique, memo)
    if lo == hi:
        out = lo
    else:
        node = (top, lo, hi)
        out = unique.get(node)
        if out is None:
            out = len(nodes)
            nodes.append(node)
            unique[node] = out
    memo[key] = out
    return out


def diagram_counts(
    root: int, nodes: list[tuple[int, int, int]], n: int, m: int
) -> dict[frozenset[int], int]:
    """{output set: input count} over B^n from row_diagram's (root, nodes)
    for rows over n inputs and m outputs with no cover bit.

    One pass over the nodes in descending id order, parents before
    children: the root weighs 2^n, and each node hands half its weight to
    each child, so each leaf ends with the count of its mask. Patterns
    come in ascending mask order (_outputs). Raises ResourceLimitError when
    more than DEFAULT_PATTERN_CAP leaves are reached.
    """
    cap = DEFAULT_PATTERN_CAP
    if root < 0:
        leaves = {root: 1 << n}
    else:
        leaves = {}
        weight = [0] * (root + 1)
        weight[root] = 1 << n
        # ids above the root are not below it; ids under it that it does
        # not reach keep weight 0
        for u in range(root, -1, -1):
            half = weight[u] >> 1
            if not half:
                continue
            _, lo, hi = nodes[u]
            for child in (lo, hi):
                if child >= 0:
                    weight[child] += half
                elif child in leaves:
                    leaves[child] += half
                elif len(leaves) < cap:
                    leaves[child] = half
                else:
                    raise ResourceLimitError(
                        "more than %d output patterns enumerated" % cap
                    )
    # the leaf ~k holds mask k, so descending ids are ascending masks
    return {_outputs(~u, m): leaves[u] for u in sorted(leaves, reverse=True)}


def _region_walk(
    u: int,
    nodes: list[tuple[int, int, int]],
    mk: Callable[[int, int, int], int],
    memo: dict[int, dict[int, int]],
    cap: int,
) -> dict[int, int]:
    """{leaf mask: region node} under diagram node u: the inputs below u
    that reach that leaf, built bottom-up on mk's manager, whose levels
    are the diagram's. A leaf's mask has the region 1, and a node's region
    for a mask joins its children's regions with mk, a mask missing from a
    child giving 0 there. The recursion is one frame per level.
    """
    got = memo.get(u)
    if got is not None:
        return got
    if u < 0:
        regions = {~u: 1}
    else:
        top, lo, hi = nodes[u]
        low = _region_walk(lo, nodes, mk, memo, cap)
        high = _region_walk(hi, nodes, mk, memo, cap)
        regions = {mask: mk(top, r, high.get(mask, 0)) for mask, r in low.items()}
        for mask, r in high.items():
            if mask not in low:
                regions[mask] = mk(top, 0, r)
        # every mask below a node is a mask of the root
        if len(regions) > cap:
            raise ResourceLimitError("more than %d output patterns enumerated" % cap)
    memo[u] = regions
    return regions


def pattern_counts(
    state: tuple[int, ...], nodes: list[tuple[int, int, int]], n: int
) -> dict[frozenset[int], int]:
    """{output set: input count} over B^n for state = (f_1, ..., f_m).

    nodes is a node table over the n levels 0..n-1, and an input's pattern
    is the set of outputs i with f_i = 1. The walk visits the states of
    the functions' product top-down, splitting a state at its top level
    into the tuples of its low and high cofactors as in Bryant's (1986)
    simultaneous traversal, and keeps one weight per state: the root
    weighs 2^n, and a state hands half its weight to each of its two
    cofactor states. States are split in ascending order of their top
    level, so every weight is whole before it is split. The states left at
    the end hold only terminals, one per pattern, and each weighs its
    pattern's count. Patterns come in ascending mask order (_outputs).
    Raises ResourceLimitError when there are more than DEFAULT_PATTERN_CAP
    patterns. This is exact_mu_bdd's route for a list of Funcs; a Pla's
    rows are counted on their row diagram (diagram_counts).
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
