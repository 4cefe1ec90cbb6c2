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
pattern is what linecount.exact_mu_bdd() reads. For a Pla, pla_counts()
gives each pattern's size from one top-down pass over the rows as
bitsets (row_counts), one weight per state of the OR of the output masks
of the rows settled on the path and the rows still live; it visits only
the levels where some row has a literal, and merges the rows whose
residual literals and masks are equal, so no diagram is built.
compact() needs each pattern's region as a canonical BDD, so it reads
them off the row diagram (row_diagram): a BDD on a Manager over the
inputs and, below them, a covered bit and the outputs, which ANDs one
term per row, not cube or the AND of the row's mask bits. Above the mask
levels it is the multi-terminal decision diagram (the ADD/MTBDD of Bahar
et al., ICCAD 1993) over the inputs whose leaves are the OR of the
covering rows' masks, each leaf an AND chain of mask bits. One memoised
bottom-up walk over the diagram builds the regions, and compact() writes
a smaller disjoint cover without running dsop(), one cube per root-to-1
path of each region; post_compact() is the same rewrite for a Pla that
dsop() has already certified. pattern_counts() counts the patterns of a
tuple of BDDs by walking their product top-down, exact_mu_bdd()'s route
for a list of Funcs. Every mask of a pattern has one layout: output i is
bit i, and bit 0 is the row diagram's covered bit (_outputs).
"""
from __future__ import annotations

from collections import deque
from dataclasses import replace

from .bdd import Manager, _pairing
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
    zero, one = compat
    while queue:
        cube, outs = queue.popleft()
        candidates = (1 << len(acc)) - 1
        care, value = cube.care, cube.value
        while care and candidates:
            low = care & -care
            care ^= low
            i = low.bit_length() - 1
            candidates &= one[i] if value & low else zero[i]
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
    # the diagram's manager is gone once row_diagram returns: the walk
    # reads only its node list
    root, nodes = row_diagram(pla)
    manager = Manager()
    manager.add_vars("x%d" % (i + 1) for i in range(pla.n))
    # the 1-terminal is the uncovered inputs: no region
    memo: dict[int, dict[int, int]] = {1: {}}
    regions = memo.get(root)
    if regions is None:
        regions = _region_walk(root, nodes, pla.n, manager._nodes, manager._unique, memo)
    by_outs = {_outputs(mask): u for mask, u in regions.items()}
    entries: list[tuple[Cube, frozenset[int]]] = []
    # every level is an input, so the paths need no support check
    for outs in sorted(by_outs, key=lambda o: tuple(sorted(o))):
        entries += [(cube, outs) for cube in manager._paths(by_outs[outs], pla.n)]
    return replace(pla, entries=entries, dsop_certified=True)


def row_diagram(pla: Pla) -> tuple[int, list[tuple[int, int, int]]]:
    """(root, nodes) of the row diagram, built on a fresh Manager whose
    node list is returned and whose tables are dropped.

    The inputs are levels 0..n-1, and below them lie the mask bits: the
    covered bit at level n and output i at level n + i. A row is the term
    not cube or the AND of its mask bits, the covered bit among them, and
    the diagram is the AND of the rows' terms, by and_all's pairing on
    their node ids (bdd._pairing). The first node an input reaches at a
    level of n or more is its leaf: the 1-terminal when no row covers the
    input, and otherwise the AND chain of the mask bits of the rows that
    cover it, so the part above level n is the multi-terminal diagram
    (Bahar et al., ICCAD 1993) whose leaves are the OR of those rows'
    masks.
    """
    n = pla.n
    manager = Manager()
    manager.add_vars([None] * (n + 1 + pla.m))
    masks: dict[frozenset[int], int] = {}
    terms = []
    for cube, outs in pla.entries:
        u = masks.get(outs)
        if u is None:
            u = 1
            for i in sorted(outs, reverse=True):
                u = manager._mk(n + i, 0, u)
            u = masks[outs] = manager._mk(n, 0, u)
        care, value = cube.care, cube.value
        while care:
            pos = care.bit_length() - 1
            care ^= 1 << pos
            u = manager._mk(pos, 1, u) if (value >> pos) & 1 else manager._mk(pos, u, 1)
        terms.append(u)
    return _pairing(terms, 0, manager), manager._nodes


def pla_counts(pla: Pla) -> dict[frozenset[int], int]:
    """{output set: input count} over B^n: row_counts over the rows' output
    masks, which set bit i for output i and leave the covered bit, bit 0,
    clear, so the uncovered inputs and those covered only by rows with no
    outputs share mask 0, the empty pattern."""
    rows = [(cube, sum(1 << i for i in outs)) for cube, outs in pla.entries]
    return {_outputs(k): c for k, c in row_counts(rows, pla.n).items()}


def row_counts(rows: list[tuple[Cube, int]], n: int) -> dict[int, int]:
    """{mask: input count} over B^n, where an input's mask is the OR of
    the masks of the rows whose cubes cover it, 0 for none.

    One top-down pass over the levels where some row has a literal, with
    one weight per state (acc, live): acc is the OR of the masks of the
    rows settled on the path, and live is the bitset of the rows that
    agree with the path, have literals left and carry a mask bit acc
    lacks. The root weighs 2^n. At a level where a live row has a literal,
    a state hands half its weight to each cofactor state, and a row
    settles at its last literal, ORing its mask into acc. A state whose
    live is empty hands its weight to the leaf acc. After each level, the
    rows with the same literals below it and the same mask behave alike,
    so each is replaced by the lowest-index row among them (_merges);
    without that, the P rows x_i & z would make 2^P states. Raises
    ResourceLimitError when more than DEFAULT_PATTERN_CAP leaves are
    reached.
    """
    # rows with no literal settle at the root, rows of mask 0 add nothing,
    # and a repeated row adds nothing to its first copy
    acc = 0
    kept = []
    for cube, mask in rows:
        if not cube.care:
            acc |= mask
        elif mask:
            kept.append((cube, mask))
    kept = list(dict.fromkeys(kept))
    masks = [mask for _, mask in kept]
    # the rows' literals by level as (row, bit), and as bitsets by polarity
    at: dict[int, list[tuple[int, int]]] = {}
    ones: dict[int, int] = {}
    zeros: dict[int, int] = {}
    last: dict[int, int] = {}
    has: dict[int, int] = {}
    for i, (cube, mask) in enumerate(kept):
        bit = 1 << i
        for pos, b in cube.literals():
            at.setdefault(pos, []).append((i, b))
            table = ones if b else zeros
            table[pos] = table.get(pos, 0) | bit
        top = cube.care.bit_length() - 1
        last[top] = last.get(top, 0) | bit
        for b in bit_positions(mask):
            has[b] = has.get(b, 0) | bit
    levels = sorted(at)
    merges = _merges(masks, at, levels)
    needed: dict[int, int] = {}

    def needing(a: int) -> int:
        """The rows with a mask bit that a lacks."""
        got = needed.get(a)
        if got is None:
            got = 0
            for b, holders in has.items():
                if not (a >> b) & 1:
                    got |= holders
            needed[a] = got
        return got

    live = ((1 << len(kept)) - 1) & needing(acc)
    states = {(acc, live): 1 << n} if live else {}
    leaves = {} if live else {acc: 1 << n}
    for level in levels:
        one, zero, done = ones.get(level, 0), zeros.get(level, 0), last.get(level, 0)
        movers, reps = merges.get(level, (0, {}))
        nxt: dict[tuple[int, int], int] = {}
        for (acc, live), weight in states.items():
            pos, neg = live & one, live & zero
            if pos or neg:
                weight >>= 1
                # the low cofactor loses the rows with x = 1, the high one
                # those with x = 0
                children = (live ^ pos, live ^ neg)
            else:
                children = (live,)
            for rest in children:
                got = acc
                settled = rest & done
                if settled:
                    rest ^= settled
                    while settled:
                        low = settled & -settled
                        got |= masks[low.bit_length() - 1]
                        settled ^= low
                    if got != acc:
                        rest &= needing(got)
                moved = rest & movers
                if moved:
                    rest ^= moved
                    while moved:
                        low = moved & -moved
                        rest |= reps[low.bit_length() - 1]
                        moved ^= low
                if rest:
                    key = (got, rest)
                    nxt[key] = nxt.get(key, 0) + weight
                elif got in leaves:
                    leaves[got] += weight
                elif len(leaves) < DEFAULT_PATTERN_CAP:
                    leaves[got] = weight
                else:
                    raise _pattern_cap_error()
        states = nxt
    return leaves


def _merges(
    masks: list[int], at: dict[int, list[tuple[int, int]]], levels: list[int]
) -> dict[int, tuple[int, dict[int, int]]]:
    """{level: (movers, reps)} for row_counts' distinct rows, given their
    masks and their literals by level (at), as (row, bit).

    One bottom-up pass over the levels names what each row has left below
    a level: a mask names an empty residual, and a literal put on top of a
    residual names a new one. The rows that hold one name when a level is
    reached are alike after it, and merge there if the level's literals
    give them more than one name. Each of those names was one class a
    level up, so a state holds at most its lowest row: movers is the
    bitset of those lowest rows other than the class's lowest, over every
    merging class, and reps maps each of them to its class's lowest row's
    bit.
    """
    # ints name the masks, tuples the residuals with literals
    names: dict = {}
    name = [names.setdefault(mask, len(names)) for mask in masks]
    members: dict[int, int] = {}
    for i, c in enumerate(name):
        members[c] = members.get(c, 0) | (1 << i)
    merges: dict[int, tuple[int, dict[int, int]]] = {}
    for level in reversed(levels):
        # the rows of each joined name by their literal at this level
        joined: dict[int, list[int]] = {}
        for i, b in at[level]:
            c = name[i]
            bit = 1 << i
            name[i] = new = names.setdefault((c, level, b), len(names))
            members[new] = members.get(new, 0) | bit
            members[c] ^= bit
            joined.setdefault(c, [0, 0])[b] |= bit
        movers, reps = 0, {}
        for c, parts in joined.items():
            # a state holds at most the lowest row of each part
            lows = [bits & -bits for bits in (members[c], *parts) if bits]
            if len(lows) < 2:
                continue
            rep = min(lows)
            for bit in lows:
                if bit != rep:
                    movers |= bit
                    reps[bit.bit_length() - 1] = rep
        if movers:
            merges[level] = (movers, reps)
    return merges


def _region_walk(
    u: int,
    nodes: list[tuple[int, int, int]],
    n: int,
    out: list[tuple[int, int, int]],
    unique: dict[tuple[int, int, int], int],
    memo: dict[int, dict[int, int]],
) -> dict[int, int]:
    """{leaf mask: region node} under row diagram node u: the inputs below
    u that reach that leaf, made on the node and unique tables out and
    unique of a manager whose levels are the diagram's inputs, 0..n-1. A
    node at level n or more is a leaf, whose mask sets bit level - n for
    each level on its chain of high edges and whose region is 1; a node's
    region for a mask joins its children's regions as Manager._mk would, a
    mask missing from a child giving 0 there, low's masks first. The caller
    looks u up in memo first, so a memo hit costs no call; memo[u] is
    filled here. The recursion is one frame per level. Raises
    ResourceLimitError when a node reaches more than DEFAULT_PATTERN_CAP
    masks.
    """
    top, lo, hi = nodes[u]
    if top >= n:
        mask, x = 1 << (top - n), hi
        while x != 1:
            level, _, x = nodes[x]
            mask |= 1 << (level - n)
        regions = {mask: 1}
    else:
        low = memo.get(lo)
        if low is None:
            low = _region_walk(lo, nodes, n, out, unique, memo)
        high = memo.get(hi)
        if high is None:
            high = _region_walk(hi, nodes, n, out, unique, memo)
        # a region is never 0, so only the masks low has can meet a 0
        # child, and a node is made exactly when its children differ
        regions = {}
        for mask, r in low.items():
            h = high.get(mask, 0)
            if r == h:
                regions[mask] = r
                continue
            node = (top, r, h)
            got = unique.get(node)
            if got is None:
                got = len(out)
                out.append(node)
                unique[node] = got
            regions[mask] = got
        for mask, h in high.items():
            if mask not in low:
                node = (top, 0, h)
                got = unique.get(node)
                if got is None:
                    got = len(out)
                    out.append(node)
                    unique[node] = got
                regions[mask] = got
        # every mask below a node is a mask of the root
        if len(regions) > DEFAULT_PATTERN_CAP:
            raise _pattern_cap_error()
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
    pattern's count. Raises ResourceLimitError when there are more than
    DEFAULT_PATTERN_CAP patterns. This is exact_mu_bdd's route for a list
    of Funcs; a Pla's rows are counted by pla_counts.
    """
    # the terminals lie at level n, below every variable
    levels = [n, n] + [lvl for lvl, _, _ in nodes[2:]]
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
                if lvl == n and len(states) >= DEFAULT_PATTERN_CAP:
                    raise _pattern_cap_error()
                states.append(child)
    # only the terminal states are left in weight
    return {
        frozenset([i for i, u in enumerate(s, 1) if u]): w for s, w in weight.items()
    }


def _pattern_cap_error() -> ResourceLimitError:
    """The error a walk raises past DEFAULT_PATTERN_CAP output patterns."""
    return ResourceLimitError(
        "more than %d output patterns enumerated" % DEFAULT_PATTERN_CAP
    )


def _outputs(mask: int) -> frozenset[int]:
    """The output set of a mask: output i is bit i, and bit 0, the covered
    bit, names no output."""
    return frozenset(bit_positions(mask & ~1))
