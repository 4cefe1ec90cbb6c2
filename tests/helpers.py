"""Shared helpers for the test suite."""
from __future__ import annotations

import random
from collections import deque

from revembed import (
    Cube,
    Func,
    Manager,
    Pla,
    ResourceLimitError,
    and_all,
    cube_and,
    cube_sharp,
    or_all,
)
from revembed.dsop import _outputs, row_diagram
from revembed.embedding import (
    _entry_steps,
    _entry_walk,
    _pattern_trie,
    _step_plan,
    _walk_memos,
)
from revembed.pla import cover_union, function_source, to_functions


def cube_points(cube: Cube) -> set[int]:
    """All minterms a cube covers, as integers with x1 in bit 0."""
    pts = {0}
    for pos, ch in enumerate(str(cube)):
        if ch == "-":
            pts = {p | (v << pos) for p in pts for v in (0, 1)}
        elif ch == "1":
            pts = {p | (1 << pos) for p in pts}
    return pts


def pla_truth(pla: Pla) -> dict[int, frozenset[int]]:
    """Point -> output pattern map by direct cube cover."""
    table = dict.fromkeys(range(1 << pla.n), frozenset())
    for cube, pat in pla.entries:
        for x in cube_points(cube):
            table[x] |= pat
    return table


def inc(gammas: list[Func], times: int = 1) -> list[Func]:
    """Symbolic times-fold increment of the word (gamma_1 .. gamma_w).

    gamma_1 is the least significant bit. Equivalent to composing the
    +1 counter s_i = g_i xor (g_1 and ... and g_{i-1}) `times` times, i.e.
    adding the constant `times` mod 2^w; implemented as a constant adder so
    arbitrary-precision counts stay cheap.
    """
    if times < 0:
        raise ValueError("times must be nonnegative")
    if not gammas:
        return []
    manager = gammas[0].manager
    carry = manager.false
    out = []
    for i, g in enumerate(gammas):
        add_bit = (times >> i) & 1
        s = g ^ carry
        if add_bit:
            s = ~s
            carry = g | carry
        else:
            carry = g & carry
        out.append(s)
    return out


def and_all_bennett_chi(rc, source) -> Func:
    """The Bennett relation as one balanced conjunction of its m + n
    terms, y_i <-> kappa_i ^ f_i(x) and gamma_j <-> x_j, on rc's manager."""
    manager = rc.manager
    _, _, place = function_source(source, rc.n)
    funcs = place(manager, rc.xs)
    terms = [
        manager.var(y).xnor(manager.var(k) ^ f)
        for y, k, f in zip(rc.ys, rc.kappa, funcs)
    ]
    terms.extend(
        manager.var(g).xnor(manager.var(x)) for g, x in zip(rc.gammas, rc.xs)
    )
    return and_all(terms, manager)


def reference_redundancy(p: int, q: int) -> Func:
    """benchgen.redundancy's family built on one computed table that is
    never emptied, column by column in the generator's order."""
    manager = Manager()
    xs = manager.add_vars("x%d" % (i + 1) for i in range(p))
    ys = [
        manager.add_vars("y%d_%d" % (i + 1, j + 1) for i in range(p))
        for j in range(q)
    ]
    f = manager.true
    for j in reversed(range(q)):
        terms = [manager.var(x) & manager.var(y) for x, y in zip(xs, ys[j])]
        f = or_all(terms, manager) & f
    return f


def mk_rebuild(target: Manager, f: Func, move=None, fixed=None) -> Func:
    """f rebuilt on target by a plain _mk recursion over all of f's nodes,
    low child first: a level in fixed is replaced by its fixed child, any
    other is made at move[level] (its own level when move is None). The
    reference for restrict (fixed) and transfer (move)."""
    nodes, memo = f.manager._nodes, {}
    fixed = fixed or {}

    def walk(x):
        if x < 2:
            return x
        if x not in memo:
            lvl, lo, hi = nodes[x]
            if lvl in fixed:
                memo[x] = walk(hi if fixed[lvl] else lo)
            else:
                level = lvl if move is None else move[lvl]
                memo[x] = target._mk(level, walk(lo), walk(hi))
        return memo[x]

    return Func(target, walk(f.node))


def reachable(manager: Manager, u: int) -> set[int]:
    """The ids node u reaches, itself and the terminals included, by a
    plain depth-first search: the reference for the manager's scans."""
    seen, stack = set(), [u]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            if x >= 2:
                stack += manager._nodes[x][1:]
    return seen


def reference_ite(manager: Manager, u: int, v: int, w: int) -> int:
    """Manager._ite with no and/or kernel: the general recursion on the
    standard triple, which orders an and's or an or's operands itself, on
    the manager's node and computed tables. The reference for the nodes and
    table keys of the kernel, which every and/or triple reaches."""
    if u == 1:
        return v
    if u == 0:
        return w
    if v == u:
        v = 1
    if w == u:
        w = 0
    if v == w:
        return v
    if v == 1:
        if w == 0:
            return u
        if w < u:  # or commutes
            u, w = w, u
    elif w == 0 and v < u:  # and commutes
        u, v = v, u
    key = (u, v, w)
    out = manager._memo.get(key)
    if out is None:
        nodes = manager._nodes
        top = min(nodes[u][0], nodes[v][0], nodes[w][0])
        lows, highs = [], []
        for x in (u, v, w):
            lvl, lo, hi = nodes[x]
            lows.append(lo if lvl == top else x)
            highs.append(hi if lvl == top else x)
        low = reference_ite(manager, *lows)
        out = manager._mk(top, low, reference_ite(manager, *highs))
        manager._memo[key] = out
    return out


def reference_reduce(manager: Manager, work: list[int], z: int) -> int:
    """and_all (z = 0) or or_all (z = 1) of node ids by the balanced
    pairing, each pair joined by reference_ite and an odd last one carried
    up as it is; 1 - z for no ids."""
    while len(work) > 1:
        nxt = [
            reference_ite(manager, u, 1, v) if z else reference_ite(manager, u, v, 0)
            for u, v in zip(work[::2], work[1::2])
        ]
        work = nxt + work[-1:] if len(work) % 2 else nxt
    return work[0] if work else 1 - z


def reference_sat_count(f: Func, support_size: int) -> int:
    """Manager.sat_count bottom-up, as Knuth (TAOCP 4A 7.1.4) counts: one
    ascending pass over f's reachable nodes that keeps every node's count
    of models over the levels from its own to the last until it returns.
    The reference for the top-down count."""
    manager = f.manager
    u, nodes, top = f.node, manager._nodes, manager.var_count()
    count = {0: 0, 1: 1}
    levels = set()
    for x in sorted(reachable(manager, u))[2:]:
        lvl, lo, hi = nodes[x]
        levels.add(lvl)
        llo = nodes[lo][0] if lo >= 2 else top
        lhi = nodes[hi][0] if hi >= 2 else top
        count[x] = (count[lo] << (llo - lvl - 1)) + (count[hi] << (lhi - lvl - 1))
    if support_size < len(levels):
        raise ValueError(
            "support_size %d is smaller than the support (%d variables)"
            % (support_size, len(levels))
        )
    shift = support_size - (top - (nodes[u][0] if u >= 2 else top))
    models = count[u]
    return models << shift if shift >= 0 else models >> -shift


def two_cube_pla(n: int) -> str:
    """PLA text over n inputs: x1 = 1 drives output 1, x_n = 1 output 2."""
    return ".i %d\n.o 2\n1%s 10\n%s1 01\n.e\n" % (n, "-" * (n - 1), "-" * (n - 1))


def random_pla(rng: random.Random, n: int, m: int, max_cubes: int) -> Pla:
    entries = []
    for _ in range(rng.randint(1, max_cubes)):
        # bias toward wide cubes
        text = "".join([rng.choice("01--") for _ in range(n)])
        outs = frozenset(j + 1 for j in range(m) if rng.random() < 0.4)
        entries.append((Cube.parse(text), outs))
    return Pla(n, m, entries)


def reference_write_pla(pla: Pla) -> str:
    """PLA text with every row's output plane joined on its own;
    write_pla() must produce exactly this text."""
    lines = ["# dsop"] if pla.dsop_certified else []
    lines += [".i %d" % pla.n, ".o %d" % pla.m]
    if pla.input_names:
        lines.append(".ilb %s" % " ".join(pla.input_names))
    if pla.output_names:
        lines.append(".ob %s" % " ".join(pla.output_names))
    lines.append(".p %d" % len(pla.entries))
    for cube, outs in pla.entries:
        plane = "".join("1" if i + 1 in outs else "0" for i in range(pla.m))
        lines.append("%s %s" % (cube, plane) if pla.m else str(cube))
    lines.append(".e")
    return "\n".join(lines) + "\n"


def reference_cube_str(cube: Cube) -> str:
    """Cube text joined one position at a time; str(cube) must equal it."""
    if not cube.n:
        return ""
    care = format(cube.care, "0%db" % cube.n)[::-1]
    value = format(cube.value, "0%db" % cube.n)[::-1]
    return "".join([v if c == "1" else "-" for c, v in zip(care, value)])


def reference_cube_parse(text: str) -> Cube:
    """Cube of its text, each character checked in turn; Cube.parse must
    return the same cube and raise the same error."""
    for ch in text:
        if ch not in ("0", "1", "-"):
            raise ValueError("illegal cube character %r" % (ch,))
    rev = "-" + text[::-1]
    care = int(rev.replace("0", "1").replace("-", "0"), 2)
    value = int(rev.replace("-", "0"), 2)
    return Cube(len(text), care, value)


def reference_paths(manager: Manager, u: int, n: int) -> list[Cube]:
    """Root-to-1 paths of node u as cubes, by a stack that holds every
    child, 0-children included; Manager._paths must yield this list."""
    out = []
    stack = [(u, 0, 0)]
    while stack:
        x, care, value = stack.pop()
        if x == 1:
            out.append(Cube(n, care, value))
        elif x:
            lvl, lo, hi = manager._nodes[x]
            bit = 1 << lvl
            stack.append((hi, care | bit, value | bit))
            stack.append((lo, care | bit, value))
    return out


def reference_region_walk(u, nodes, n, mk, memo, cap):
    """dsop._region_walk with every region node made through mk, a
    Manager's _mk: it must make the same nodes in the same order."""
    got = memo.get(u)
    if got is not None:
        return got
    top, lo, hi = nodes[u]
    if top >= n:
        mask, x = 1 << (top - n), hi
        while x != 1:
            level, _, x = nodes[x]
            mask |= 1 << (level - n)
        regions = {mask: 1}
    else:
        low = reference_region_walk(lo, nodes, n, mk, memo, cap)
        high = reference_region_walk(hi, nodes, n, mk, memo, cap)
        regions = {mask: mk(top, r, high.get(mask, 0)) for mask, r in low.items()}
        for mask, r in high.items():
            if mask not in low:
                regions[mask] = mk(top, 0, r)
        if len(regions) > cap:
            raise ResourceLimitError("more than %d output patterns enumerated" % cap)
    memo[u] = regions
    return regions


def reference_dsop(pla: Pla) -> Pla:
    """The disjoint rewrite by a plain scan for the first overlap.

    Each incoming cube is tested against every resident cube in list
    order; dsop() must produce exactly this cube list.
    """
    queue = deque(pla.entries)
    acc = []
    while queue:
        cube, outs = queue.popleft()
        for idx, (rcube, routs) in enumerate(acc):
            meet = cube_and(cube, rcube)
            if meet is not None:
                break
        else:
            acc.append((cube, outs))
            continue
        acc[idx] = (meet, outs | routs)
        for piece in cube_sharp(rcube, cube):
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


def hand_built_chi(rc, pla):
    """Independent reconstruction of the garbage-optimal relation.

    Point x inside entry (c, o) maps to y = o's minterm and gamma =
    (running offset of o when c was placed) + x's rank among c's points
    in don't-care-position binary order. Everything else (nonzero
    constants or unspecified x) is absent from the relation.
    """
    manager = rc.manager
    offsets = {}
    minterms = []
    for cube, outs in pla.entries:
        base = offsets.get(outs, 0)
        dcs = [pos for pos, ch in enumerate(str(cube)) if ch == "-"]
        for rank in range(cube.on_size()):
            point = dict(cube.literals())
            for i, d in enumerate(dcs):
                point[d] = (rank >> i) & 1
            gamma_val = base + rank
            lits = {rc.xs[posn]: bit for posn, bit in point.items()}
            lits.update({k: 0 for k in rc.kappa})
            lits.update(
                {y: 1 if j + 1 in outs else 0 for j, y in enumerate(rc.ys)}
            )
            lits.update(
                {g: (gamma_val >> i) & 1 for i, g in enumerate(rc.gammas)}
            )
            minterms.append(manager.cube(lits))
        offsets[outs] = base + cube.on_size()
    acc = manager.false
    for term in minterms:
        acc = acc | term
    return acc


def entry_builder(
    manager: Manager,
    kappa: list[int],
    xs: list[int],
    ys: list[int],
    gammas: list[int],
):
    """Return build(cube, outs, offset), the relation cube of one
    embed_exact entry: kappa = 0, y = outs' minterm, x inside cube, and
    the garbage word gamma = offset + rank(x), offset < 2^ell, where rank
    reads the cube's don't-care inputs (ascending positions) as a binary
    number, the first least significant. Points whose word would not fit
    in ell bits are left out; embed_exact keeps offset + #on(cube) <= 2^ell.
    This is embed_exact's one-entry, one-pattern case: the x/g block is one
    _entry_walk, the kappa and y levels one path of _pattern_trie on top.
    """
    top = sorted([(v, 0) for v in kappa] + [(v, i + 1) for i, v in enumerate(ys)])
    plan = _step_plan(xs, gammas)
    nodes, unique, mk = manager._nodes, manager._unique, manager._mk

    def build(cube: Cube, outs: frozenset[int], offset: int) -> Func:
        steps = _entry_steps(plan, cube, offset)
        node = _entry_walk(0, 0, steps, _walk_memos(steps), nodes, unique)
        return Func(manager, _pattern_trie(0, [(outs, node)], top, mk))

    return build


def or_built_exact(rc, pla):
    """embed_exact's relation by OR-ing one relation cube per entry, each
    from entry_builder, into chi in entry order on rc's manager, with the
    running offsets kept alongside: (chi, cnt_trace, pattern_counts)."""
    build = entry_builder(rc.manager, rc.kappa, rc.xs, rc.ys, rc.gammas)
    cnt: dict = {}
    trace = []
    chi = rc.manager.false
    for cube, outs in pla.entries:
        offset = cnt.get(outs, 0)
        cnt[outs] = offset + cube.on_size()
        trace.append((outs, cnt[outs]))
        chi = chi | build(cube, outs, offset)
    return chi, trace, cnt


def reference_entry_steps(xs, gammas, cube: Cube, offset: int) -> list:
    """An entry's _entry_walk steps read off the cube's text, with the
    x/g levels sorted per entry; _entry_steps(_step_plan(xs, gammas),
    cube, offset) must give exactly these."""
    text = str(cube)
    dc = text.count("-")
    block = sorted(
        [(v, text[i]) for i, v in enumerate(xs)] + [(v, "g") for v in gammas]
    )
    read = a = 0
    steps = []
    for level, ch in block:
        s = min(read, a)
        if ch == "g":
            bit = (offset >> a) & 1
            pair = (bit << (a - s), (bit - 1) << (a - s))
            a += 1
        elif ch == "-":
            pair = (0, 1 << (read - s))
            read += 1
        else:
            pair = (None, 0) if ch == "1" else (0, None)
        t = min(read, a)
        mask = (1 << (a - t)) - (1 << (dc - t)) if a > dc else 0
        steps.append((level, *pair, t - s, mask))
    return steps


def reference_post_compact(pla: Pla) -> Pla:
    """Per-pattern compaction of a disjoint Pla by grouping its entries.

    Each exact output set's cubes are OR-ed into one BDD and re-read as one
    cube per path; compact() must produce exactly this cube list from the
    Pla that dsop() rewrote.
    """
    manager = Manager()
    manager.add_vars("x%d" % (i + 1) for i in range(pla.n))
    groups: dict[frozenset[int], list[Cube]] = {}
    for cube, outs in pla.entries:
        groups.setdefault(outs, []).append(cube)
    entries = []
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


def reference_compact(pla: Pla) -> Pla:
    """compact() by the product of BDDs: the OR of every row's cube and
    the m output BDDs on one x-only manager, walked together bottom-up and
    memoised, one region per pattern of (covered, f_1, ..., f_m) with
    covered = 1. compact() must produce exactly this cube list."""
    covered = cover_union(pla.n, [cube for cube, _ in pla.entries])
    manager = covered.manager
    root = (covered.node, *(f.node for f in to_functions(pla, manager)))
    # the levels of the state nodes: the walk reads no node it makes
    nodes, n = manager._nodes, pla.n
    levels = [n, n] + [lvl for lvl, _, _ in nodes[2:]]
    memo: dict = {}

    def walk(state):
        # {pattern: region node}, the pattern being the outputs i with f_i = 1
        if not state[0]:
            return {}
        if state not in memo:
            top = min(levels[u] for u in state)
            if top == n:
                regions = {frozenset(i for i, u in enumerate(state) if i and u): 1}
            else:
                lo = tuple(nodes[u][1] if levels[u] == top else u for u in state)
                hi = tuple(nodes[u][2] if levels[u] == top else u for u in state)
                low, high = walk(lo), walk(hi)
                regions = {
                    outs: manager._mk(top, low.get(outs, 0), high.get(outs, 0))
                    for outs in {**low, **high}
                }
            memo[state] = regions
        return memo[state]

    regions = walk(root)
    entries = []
    for outs in sorted(regions, key=lambda o: tuple(sorted(o))):
        for cube in manager.enumerate_paths(Func(manager, regions[outs]), n):
            entries.append((cube, outs))
    return Pla(
        pla.n,
        pla.m,
        entries,
        input_names=pla.input_names,
        output_names=pla.output_names,
        dsop_certified=True,
    )


def diagram_counts(pla: Pla) -> dict[frozenset[int], int]:
    """{output set: input count} over B^n from pla's row diagram, the
    reference for dsop.pla_counts: one pass over the diagram's nodes in
    descending id order, parents before children, in which the root
    weighs 2^n and each node at an input level hands half its weight to
    each child. A leaf is the first node at level n or more, so each leaf
    ends with the count of the inputs that reach it. Its mask is read off
    its chain of high edges with the covered bit, level n, masked off, so
    the uncovered inputs, whose leaf is the 1-terminal, and the inputs
    covered only by rows with no outputs add up to the empty pattern.
    Patterns come in pla_counts' ascending mask order (_outputs)."""
    n, m = pla.n, pla.m
    root, nodes = row_diagram(pla)
    weight = [0] * (root + 1)
    weight[root] = 1 << n
    leaves: dict[int, int] = {}
    # ids under the root that it does not reach keep weight 0
    for u in range(root, 0, -1):
        w = weight[u]
        if not w:
            continue
        level, lo, hi = nodes[u]
        if level < n:
            weight[lo] += w >> 1
            weight[hi] += w >> 1
            continue
        mask, x = 0, u
        while x != 1:
            level, _, x = nodes[x]
            # output i, at level n + i, is bit m - i of the mask
            if level > n:
                mask |= 1 << (n + m - level)
        leaves[mask] = leaves.get(mask, 0) + w
    return {_outputs(k, m): leaves[k] for k in sorted(leaves)}
